"""Unit helpers: conversions."""

import pytest

from repro.utils.units import (
    GB,
    KB,
    MB,
    million,
    params_to_bytes,
)


class TestConversions:
    def test_million(self):
        assert million(86) == 86_000_000

    def test_million_fractional(self):
        assert million(1.5) == 1_500_000

    def test_binary_units_are_powers_of_1024(self):
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_params_to_bytes_fp16_default(self):
        assert params_to_bytes(1000) == 2000

    def test_params_to_bytes_fp32(self):
        assert params_to_bytes(1000, bytes_per_param=4) == 4000

    def test_params_to_bytes_zero(self):
        assert params_to_bytes(0) == 0

    def test_params_to_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            params_to_bytes(-1)

