"""Unit helpers: conversions and formatting."""

import pytest

from repro.utils.units import (
    GB,
    KB,
    MB,
    format_bytes,
    format_params,
    format_seconds,
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


class TestFormatting:
    def test_format_params_millions(self):
        assert format_params(86_000_000) == "86M"

    def test_format_params_billions(self):
        assert format_params(1_100_000_000) == "1.1B"

    def test_format_params_thousands(self):
        assert format_params(52_000) == "52K"

    def test_format_params_small(self):
        assert format_params(42) == "42"

    def test_format_params_rejects_negative(self):
        with pytest.raises(ValueError):
            format_params(-5)

    def test_format_bytes_gb(self):
        assert format_bytes(2 * GB) == "2.0 GB"

    def test_format_bytes_mb(self):
        assert format_bytes(int(1.5 * MB)) == "1.5 MB"

    def test_format_bytes_small(self):
        assert format_bytes(100) == "100 B"

    def test_format_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_format_seconds(self):
        assert format_seconds(2.478) == "2.48s"
