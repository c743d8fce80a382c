"""Boundary checks for numbers that arrive from callers.

``True`` is an ``int`` to Python, and NaN fails every comparison, so a
range check such as ``value <= 0`` alone lets ``True``, NaN and inf in.
"""

from __future__ import annotations

import math
import numbers


def is_finite_real(value: object) -> bool:
    """A finite real number that is not a ``bool``."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def is_count(value: object) -> bool:
    """An ``int`` that is not a ``bool`` (``2.0`` is no count either)."""
    return isinstance(value, int) and not isinstance(value, bool)
