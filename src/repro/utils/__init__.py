"""Shared utilities: errors, units, deterministic seeding."""

from repro.utils.errors import (
    CapacityError,
    ConfigurationError,
    PlacementError,
    ReproError,
    RoutingError,
)
from repro.utils.seeding import derive_seed, rng_for
from repro.utils.units import (
    GB,
    KB,
    MB,
    million,
    params_to_bytes,
)

__all__ = [
    "CapacityError",
    "ConfigurationError",
    "PlacementError",
    "ReproError",
    "RoutingError",
    "derive_seed",
    "rng_for",
    "GB",
    "KB",
    "MB",
    "million",
    "params_to_bytes",
]
