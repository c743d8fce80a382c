"""Unit helpers: bytes, parameter counts, and human-readable formatting.

The paper reports module sizes in parameters (Table V) and device memory in
GB (Table III).  Throughout the library, parameter counts are plain ints and
memory sizes are bytes (ints); these helpers convert between them.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

#: Bytes per parameter for fp16 checkpoints, the paper's deployment format.
BYTES_PER_PARAM_FP16: int = 2
#: Bytes per parameter for fp32 checkpoints.
BYTES_PER_PARAM_FP32: int = 4


def million(value: float) -> int:
    """Return ``value`` millions as an integer count (e.g. ``million(86) == 86_000_000``)."""
    return int(round(value * 1_000_000))


def params_to_bytes(params: int, bytes_per_param: float = BYTES_PER_PARAM_FP16) -> int:
    """Memory footprint of a module with ``params`` parameters.

    The paper's memory constraint (Eq. 4d) is expressed in module memory
    requirements ``r_m``; we model those as checkpoint bytes plus a small
    activation head-room factor folded into the device capacities instead.
    """
    if params < 0:
        raise ValueError(f"params must be non-negative, got {params}")
    return int(params * bytes_per_param)

