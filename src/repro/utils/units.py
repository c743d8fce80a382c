"""Unit helpers: bytes, parameter counts, and human-readable formatting.

The paper reports module sizes in parameters (Table V) and device memory in
GB (Table III).  Throughout the library, parameter counts are plain ints and
memory sizes are bytes (ints); these helpers convert and pretty-print both.
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


def format_params(params: int) -> str:
    """Human-readable parameter count, matching the paper's style (38M, 1.1B)."""
    if params < 0:
        raise ValueError(f"params must be non-negative, got {params}")
    if params >= 1_000_000_000:
        return f"{params / 1_000_000_000:.1f}B"
    if params >= 1_000_000:
        return f"{params / 1_000_000:.0f}M"
    if params >= 1_000:
        return f"{params / 1_000:.0f}K"
    return str(params)


def format_bytes(size: int) -> str:
    """Human-readable byte size (binary units)."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if size >= GB:
        return f"{size / GB:.1f} GB"
    if size >= MB:
        return f"{size / MB:.1f} MB"
    if size >= KB:
        return f"{size / KB:.1f} KB"
    return f"{size} B"


def format_seconds(seconds: float) -> str:
    """Latency formatting used by the experiment reports (two decimals)."""
    return f"{seconds:.2f}s"
