"""Network link profiles for the PAN/MAN testbed (paper Sec. VI).

The home PAN has a wired desktop + Jetson B and a Wi-Fi laptop + Jetson A,
all behind one router; the server sits across a MAN uplink.  The paper's key
communication facts, which these numbers reproduce:

- intra-PAN transfers are negligible next to compute (Fig. 3: "transmission
  ... nearly invisible");
- reaching the cloud costs noticeably more — residential uplinks are slow,
  so shipping a 150 KB image to the server adds >1 s, which is why the
  centralized-server inference column of Table VI sits near 2.4 s even
  though the P40 computes in under a second;
- per-packet RTT: ~2-5 ms inside the PAN, ~14 ms to the paper's dedicated
  server (the paper notes ChatGPT-class services see 13-15 ms per packet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.utils.errors import ConfigurationError

#: Router node names used by the topology builder.
PAN_ROUTER = "pan-router"
MAN_GATEWAY = "man-gateway"


@dataclass(frozen=True)
class LinkProfile:
    """A point-to-point link: endpoints, bandwidth, one-way latency."""

    a: str
    b: str
    bandwidth_bps: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigurationError(f"link {self.a}-{self.b}: endpoints a and b must differ")
        if not (math.isfinite(self.bandwidth_bps) and self.bandwidth_bps > 0):
            raise ConfigurationError(
                f"link {self.a}-{self.b}: bandwidth_bps must be finite and positive, "
                f"got {self.bandwidth_bps!r}"
            )
        if not (math.isfinite(self.latency_s) and self.latency_s >= 0):
            raise ConfigurationError(
                f"link {self.a}-{self.b}: latency_s must be finite and non-negative, "
                f"got {self.latency_s!r}"
            )


def _mbps(value: float) -> float:
    return value * 1_000_000


#: The testbed's links.  The MAN uplink (router -> gateway) is the
#: residential bottleneck; the server has a fat pipe to the gateway.
LINK_PROFILES: List[LinkProfile] = [
    LinkProfile("desktop", PAN_ROUTER, _mbps(1000), 0.001),
    LinkProfile("jetson-b", PAN_ROUTER, _mbps(100), 0.001),
    LinkProfile("laptop", PAN_ROUTER, _mbps(160), 0.003),
    LinkProfile("jetson-a", PAN_ROUTER, _mbps(40), 0.003),
    LinkProfile(PAN_ROUTER, MAN_GATEWAY, _mbps(1.0), 0.007),
    LinkProfile("server", MAN_GATEWAY, _mbps(1000), 0.007),
    LinkProfile("server-cpu", MAN_GATEWAY, _mbps(1000), 0.007),
]
