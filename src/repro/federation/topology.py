"""Federation topology: named edge clusters behind priced WAN links.

A federation is a set of **named edge clusters** — each one a full
single-cluster deployment (its own devices, Table III topology, and
placement solved by the existing per-cluster solvers) — joined by **WAN
links** that price cross-cluster forwarding.  Everything here is static,
validated configuration; the routing decisions live in
:mod:`repro.federation.router` and the execution in
:mod:`repro.federation.runtime`.

WAN cost model (all times **seconds**, payloads **megabytes**, bandwidth
**megabits per second**):

- forwarding a request of ``payload_mb`` over a link costs
  ``latency_s + payload_mb * 8 / bandwidth_mbps`` — propagation plus
  serialization, charged once on the forward path;
- the response returns over the same link; responses are small (an answer,
  not an embedding), so the return trip is charged ``latency_s`` only.

Clusters are identified by name; WAN links are undirected and unique per
cluster pair.  A cluster pair without a link simply cannot exchange
spillover (the router never considers it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.profiles.devices import DEVICE_PROFILES
from repro.utils.checks import is_finite_real

#: Frozen default for a cluster's timezone shift (seconds): no shift.
_ZERO_OFFSET_S = 0.0


def _require_finite_positive(name: str, value: float) -> None:
    if not is_finite_real(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ClusterSpec:
    """One named edge cluster of the federation.

    Args:
        name: Unique cluster name (sorted name order is the federation's
            canonical iteration order everywhere).
        rate_rps: Nominal local arrival rate in requests/second (the
            cluster's own user population).
        capacity_rps: Serving capacity in requests/second the admission
            router prices against — what the cluster sustains healthy;
            faults scale it by the live-device fraction.
        phase_offset_s: Timezone shift in seconds applied to the diurnal
            arrival process (see
            :class:`~repro.serving.workload.WorkloadGenerator`).
        region: Optional human label (e.g. ``"us-west"``'s region tag).
        device_names: Devices forming the cluster's pool; ``None`` uses
            the paper's four-edge-device testbed.
    """

    name: str
    rate_rps: float
    capacity_rps: float
    phase_offset_s: float = _ZERO_OFFSET_S
    region: str = ""
    device_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"cluster name must be a non-empty string, got {self.name!r}")
        _require_finite_positive("rate_rps", self.rate_rps)
        _require_finite_positive("capacity_rps", self.capacity_rps)
        if not is_finite_real(self.phase_offset_s):
            raise ValueError(f"phase_offset_s must be finite, got {self.phase_offset_s!r}")
        names = self.device_names
        if names is not None and (not isinstance(names, tuple) or not names):
            raise ValueError(f"device_names must be None or a non-empty tuple, got {names!r}")
        for device in names or ():
            if not isinstance(device, str) or device not in DEVICE_PROFILES:
                raise ValueError(f"device_names: unknown device {device!r}")


@dataclass(frozen=True)
class WanLink:
    """An undirected WAN link between two clusters.

    ``latency_s`` is the one-way propagation delay in seconds;
    ``bandwidth_mbps`` the link rate in megabits per second.
    """

    a: str
    b: str
    latency_s: float
    bandwidth_mbps: float

    def __post_init__(self) -> None:
        if not self.a or not self.b or self.a == self.b:
            raise ValueError(
                f"a WAN link needs two distinct cluster names, got {self.a!r}<->{self.b!r}"
            )
        _require_finite_positive("latency_s", self.latency_s)
        _require_finite_positive("bandwidth_mbps", self.bandwidth_mbps)

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical unordered endpoint pair (sorted names)."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class FederationTopology:
    """The validated federation graph: clusters plus WAN links."""

    clusters: Tuple[ClusterSpec, ...]
    links: Tuple[WanLink, ...] = ()
    _by_name: Dict[str, ClusterSpec] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _link_by_pair: Dict[Tuple[str, str], WanLink] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.clusters) < 1:
            raise ValueError("a federation needs at least one cluster")
        by_name: Dict[str, ClusterSpec] = {}
        for spec in self.clusters:
            if spec.name in by_name:
                raise ValueError(f"duplicate cluster name {spec.name!r}")
            by_name[spec.name] = spec
        link_by_pair: Dict[Tuple[str, str], WanLink] = {}
        for link in self.links:
            for endpoint in link.key:
                if endpoint not in by_name:
                    raise ValueError(
                        f"WAN link {link.a!r}<->{link.b!r} references unknown "
                        f"cluster {endpoint!r}"
                    )
            if link.key in link_by_pair:
                raise ValueError(f"duplicate WAN link {link.key[0]!r}<->{link.key[1]!r}")
            link_by_pair[link.key] = link
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_link_by_pair", link_by_pair)

    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Cluster names in canonical (sorted) order."""
        return tuple(sorted(self._by_name))

    def cluster(self, name: str) -> ClusterSpec:
        """Look up a cluster spec by name (raises ``KeyError`` if unknown)."""
        return self._by_name[name]

    def link(self, a: str, b: str) -> Optional[WanLink]:
        """The WAN link between two clusters, or ``None`` if unlinked."""
        return self._link_by_pair.get((a, b) if a <= b else (b, a))

    def neighbors(self, name: str) -> Tuple[str, ...]:
        """Clusters directly linked to ``name``, in sorted order."""
        if name not in self._by_name:
            raise KeyError(name)
        out = []
        for key in sorted(self._link_by_pair):
            if name in key:
                out.append(key[0] if key[1] == name else key[1])
        return tuple(sorted(out))

    def wan_delay_s(self, a: str, b: str, payload_mb: float) -> float:
        """Forward-path delay in **seconds** for shipping ``payload_mb``
        megabytes from cluster ``a`` to ``b``: link latency plus payload
        serialization (``payload_mb * 8 / bandwidth_mbps``).

        Raises :class:`ValueError` when the clusters are not linked or the
        payload is negative/non-finite.
        """
        link = self.link(a, b)
        if link is None:
            raise ValueError(f"no WAN link between {a!r} and {b!r}")
        payload_mb = float(payload_mb)
        if not math.isfinite(payload_mb) or payload_mb < 0:
            raise ValueError(f"payload_mb must be non-negative and finite, got {payload_mb}")
        return link.latency_s + payload_mb * 8.0 / link.bandwidth_mbps

    def return_delay_s(self, a: str, b: str) -> float:
        """Response return delay in **seconds** between two linked clusters
        (propagation only: responses are answers, not payloads)."""
        link = self.link(a, b)
        if link is None:
            raise ValueError(f"no WAN link between {a!r} and {b!r}")
        return link.latency_s
