"""The PAN/MAN network: transfer pricing over the testbed topology.

Transfers are priced analytically (path latency + serialization at the
bottleneck link).  The paper measures communication to be negligible within
the PAN and dominated by the residential MAN uplink, and explicitly notes
that short-term network variation barely moves end-to-end latency
(Sec. VI-C), so we model neither per-link queueing nor jitter: a transfer's
price depends only on the topology and its degraded links.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.profiles.communication import LINK_PROFILES, LinkProfile
from repro.utils.errors import ConfigurationError


class Network:
    """A weighted undirected graph of devices, routers and links.

    Stored as an insertion-ordered adjacency map ``node -> {neighbour:
    LinkProfile}``: nodes in order of first appearance, each node's
    neighbours in link-insertion order.  Re-adding a link replaces its
    profile in place.
    """

    def __init__(self, links: Optional[Iterable[LinkProfile]] = None) -> None:
        self._adj: Dict[str, Dict[str, LinkProfile]] = {}
        self._version = 0
        # Bandwidth multipliers for degraded links, keyed by sorted endpoint
        # pair.  0.0 cuts the link (removed from routing entirely); absent
        # means nominal.  Kept separate from the profiles so restoring is
        # exact: the original LinkProfile is never mutated.
        self._degraded: Dict[Tuple[str, str], float] = {}
        for link in links if links is not None else LINK_PROFILES:
            self.add_link(link)
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}

    def add_link(self, link: LinkProfile) -> None:
        """Install a link; endpoints are created implicitly."""
        self._adj.setdefault(link.a, {})[link.b] = link
        self._adj.setdefault(link.b, {})[link.a] = link
        self._path_cache = {}
        self._version += 1

    @property
    def version(self) -> int:
        """Bumped on every topology or link-degradation change; cost-tensor
        caches built against this network (see
        :mod:`repro.core.placement.tensors`) compare versions to know when
        to rebuild."""
        return self._version

    # ------------------------------------------------------------------
    # Link degradation (fault injection)
    # ------------------------------------------------------------------
    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def has_node(self, node: str) -> bool:
        """Whether ``node`` is an endpoint of some link."""
        return node in self._adj

    def has_link(self, a: str, b: str) -> bool:
        """Whether the topology has a direct link between two nodes."""
        return b in self._adj.get(a, ())

    def degrade_link(self, a: str, b: str, factor: float) -> None:
        """Scale one link's effective bandwidth by ``factor``.

        ``factor == 0`` **cuts** the link: it disappears from routing, and
        nodes it disconnects become unreachable (``path`` raises, exactly
        like a missing topology edge).  ``factor == 1`` restores nominal.
        The link's latency is unchanged — degradation models contention on
        the pipe, not a longer route.
        """
        if not self.has_link(a, b):
            raise ConfigurationError(f"cannot degrade unknown link {a!r} <-> {b!r}")
        if not isinstance(factor, (int, float)) or not math.isfinite(factor) or factor < 0:
            raise ValueError(f"link factor must be finite and >= 0, got {factor!r}")
        key = self._link_key(a, b)
        if factor == 1.0:
            self._degraded.pop(key, None)
        else:
            self._degraded[key] = float(factor)
        self._path_cache = {}
        self._version += 1

    def restore_link(self, a: str, b: str) -> None:
        """Return one link to nominal bandwidth (undo :meth:`degrade_link`)."""
        self.degrade_link(a, b, 1.0)

    def _neighbours(self, node: str) -> Iterable[Tuple[str, LinkProfile]]:
        """``node``'s routable neighbours, in link-insertion order; cut
        links (factor ``0.0``) are skipped."""
        links = self._adj[node].items()
        if not self._degraded:
            return links
        degraded = self._degraded
        return [
            (other, link)
            for other, link in links
            if degraded.get(self._link_key(node, other), 1.0) > 0.0
        ]

    # ------------------------------------------------------------------
    # Path queries
    # ------------------------------------------------------------------
    def path(self, src: str, dst: str) -> List[str]:
        """Lowest-latency path between two nodes (cached), cuts respected.

        Dijkstra on ``latency_s``.  Among equal-latency paths the choice is
        fixed: the heap orders entries by ``(distance, push counter)``,
        neighbours are relaxed in link-insertion order, and a node's
        predecessor changes only on a strict improvement.  Every topology
        the repo builds (the testbed tree, the synthetic star) has a unique
        shortest path, so the rule only matters for user-built graphs.
        """
        key = (src, dst)
        if key not in self._path_cache:
            if src not in self._adj or dst not in self._adj:
                raise ConfigurationError(f"unknown endpoint in transfer {src!r} -> {dst!r}")
            self._path_cache[key] = self._dijkstra(src, dst)
        return self._path_cache[key]

    def _dijkstra(self, src: str, dst: str) -> List[str]:
        dist: Dict[str, float] = {src: 0.0}
        pred: Dict[str, str] = {}
        heap: List[Tuple[float, int, str]] = [(0.0, 0, src)]
        pushes = 1
        while heap:
            d, _, node = heapq.heappop(heap)
            if d > dist[node]:
                continue  # superseded by a strictly shorter entry
            if node == dst:
                nodes = [dst]
                while nodes[-1] != src:
                    nodes.append(pred[nodes[-1]])
                return nodes[::-1]
            for other, link in self._neighbours(node):
                candidate = d + link.latency_s
                if candidate < dist.get(other, math.inf):
                    dist[other] = candidate
                    pred[other] = node
                    heapq.heappush(heap, (candidate, pushes, other))
                    pushes += 1
        raise ConfigurationError(f"no network path {src!r} -> {dst!r}")

    def has_path(self, src: str, dst: str) -> bool:
        """Whether a route currently exists (cuts respected)."""
        try:
            self.path(src, dst)
        except ConfigurationError:
            return False
        return True

    def reachable_from(self, src: str) -> Set[str]:
        """All nodes routable from ``src`` under the current cuts."""
        if src not in self._adj:
            raise ConfigurationError(f"unknown node {src!r}")
        seen = {src}
        stack = [src]
        while stack:
            for other, _ in self._neighbours(stack.pop()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return seen

    def path_links(self, src: str, dst: str) -> List[LinkProfile]:
        """The link profiles along the routing path."""
        nodes = self.path(src, dst)
        return [self._adj[a][b] for a, b in zip(nodes, nodes[1:])]

    # ------------------------------------------------------------------
    # Transfer pricing
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> Tuple[float, float]:
        """``(latency, bottleneck)`` between two nodes: the summed per-hop
        latency in seconds and the narrowest (degraded) link bandwidth in
        bits per second.  ``(0.0, inf)`` when the endpoints coincide (the
        paper only transmits "if the requester device and the device to
        encode the data are different")."""
        if src == dst:
            return 0.0, math.inf
        links = self.path_links(src, dst)
        latency = sum(link.latency_s for link in links)
        if not self._degraded:
            bottleneck = min(link.bandwidth_bps for link in links)
        else:
            bottleneck = min(
                link.bandwidth_bps
                * self._degraded.get(self._link_key(link.a, link.b), 1.0)
                for link in links
            )
        return latency, bottleneck

    def transfer_seconds(self, src: str, dst: str, payload_bytes: int) -> float:
        """Time to move ``payload_bytes`` from ``src`` to ``dst`` (zero when
        the endpoints coincide): path latency + serialization at the
        bottleneck, see :func:`transfer_time`."""
        return transfer_time(self.route(src, dst), payload_bytes)


def transfer_time(route, payload_bytes: int):
    """Seconds to move ``payload_bytes`` over a ``(latency, bottleneck)``
    route from :meth:`Network.route`: ``latency + payload * 8 / bottleneck``.

    The one transfer formula: ``Network.transfer_seconds`` applies it to one
    route, and :class:`~repro.core.placement.tensors.CostTensors` to whole
    arrays of routes (elementwise, so every entry is the same double).
    A coinciding pair's ``(0.0, inf)`` route prices ``0.0 + x / inf == 0.0``.
    """
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be non-negative, got {payload_bytes}")
    latency, bottleneck = route
    return latency + payload_bytes * 8 / bottleneck
