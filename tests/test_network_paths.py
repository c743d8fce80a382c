"""``Network`` routing against networkx as a test-only oracle.

The library routes on its own adjacency map; networkx is imported here
only, to check it.  Three properties:

- on graphs whose shortest paths are unique, ``path``, ``has_path``,
  ``reachable_from`` and ``transfer_seconds`` equal a
  reference built on ``nx.Graph``, through cuts, degradations and
  restores.  Latencies are distinct powers of two, so distinct simple
  paths have distinct (exactly summed) latencies;
- on graphs with ties, the returned path is a real, uncut path whose
  latency equals ``nx.shortest_path_length``, and every fresh network over
  the same links picks the same one (networkx's own tie choice depends on
  its version, so it is not compared); a diamond pins the tie rule
  documented on ``Network.path``;
- on the testbed, ``path`` equals the reference for every device subset.

The search is derandomized and small so tier-1 wall time stays bounded.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import Network
from repro.cluster.topology import build_testbed
from repro.profiles.communication import LINK_PROFILES, LinkProfile
from repro.profiles.devices import testbed_device_names as all_device_names
from repro.utils.errors import ConfigurationError

nx = pytest.importorskip("networkx")

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
PAYLOAD_BYTES = 150_000


def node_name(i: int) -> str:
    # Every third node is a router, as on the testbed.
    return f"r{i}-router" if i % 3 == 2 else f"n{i}"


@st.composite
def link_lists(draw, latencies):
    """Up to 12 distinct links over at most 8 nodes, in a drawn order."""
    n_nodes = draw(st.integers(2, 8))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda pair: tuple(sorted(pair)),
        )
    )
    values = draw(latencies(len(pairs)))
    bandwidths = draw(
        st.lists(st.sampled_from((1e6, 4e7, 1e9)), min_size=len(pairs), max_size=len(pairs))
    )
    return [
        LinkProfile(node_name(a), node_name(b), bandwidth, latency)
        for (a, b), latency, bandwidth in zip(pairs, values, bandwidths)
    ]


def distinct_powers_of_two(n: int):
    return st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True).map(
        lambda exponents: [2.0 ** -k for k in exponents]
    )


def tied_latencies(n: int):
    return st.lists(st.sampled_from((0.0, 1.0, 2.0)), min_size=n, max_size=n)


#: ``(link index, factor)``: 0.0 cuts, 1.0 restores, anything else degrades.
link_ops = st.lists(st.tuples(st.integers(0, 11), st.sampled_from((0.0, 0.25, 1.0))), max_size=4)


class Reference:
    """The same topology and factors, routed by networkx."""

    def __init__(self, links):
        self.graph = nx.Graph()
        for link in links:
            self.graph.add_edge(link.a, link.b, latency=link.latency_s, profile=link)
        self.factors = {}

    def degrade(self, link, factor):
        self.factors[frozenset((link.a, link.b))] = factor

    def routed(self):
        graph = self.graph.copy()
        for edge, factor in self.factors.items():
            if factor == 0.0:
                graph.remove_edge(*edge)
        return graph

    def transfer_seconds(self, src, dst, payload_bytes):
        if src == dst:
            return 0.0
        nodes = nx.shortest_path(self.routed(), src, dst, weight="latency")
        links = [self.graph.edges[a, b]["profile"] for a, b in zip(nodes, nodes[1:])]
        latency = sum(link.latency_s for link in links)
        bottleneck = min(
            link.bandwidth_bps * self.factors.get(frozenset((link.a, link.b)), 1.0)
            for link in links
        )
        return latency + payload_bytes * 8 / bottleneck


def assert_matches(network: Network, reference: Reference) -> None:
    routed = reference.routed()
    nodes = list(reference.graph.nodes)
    for src in nodes:
        assert network.reachable_from(src) == nx.node_connected_component(routed, src)
        for dst in nodes:
            connected = nx.has_path(routed, src, dst)
            assert network.has_path(src, dst) == connected
            if connected:
                assert network.path(src, dst) == nx.shortest_path(
                    routed, src, dst, weight="latency"
                )
                assert network.transfer_seconds(
                    src, dst, PAYLOAD_BYTES
                ) == reference.transfer_seconds(src, dst, PAYLOAD_BYTES)
            else:
                with pytest.raises(ConfigurationError, match="no network path"):
                    network.path(src, dst)


def states(links, ops):
    """A network and its reference, as built and after each op."""
    network, reference = Network(links), Reference(links)
    yield network, reference
    for index, factor in ops:
        link = links[index % len(links)]
        network.degrade_link(link.a, link.b, factor)
        reference.degrade(link, factor)
        yield network, reference


class TestUniqueShortestPaths:
    @PROPERTY_SETTINGS
    @given(links=link_lists(distinct_powers_of_two), ops=link_ops)
    def test_matches_networkx_through_cuts_and_restores(self, links, ops):
        for network, reference in states(links, ops):
            assert_matches(network, reference)

    def test_unknown_endpoint_rejected(self):
        network = Network()
        with pytest.raises(ConfigurationError, match="unknown endpoint"):
            network.path("jetson-a", "nowhere")
        with pytest.raises(ConfigurationError, match="unknown node"):
            network.reachable_from("nowhere")
        assert not network.has_path("nowhere", "jetson-a")
        assert not network.has_node("nowhere")
        assert network.has_node("pan-router")


class TestTiedPaths:
    def test_documented_tie_rule_on_a_diamond(self):
        """Two equal routes s -> t: the heap pops ``a`` (pushed first, as
        ``s``'s first link) before ``b``, and ``b`` does not strictly
        improve ``t``, so the route through ``a`` wins in both directions."""
        links = [
            LinkProfile("s", "a", 1e6, 1.0),
            LinkProfile("s", "b", 1e6, 1.0),
            LinkProfile("a", "t", 1e6, 1.0),
            LinkProfile("b", "t", 1e6, 1.0),
        ]
        network = Network(links)
        assert network.path("s", "t") == ["s", "a", "t"]
        assert network.path("t", "s") == ["t", "a", "s"]
        assert Network(links[::-1]).path("s", "t") == ["s", "b", "t"]

    @PROPERTY_SETTINGS
    @given(links=link_lists(tied_latencies), ops=link_ops)
    def test_shortest_and_stable_under_ties(self, links, ops):
        for network, reference in states(links, ops):
            routed = reference.routed()
            fresh = Network(links)
            for link in links:
                factor = reference.factors.get(frozenset((link.a, link.b)), 1.0)
                fresh.degrade_link(link.a, link.b, factor)
            for src, dst in itertools.product(routed.nodes, repeat=2):
                if not nx.has_path(routed, src, dst):
                    continue
                nodes = network.path(src, dst)
                assert nodes[0] == src and nodes[-1] == dst
                assert all(routed.has_edge(a, b) for a, b in zip(nodes, nodes[1:]))
                latency = sum(link.latency_s for link in network.path_links(src, dst))
                assert latency == nx.shortest_path_length(routed, src, dst, weight="latency")
                assert fresh.path(src, dst) == nodes


def test_testbed_paths_match_networkx_for_every_device_subset():
    reference = Reference(LINK_PROFILES).routed()
    names = all_device_names()
    for size in range(1, len(names) + 1):
        for subset in itertools.combinations(names, size):
            cluster = build_testbed(subset)
            for src, dst in itertools.product(cluster.device_names, repeat=2):
                assert cluster.network.path(src, dst) == nx.shortest_path(
                    reference, src, dst, weight="latency"
                )
