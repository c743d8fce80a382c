"""Golden traversal pins for the three exact branch-and-bound solvers.

The bnb == brute property tests prove the solvers return the right
placement; these pins also freeze *how* the latency, energy and replica
searches get there — nodes visited, leaves priced, subtrees pruned — so a
change to the shared search core that alters the traversal (another visit
order, a looser bound, a different prune rule) fails in tier 1 instead of
only in the benchmark digest.  Objectives are compared with ``==``: the searches
are bit-identical to brute force, so their floats are exact pins too.
"""

import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.bnb import (
    BnBStats,
    branch_and_bound_placement,
    energy_branch_and_bound,
)
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.replicas import replica_branch_and_bound
from repro.core.placement.tensors import CongestionModel
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.profiles.devices import testbed_device_names as five_devices

from conftest import seeded_noisy_problem

PAPER_MODELS = ["clip-vit-b16", "encoder-vqa-small"]
PAPER_SOURCES = ("jetson-a", "desktop")


def instance(kind, seed):
    """``(problem, network, requests, model names)`` for a pinned case."""
    if kind == "synthetic":
        inst = synthetic_instance(4, 5, seed=seed)
        return inst.problem, inst.network, list(inst.requests), [inst.model.name]
    if kind == "replica":
        inst = synthetic_instance(3, 4, seed=seed)
        return inst.problem, inst.network, list(inst.requests), [inst.model.name]
    problem = seeded_noisy_problem(
        "bnb-golden", PAPER_MODELS, seed, devices=five_devices()
    )
    requests = [
        InferenceRequest.for_model(name, source)
        for name in PAPER_MODELS
        for source in PAPER_SOURCES
    ]
    return problem, Network(), requests, PAPER_MODELS


def congestion_for(names):
    return CongestionModel({name: 0.4 + 0.3 * i for i, name in enumerate(sorted(names))})


def hosts(placement):
    return sorted(placement.as_dict().items()) if placement is not None else None


def latency_case(kind, seed, mode):
    problem, network, requests, names = instance(kind, seed)
    stats = BnBStats()
    placement, objective = branch_and_bound_placement(
        problem, requests, network, parallel=mode != "serial", stats=stats,
        congestion=congestion_for(names) if mode == "congestion" else None,
    )
    return hosts(placement), objective, stats.nodes, stats.leaves, stats.pruned


def energy_case(kind, seed, mode):
    problem, network, requests, _ = instance(kind, seed)
    parallel = mode != "serial"
    model = LatencyModel(problem, network, parallel=parallel)
    budget = 1.5 * model.objective(requests, greedy_placement(problem))
    stats = BnBStats()
    placement, joules = energy_branch_and_bound(
        problem, requests, network, latency_budget=budget, parallel=parallel,
        tensors=model.tensors, stats=stats,
    )
    return hosts(placement), joules, stats.nodes, stats.leaves, stats.pruned


def replica_case(kind, seed, mode):
    problem, network, requests, names = instance(kind, seed)
    stats = BnBStats()
    placement, objective = replica_branch_and_bound(
        problem, requests, network, max_copies=2,
        congestion=congestion_for(names) if mode == "congestion" else None, stats=stats,
    )
    return hosts(placement), objective, stats.nodes, stats.leaves, stats.pruned


CASES = {"latency": latency_case, "energy": energy_case, "replica": replica_case}

#: ``(solver, instance kind, seed, mode) -> pinned result``.
PINS = {
    ('latency', 'synthetic', 0, 'parallel'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-00',))], 2.2135400234308813, 8, 2, 16),
    ('latency', 'synthetic', 0, 'serial'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-00',))], 4.198791883287938, 8, 2, 17),
    ('latency', 'synthetic', 0, 'congestion'): ([('enc-00', ('dev-02',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-04',))], 2.431234979063904, 24, 3, 86),
    ('energy', 'synthetic', 0, 'parallel'): ([('enc-00', ('dev-01',)), ('enc-01', ('dev-01',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 45.99449865767189, 4, 1, 16),
    ('energy', 'synthetic', 0, 'serial'): ([('enc-00', ('dev-01',)), ('enc-01', ('dev-01',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 45.99449865767189, 4, 1, 16),
    ('latency', 'synthetic', 1, 'parallel'): ([('enc-00', ('dev-03',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 1.7961179099820799, 10, 1, 26),
    ('latency', 'synthetic', 1, 'serial'): ([('enc-00', ('dev-04',)), ('enc-01', ('dev-04',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-04',))], 4.001141248211828, 11, 2, 40),
    ('latency', 'synthetic', 1, 'congestion'): ([('enc-00', ('dev-04',)), ('enc-01', ('dev-03',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-02',))], 1.9748588596479544, 35, 4, 124),
    ('energy', 'synthetic', 1, 'parallel'): ([('enc-00', ('dev-04',)), ('enc-01', ('dev-01',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 161.55955242842023, 12, 1, 43),
    ('energy', 'synthetic', 1, 'serial'): ([('enc-00', ('dev-04',)), ('enc-01', ('dev-01',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 161.55955242842023, 12, 1, 43),
    ('latency', 'synthetic', 2, 'parallel'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-04',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-00',))], 1.9010986636322218, 6, 1, 13),
    ('latency', 'synthetic', 2, 'serial'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-00',))], 4.447237623677589, 8, 2, 16),
    ('latency', 'synthetic', 2, 'congestion'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-04',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-01',))], 2.281878106429466, 26, 4, 91),
    ('energy', 'synthetic', 2, 'parallel'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 206.36032373942624, 16, 1, 59),
    ('energy', 'synthetic', 2, 'serial'): ([('enc-00', ('dev-01',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-01',))], 186.21230604741694, 26, 1, 94),
    ('latency', 'paper', 0, 'parallel'): ([('clip-trf-38m', ('server',)), ('clip-vit-b16-vision', ('desktop',)), ('cosine-similarity', ('server',)), ('vqa-classifier', ('desktop',))], 3.6495471391062786, 8, 2, 24),
    ('latency', 'paper', 0, 'serial'): ([('clip-trf-38m', ('server',)), ('clip-vit-b16-vision', ('desktop',)), ('cosine-similarity', ('server',)), ('vqa-classifier', ('server',))], 5.149498023628251, 37, 3, 143),
    ('latency', 'paper', 0, 'congestion'): ([('clip-trf-38m', ('server',)), ('clip-vit-b16-vision', ('server',)), ('cosine-similarity', ('desktop',)), ('vqa-classifier', ('desktop',))], 6.4809717201411505, 60, 3, 231),
    ('energy', 'paper', 0, 'parallel'): ([('clip-trf-38m', ('laptop',)), ('clip-vit-b16-vision', ('laptop',)), ('cosine-similarity', ('laptop',)), ('vqa-classifier', ('laptop',))], 181.35000694495548, 4, 1, 16),
    ('energy', 'paper', 0, 'serial'): ([('clip-trf-38m', ('laptop',)), ('clip-vit-b16-vision', ('laptop',)), ('cosine-similarity', ('laptop',)), ('vqa-classifier', ('laptop',))], 181.35000694495548, 4, 1, 16),
    ('latency', 'paper', 1, 'parallel'): ([('clip-trf-38m', ('server',)), ('clip-vit-b16-vision', ('desktop',)), ('cosine-similarity', ('server',)), ('vqa-classifier', ('desktop',))], 3.774729358316126, 8, 2, 24),
    ('latency', 'paper', 1, 'serial'): ([('clip-trf-38m', ('server',)), ('clip-vit-b16-vision', ('desktop',)), ('cosine-similarity', ('server',)), ('vqa-classifier', ('server',))], 5.297644880007429, 37, 3, 143),
    ('latency', 'paper', 1, 'congestion'): ([('clip-trf-38m', ('server',)), ('clip-vit-b16-vision', ('server',)), ('cosine-similarity', ('desktop',)), ('vqa-classifier', ('desktop',))], 6.695006849481602, 60, 3, 231),
    ('energy', 'paper', 1, 'parallel'): ([('clip-trf-38m', ('laptop',)), ('clip-vit-b16-vision', ('laptop',)), ('cosine-similarity', ('laptop',)), ('vqa-classifier', ('laptop',))], 181.86400205800552, 4, 1, 16),
    ('energy', 'paper', 1, 'serial'): ([('clip-trf-38m', ('laptop',)), ('clip-vit-b16-vision', ('laptop',)), ('cosine-similarity', ('laptop',)), ('vqa-classifier', ('laptop',))], 181.86400205800552, 4, 1, 16),
    ('replica', 'replica', 0, 'plain'): ([('enc-00', ('dev-00', 'dev-02')), ('enc-01', ('dev-00', 'dev-01')), ('synth-head', ('dev-00', 'dev-01'))], 1.7249179662369867, 54, 1, 424),
    ('replica', 'replica', 0, 'congestion'): ([('enc-00', ('dev-00', 'dev-02')), ('enc-01', ('dev-00', 'dev-01')), ('synth-head', ('dev-00', 'dev-03'))], 1.8254211023608249, 54, 3, 424),
    ('replica', 'replica', 1, 'plain'): ([('enc-00', ('dev-00', 'dev-02')), ('enc-01', ('dev-00', 'dev-02')), ('synth-head', ('dev-00', 'dev-02'))], 2.212882446167337, 4, 1, 16),
    ('replica', 'replica', 1, 'congestion'): ([('enc-00', ('dev-01', 'dev-02')), ('enc-01', ('dev-01', 'dev-03')), ('synth-head', ('dev-00', 'dev-01'))], 2.3791270367166653, 59, 4, 514),
    ('replica', 'replica', 2, 'plain'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00',)), ('synth-head', ('dev-00',))], 0.7592043277010849, 4, 1, 10),
    ('replica', 'replica', 2, 'congestion'): ([('enc-00', ('dev-00', 'dev-01')), ('enc-01', ('dev-00', 'dev-01')), ('synth-head', ('dev-00', 'dev-01'))], 0.8006852145289817, 56, 1, 481),
    ('replica', 'paper', 0, 'plain'): ([('clip-trf-38m', ('desktop', 'server')), ('clip-vit-b16-vision', ('desktop',)), ('cosine-similarity', ('desktop', 'server')), ('vqa-classifier', ('desktop',))], 3.6495471391062786, 5, 1, 23),
}


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda key: "-".join(map(str, key)))
def test_traversal_pinned(key):
    solver, kind, seed, mode = key
    assert CASES[solver](kind, seed, mode) == PINS[key]
