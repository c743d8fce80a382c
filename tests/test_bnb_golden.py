"""Golden traversal pins for the three exact branch-and-bound solvers.

The bnb == brute property tests prove the solvers return the right
placement; these pins also freeze *how* the latency, energy and replica
searches get there — nodes visited, leaves priced, subtrees pruned — so a
change to the shared search core that alters the traversal (another visit
order, a looser bound, a different prune rule) fails in tier 1 instead of
only in the benchmark digest.  Objectives are compared with ``==``: the searches
are bit-identical to brute force, so their floats are exact pins too.

The ``bench`` and ``bench-replica`` kinds are the ``solve`` benchmark's own
instance shapes, and every energy case also pins the assignment the energy
search starts from (greedy, then its budgeted energy descent).

``REPLICA_SLOW_PINS`` (``-m slow``) pins the replica search on larger
shapes: ``synthetic_instance(5, 6, n_requests=6)`` with two copies for
seeds 0-2 and 4 and 6-11 (seeds 0, 4 and 7 are the heavy tail: 5,445 to
10,602 nodes, 30-60 s when they were recorded), plus 5 x 8 seed 1, the
replica sweep's largest row.  Seeds 3 and 5 are not pinned.

``SWEEP_PINS`` pins brute force's placement and objective on every solver
sweep row that the ``BENCH_*.json`` records run brute force on.  Tier 1
checks the branch-and-bound against each pin; brute force proves them, under
``-m slow`` where it takes seconds.
"""

import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.bnb import (
    BnBStats,
    _EnergySearch,
    _energy_incumbent,
    branch_and_bound_placement,
    energy_branch_and_bound,
)
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.optimal import energy_optimal_placement, optimal_placement
from repro.core.placement.replicas import replica_branch_and_bound, replica_optimal_placement
from repro.core.placement.tensors import CongestionModel, EnergyTensors
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.profiles.devices import testbed_device_names as five_devices

from conftest import seeded_noisy_problem

PAPER_MODELS = ["clip-vit-b16", "encoder-vqa-small"]
PAPER_SOURCES = ("jetson-a", "desktop")


#: Synthetic instance shapes (modules x devices); ``bench`` and
#: ``bench-replica`` are the ``solve`` benchmark's own shapes.
SHAPES = {"synthetic": (4, 5), "replica": (3, 4), "bench": (4, 8), "bench-replica": (2, 6)}


def instance(kind, seed):
    """``(problem, network, requests, model names)`` for a pinned case."""
    if kind in SHAPES:
        inst = synthetic_instance(*SHAPES[kind], seed=seed)
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


def energy_setup(kind, seed, mode):
    """``(problem, network, requests, model, budget)``: 1.5 x greedy's latency."""
    problem, network, requests, _ = instance(kind, seed)
    model = LatencyModel(problem, network, parallel=mode != "serial")
    budget = 1.5 * model.objective(requests, greedy_placement(problem))
    return problem, network, requests, model, budget


def energy_case(kind, seed, mode):
    problem, network, requests, model, budget = energy_setup(kind, seed, mode)
    stats = BnBStats()
    placement, joules = energy_branch_and_bound(
        problem, requests, network, latency_budget=budget, parallel=model.parallel,
        tensors=model.tensors, stats=stats,
    )
    return hosts(placement), joules, stats.nodes, stats.leaves, stats.pruned


def incumbent_case(kind, seed, mode):
    """The energy search's seed: greedy, then the budgeted energy descent."""
    _, _, requests, model, budget = energy_setup(kind, seed, mode)
    tensors = model.tensors
    search = _EnergySearch(tensors, EnergyTensors(tensors), requests, budget)
    assign = _energy_incumbent(search)
    if assign is None:
        return None
    return sorted(
        (tensors.module_names[m], tensors.device_names[int(n)]) for m, n in enumerate(assign)
    )


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
    ('latency', 'bench', 0, 'parallel'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-07',)), ('enc-02', ('dev-02',)), ('synth-head', ('dev-07',))], 2.2989573328331017, 8, 2, 44),
    ('latency', 'bench', 0, 'serial'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-07',)), ('enc-02', ('dev-07',)), ('synth-head', ('dev-07',))], 5.1048232470083645, 9, 2, 56),
    ('latency', 'bench', 0, 'congestion'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-07',)), ('enc-02', ('dev-05',)), ('synth-head', ('dev-02',))], 2.883407848334436, 36, 3, 237),
    ('energy', 'bench', 0, 'parallel'): ([('enc-00', ('dev-02',)), ('enc-01', ('dev-02',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-02',))], 189.25418814374785, 25, 1, 175),
    ('energy', 'bench', 0, 'serial'): ([('enc-00', ('dev-02',)), ('enc-01', ('dev-02',)), ('enc-02', ('dev-02',)), ('synth-head', ('dev-02',))], 145.77224969079876, 4, 1, 28),
    ('replica', 'bench-replica', 0, 'plain'): ([('enc-00', ('dev-00',)), ('synth-head', ('dev-00',))], 1.8880454115747836, 3, 1, 21),
    ('replica', 'bench-replica', 0, 'congestion'): ([('enc-00', ('dev-00', 'dev-01')), ('synth-head', ('dev-01', 'dev-03'))], 2.001600967103567, 24, 1, 450),
    ('latency', 'bench', 1, 'parallel'): ([('enc-00', ('dev-01',)), ('enc-01', ('dev-05',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-05',))], 3.5904410198869545, 8, 2, 39),
    ('latency', 'bench', 1, 'serial'): ([('enc-00', ('dev-03',)), ('enc-01', ('dev-05',)), ('enc-02', ('dev-02',)), ('synth-head', ('dev-03',))], 8.685752338422144, 8, 2, 41),
    ('latency', 'bench', 1, 'congestion'): ([('enc-00', ('dev-03',)), ('enc-01', ('dev-05',)), ('enc-02', ('dev-07',)), ('synth-head', ('dev-04',))], 5.270266000080689, 47, 2, 320),
    ('energy', 'bench', 1, 'parallel'): ([('enc-00', ('dev-01',)), ('enc-01', ('dev-05',)), ('enc-02', ('dev-02',)), ('synth-head', ('dev-02',))], 499.65122374393707, 11, 1, 77),
    ('energy', 'bench', 1, 'serial'): ([('enc-00', ('dev-01',)), ('enc-01', ('dev-02',)), ('enc-02', ('dev-02',)), ('synth-head', ('dev-02',))], 203.87810109598166, 27, 1, 189),
    ('replica', 'bench-replica', 1, 'plain'): ([('enc-00', ('dev-00',)), ('synth-head', ('dev-00',))], 1.4924229318517122, 3, 1, 21),
    ('replica', 'bench-replica', 1, 'congestion'): ([('enc-00', ('dev-00', 'dev-02')), ('synth-head', ('dev-01', 'dev-02'))], 1.569992661725228, 25, 3, 468),
    ('latency', 'bench', 2, 'parallel'): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-05',)), ('synth-head', ('dev-05',))], 1.356773336539885, 5, 1, 18),
    ('latency', 'bench', 2, 'serial'): ([('enc-00', ('dev-05',)), ('enc-01', ('dev-05',)), ('enc-02', ('dev-05',)), ('synth-head', ('dev-05',))], 2.393970444075478, 10, 2, 62),
    ('latency', 'bench', 2, 'congestion'): ([('enc-00', ('dev-03',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-05',)), ('synth-head', ('dev-04',))], 1.4999279949064492, 44, 4, 284),
    ('energy', 'bench', 2, 'parallel'): ([('enc-00', ('dev-02',)), ('enc-01', ('dev-02',)), ('enc-02', ('dev-00',)), ('synth-head', ('dev-02',))], 135.3576755110866, 11, 1, 77),
    ('energy', 'bench', 2, 'serial'): ([('enc-00', ('dev-03',)), ('enc-01', ('dev-02',)), ('enc-02', ('dev-02',)), ('synth-head', ('dev-02',))], 115.07361138080253, 25, 2, 166),
    ('replica', 'bench-replica', 2, 'plain'): ([('enc-00', ('dev-00',)), ('synth-head', ('dev-00',))], 3.492647410370791, 3, 1, 21),
    ('replica', 'bench-replica', 2, 'congestion'): ([('enc-00', ('dev-00', 'dev-01')), ('synth-head', ('dev-01', 'dev-03'))], 3.874811946340495, 24, 2, 449),
}


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda key: "-".join(map(str, key)))
def test_traversal_pinned(key):
    solver, kind, seed, mode = key
    assert CASES[solver](kind, seed, mode) == PINS[key]


#: ``(instance kind, seed, mode) -> `` the energy search's incumbent, as
#: sorted ``(module, device)`` pairs, for every energy case above.
INCUMBENT_PINS = {
    ('synthetic', 0, 'parallel'): [('enc-00', 'dev-01'), ('enc-01', 'dev-01'), ('enc-02', 'dev-01'), ('synth-head', 'dev-01')],
    ('synthetic', 0, 'serial'): [('enc-00', 'dev-01'), ('enc-01', 'dev-01'), ('enc-02', 'dev-01'), ('synth-head', 'dev-01')],
    ('synthetic', 1, 'parallel'): [('enc-00', 'dev-04'), ('enc-01', 'dev-01'), ('enc-02', 'dev-01'), ('synth-head', 'dev-01')],
    ('synthetic', 1, 'serial'): [('enc-00', 'dev-04'), ('enc-01', 'dev-01'), ('enc-02', 'dev-01'), ('synth-head', 'dev-01')],
    ('synthetic', 2, 'parallel'): [('enc-00', 'dev-00'), ('enc-01', 'dev-01'), ('enc-02', 'dev-00'), ('synth-head', 'dev-01')],
    ('synthetic', 2, 'serial'): [('enc-00', 'dev-01'), ('enc-01', 'dev-00'), ('enc-02', 'dev-00'), ('synth-head', 'dev-01')],
    ('paper', 0, 'parallel'): [('clip-trf-38m', 'laptop'), ('clip-vit-b16-vision', 'laptop'), ('cosine-similarity', 'laptop'), ('vqa-classifier', 'laptop')],
    ('paper', 0, 'serial'): [('clip-trf-38m', 'laptop'), ('clip-vit-b16-vision', 'laptop'), ('cosine-similarity', 'laptop'), ('vqa-classifier', 'laptop')],
    ('paper', 1, 'parallel'): [('clip-trf-38m', 'laptop'), ('clip-vit-b16-vision', 'laptop'), ('cosine-similarity', 'laptop'), ('vqa-classifier', 'laptop')],
    ('paper', 1, 'serial'): [('clip-trf-38m', 'laptop'), ('clip-vit-b16-vision', 'laptop'), ('cosine-similarity', 'laptop'), ('vqa-classifier', 'laptop')],
    ('bench', 0, 'parallel'): [('enc-00', 'dev-02'), ('enc-01', 'dev-02'), ('enc-02', 'dev-00'), ('synth-head', 'dev-02')],
    ('bench', 0, 'serial'): [('enc-00', 'dev-02'), ('enc-01', 'dev-02'), ('enc-02', 'dev-02'), ('synth-head', 'dev-02')],
    ('bench', 1, 'parallel'): [('enc-00', 'dev-01'), ('enc-01', 'dev-05'), ('enc-02', 'dev-02'), ('synth-head', 'dev-02')],
    ('bench', 1, 'serial'): [('enc-00', 'dev-01'), ('enc-01', 'dev-02'), ('enc-02', 'dev-02'), ('synth-head', 'dev-02')],
    ('bench', 2, 'parallel'): [('enc-00', 'dev-02'), ('enc-01', 'dev-02'), ('enc-02', 'dev-00'), ('synth-head', 'dev-02')],
    ('bench', 2, 'serial'): [('enc-00', 'dev-02'), ('enc-01', 'dev-02'), ('enc-02', 'dev-00'), ('synth-head', 'dev-02')],
}


def test_incumbents_cover_every_energy_case():
    assert sorted(INCUMBENT_PINS) == sorted(key[1:] for key in PINS if key[0] == "energy")


@pytest.mark.parametrize("key", sorted(INCUMBENT_PINS), ids=lambda key: "-".join(map(str, key)))
def test_energy_incumbent_pinned(key):
    assert incumbent_case(*key) == INCUMBENT_PINS[key]


#: ``(modules, devices, seed) -> pinned result`` of the replica search on
#: ``synthetic_instance(modules, devices, seed=seed, n_requests=6)`` with
#: ``max_copies=2``.
REPLICA_SLOW_PINS = {
    (5, 6, 0): ([('enc-00', ('dev-00', 'dev-02')), ('enc-01', ('dev-00', 'dev-01')), ('enc-02', ('dev-00', 'dev-05')), ('enc-03', ('dev-00', 'dev-01')), ('synth-head', ('dev-00', 'dev-05'))], 1.5892237570723136, 5894, 1, 117633),
    (5, 6, 1): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00', 'dev-03')), ('enc-02', ('dev-00', 'dev-01')), ('enc-03', ('dev-00',)), ('synth-head', ('dev-00',))], 1.6575797353735446, 309, 1, 6061),
    (5, 6, 2): ([('enc-00', ('dev-00', 'dev-01')), ('enc-01', ('dev-00', 'dev-02')), ('enc-02', ('dev-00', 'dev-02')), ('enc-03', ('dev-00', 'dev-05')), ('synth-head', ('dev-00', 'dev-05'))], 1.5913952181001274, 70, 1, 1310),
    (5, 6, 4): ([('enc-00', ('dev-00', 'dev-03')), ('enc-01', ('dev-00', 'dev-01')), ('enc-02', ('dev-00', 'dev-01')), ('enc-03', ('dev-00', 'dev-03')), ('synth-head', ('dev-00', 'dev-01'))], 3.1775164806174887, 5445, 4, 108681),
    (5, 6, 6): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00', 'dev-03')), ('enc-02', ('dev-00', 'dev-04')), ('enc-03', ('dev-00',)), ('synth-head', ('dev-00', 'dev-03'))], 3.1573018000011035, 94, 1, 1791),
    (5, 6, 7): ([('enc-00', ('dev-00', 'dev-05')), ('enc-01', ('dev-00',)), ('enc-02', ('dev-00', 'dev-03')), ('enc-03', ('dev-00',)), ('synth-head', ('dev-03', 'dev-05'))], 1.7479477506561458, 10602, 1, 192850),
    (5, 6, 8): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00', 'dev-03')), ('enc-02', ('dev-00', 'dev-01')), ('enc-03', ('dev-00',)), ('synth-head', ('dev-00',))], 3.302815959466571, 133, 1, 2401),
    (5, 6, 9): ([('enc-00', ('dev-00', 'dev-01')), ('enc-01', ('dev-00', 'dev-02')), ('enc-02', ('dev-00', 'dev-01')), ('enc-03', ('dev-00', 'dev-02')), ('synth-head', ('dev-00', 'dev-02'))], 3.2804346188794407, 7, 1, 49),
    (5, 6, 10): ([('enc-00', ('dev-00', 'dev-04')), ('enc-01', ('dev-00', 'dev-03')), ('enc-02', ('dev-00',)), ('enc-03', ('dev-00',)), ('synth-head', ('dev-00', 'dev-04'))], 4.159421804069586, 6, 1, 32),
    (5, 6, 11): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00', 'dev-05')), ('enc-02', ('dev-00', 'dev-01')), ('enc-03', ('dev-00', 'dev-01')), ('synth-head', ('dev-00', 'dev-05'))], 3.3431766876088598, 6, 1, 33),
    (5, 8, 1): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00', 'dev-03')), ('enc-02', ('dev-00', 'dev-06')), ('enc-03', ('dev-00', 'dev-01')), ('synth-head', ('dev-00', 'dev-06'))], 2.4204013233939565, 436, 2, 15101),
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "key", sorted(REPLICA_SLOW_PINS), ids=lambda key: "x".join(map(str, key[:2])) + f"-{key[2]}"
)
def test_replica_traversal_pinned_slow(key):
    n_modules, n_devices, seed = key
    inst = synthetic_instance(n_modules, n_devices, seed=seed, n_requests=6)
    stats = BnBStats()
    placement, objective = replica_branch_and_bound(
        inst.problem, list(inst.requests), inst.network, max_copies=2, stats=stats,
    )
    got = (hosts(placement), objective, stats.nodes, stats.leaves, stats.pruned)
    assert got == REPLICA_SLOW_PINS[key]


#: ``(solver, modules, devices, max_copies) -> (placement, objective)`` of
#: brute force on the solver sweep rows of ``BENCH_placement.json``,
#: ``BENCH_energy.json`` and ``BENCH_replicas.json`` that run it:
#: ``synthetic_instance(modules, devices, seed=1)`` with four requests (six
#: for the replica rows), the energy rows under 1.5 x greedy's latency.
SWEEP_PINS = {
    ('latency', 3, 4, 1): ([('enc-00', ('dev-02',)), ('enc-01', ('dev-02',)), ('synth-head', ('dev-02',))], 2.212882446167337),
    ('latency', 4, 5, 1): ([('enc-00', ('dev-03',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 1.7961179099820799),
    ('latency', 6, 8, 1): ([('enc-00', ('dev-00',)), ('enc-01', ('dev-00',)), ('enc-02', ('dev-00',)), ('enc-03', ('dev-01',)), ('enc-04', ('dev-05',)), ('synth-head', ('dev-05',))], 2.032470861038363),
    ('energy', 3, 4, 1): ([('enc-00', ('dev-02',)), ('enc-01', ('dev-02',)), ('synth-head', ('dev-02',))], 80.49676071319271),
    ('energy', 4, 5, 1): ([('enc-00', ('dev-04',)), ('enc-01', ('dev-01',)), ('enc-02', ('dev-01',)), ('synth-head', ('dev-01',))], 161.55955242842023),
    ('energy', 6, 8, 1): ([('enc-00', ('dev-01',)), ('enc-01', ('dev-01',)), ('enc-02', ('dev-02',)), ('enc-03', ('dev-01',)), ('enc-04', ('dev-00',)), ('synth-head', ('dev-01',))], 226.7327903301151),
    ('replica', 3, 4, 2): ([('enc-00', ('dev-00', 'dev-02')), ('enc-01', ('dev-00', 'dev-02')), ('synth-head', ('dev-00', 'dev-02'))], 3.327917246839415),
    ('replica', 4, 5, 2): ([('enc-00', ('dev-00', 'dev-03')), ('enc-01', ('dev-00',)), ('enc-02', ('dev-00', 'dev-01')), ('synth-head', ('dev-00', 'dev-01'))], 2.68892714816743),
    ('replica', 4, 6, 2): ([('enc-00', ('dev-00', 'dev-01')), ('enc-01', ('dev-00', 'dev-05')), ('enc-02', ('dev-00',)), ('synth-head', ('dev-00',))], 4.673790474975495),
}

#: Brute force takes seconds on these rows (6 x 8 about 12 s each, replica
#: 4 x 5 about 7 s and 4 x 6 about 35 s), so it proves their pins under
#: ``-m slow`` only.
SWEEP_PINS_SLOW = {
    ("latency", 6, 8, 1), ("energy", 6, 8, 1), ("replica", 4, 5, 2), ("replica", 4, 6, 2),
}


def sweep_case(key, solver):
    """``(placement, objective)`` of ``solver`` (``"bnb"`` or ``"brute"``)
    on the sweep row ``key``."""
    kind, n_modules, n_devices, max_copies = key
    inst = synthetic_instance(
        n_modules, n_devices, seed=1, n_requests=6 if kind == "replica" else 4
    )
    problem, network, requests = inst.problem, inst.network, list(inst.requests)
    model = LatencyModel(problem, network)
    if kind == "latency":
        result = optimal_placement(problem, requests, network, solver=solver)
    elif kind == "energy":
        budget = 1.5 * model.objective(requests, greedy_placement(problem))
        result = energy_optimal_placement(
            problem, requests, network, latency_budget=budget, solver=solver,
            tensors=model.tensors,
        )
    else:
        result = replica_optimal_placement(
            problem, requests, network, max_copies=max_copies, solver=solver,
            tensors=model.tensors,
        )
    return hosts(result[0]), result[1]


def sweep_id(key):
    return f"{key[0]}-{key[1]}x{key[2]}-mc{key[3]}"


@pytest.mark.parametrize("key", sorted(SWEEP_PINS), ids=sweep_id)
def test_bnb_matches_sweep_pin(key):
    assert sweep_case(key, "bnb") == SWEEP_PINS[key]


@pytest.mark.parametrize(
    "key",
    [
        pytest.param(key, marks=pytest.mark.slow) if key in SWEEP_PINS_SLOW else key
        for key in sorted(SWEEP_PINS)
    ],
    ids=sweep_id,
)
def test_brute_proves_sweep_pin(key):
    assert sweep_case(key, "brute") == SWEEP_PINS[key]
