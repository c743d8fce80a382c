"""Queue-aware placement: wait-model bit-identity, deltas, solver exactness.

Like the rest of the vectorized layer, the wait term's contract is *bit
identity* with the scalar oracle in ``tests/scalar_reference.py`` — these
tests compare with ``==`` on floats, not ``pytest.approx`` — and the queue-aware
branch-and-bound must return brute force's exact placement, objective, and
tie-break.  The zero-traffic limit is load-bearing throughout: with every
arrival rate at 0.0 the wait term is exactly ``+0.0``, so the queue-aware
paths must reproduce the historical congestion-blind results bit-for-bit.

Envelope regressions live at the bottom: the documented base-solver limit
(~5 modules x 8 devices / 2 copies) must not shrink now that the replica
search carries wait-state machinery, and ``@pytest.mark.slow`` probes
record the queue-aware envelope one size up (results in docs/placement.md).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.bnb import _Search, branch_and_bound_placement
from repro.core.placement.greedy import greedy_placement, replicate_with_leftover
from repro.core.placement.optimal import optimal_placement
from repro.core.placement.problem import PlacementProblem
from repro.core.placement.replicas import (
    _ReplicaSearch,
    replica_aware_greedy,
    replica_branch_and_bound,
    replica_brute_force,
    replica_optimal_placement,
)
from repro.core.placement.tensors import CongestionModel, CostTensors
from repro.core.placement.variants import random_placement
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.profiles.communication import LinkProfile
from repro.profiles.devices import DeviceProfile, edge_device_names
from repro.serving import WorkloadGenerator
from repro.utils.errors import ConfigurationError
from repro.utils.seeding import rng_for

from conftest import seeded_noisy_problem
from scalar_reference import (
    congestion_objective_scalar,
    congestion_replica_objective_scalar,
    congestion_waits_scalar,
)

#: Paper-scale model sets kept small enough that brute force stays the
#: oracle for both the single-copy and the replica solver.
MODEL_SETS = [
    ["clip-vit-b16"],
    ["encoder-vqa-small"],
    ["clip-vit-b16", "encoder-vqa-small"],
]
SOURCES = ("jetson-a", "desktop")


def noisy_problem(models, seed, sigma=0.06):
    return seeded_noisy_problem("wait-prop", models, seed, sigma=sigma)


def requests_for(models):
    return [
        InferenceRequest.for_model(name, source)
        for name in models
        for source in SOURCES
    ]


def congestion_for(names, seed, lo=0.2, hi=3.0):
    """Seeded per-model arrival rates (req/s) for ``names`` (sorted)."""
    names = sorted(names)
    rng = rng_for("wait-rates", *names, seed)
    print(f"congestion rates: key={(*names, seed)} range=({lo}, {hi})")
    return CongestionModel({name: float(rng.uniform(lo, hi)) for name in names})


def zero_congestion(names):
    return CongestionModel({name: 0.0 for name in names})


def paper_scale_instances():
    for models in MODEL_SETS:
        for seed in range(2):
            yield models, seed


class TestCongestionModel:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            CongestionModel({"clip-vit-b16": -0.5})

    def test_non_finite_rate_rejected(self):
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="'clip-vit-b16'.*finite"):
                CongestionModel({"clip-vit-b16": rate})

    @pytest.mark.parametrize("rate", [True, False, "2", None, [1.0]], ids=repr)
    def test_non_number_rate_rejected(self, rate):
        # ``True`` ran as rate 1.0; ``"2"`` escaped as a bare TypeError.
        with pytest.raises(ConfigurationError, match="'clip-vit-b16'"):
            CongestionModel({"clip-vit-b16": rate})

    @pytest.mark.parametrize("rho_max", [True, "0.5", None, float("nan")], ids=repr)
    def test_non_number_rho_max_rejected(self, rho_max):
        with pytest.raises(ConfigurationError, match="rho_max"):
            CongestionModel({}, rho_max=rho_max)

    def test_rho_max_bounds_rejected(self):
        for rho_max in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ConfigurationError, match="rho_max"):
                CongestionModel({}, rho_max=rho_max)

    def test_untracked_model_contributes_no_load(self):
        congestion = CongestionModel({"clip-vit-b16": 1.0})
        assert congestion.rate_for("clip-vit-b16") == 1.0
        assert congestion.rate_for("imagebind") == 0.0

    def test_from_trace_divides_counts_by_window(self):
        trace = WorkloadGenerator(
            ["clip-vit-b16", "encoder-vqa-small"],
            kind="poisson", rate_rps=0.8, duration_s=20.0, seed=3,
        ).generate()
        congestion = CongestionModel.from_trace(trace)
        counts = {}
        for arrival in trace.arrivals:
            counts[arrival.model_name] = counts.get(arrival.model_name, 0) + 1
        for name, count in counts.items():
            assert congestion.rate_for(name) == count / float(trace.duration_s)

    def test_from_trace_rejects_nonpositive_window(self):
        trace = WorkloadGenerator(
            ["clip-vit-b16"], kind="poisson", rate_rps=0.5, duration_s=10.0, seed=0
        ).generate()
        import dataclasses

        degenerate = dataclasses.replace(trace, duration_s=0.0)
        with pytest.raises(ConfigurationError, match="duration"):
            CongestionModel.from_trace(degenerate)


class TestWaitBitIdentity:
    def test_waits_and_objective_match_scalar(self):
        network = Network()
        for models, seed in paper_scale_instances():
            problem = noisy_problem(models, seed)
            model = LatencyModel(problem, network)
            requests = requests_for(models)
            congestion = congestion_for(models, seed)
            for placement in (
                greedy_placement(problem),
                random_placement(problem, seed=seed),
            ):
                assert model.congestion_waits(
                    requests, placement, congestion
                ) == congestion_waits_scalar(model, requests, placement, congestion)
                assert model.congestion_objective(
                    requests, placement, congestion
                ) == congestion_objective_scalar(model, requests, placement, congestion)

    def test_validation_predictions_match_scalar(self):
        # The solver-vs-serving study predicts each arrival at its model's
        # queue-aware class value; one arrival per model, in model order,
        # sums to the scalar objective over the study's solver requests.
        from repro.experiments.validation import (
            STUDY_MODELS,
            _solver_requests,
            predicted_latencies,
        )
        from repro.serving.workload import ArrivalTrace

        problem = PlacementProblem.from_models(STUDY_MODELS, edge_device_names())
        placement = greedy_placement(problem)
        congestion = congestion_for(STUDY_MODELS, 0)
        names = tuple(spec.name for spec in problem.models)
        trace = ArrivalTrace(
            times=[1.0 + i for i in range(len(names))], model_names=names,
            duration_s=10.0, kind="poisson", seed=0,
        )
        predicted = predicted_latencies(problem, placement, congestion, trace)
        model = LatencyModel(problem, Network())
        assert sum(predicted) == congestion_objective_scalar(
            model, _solver_requests(problem), placement, congestion
        )

    def test_replica_objective_matches_scalar(self):
        network = Network()
        for models, seed in paper_scale_instances():
            problem = noisy_problem(models, seed)
            model = LatencyModel(problem, network)
            requests = requests_for(models)
            congestion = congestion_for(models, seed)
            for placement in (
                greedy_placement(problem),
                replicate_with_leftover(problem, greedy_placement(problem)),
            ):
                assert model.congestion_replica_objective(
                    requests, placement, congestion
                ) == congestion_replica_objective_scalar(
                    model, requests, placement, congestion
                )

    def test_zero_rates_reduce_bit_exactly(self):
        network = Network()
        for models, seed in paper_scale_instances():
            problem = noisy_problem(models, seed)
            model = LatencyModel(problem, network)
            requests = requests_for(models)
            congestion = zero_congestion(models)
            single = greedy_placement(problem)
            replicated = replicate_with_leftover(problem, single)
            waits = model.congestion_waits(requests, single, congestion)
            assert all(w == 0.0 for w in waits.values())
            assert model.congestion_objective(
                requests, single, congestion
            ) == model.objective(requests, single)
            assert model.congestion_replica_objective(
                requests, replicated, congestion
            ) == model.replica_objective(requests, replicated)


class TestWaitState:
    """The incremental wait state both exact searches share."""

    def _gapped_search(self):
        # "gapped" has no text-encoder throughput entry: the text encoder's
        # load on it is infinite (the compute tensor's inf sentinel).
        from repro.core.modules import ModuleKind
        from repro.utils.units import GB, MB

        gapped = DeviceProfile(
            name="gapped",
            description="no text-encoder throughput entry",
            memory_bytes=int(8 * GB),
            throughput={
                (ModuleKind.VISION_ENCODER, "*"): 20.0,
                (ModuleKind.DISTANCE, "*"): 1000.0,
                (ModuleKind.CLASSIFIER, "*"): 1000.0,
            },
            load_throughput_bps=100.0 * MB,
        )
        base = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        problem = PlacementProblem(
            modules=base.modules, devices=base.devices + (gapped,), models=base.models
        )
        network = Network()
        network.add_link(LinkProfile("gapped", "pan-router", 1e9, 0.001))
        tensors = CostTensors(problem, network)
        requests = [
            InferenceRequest.for_model("clip-vit-b16", source)
            for source in ("jetson-a", "desktop", "jetson-a")
        ]
        congestion = CongestionModel({"clip-vit-b16": 1.5})
        return tensors, _ReplicaSearch(tensors, requests, 2, congestion=congestion)

    def test_rows_split_the_rate_over_copies(self):
        tensors, search = self._gapped_search()
        state = search.wait
        (_model, lam, members, comp), = search.wait_tensors.entries(search.requests)
        for k in (1, 2):
            for m in members:
                load = (lam / k) * comp[m]
                assert np.array_equal(state.du[k - 1][m], load)
                assert np.array_equal(state.dr[k - 1][m], load * comp[m])
        text = tensors.module_idx("clip-trf-38m")
        assert state.dr[0][text, tensors.device_idx("gapped")] == np.inf

    def test_random_descend_ascend_round_trip(self):
        tensors, search = self._gapped_search()
        state = search.wait
        text = tensors.module_idx("clip-trf-38m")
        gapped = tensors.device_idx("gapped")
        rng = np.random.default_rng(0)
        for _ in range(25):
            moves = []
            for m in range(tensors.n_modules):
                size = int(rng.integers(1, 3))
                hosts = rng.choice(tensors.n_devices, size=size, replace=False).tolist()
                if m == text and gapped not in hosts:
                    hosts[0] = gapped  # a set holding the missing-throughput device
                hosts = tuple(sorted(hosts, key=lambda n: tensors.device_names[n]))
                moves.append(state.descend(m, hosts))
                assert not np.isnan(state.u).any() and not np.isnan(state.r).any()
            waits = state.waits()
            assert waits[gapped] == np.inf
            assert not np.isnan(waits).any()
            for saved in reversed(moves):
                state.ascend(saved)
            # Restored, not subtracted: exactly the empty state again.
            assert not state.u.any() and not state.r.any() and not state.vis.any()


def explore(search, modules):
    """Visit every child of every node below the current one (descend,
    recurse, ascend), leaving the search where it was."""
    if not modules:
        return
    m = modules[0]
    for _, child in search.value_children(m):
        saved = search.descend(m, child)
        explore(search, modules[1:])
        search.ascend(m, child, saved)


def priced_children(search, m):
    """Both phases' children of ``m``: ``(bound, choice)`` lists."""
    return search.value_children(m), list(search.tie_children(m))


def check_history_independent(make_search, order):
    """At the node two levels down the first children, price the next
    module's children; explore that node's subtree and its parent's other
    children's subtrees; price the children again.  Both pricings and a
    fresh search's, descended straight to the node, must be equal floats."""
    m0, m1, m2 = order[:3]

    def descend_to_node(search):
        n0 = search.value_children(m0)[0][1]
        search.descend(m0, n0)
        siblings = [child for _, child in search.value_children(m1)]
        saved = search.descend(m1, siblings[0])
        return siblings, saved

    search = make_search()
    siblings, saved = descend_to_node(search)
    assert len(siblings) > 1
    first = priced_children(search, m2)
    explore(search, order[2:])
    search.ascend(m1, siblings[0], saved)
    for sibling in siblings[1:]:
        other = search.descend(m1, sibling)
        explore(search, order[2:])
        search.ascend(m1, sibling, other)
    search.value_children(m1)  # the node's own expansion, as the search reads it
    search.descend(m1, siblings[0])
    again = priced_children(search, m2)
    fresh = make_search()
    descend_to_node(fresh)
    assert first == again == priced_children(fresh, m2)


class TestHistoryIndependentWaitBounds:
    """The queue-aware bounds at a node do not depend on which siblings
    were priced or explored before it: the wait state restores what each
    descend overwrote instead of subtracting the load again.  (Subtracting
    it, ``u + d - d``, moved the floats by an ulp on every seed here.)"""

    @pytest.mark.parametrize("seed", range(3))
    def test_latency_search(self, seed):
        inst = synthetic_instance(5, 5, seed=seed, n_requests=6)
        congestion = congestion_for([inst.model.name], seed, lo=0.5, hi=4.0)

        def make_search():
            tensors = CostTensors(inst.problem, inst.network)
            return _Search(tensors, list(inst.requests), congestion=congestion)

        search = make_search()
        check_history_independent(make_search, search.value_order(search.bounds))

    @pytest.mark.parametrize("seed", range(3))
    def test_replica_search(self, seed):
        inst = synthetic_instance(4, 4, seed=seed, n_requests=6)
        congestion = congestion_for([inst.model.name], seed, lo=0.5, hi=4.0)

        def make_search():
            tensors = CostTensors(inst.problem, inst.network)
            return _ReplicaSearch(tensors, list(inst.requests), 2, congestion=congestion)

        check_history_independent(make_search, make_search().value_order(()))


class TestQueueAwareBnB:
    def test_bnb_matches_brute_paper_scale(self):
        network = Network()
        for models, seed in paper_scale_instances():
            problem = noisy_problem(models, seed)
            requests = requests_for(models)
            congestion = congestion_for(models, seed)
            bnb_p, bnb_o = optimal_placement(
                problem, requests, network, solver="bnb", congestion=congestion
            )
            brute_p, brute_o = optimal_placement(
                problem, requests, network, solver="brute", congestion=congestion
            )
            assert bnb_o == brute_o
            assert bnb_p.as_dict() == brute_p.as_dict()

    def test_bnb_matches_brute_synthetic(self):
        for n_modules, n_devices, seed in ((3, 4, 1), (4, 5, 2)):
            instance = synthetic_instance(n_modules, n_devices, seed=seed)
            requests = list(instance.requests)
            names = sorted({r.model.name for r in requests})
            congestion = congestion_for(names, seed, lo=0.2, hi=2.0)
            bnb_p, bnb_o = optimal_placement(
                instance.problem, requests, instance.network,
                solver="bnb", congestion=congestion,
            )
            brute_p, brute_o = optimal_placement(
                instance.problem, requests, instance.network,
                solver="brute", congestion=congestion,
            )
            assert bnb_o == brute_o
            assert bnb_p.as_dict() == brute_p.as_dict()

    def test_zero_rates_reduce_to_base_solver(self):
        network = Network()
        for models, seed in paper_scale_instances():
            problem = noisy_problem(models, seed)
            requests = requests_for(models)
            base_p, base_o = optimal_placement(problem, requests, network)
            zero_p, zero_o = optimal_placement(
                problem, requests, network, congestion=zero_congestion(models)
            )
            assert zero_o == base_o
            assert zero_p.as_dict() == base_p.as_dict()

    def test_objective_matches_public_scorer(self):
        network = Network()
        models = ["clip-vit-b16", "encoder-vqa-small"]
        problem = noisy_problem(models, 3)
        requests = requests_for(models)
        congestion = congestion_for(models, 3)
        placement, objective = optimal_placement(
            problem, requests, network, congestion=congestion
        )
        model = LatencyModel(problem, network)
        assert objective == model.congestion_objective(requests, placement, congestion)


class TestQueueAwareReplicaBnB:
    def test_bnb_matches_brute_paper_scale(self):
        network = Network()
        for models, seed in paper_scale_instances():
            problem = noisy_problem(models, seed)
            requests = requests_for(models)
            congestion = congestion_for(models, seed)
            bnb_p, bnb_o = replica_branch_and_bound(
                problem, requests, network, max_copies=2, congestion=congestion
            )
            brute_p, brute_o = replica_brute_force(
                problem, requests, network, max_copies=2, congestion=congestion
            )
            assert bnb_o == brute_o
            assert bnb_p.as_dict() == brute_p.as_dict()
            model = LatencyModel(problem, network)
            assert bnb_o == model.congestion_replica_objective(
                requests, bnb_p, congestion
            )

    def test_bnb_matches_brute_synthetic(self):
        instance = synthetic_instance(3, 4, seed=1)
        requests = list(instance.requests)
        names = sorted({r.model.name for r in requests})
        congestion = congestion_for(names, 1, lo=0.2, hi=2.0)
        bnb_p, bnb_o = replica_branch_and_bound(
            instance.problem, requests, instance.network,
            max_copies=2, congestion=congestion,
        )
        brute_p, brute_o = replica_brute_force(
            instance.problem, requests, instance.network,
            max_copies=2, congestion=congestion,
        )
        assert bnb_o == brute_o
        assert bnb_p.as_dict() == brute_p.as_dict()

    def test_zero_rates_reduce_to_base_solver(self):
        network = Network()
        for models, seed in paper_scale_instances():
            problem = noisy_problem(models, seed)
            requests = requests_for(models)
            base_p, base_o = replica_branch_and_bound(
                problem, requests, network, max_copies=2
            )
            zero_p, zero_o = replica_branch_and_bound(
                problem, requests, network, max_copies=2,
                congestion=zero_congestion(models),
            )
            assert zero_o == base_o
            assert zero_p.as_dict() == base_p.as_dict()

    def test_solver_entry_point_routes_congestion(self):
        network = Network()
        models = ["clip-vit-b16"]
        problem = noisy_problem(models, 4)
        requests = requests_for(models)
        congestion = congestion_for(models, 4)
        for solver in ("bnb", "brute"):
            placement, objective = replica_optimal_placement(
                problem, requests, network, max_copies=2,
                solver=solver, congestion=congestion,
            )
            model = LatencyModel(problem, network)
            assert objective == model.congestion_replica_objective(
                requests, placement, congestion
            )


ZERO_RATE_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


class TestZeroRateMetamorphic:
    """With no offered load, the congestion-aware solvers are the blind ones.

    Zero rates (every model at 0.0, or an empty rate map) add exactly
    ``+0.0`` waits, so the queue-aware searches must return the same
    placement and an ``==`` objective as ``congestion=None`` on synthetic
    instances too, where the wait bound and leaf pricing take other paths
    through the search than at paper scale.
    """

    @staticmethod
    def zero_models(instance):
        names = sorted({r.model.name for r in instance.requests})
        return [CongestionModel({name: 0.0 for name in names}), CongestionModel({})]

    @ZERO_RATE_SETTINGS
    @given(st.sampled_from([(3, 4), (4, 5), (4, 8)]), st.integers(1, 40))
    def test_latency_bnb(self, shape, seed):
        instance = synthetic_instance(*shape, seed=seed)
        args = (instance.problem, list(instance.requests), instance.network)
        base_p, base_o = branch_and_bound_placement(*args)
        for congestion in self.zero_models(instance):
            zero_p, zero_o = branch_and_bound_placement(*args, congestion=congestion)
            assert zero_o == base_o
            assert zero_p.as_dict() == base_p.as_dict()

    @ZERO_RATE_SETTINGS
    @given(st.integers(1, 40))
    def test_replica_bnb(self, seed):
        instance = synthetic_instance(3, 4, seed=seed)
        args = (instance.problem, list(instance.requests), instance.network)
        base_p, base_o = replica_branch_and_bound(*args, max_copies=2)
        for congestion in self.zero_models(instance):
            zero_p, zero_o = replica_branch_and_bound(
                *args, max_copies=2, congestion=congestion
            )
            assert zero_o == base_o
            assert zero_p.as_dict() == base_p.as_dict()


class TestReplicaEnvelope:
    """The documented exact envelope must not shrink (docs/placement.md).

    The replica search now carries wait-state bookkeeping; with
    ``congestion=None`` that machinery must stay entirely out of the hot
    path, so the base solver's ~5 modules x 8 devices / 2 copies envelope
    (BENCH_replicas.json: 8.7 s) is pinned here — objective and wall clock.
    """

    def test_base_envelope_5x8_mc2_holds(self):
        instance = synthetic_instance(5, 8, seed=1, n_requests=6)
        requests = list(instance.requests)
        start = time.perf_counter()
        placement, objective = replica_branch_and_bound(
            instance.problem, requests, instance.network,
            max_copies=2,
        )
        wall = time.perf_counter() - start
        # The BENCH_replicas.json solver_sweep value for this exact instance,
        # and that row's gates: no worse than either greedy.
        assert objective == 2.4204013233939565
        assert wall < 90.0, f"base 5x8/mc=2 took {wall:.1f}s (documented ~9s)"
        model = LatencyModel(instance.problem, instance.network)
        _, greedy = replica_aware_greedy(
            instance.problem, requests, instance.network, max_copies=2, tensors=model.tensors
        )
        assert objective <= greedy + 1e-12
        single_copy = model.replica_objective(requests, greedy_placement(instance.problem))
        assert objective <= single_copy + 1e-12

    def test_queue_aware_envelope_3x4_mc2(self):
        """Queue-aware exactness at a scale brute force can verify quickly."""
        instance = synthetic_instance(3, 4, seed=2, n_requests=6)
        requests = list(instance.requests)
        names = sorted({r.model.name for r in requests})
        rng = rng_for("wait-envelope", 3, 4)
        congestion = CongestionModel(
            {name: float(rng.uniform(0.2, 2.0)) for name in names}
        )
        bnb_p, bnb_o = replica_branch_and_bound(
            instance.problem, requests, instance.network,
            max_copies=2, congestion=congestion,
        )
        brute_p, brute_o = replica_brute_force(
            instance.problem, requests, instance.network,
            max_copies=2, congestion=congestion,
        )
        assert bnb_o == brute_o
        assert bnb_p.as_dict() == brute_p.as_dict()

    @pytest.mark.slow
    def test_probe_base_6x8_mc2(self):
        """One size up from the documented base envelope; result recorded in
        docs/placement.md."""
        instance = synthetic_instance(6, 8, seed=1, n_requests=6)
        requests = list(instance.requests)
        start = time.perf_counter()
        placement, objective = replica_branch_and_bound(
            instance.problem, requests, instance.network, max_copies=2
        )
        wall = time.perf_counter() - start
        model = LatencyModel(instance.problem, instance.network)
        assert objective == model.replica_objective(requests, placement)
        print(f"base replica bnb 6x8/mc=2: {wall:.1f}s objective={objective}")

    @pytest.mark.slow
    def test_probe_queue_aware_4x6_mc2(self):
        """The queue-aware replica envelope (~one size below base: the wait
        term's device coupling weakens the per-group bounds); recorded in
        docs/placement.md."""
        instance = synthetic_instance(4, 6, seed=1, n_requests=6)
        requests = list(instance.requests)
        names = sorted({r.model.name for r in requests})
        rng = rng_for("wait-envelope", 4, 6)
        congestion = CongestionModel(
            {name: float(rng.uniform(0.2, 2.0)) for name in names}
        )
        start = time.perf_counter()
        placement, objective = replica_branch_and_bound(
            instance.problem, requests, instance.network,
            max_copies=2, congestion=congestion,
        )
        wall = time.perf_counter() - start
        model = LatencyModel(instance.problem, instance.network)
        assert objective == model.congestion_replica_objective(
            requests, placement, congestion
        )
        print(f"queue-aware replica bnb 4x6/mc=2: {wall:.1f}s objective={objective}")
