"""The exact solvers' bounds against their numpy reference formulas.

``_GroupBound`` and ``_ReplicaGroupBound`` read per-search Python-float
rows instead of numpy scalars, and build their tables for all encoder
paths in one stacked pass.  A ``_GroupBound`` holds every request class of
one model on a class axis.  The formulas they replaced live on here as
test-side references (``RefClass``), written over one class's own numpy
arrays (``tensors.group(...)``) one path at a time: every class row of
every bound and table must equal its reference with ``==`` (same doubles,
not approximately), because the searches' node counts and tie-breaks
depend on exact values.

Random partial assignments cover parallel and serial classes, encoders
sharing a host (the slot-contention terms), an unplaced head, the
last-free-member exact vector, the energy bound and replica host sets.
The stacked bounds run on problems with one to three models sharing
modules (a module may be one model's encoder and its head at once) and
one to four sources per model; the search must fan each class's row out
in request order and read the chosen device's column when it places a
module.  Tier 1 runs those properties on 40 examples, ``-m slow`` on 400.
The queue-aware leaves are checked the same way: both searches price a
complete state from their rows plus the queue waits, and must equal the
placement-level ``WaitTensors`` objectives and the cheapest-replica loop
they replaced.  The search is derandomized and small so tier-1 wall time
stays bounded.

The pricing kernels take fast paths that skip work whose result is already
known (no LPT for distinct encoder hosts, no contention state while no
device holds two placed encoders, each energy profile resolved once).  Each
is checked against the formula it skips — an always-LPT Eq. 1-3 latency,
full per-path and per-device scans, ``hop_radio_joules`` per device — on
drawn rows with shared and distinct hosts, slots 1-3, serial and parallel
classes and ``inf`` entries.  The energy incumbent's descent, which stops
once it returns to the last module that moved, must match the full-pass
descent on cases that need a third pass.
"""

import dataclasses
import itertools
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement.bnb import (
    _EnergyBound,
    _EnergySearch,
    _GroupBound,
    _LatencyBound,
    _Search,
    _SearchState,
    _energy_incumbent,
)
from repro.cluster.requests import InferenceRequest
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.problem import Placement
from repro.core.routing.latency import LatencyModel
from repro.core.placement.replicas import _ReplicaGroupBound, _ReplicaSearch
from repro.core.placement.tensors import (
    CongestionModel,
    CostTensors,
    EnergyTensors,
    WaitTensors,
    group_latency,
)
from repro.experiments.scaling import synthetic_instance
from repro.profiles.energy import hop_radio_joules

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

SHAPES = [(3, 4), (4, 5), (4, 8), (5, 6)]


# ----------------------------------------------------------------------
# Reference formulas: element reads and per-element min/max on numpy
# scalars, as the solvers computed them before reading list rows.
# ----------------------------------------------------------------------
def ref_lpt_waits(device_idx, computes, slots_of):
    """Same-device LPT waits, run for every class whatever its hosts."""
    by_device = {}
    for index, dev in enumerate(device_idx):
        by_device.setdefault(dev, []).append(index)
    waits = [0.0] * len(device_idx)
    for dev, indices in by_device.items():
        slots = slots_of[dev]
        if len(indices) <= slots:
            continue
        ordered = sorted(indices, key=lambda i: -computes[i])
        slot_busy = [0.0] * slots
        for i in ordered:
            slot = min(range(slots), key=lambda s: slot_busy[s])
            wait = slot_busy[slot]
            slot_busy[slot] += computes[i]
            if wait > 0:
                waits[i] = wait
    return waits


def ref_group_latency(
    in_rows, comp_rows, out_rows, head_row, enc_hosts, head_host, slots, parallel
):
    """Eq. 1-3 with the LPT always run and its waits always added."""
    comps = [comp_rows[e][ne] for e, ne in enumerate(enc_hosts)]
    waits = ref_lpt_waits(enc_hosts, comps, slots) if parallel else [0.0] * len(comps)
    totals = [
        in_rows[e][ne] + waits[e] + comps[e] + out_rows[e][ne][head_host]
        for e, ne in enumerate(enc_hosts)
    ]
    if not totals:
        encoder = 0.0
    elif parallel:
        encoder = max(totals)
    else:
        encoder = reduce(operator.add, totals)
    return encoder + head_row[head_host]


class RefClass:
    """One request class's bound inputs, built from its own numpy arrays
    (``tensors.group(...)``, or the energy class's) one encoder path at a
    time: what a per-class bound held before a model's classes were
    stacked.  ``energy`` is the class's ``EnergyRequestGroup``, or ``None``
    for the latency bound."""

    def __init__(self, tensors, group, energy=None):
        self.tensors, self.group, self.energy = tensors, group, energy
        self.encoder_idx, self.head_idx = group.encoder_idx, group.head_idx
        self.members = set(group.encoder_idx) | {group.head_idx}
        if energy is None:
            self.parallel = tensors.parallel
            self.A = [i + c for i, c in zip(group.in_comm, group.enc_comp)]
            self.out, self.head = group.out, group.head_comp
        else:
            self.parallel = False
            self.A, self.out, self.head = list(energy.A), energy.out, energy.head_joules
        head_fit = tensors.fits[self.head_idx]
        self.out_min, self.enc_assigned, self.head_assigned, self.free = [], [], [], []
        for e, idx in enumerate(self.encoder_idx):
            fit = tensors.fits[idx]
            out_min = np.min(self.out[e][:, head_fit], axis=1)
            self.out_min.append(out_min)
            self.enc_assigned.append(self.A[e] + out_min)
            masked = np.where(fit[:, None], self.A[e][:, None] + self.out[e], np.inf)
            self.head_assigned.append(np.min(masked, axis=0))
            self.free.append(float(np.min(self.enc_assigned[e][fit])))
        self.head_min = float(np.min(self.head[head_fit]))


def ref_tables(ref):
    return {
        "out_min": [row.tolist() for row in ref.out_min],
        "enc_assigned": [row.tolist() for row in ref.enc_assigned],
        "head_assigned": [row.tolist() for row in ref.head_assigned],
        "free": ref.free, "head_min": ref.head_min,
    }


def bound_tables(bound, i):
    """Class row ``i``'s tables of a stacked bound."""
    return {
        "out_min": bound.out_min_rows, "enc_assigned": bound.enc_assigned_rows[i],
        "head_assigned": bound.head_assigned_rows[i], "free": bound.free_rows[i],
        "head_min": bound.head_min,
    }


def ref_total(ref, enc_hosts, head_host):
    """A class's exact total, from its numpy rows."""
    if ref.energy is not None:
        return float(ref.energy.total(enc_hosts, head_host))
    group = ref.group
    return ref_group_latency(
        group.in_comm, group.enc_comp, group.out, group.head_comp,
        enc_hosts, head_host, ref.tensors.slots, ref.parallel,
    )


def ref_contention_state(ref, assign):
    loads, members, unassigned = {}, {}, []
    for e, idx in enumerate(ref.encoder_idx):
        ne = int(assign[idx])
        if ne >= 0:
            loads[ne] = loads.get(ne, 0.0) + float(ref.group.enc_comp[e][ne])
            members.setdefault(ne, []).append(e)
        else:
            unassigned.append(e)
    return loads, members, unassigned


def ref_contention_term(ref, n, pool, load, nh):
    in_min = min(float(ref.group.in_comm[e][n]) for e in pool)
    if nh >= 0:
        out_floor = min(float(ref.out[e][n, nh]) for e in pool)
    else:
        head_fit = ref.tensors.fits[ref.head_idx]
        out_floor = min(float(np.min(ref.out[e][n, head_fit])) for e in pool)
    return (in_min + load / ref.tensors.slots[n] + out_floor) * _GroupBound._CONTENTION_SLACK


def ref_contention(ref, assign, nh):
    if not ref.parallel:
        return 0.0
    loads, members, unassigned = ref_contention_state(ref, assign)
    best = 0.0
    for n, here in members.items():
        if len(here) <= ref.tensors.slots[n]:
            continue
        term = ref_contention_term(ref, n, here + unassigned, loads[n], nh)
        if term > best:
            best = term
    return best


def ref_lower_bound(ref, assign):
    if all(assign[i] >= 0 for i in ref.members):
        hosts = [int(assign[i]) for i in ref.encoder_idx]
        return ref_total(ref, hosts, int(assign[ref.head_idx]))
    nh = int(assign[ref.head_idx])
    terms = []
    for e, idx in enumerate(ref.encoder_idx):
        ne = int(assign[idx])
        if ne >= 0:
            terms.append(
                ref.A[e][ne] + ref.out[e][ne, nh] if nh >= 0 else ref.enc_assigned[e][ne]
            )
        else:
            terms.append(ref.head_assigned[e][nh] if nh >= 0 else ref.free[e])
    if ref.parallel:
        encoder = max(terms)
        contention = ref_contention(ref, assign, nh)
        if contention > encoder:
            encoder = contention
    else:
        encoder = reduce(operator.add, terms, 0.0)
    head = ref.head[nh] if nh >= 0 else ref.head_min
    return float(encoder + head)


def ref_exact_vector(ref, assign, module_index):
    group, tensors = ref.group, ref.tensors
    n_devices = len(ref.head)
    n_encoders = len(ref.encoder_idx)
    moving = [e for e in range(n_encoders) if ref.encoder_idx[e] == module_index]
    if ref.head_idx == module_index and moving:  # a dual-role module
        values = np.empty(n_devices)
        for n in range(n_devices):
            hosts = [n if e in moving else int(assign[ref.encoder_idx[e]]) for e in range(n_encoders)]
            values[n] = ref_total(ref, hosts, n)
        return values
    if ref.head_idx == module_index:
        hosts = [int(assign[i]) for i in ref.encoder_idx]
        comps = [group.enc_comp[e][hosts[e]] for e in range(n_encoders)]
        waits = ref_lpt_waits(hosts, comps, tensors.slots)
        paths = [
            (group.in_comm[e][hosts[e]] + waits[e] + comps[e]) + group.out[e][hosts[e], :]
            for e in range(n_encoders)
        ]
        return reduce(np.maximum, paths) + ref.head
    e0 = moving[0]
    nh = int(assign[ref.head_idx])
    hosts = [int(assign[ref.encoder_idx[e]]) if e != e0 else -1 for e in range(n_encoders)]
    others = [e for e in range(n_encoders) if e != e0]
    counts = {}
    for e in others:
        counts[hosts[e]] = counts.get(hosts[e], 0) + 1
    waits = ref_lpt_waits(
        [hosts[e] for e in others], [group.enc_comp[e][hosts[e]] for e in others], tensors.slots
    )
    stage = (group.in_comm[e0] + group.enc_comp[e0]) + group.out[e0][:, nh]
    for pos, e in enumerate(others):
        stage = np.maximum(
            stage,
            group.in_comm[e][hosts[e]] + waits[pos] + group.enc_comp[e][hosts[e]]
            + group.out[e][hosts[e], nh],
        )
    values = np.asarray(stage + ref.head[nh], dtype=np.float64)
    for n in range(n_devices):
        if counts.get(n, 0) + 1 > tensors.slots[n]:
            full_hosts = [n if e == e0 else hosts[e] for e in range(n_encoders)]
            values[n] = ref_total(ref, full_hosts, nh)
    return values


def ref_bound_vector(ref, assign, module_index):
    if ref.parallel and all(assign[i] >= 0 for i in ref.members if i != module_index):
        return ref_exact_vector(ref, assign, module_index)
    out = ref.out
    nh = int(assign[ref.head_idx])
    head_here = module_index == ref.head_idx
    terms = []
    for e, idx in enumerate(ref.encoder_idx):
        ne = int(assign[idx])
        if idx == module_index:
            if head_here:
                terms.append(ref.A[e] + np.diagonal(out[e]))
            elif nh >= 0:
                terms.append(ref.A[e] + out[e][:, nh])
            else:
                terms.append(ref.enc_assigned[e])
        elif head_here:
            if ne >= 0:
                terms.append(ref.A[e][ne] + out[e][ne, :])
            else:
                terms.append(ref.head_assigned[e])
        elif ne >= 0:
            terms.append(
                ref.A[e][ne] + out[e][ne, nh] if nh >= 0 else ref.enc_assigned[e][ne]
            )
        else:
            terms.append(ref.head_assigned[e][nh] if nh >= 0 else ref.free[e])
    if ref.parallel:
        encoder = reduce(np.maximum, terms)
        base = ref_contention(ref, assign, -1 if head_here else nh)
        if base > 0.0:
            encoder = np.maximum(encoder, base)
        if not head_here:
            encoder = np.asarray(encoder, dtype=np.float64) + np.zeros(len(ref.head))
            loads, members, unassigned = ref_contention_state(ref, assign)
            e0 = ref.encoder_idx.index(module_index)
            joiners = [e for e in unassigned if e != e0]
            for n in range(len(ref.head)):
                here = members.get(n, ())
                if len(here) + 1 <= ref.tensors.slots[n]:
                    continue
                load = loads.get(n, 0.0) + float(ref.group.enc_comp[e0][n])
                term = ref_contention_term(ref, n, list(here) + [e0] + joiners, load, nh)
                if term > encoder[n]:
                    encoder[n] = term
    else:
        encoder = reduce(operator.add, terms, 0.0)
    head = ref.head if head_here else (ref.head[nh] if nh >= 0 else ref.head_min)
    return np.broadcast_to(
        np.asarray(encoder + head, dtype=np.float64), ref.head.shape
    ).copy()


def ref_replica_lower_bound(bound, sets):
    group = bound.group
    head_allowed = sets[bound.head_idx]
    nh = (
        np.asarray(head_allowed, dtype=np.int64)
        if head_allowed is not None
        else np.asarray(bound._head_fit_idx, dtype=np.int64)
    )
    stage = None
    for e, idx in enumerate(group.encoder_idx):
        enc_allowed = sets[idx]
        ne = (
            np.asarray(enc_allowed, dtype=np.int64)
            if enc_allowed is not None
            else np.flatnonzero(bound.tensors.fits[idx])
        )
        A = group.in_comm[e][ne] + group.enc_comp[e][ne]
        best_per_head = np.min(A[:, None] + group.out[e][np.ix_(ne, nh)], axis=0)
        if stage is None:
            stage = best_per_head
        elif bound.parallel:
            stage = np.maximum(stage, best_per_head)
        else:
            stage = stage + best_per_head
    totals = group.head_comp[nh] if stage is None else stage + group.head_comp[nh]
    return float(np.min(totals))


def ref_best_hosts(group, tensors, candidates, device_waits=None):
    """Cheapest-replica routing as ``RequestGroup.best_hosts`` wrote it
    before it shared one argmin with the replica search: numpy rows, host
    combos in lexicographic order, waits added in member order, strict
    ``<``."""
    position = {idx: i for i, idx in enumerate(group.member_idx)}
    best_total = float("inf")
    best_combo = None
    for combo in itertools.product(*candidates):
        enc_hosts = [combo[position[idx]] for idx in group.encoder_idx]
        value = ref_group_latency(
            group.in_comm, group.enc_comp, group.out, group.head_comp,
            enc_hosts, combo[position[group.head_idx]], tensors.slots, tensors.parallel,
        )
        if device_waits is not None:
            wait = 0.0
            for n in combo:
                wait = wait + device_waits[n]
            value = value + wait
        if best_combo is None or value < best_total:
            best_total, best_combo = value, combo
    return best_total, best_combo


# ----------------------------------------------------------------------
# Random instances and assignments
# ----------------------------------------------------------------------
def tighten(draw, tensors):
    """Possibly tight memory: each module keeps a random half of the
    devices it fits, and always one of them (so it still fits somewhere)."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        mask = rng.random(tensors.fits.shape) < 0.5
        for m, row in enumerate(tensors.fits):
            mask[m, rng.choice(np.flatnonzero(row))] = True
        tensors.fits = tensors.fits & mask


def draw_instance(draw):
    """A synthetic instance and its tensors, possibly with tight memory."""
    n_modules, n_devices = draw(st.sampled_from(SHAPES))
    seed = draw(st.integers(0, 30))
    parallel = draw(st.booleans())
    inst = synthetic_instance(n_modules, n_devices, seed=seed)
    tensors = CostTensors(inst.problem, inst.network, parallel=parallel)
    tighten(draw, tensors)
    return inst, tensors


def draw_requests(draw):
    """``(tensors, requests)``: a synthetic instance with one to three
    models sharing its modules — each extra model takes a subset of the
    encoders (in any order, with its own work scales) and the same head,
    or now and then one of its encoders as the head (a module in both
    roles) — and one to four sources per model, requests interleaved and
    repeated."""
    n_modules, n_devices = draw(st.sampled_from(SHAPES))
    inst = synthetic_instance(n_modules, n_devices, seed=draw(st.integers(0, 30)))
    base = inst.model
    models = [base]
    # Choices list the richer case first: Hypothesis starts from the first.
    for k in range(draw(st.sampled_from([1, 2, 0]))):
        encoders = draw(st.permutations(base.encoders))[: draw(st.integers(1, len(base.encoders)))]
        head = draw(st.sampled_from([base.head, base.head, encoders[0]]))
        scales = [draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in encoders]
        models.append(dataclasses.replace(
            base, name=f"{base.name}-{k}", encoders=tuple(encoders), head=head,
            work_scale=dict(zip(encoders, scales)),
        ))
    problem = dataclasses.replace(inst.problem, models=tuple(models))
    tensors = CostTensors(problem, inst.network, parallel=draw(st.sampled_from([True, False])))
    tighten(draw, tensors)
    requests = []
    for model in models:
        sources = draw(st.permutations(tensors.device_names))[: draw(st.sampled_from([4, 2, 3, 1]))]
        requests += [InferenceRequest(model, source) for source in sources]
    requests += draw(st.lists(st.sampled_from(requests), max_size=4))
    return tensors, draw(st.permutations(requests))


def draw_assign(draw, tensors):
    """``(assign, moving)``: some modules placed (encoders possibly sharing
    a host), the rest free, ``moving`` a free module to price per device.
    A drawn share of the other modules is free: none (the exact vector),
    a quarter, half or three quarters."""
    n_modules, n_devices = tensors.n_modules, tensors.n_devices
    device = st.integers(0, n_devices - 1)
    assign = [draw(device) for _ in range(n_modules)]
    share = draw(st.sampled_from([0.5, 0.0, 0.25, 0.75]))
    for m in draw(st.permutations(range(n_modules)))[: round(share * n_modules)]:
        assign[m] = -1
    if draw(st.booleans()):  # two encoders on one host: slot contention
        assign[0] = assign[1] = draw(st.integers(0, n_devices - 1))
    moving = draw(st.integers(0, n_modules - 1))
    assign[moving] = -1
    return assign, moving


@st.composite
def stack_cases(draw):
    """``(tensors, requests, assign, moving)`` for the stacked bounds."""
    tensors, requests = draw_requests(draw)
    return (tensors, requests, *draw_assign(draw, tensors))


@st.composite
def partial_cases(draw):
    """``(tensors, groups, assign, moving)`` on a single-model synthetic
    instance (for the replica bound)."""
    inst, tensors = draw_instance(draw)
    assign, moving = draw_assign(draw, tensors)
    if draw(st.booleans()):
        assign[tensors.n_modules - 1] = -1  # synthetic instances list the head last
    groups = [tensors.group(request.model, request.source) for request in inst.requests]
    return tensors, groups, np.array(assign, dtype=np.int64), moving


#: Tier-1 runs each stacked-bound property on 40 examples; ``-m slow``
#: runs the same derandomized search on 400.
PROFILES = [pytest.param(40, id="40"), pytest.param(400, id="400", marks=pytest.mark.slow)]


def run_property(strategy, check, examples):
    settings(max_examples=examples, deadline=None, derandomize=True, database=None)(
        given(strategy)(check)
    )()


def check_stacks(tensors, requests, assign, moving, energy):
    """Every class row of every stacked bound ``==`` its per-class
    reference, and the search fans the rows in request order."""
    search = _SearchState(tensors, requests)
    # One stack per model, holding every class of it in class order.
    models = [id(group.model) for group in search.groups]
    assert sorted(g for classes in search.stacks for g in classes) == list(range(len(models)))
    assert [classes for classes in search.stacks] == [
        [g for g, model in enumerate(models) if model == models[classes[0]]]
        for classes in search.stacks
    ]
    assert len(search.stacks) == len(set(models))
    refs, bounds = [], []
    for classes in search.stacks:
        groups = [search.groups[g] for g in classes]
        if energy is None:
            bounds.append(_LatencyBound(tensors, groups))
            refs.append([RefClass(tensors, group) for group in groups])
        else:
            en = [energy.group(group.model, group.source) for group in groups]
            bounds.append(_EnergyBound(tensors, en))
            refs.append([RefClass(tensors, group, e) for group, e in zip(groups, en)])
    lbs = [0.0] * len(search.groups)
    class_vectors = {}
    for classes, bound, stack in zip(search.stacks, bounds, refs):
        lower = bound.lower_bound(assign)
        assert all(type(value) is float for value in lower)
        full = [n if n >= 0 else 0 for n in assign]
        exact = bound.exact(full)
        used = moving in stack[0].members
        if used:
            got = bound.bound_vector(assign, moving)
            assert got.dtype == np.float64 and got.shape == (len(stack), tensors.n_devices)
        for i, (g, ref) in enumerate(zip(classes, stack)):
            assert bound_tables(bound, i) == ref_tables(ref)
            assert bound.A[i].tolist() == [row.tolist() for row in ref.A]
            assert lower[i] == ref_lower_bound(ref, assign)
            assert exact[i] == ref_lower_bound(ref, full)
            lbs[g] = lower[i]
            if used:
                class_vectors[g] = ref_bound_vector(ref, assign, moving)
                assert got[i].tolist() == class_vectors[g].tolist()
        if used:
            got[:] = -1.0  # the search owns the matrix: no bound state aliases it
            again = bound.bound_vector(assign, moving)
            assert [again[i].tolist() for i in range(len(stack))] == [
                class_vectors[g].tolist() for g in classes
            ]
    # node_vector fans each class's row (or its scalar bound) in request
    # order, left to right from zeros; place reads the chosen column.
    search.assign[:] = assign
    fanned = search.node_vector(moving, bounds, list(lbs))
    expected = np.zeros(tensors.n_devices)
    for g in search.group_of_request:
        expected = expected + class_vectors.get(g, lbs[g])
    assert fanned.tolist() == expected.tolist()
    n = assign[0] if assign[0] >= 0 else tensors.n_devices - 1
    placed = list(lbs)
    search.place(moving, n, placed)
    assert placed == [float(class_vectors[g][n]) if g in class_vectors else lbs[g]
                      for g in range(len(lbs))]


@pytest.mark.parametrize("examples", PROFILES)
def test_latency_bounds_match_numpy_reference(examples):
    def check(case):
        check_stacks(*case, energy=None)

    run_property(stack_cases(), check, examples)


@pytest.mark.parametrize("examples", PROFILES)
def test_energy_bounds_match_numpy_reference(examples):
    def check(case):
        tensors = case[0]
        check_stacks(*case, energy=EnergyTensors(tensors))

    run_property(stack_cases(), check, examples)


@SETTINGS
@given(partial_cases(), st.integers(0, 2**16))
def test_replica_bound_matches_numpy_reference(case, salt):
    tensors, groups, assign, _ = case
    rng = np.random.default_rng(salt)
    sets = []
    for n in assign.tolist():
        if n < 0:
            sets.append(None)  # unassigned: every fitting device allowed
        elif rng.random() < 0.5:
            sets.append((n,))
        else:
            sets.append(tuple(sorted({n, int(rng.integers(tensors.n_devices))})))
    for group in groups:
        bound = _ReplicaGroupBound(tensors, group)
        assert bound.lower_bound(sets) == ref_replica_lower_bound(bound, sets)


# ----------------------------------------------------------------------
# Kernel fast paths against the formulas they skip
# ----------------------------------------------------------------------
#: Row entries: repeats make LPT ties, ``inf`` is a missing throughput.
ROW_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.25, float("inf")])


@st.composite
def latency_rows(draw):
    """Rows of one class, its encoder and head hosts, slots 1-3 per device
    and the mode: hosts shared or distinct, as lists or numpy arrays."""
    n_devices = draw(st.integers(1, 5))
    n_encoders = draw(st.integers(0, 4))

    def row():
        return [draw(ROW_VALUES) for _ in range(n_devices)]

    in_rows = [row() for _ in range(n_encoders)]
    comp_rows = [row() for _ in range(n_encoders)]
    out_rows = [[row() for _ in range(n_devices)] for _ in range(n_encoders)]
    head_row = row()
    device = st.integers(0, n_devices - 1)
    if n_encoders <= n_devices and draw(st.booleans()):
        enc_hosts = draw(st.permutations(range(n_devices)))[:n_encoders]
    else:
        enc_hosts = [draw(device) for _ in range(n_encoders)]
    slots = [draw(st.integers(1, 3)) for _ in range(n_devices)]
    rows = (in_rows, comp_rows, out_rows, head_row)
    if draw(st.booleans()):
        rows = tuple(np.array(r, dtype=np.float64) for r in rows)
    return rows, list(enc_hosts), draw(device), slots, draw(st.booleans())


@SETTINGS
@given(latency_rows())
def test_group_latency_matches_always_lpt(case):
    rows, enc_hosts, head_host, slots, parallel = case
    assert group_latency(*rows, enc_hosts, head_host, slots, parallel) == ref_group_latency(
        *rows, enc_hosts, head_host, slots, parallel
    )


@st.composite
def contention_cases(draw, last_free):
    """``(bound, refs, assign, moving)``: the stacked latency bound of a
    parallel model's four classes, with slots 1-3 per device and its
    encoders crowded onto devices 0 and 1 (so slots overflow).  ``moving``
    is the member to price per device; with ``last_free`` every other
    member is placed, else one or more are not."""
    n_modules, n_devices = draw(st.sampled_from(SHAPES))
    inst = synthetic_instance(n_modules, n_devices, seed=draw(st.integers(0, 30)))
    tensors = CostTensors(inst.problem, inst.network, parallel=True)
    tensors.slots = [draw(st.sampled_from([1, 1, 2, 3])) for _ in range(n_devices)]
    assign = [draw(st.sampled_from([0, 0, 1])) for _ in range(n_modules)]
    head = n_modules - 1  # synthetic instances list the head last
    assign[head] = draw(st.integers(0, n_devices - 1))
    order = draw(st.permutations(range(n_modules)))
    moving = order[0]
    free = 0 if last_free else draw(st.integers(1, n_modules - 1))
    for m in order[: free + 1]:
        assign[m] = -1
    groups = [tensors.group(request.model, request.source) for request in inst.requests]
    refs = [RefClass(tensors, group) for group in groups]
    return _LatencyBound(tensors, groups), refs, assign, moving


def check_against_full_scans(bound, refs, assign, moving):
    nh = assign[bound.head_idx]
    hosts = [assign[i] for i in bound.encoder_idx]
    for head_host in (nh, -1):
        got = bound._contention(hosts, head_host)
        expected = [ref_contention(ref, assign, head_host) for ref in refs]
        assert (got if got is not None else [0.0] * len(refs)) == expected
    assert bound.lower_bound(assign) == [ref_lower_bound(ref, assign) for ref in refs]
    got = bound.bound_vector(assign, moving)
    assert got.tolist() == [ref_bound_vector(ref, assign, moving).tolist() for ref in refs]


@SETTINGS
@given(contention_cases(last_free=False))
def test_partial_bounds_match_full_scans(case):
    check_against_full_scans(*case)


@SETTINGS
@given(contention_cases(last_free=True))
def test_exact_vectors_match_full_scans(case):
    check_against_full_scans(*case)


@SETTINGS
@given(st.sampled_from(SHAPES), st.integers(0, 30), st.integers(0, 9), st.integers(1, 10**6))
def test_radio_rows_match_hop_radio_joules(shape, seed, source_index, payload):
    inst = synthetic_instance(*shape, seed=seed)
    tensors = CostTensors(inst.problem, inst.network)
    energy = EnergyTensors(tensors)
    names = tensors.device_names
    # A device of the problem, or a synthetic name outside it.
    source = names[source_index] if source_index < len(names) else f"dev-{source_index + 40}"
    assert energy.input_radio(source, payload).tolist() == [
        hop_radio_joules(source, name, payload) for name in names
    ]
    module = source_index % tensors.n_modules
    payload = tensors.modules[module].output_bytes
    assert energy.embed_radio(module).tolist() == [
        [hop_radio_joules(a, b, payload) for b in names] for a in names
    ]


def ref_energy_incumbent(search):
    """The energy search's seed by full passes: greedy, then every module
    re-priced each pass until a pass moves nothing (at most 32 passes)."""
    tensors = search.tensors
    assign, memory, residual = search.assign, search.memory, list(search.residual)
    for name, hosts in greedy_placement(tensors.problem).as_dict().items():
        m, n = tensors.module_idx(name), tensors.device_idx(hosts[0])
        assign[m] = n
        residual[n] -= memory[m]
    try:
        lat_lb = search.lower_bounds(search.lat_bounds)
        if float(search.fan(lat_lb)) > search.latency_budget:
            return None
        en_lb = search.lower_bounds(search.en_bounds)
        for _ in range(32):
            improved = False
            for m in range(search.n_modules):
                current = best_n = assign[m]
                assign[m] = -1
                joules = search.node_vector(m, search.en_bounds, en_lb).tolist()
                priced = [(en_lb, search.vectors[m])]
                latency = None
                for n in range(search.n_devices):
                    if n == current or residual[n] < memory[m] or not joules[n] < joules[best_n]:
                        continue
                    if latency is None:
                        latency = search.node_vector(m, search.lat_bounds, lat_lb).tolist()
                        priced.append((lat_lb, search.vectors[m]))
                    if latency[n] <= search.latency_budget:
                        best_n = n
                assign[m] = best_n
                if best_n != current:
                    for lbs, vectors in priced:
                        search.take(vectors, best_n, lbs)
                    residual[current] += memory[m]
                    residual[best_n] -= memory[m]
                    improved = True
            if not improved:
                break
        return assign.copy()
    finally:
        assign[:] = [-1] * search.n_modules


#: ``(shape, seed, parallel, budget factor)``: the first eight need a third
#: pass (a module moves again after another one did), the rest two or one.
DESCENT_CASES = [
    ((3, 4), 6, False, 1.0), ((3, 4), 25, True, 1.2), ((4, 5), 0, False, 1.0),
    ((4, 5), 3, False, 1.0), ((4, 5), 13, False, 1.5), ((4, 5), 16, True, 1.2),
    ((4, 5), 23, False, 1.2), ((4, 8), 0, False, 1.2),
    ((3, 4), 0, True, 1.5), ((4, 8), 1, True, 1.5), ((5, 6), 2, False, 3.0),
    ((5, 6), 7, True, 1.0),
]


@pytest.mark.parametrize("case", DESCENT_CASES, ids=str)
def test_energy_incumbent_matches_full_pass_descent(case):
    """The descent stops when it returns to the last module that moved; the
    result must equal the full-pass descent's, which re-prices every module."""
    shape, seed, parallel, factor = case
    inst = synthetic_instance(*shape, seed=seed)
    requests = list(inst.requests)
    tensors = CostTensors(inst.problem, inst.network, parallel=parallel)
    model = LatencyModel(inst.problem, inst.network, parallel=parallel, tensors=tensors)
    budget = factor * model.objective(requests, greedy_placement(inst.problem))
    got = _energy_incumbent(_EnergySearch(tensors, EnergyTensors(tensors), requests, budget))
    expected = ref_energy_incumbent(
        _EnergySearch(tensors, EnergyTensors(tensors), requests, budget)
    )
    assert got == expected


# ----------------------------------------------------------------------
# Queue-aware leaves: complete states priced from the searches' rows
# ----------------------------------------------------------------------
@st.composite
def leaf_cases(draw):
    """``(inst, tensors, sets, congestion)``: a complete host-set state
    (one or two sorted devices per module, encoders possibly sharing a
    host) and an offered load whose rate may be zero."""
    inst, tensors = draw_instance(draw)
    n_devices = tensors.n_devices
    hosts = st.integers(0, n_devices - 1)
    sets = [
        tuple(sorted(set(draw(st.lists(hosts, min_size=1, max_size=2)))))
        for _ in range(tensors.n_modules)
    ]
    if draw(st.booleans()):
        sets[1] = sets[0]
    rate = draw(st.sampled_from((0.0, 0.05, 0.5, 5.0, 500.0)))
    rates = {request.model.name: rate for request in inst.requests}
    return inst, tensors, sets, CongestionModel(rates)


def single_copy(sets):
    """Keep each module's first host: a complete single-copy assignment."""
    return [hosts[0] for hosts in sets]


def placement_of(tensors, sets):
    names = tensors.device_names
    return Placement(
        {tensors.module_names[m]: tuple(names[n] for n in hosts) for m, hosts in enumerate(sets)}
    )


@SETTINGS
@given(leaf_cases())
def test_latency_leaf_matches_wait_objective(case):
    inst, tensors, sets, congestion = case
    requests = list(inst.requests)
    search = _Search(tensors, requests, congestion=congestion)
    assign = single_copy(sets)
    search.assign[:] = assign
    expected = WaitTensors(tensors, congestion).objective(
        requests, placement_of(tensors, [(n,) for n in assign])
    )
    assert search.leaf_value() == expected


@SETTINGS
@given(leaf_cases())
def test_replica_leaf_matches_wait_objective(case):
    inst, tensors, sets, congestion = case
    requests = list(inst.requests)
    search = _ReplicaSearch(tensors, requests, max_copies=2, congestion=congestion)
    search.sets[:] = sets
    expected = WaitTensors(tensors, congestion).replica_objective(
        requests, placement_of(tensors, sets)
    )
    assert search.total_bound() == expected


@SETTINGS
@given(leaf_cases(), st.integers(0, 2**16))
def test_replica_exact_matches_best_hosts_loop(case, salt):
    """Random non-negative waits, zeros included, spanning magnitudes so a
    reordered wait sum rounds differently."""
    inst, tensors, sets, _ = case
    rng = np.random.default_rng(salt)
    waits = [
        0.0 if rng.random() < 0.3 else float(rng.random() * 10.0 ** rng.integers(-4, 2))
        for _ in range(tensors.n_devices)
    ]
    for request in inst.requests:
        group = tensors.group(request.model, request.source)
        bound = _ReplicaGroupBound(tensors, group)
        candidates = [sets[idx] for idx in group.member_idx]
        assert bound.exact(sets) == ref_best_hosts(group, tensors, candidates)[0]
        assert bound.exact(sets, waits) == ref_best_hosts(group, tensors, candidates, waits)[0]
