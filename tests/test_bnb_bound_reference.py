"""The exact solvers' bounds against their numpy reference formulas.

``_GroupBound`` and ``_ReplicaBound`` read per-search Python-float rows
instead of numpy scalars, and build their tables for all encoder paths in
one stacked pass.  Each holds every request class of one model on a class
axis.  The formulas they replaced live on here as
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

The replica search prices a module on each single device once and reads a
host set's class values as the min of its devices' entries.  The pricing
it replaced — each class bounded on its own, each host set by a trial
descend (descend, ``total_bound``, ascend), each greedy candidate by a
trial move — lives on here as ``RefReplicaSearch``.  On drawn instances
(one to three models sharing modules, a head that is also an encoder,
serial and parallel classes, slots 1-3, ``max_copies`` 1-3, tight memory,
with and without an offered load) both phases' children, the class values
after every descend and every greedy candidate's objective must ``==`` the
reference.
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
from repro.core.placement.replicas import _ReplicaSearch
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


def ref_replica_lower_bound(tensors, group, sets):
    """One class's replica bound from its numpy arrays, one path at a time."""
    head_allowed = sets[group.head_idx]
    nh = (
        np.asarray(head_allowed, dtype=np.int64)
        if head_allowed is not None
        else np.flatnonzero(tensors.fits[group.head_idx])
    )
    stage = None
    for e, idx in enumerate(group.encoder_idx):
        enc_allowed = sets[idx]
        ne = (
            np.asarray(enc_allowed, dtype=np.int64)
            if enc_allowed is not None
            else np.flatnonzero(tensors.fits[idx])
        )
        A = group.in_comm[e][ne] + group.enc_comp[e][ne]
        best_per_head = np.min(A[:, None] + group.out[e][np.ix_(ne, nh)], axis=0)
        if stage is None:
            stage = best_per_head
        elif tensors.parallel:
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


def draw_sets(rng, tensors, assign):
    """Host sets from a single-copy ``assign``: ``None`` where unplaced,
    else the device alone or with a second one."""
    sets = []
    for n in assign:
        if n < 0:
            sets.append(None)  # unassigned: every fitting device allowed
        elif rng.random() < 0.5:
            sets.append((n,))
        else:
            sets.append(tuple(sorted({n, int(rng.integers(tensors.n_devices))})))
    return sets


@SETTINGS
@given(stack_cases(), st.integers(0, 2**16))
def test_replica_bound_matches_numpy_reference(case, salt):
    """Every class row of each model's stacked replica bound ``==`` that
    class's numpy formula."""
    tensors, requests, assign, _ = case
    sets = draw_sets(np.random.default_rng(salt), tensors, assign)
    search = _ReplicaSearch(tensors, requests, max_copies=2)
    for classes, bound in zip(search.stacks, search.bounds):
        lower = bound.lower_bound(sets)
        assert all(type(value) is float for value in lower)
        assert lower == [
            ref_replica_lower_bound(tensors, search.groups[g], sets) for g in classes
        ]


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
    """The queue-aware leaf, and each of its class rows, against the
    placement-level cheapest-replica loop."""
    inst, tensors, sets, congestion = case
    requests = list(inst.requests)
    search = _ReplicaSearch(tensors, requests, max_copies=2, congestion=congestion)
    search.sets[:] = sets
    wait = WaitTensors(tensors, congestion)
    expected = wait.replica_objective(requests, placement_of(tensors, sets))
    assert search.total_bound() == expected
    waits = wait.waits_for_placement(requests, placement_of(tensors, sets))
    for classes, bound in zip(search.stacks, search.bounds):
        assert bound.exact(sets, waits) == [
            ref_best_hosts(
                search.groups[g], tensors, [sets[idx] for idx in search.groups[g].member_idx],
                waits,
            )[0]
            for g in classes
        ]


@SETTINGS
@given(leaf_cases(), st.integers(0, 2**16))
def test_replica_exact_matches_best_hosts_loop(case, salt):
    """Every class row of the stacked exact value, waits or none, against
    the numpy cheapest-replica loop.  Random non-negative waits, zeros
    included, spanning magnitudes so a reordered wait sum rounds
    differently."""
    inst, tensors, sets, _ = case
    rng = np.random.default_rng(salt)
    waits = [
        0.0 if rng.random() < 0.3 else float(rng.random() * 10.0 ** rng.integers(-4, 2))
        for _ in range(tensors.n_devices)
    ]
    search = _ReplicaSearch(tensors, list(inst.requests), max_copies=2)
    for classes, bound in zip(search.stacks, search.bounds):
        groups = [search.groups[g] for g in classes]
        candidates = [[sets[idx] for idx in group.member_idx] for group in groups]
        assert bound.exact(sets) == [
            ref_best_hosts(group, tensors, hosts)[0] for group, hosts in zip(groups, candidates)
        ]
        assert bound.exact(sets, waits) == [
            ref_best_hosts(group, tensors, hosts, waits)[0]
            for group, hosts in zip(groups, candidates)
        ]


# ----------------------------------------------------------------------
# Per-device host sets: the replica search against its per-set pricing
# ----------------------------------------------------------------------
class RefReplicaClass:
    """One request class's replica bound as the search priced it before
    per-device tables: plain Python over its own rows, the lower bound per
    host set and the exact value by its own cheapest-replica loop."""

    def __init__(self, tensors, group):
        self.tensors, self.group, self.parallel = tensors, group, tensors.parallel
        self.members = group.member_idx
        self.head_fit = np.flatnonzero(tensors.fits[group.head_idx]).tolist()
        fit = tensors.fits[group.encoder_idx]
        in_comm, enc_comp = np.array(group.in_comm), np.array(group.enc_comp)
        out = np.array(group.out)
        paths = (in_comm + enc_comp)[:, :, None] + out
        self.rows = (in_comm.tolist(), enc_comp.tolist(), out.tolist(), group.head_comp.tolist())
        self.paths = paths.tolist()
        self.free = paths.min(axis=1, where=fit[:, :, None], initial=np.inf).tolist()

    def lower_bound(self, sets):
        group = self.group
        heads = sets[group.head_idx]
        if heads is None:
            heads = self.head_fit
        stage = None
        for e, idx in enumerate(group.encoder_idx):
            encs = sets[idx]
            if encs is None:
                best_per_head = [self.free[e][nh] for nh in heads]
            else:
                rows = [self.paths[e][ne] for ne in encs]
                best_per_head = [min([row[nh] for row in rows]) for nh in heads]
            if stage is None:
                stage = best_per_head
            elif self.parallel:
                stage = [max(s, b) for s, b in zip(stage, best_per_head)]
            else:
                stage = [s + b for s, b in zip(stage, best_per_head)]
        head = self.rows[3]
        return min([s + head[nh] for s, nh in zip(stage, heads)])

    def exact(self, sets, waits=None):
        group, (in_rows, comp, out, head) = self.group, self.rows
        best = None
        for combo in itertools.product(*[sets[idx] for idx in self.members]):
            value = group_latency(
                in_rows, comp, out, head, [combo[p] for p in group.enc_pos],
                combo[group.head_pos], self.tensors.slots, self.parallel,
            )
            if waits is not None:
                wait = 0.0
                for n in combo:
                    wait = wait + waits[n]
                value = value + wait
            if best is None or value < best:
                best = value
        return best


class RefReplicaSearch(_ReplicaSearch):
    """The replica search with each class bounded on its own and each host
    set priced by a trial descend (descend, ``total_bound``, ascend), and
    each greedy candidate by a trial move: the pricing the per-device
    tables replaced."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refs = [RefReplicaClass(self.tensors, group) for group in self.groups]
        self.root_lb = [ref.lower_bound(self.sets) for ref in self.refs]
        self.group_lb = list(self.root_lb)

    def _scored(self, m):
        need, residual = self.memory[m], self.residual
        for subset in self.subsets_of[m]:
            if min([residual[n] for n in subset]) >= need:
                saved = self.descend(m, subset)
                bound = self.total_bound()
                self.ascend(m, subset, saved)
                yield bound, subset

    def descend(self, m, subset):
        self._occupy(m, subset, 1)
        saved = [(g, self.group_lb[g]) for g in self.groups_using[m]]
        for g in self.groups_using[m]:
            ref = self.refs[g]
            if None not in [self.sets[idx] for idx in ref.members]:
                self.group_lb[g] = ref.exact(self.sets)
            else:
                self.group_lb[g] = ref.lower_bound(self.sets)
        return saved, (self.wait.descend(m, subset) if self.wait is not None else None)

    def _leaf_value(self):
        sets = self.sets
        waits = self.wait_tensors.device_waits(self.requests, lambda m: sets[m])
        return float(self.fan([ref.exact(sets, waits) for ref in self.refs]))

    def fill(self, current):
        for m, hosts in current.items():
            self.descend(m, hosts)

    def candidate_objectives(self, current, max_copies):
        """One greedy round: each candidate priced by moving the module onto
        the candidate set, reading ``total_bound`` and moving it back."""
        names = self.tensors.device_names
        objectives = []
        for m in sorted(range(self.n_modules), key=self.tensors.module_names.__getitem__):
            hosts = current[m]
            if len(hosts) >= max_copies:
                continue
            for n in range(self.n_devices):
                if n in hosts or self.residual[n] < self.memory[m]:
                    continue
                candidate = tuple(sorted(hosts + (n,), key=names.__getitem__))
                self._occupy(m, hosts, -1)
                saved = self.descend(m, candidate)
                objectives.append(self.total_bound())
                self.ascend(m, candidate, saved)
                self._occupy(m, hosts, 1)
        return objectives


def draw_replica_case(draw):
    """``(tensors, requests, max_copies, congestion, squeeze)``: one to
    three models sharing modules (a head may also be one of its model's
    encoders), serial or parallel, slots 1-3 per device, possibly tight
    fitting masks, ``max_copies`` 1-3, an offered load or none, and bytes
    taken off each device's free memory (``squeeze``) so that some host
    sets do not fit."""
    tensors, requests = draw_requests(draw)
    tensors.slots = [draw(st.sampled_from([1, 2, 3])) for _ in range(tensors.n_devices)]
    max_copies = draw(st.sampled_from([2, 3, 1]))
    congestion = None
    if draw(st.booleans()):
        rate = draw(st.sampled_from((0.5, 0.0, 5.0)))
        congestion = CongestionModel({request.model.name: rate for request in requests})
    squeeze = [0] * tensors.n_devices
    if draw(st.booleans()):
        biggest = int(tensors.memory.max())
        squeeze = [
            int(cap) - biggest * draw(st.integers(1, 3)) if draw(st.booleans()) else 0
            for cap in tensors.capacity
        ]
        squeeze = [max(q, 0) for q in squeeze]
    return tensors, requests, max_copies, congestion, squeeze


def replica_pair(tensors, requests, max_copies, congestion, squeeze):
    """The search and its per-set reference on the same squeezed state."""
    pair = []
    for cls in (_ReplicaSearch, RefReplicaSearch):
        search = cls(tensors, requests, max_copies, congestion=congestion)
        search.residual[:] = [r - q for r, q in zip(search.residual, squeeze)]
        pair.append(search)
    assert pair[0].group_lb == pair[1].group_lb
    return pair


@st.composite
def replica_paths(draw):
    """A replica case, a module order and per-depth child picks."""
    case = draw_replica_case(draw)
    tensors = case[0]
    order = draw(st.permutations(range(tensors.n_modules)))
    picks = [draw(st.integers(0, 10**6)) for _ in order]
    return (*case, order, picks)


def same_children(search, ref, m):
    """Both phases' children of ``m``: the same ``(bound, host set)`` lists."""
    children = search.value_children(m)
    assert children == ref.value_children(m)
    assert list(search.tie_children(m)) == list(ref.tie_children(m))
    return children


def check_replica_path(case):
    """Walk one path down the search and its reference together.  At each
    depth both give the same children in both phases; a first child is
    descended, the next module's children compared under it, and undone;
    then a second child is descended and the walk goes on under it (so a
    module is priced again after a sibling changed the state above it).
    Class values must agree after every descend and ascend, and the
    complete state's bound with it."""
    tensors, requests, max_copies, congestion, squeeze, order, picks = case
    search, ref = replica_pair(tensors, requests, max_copies, congestion, squeeze)
    for depth, (m, pick) in enumerate(zip(order, picks)):
        children = same_children(search, ref, m)
        if not children:
            return
        first = children[pick % len(children)][1]
        second = children[(pick // 7) % len(children)][1]
        if depth + 1 < len(order) and first != second:
            undo = (search.descend(m, first), ref.descend(m, first))
            assert search.group_lb == ref.group_lb
            same_children(search, ref, order[depth + 1])
            search.ascend(m, first, undo[0])
            ref.ascend(m, first, undo[1])
            assert search.group_lb == ref.group_lb
        search.descend(m, second)
        ref.descend(m, second)
        assert search.group_lb == ref.group_lb
    assert search.total_bound() == ref.total_bound()


@pytest.mark.parametrize("examples", PROFILES)
def test_replica_children_match_trial_descends(examples):
    run_property(replica_paths(), check_replica_path, examples)


@st.composite
def replica_fills(draw):
    """A replica case and a complete assignment: every module on one of
    its host sets (memory permitting or not)."""
    case = draw_replica_case(draw)
    tensors, requests, max_copies = case[:3]
    search = _ReplicaSearch(tensors, requests, max_copies)
    current = {
        m: draw(st.sampled_from(subsets)) for m, subsets in enumerate(search.subsets_of)
    }
    return (*case, current)


def check_greedy_candidates(case):
    """Two greedy rounds: each candidate's objective ``==`` its trial move,
    the second after both apply the first round's first candidate."""
    tensors, requests, max_copies, congestion, squeeze, current = case
    search, ref = replica_pair(tensors, requests, max_copies, congestion, squeeze)
    search._fill(current)
    ref.fill(current)
    if congestion is None:
        assert search.group_lb == ref.group_lb
    assert search.total_bound() == ref.total_bound()
    current = dict(current)
    for _ in range(2):
        rows = search._candidates(current, max_copies)
        assert [key[0] for key, *_ in rows] == ref.candidate_objectives(current, max_copies)
        if not rows:
            return
        _, m, candidate, values = rows[0]
        search._occupy(m, current[m], -1)
        search._occupy(m, candidate, 1)
        if values is not None:
            search.group_lb[:] = values
        ref._occupy(m, current[m], -1)
        ref.descend(m, candidate)
        current[m] = candidate


@pytest.mark.parametrize("examples", PROFILES)
def test_replica_greedy_candidates_match_trial_moves(examples):
    run_property(replica_fills(), check_greedy_candidates, examples)


@st.composite
def replica_tables(draw):
    """A partial host-set state and an unassigned module to tabulate."""
    tensors, requests = draw_requests(draw)
    search = _ReplicaSearch(tensors, requests, max_copies=draw(st.sampled_from([2, 3])))
    sets = [
        draw(st.sampled_from([None, *subsets])) for subsets in search.subsets_of
    ]
    m = draw(st.integers(0, tensors.n_modules - 1))
    sets[m] = None
    return search, sets, m


def check_tables(case):
    """Each stack's per-device table: every class entry ``==`` that class's
    reference with ``m`` on the device alone, and every host set's min over
    its entries ``==`` the reference on the set — except a head that is
    also an encoder while its classes are partial, which has no table."""
    search, sets, m = case
    tensors = search.tensors
    devices = list(range(tensors.n_devices))
    for s in search.stacks_using[m]:
        classes, bound = search.stacks[s], search.bounds[s]
        refs = [RefReplicaClass(tensors, search.groups[g]) for g in classes]
        table = bound.device_values(sets, m, devices)
        complete = all(sets[idx] is not None for idx in bound.members if idx != m)

        def ref_value(ref, hosts):
            priced = list(sets)
            priced[m] = hosts
            return ref.exact(priced) if complete else ref.lower_bound(priced)

        if table is None:
            assert bound.dual and m == bound.head_idx and not complete
            continue
        for ref, row in zip(refs, table):
            assert row == [ref_value(ref, (n,)) for n in devices]
            for hosts in search.subsets_of[m]:
                assert min([row[n] for n in hosts]) == ref_value(ref, hosts)


@pytest.mark.parametrize("examples", PROFILES)
def test_replica_device_tables_match_per_set_reference(examples):
    run_property(replica_tables(), check_tables, examples)


def test_dual_role_module_is_priced_per_set():
    """A module that is one model's head and also its encoder, placed on
    two devices while another encoder is still free: its head and encoder
    replicas are picked independently (min over S x S), below every
    singleton on some set (rare: 4 x 8 seed 8 has one such set), so the
    search prices each set from the bound itself."""
    inst = synthetic_instance(4, 8, seed=8)
    base = inst.model
    dual = dataclasses.replace(
        base, name=f"{base.name}-dual", head=base.encoders[0], encoders=base.encoders,
    )
    problem = dataclasses.replace(inst.problem, models=(dual,))
    tensors = CostTensors(problem, inst.network)
    requests = [InferenceRequest(dual, source) for source in tensors.device_names]
    search = _ReplicaSearch(tensors, requests, max_copies=2)
    ref = RefReplicaSearch(tensors, requests, max_copies=2)
    m = tensors.module_idx(base.encoders[0])
    bound = search.bounds[0]
    assert bound.dual and m == bound.head_idx
    assert bound.device_values(search.sets, m, range(tensors.n_devices)) is None
    assert search.value_children(m) == ref.value_children(m)
    # The independent pick is strictly below the singletons on some set.
    refs = [RefReplicaClass(tensors, group) for group in search.groups]
    gaps = 0
    for hosts in search.subsets_of[m]:
        sets = [None] * tensors.n_modules
        sets[m] = hosts
        for r in refs:
            singles = []
            for n in hosts:
                sets[m] = (n,)
                singles.append(r.lower_bound(sets))
            sets[m] = hosts
            assert r.lower_bound(sets) <= min(singles)
            gaps += r.lower_bound(sets) < min(singles)
    assert gaps
