"""The exact solvers' bounds against their numpy reference formulas.

``_GroupBound`` and ``_ReplicaGroupBound`` read per-search Python-float
rows instead of numpy scalars, and build their tables for all encoder
paths in one stacked pass.  The formulas they replaced live on here as
test-side references, written over the bound's numpy arrays one path at a
time: every bound and table must equal its reference with ``==`` (same
doubles, not approximately), because the searches' node counts and
tie-breaks depend on exact values.

Random partial assignments cover parallel and serial classes, encoders
sharing a host (the slot-contention terms), an unplaced head, the
last-free-member exact vector, the energy bound and replica host sets.
The queue-aware leaves are checked the same way: both searches price a
complete state from their rows plus the queue waits, and must equal the
placement-level ``WaitTensors`` objectives and the cheapest-replica loop
they replaced.  The search is derandomized and small so tier-1 wall time
stays bounded.
"""

import itertools
import operator
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement.bnb import _EnergyBound, _LatencyBound, _Search
from repro.core.placement.problem import Placement
from repro.core.placement.replicas import _ReplicaGroupBound, _ReplicaSearch
from repro.core.placement.tensors import (
    CongestionModel,
    CostTensors,
    EnergyTensors,
    WaitTensors,
    _lpt_waits,
)
from repro.experiments.scaling import synthetic_instance

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

SHAPES = [(3, 4), (4, 5), (4, 8), (5, 6)]


# ----------------------------------------------------------------------
# Reference formulas: element reads and per-element min/max on numpy
# scalars, as the solvers computed them before reading list rows.
# ----------------------------------------------------------------------
def ref_tables(bound):
    """The set-up tables, built one encoder path at a time."""
    tensors, group = bound.tensors, bound.group
    head_fit = tensors.fits[bound.head_idx]
    tables = {"out_min": [], "enc_assigned": [], "head_assigned": [], "free": []}
    for e, idx in enumerate(bound.encoder_idx):
        fit = tensors.fits[idx]
        out = group.out[e]
        out_min = np.min(out[:, head_fit], axis=1)
        enc_assigned = bound.A[e] + out_min
        masked = np.where(fit[:, None], bound.A[e][:, None] + out, np.inf)
        tables["out_min"].append(out_min.tolist())
        tables["enc_assigned"].append(enc_assigned.tolist())
        tables["head_assigned"].append(np.min(masked, axis=0).tolist())
        tables["free"].append(float(np.min(enc_assigned[fit])))
    tables["head_min"] = float(np.min(bound.head[head_fit]))
    return tables


def bound_tables(bound):
    return {
        "out_min": bound.out_min_rows, "enc_assigned": bound.enc_assigned_rows,
        "head_assigned": bound.head_assigned_rows, "free": bound.free,
        "head_min": bound.head_min,
    }


def ref_contention_state(bound, assign):
    loads, members, unassigned = {}, {}, []
    for e, idx in enumerate(bound.encoder_idx):
        ne = int(assign[idx])
        if ne >= 0:
            loads[ne] = loads.get(ne, 0.0) + float(bound.group.enc_comp[e][ne])
            members.setdefault(ne, []).append(e)
        else:
            unassigned.append(e)
    return loads, members, unassigned


def ref_contention_term(bound, n, pool, load, nh):
    in_min = min(float(bound.group.in_comm[e][n]) for e in pool)
    if nh >= 0:
        out_floor = min(float(bound.group.out[e][n, nh]) for e in pool)
    else:
        head_fit = bound.tensors.fits[bound.head_idx]
        out_floor = min(float(np.min(bound.group.out[e][n, head_fit])) for e in pool)
    return (in_min + load / bound.tensors.slots[n] + out_floor) * bound._CONTENTION_SLACK


def ref_contention(bound, assign, nh):
    if not bound.parallel:
        return 0.0
    loads, members, unassigned = ref_contention_state(bound, assign)
    best = 0.0
    for n, here in members.items():
        if len(here) <= bound.tensors.slots[n]:
            continue
        term = ref_contention_term(bound, n, here + unassigned, loads[n], nh)
        if term > best:
            best = term
    return best


def ref_lower_bound(bound, assign):
    if all(assign[i] >= 0 for i in bound.members):
        return float(bound.exact(assign))
    out = bound.group.out
    nh = int(assign[bound.head_idx])
    terms = []
    for e, idx in enumerate(bound.encoder_idx):
        ne = int(assign[idx])
        if ne >= 0:
            terms.append(
                bound.A[e][ne] + out[e][ne, nh] if nh >= 0 else bound.enc_assigned[e][ne]
            )
        else:
            terms.append(bound.head_assigned[e][nh] if nh >= 0 else bound.free[e])
    if not terms:
        encoder = 0.0
    elif bound.parallel:
        encoder = max(terms)
        contention = ref_contention(bound, assign, nh)
        if contention > encoder:
            encoder = contention
    else:
        encoder = reduce(operator.add, terms, 0.0)
    head = bound.head[nh] if nh >= 0 else bound.head_min
    return float(encoder + head)


def ref_exact_vector(bound, assign, module_index):
    group, tensors = bound.group, bound.tensors
    n_devices = len(bound.head)
    n_encoders = len(bound.encoder_idx)
    moving = [e for e in range(n_encoders) if bound.encoder_idx[e] == module_index]
    if bound.head_idx == module_index:
        hosts = [int(assign[i]) for i in bound.encoder_idx]
        comps = [group.enc_comp[e][hosts[e]] for e in range(n_encoders)]
        waits = _lpt_waits(hosts, comps, tensors.slots)
        paths = [
            (group.in_comm[e][hosts[e]] + waits[e] + comps[e]) + group.out[e][hosts[e], :]
            for e in range(n_encoders)
        ]
        return reduce(np.maximum, paths) + bound.head
    e0 = moving[0]
    nh = int(assign[bound.head_idx])
    hosts = [int(assign[bound.encoder_idx[e]]) if e != e0 else -1 for e in range(n_encoders)]
    others = [e for e in range(n_encoders) if e != e0]
    counts = {}
    for e in others:
        counts[hosts[e]] = counts.get(hosts[e], 0) + 1
    waits = _lpt_waits(
        [hosts[e] for e in others], [group.enc_comp[e][hosts[e]] for e in others], tensors.slots
    )
    stage = (group.in_comm[e0] + group.enc_comp[e0]) + group.out[e0][:, nh]
    for pos, e in enumerate(others):
        stage = np.maximum(
            stage,
            group.in_comm[e][hosts[e]] + waits[pos] + group.enc_comp[e][hosts[e]]
            + group.out[e][hosts[e], nh],
        )
    values = np.asarray(stage + bound.head[nh], dtype=np.float64)
    for n in range(n_devices):
        if counts.get(n, 0) + 1 > tensors.slots[n]:
            full_hosts = [n if e == e0 else hosts[e] for e in range(n_encoders)]
            values[n] = group.total(tensors, full_hosts, nh)
    return values


def ref_bound_vector(bound, assign, module_index):
    if bound.parallel and all(assign[i] >= 0 for i in bound.members if i != module_index):
        return ref_exact_vector(bound, assign, module_index)
    out = bound.group.out
    nh = int(assign[bound.head_idx])
    head_here = module_index == bound.head_idx
    terms = []
    for e, idx in enumerate(bound.encoder_idx):
        ne = int(assign[idx])
        if idx == module_index:
            if head_here:
                terms.append(bound.A[e] + np.diagonal(out[e]))
            elif nh >= 0:
                terms.append(bound.A[e] + out[e][:, nh])
            else:
                terms.append(bound.enc_assigned[e])
        elif head_here:
            if ne >= 0:
                terms.append(bound.A[e][ne] + out[e][ne, :])
            else:
                terms.append(bound.head_assigned[e])
        elif ne >= 0:
            terms.append(
                bound.A[e][ne] + out[e][ne, nh] if nh >= 0 else bound.enc_assigned[e][ne]
            )
        else:
            terms.append(bound.head_assigned[e][nh] if nh >= 0 else bound.free[e])
    if not terms:
        encoder = 0.0
    elif bound.parallel:
        encoder = reduce(np.maximum, terms)
    else:
        encoder = reduce(operator.add, terms, 0.0)
    if terms and bound.parallel:
        base = ref_contention(bound, assign, -1 if head_here else nh)
        if base > 0.0:
            encoder = np.maximum(encoder, base)
        if not head_here:
            encoder = np.asarray(encoder, dtype=np.float64) + np.zeros(len(bound.head))
            loads, members, unassigned = ref_contention_state(bound, assign)
            e0 = bound.encoder_idx.index(module_index)
            joiners = [e for e in unassigned if e != e0]
            for n in range(len(bound.head)):
                here = members.get(n, ())
                if len(here) + 1 <= bound.tensors.slots[n]:
                    continue
                load = loads.get(n, 0.0) + float(bound.group.enc_comp[e0][n])
                term = ref_contention_term(bound, n, list(here) + [e0] + joiners, load, nh)
                if term > encoder[n]:
                    encoder[n] = term
    head = bound.head if head_here else (bound.head[nh] if nh >= 0 else bound.head_min)
    return np.broadcast_to(
        np.asarray(encoder + head, dtype=np.float64), bound.head.shape
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
            else np.asarray(bound._enc_fit_idx[e], dtype=np.int64)
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
        value = group.total(tensors, enc_hosts, combo[position[group.head_idx]])
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
def draw_instance(draw):
    """A synthetic instance and its tensors, possibly with tight memory
    (each module fits only some devices)."""
    n_modules, n_devices = draw(st.sampled_from(SHAPES))
    seed = draw(st.integers(0, 30))
    parallel = draw(st.booleans())
    inst = synthetic_instance(n_modules, n_devices, seed=seed)
    tensors = CostTensors(inst.problem, inst.network, parallel=parallel)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        mask = rng.random(tensors.fits.shape) < 0.5
        mask[np.arange(n_modules), rng.integers(n_devices, size=n_modules)] = True
        tensors.fits = tensors.fits & mask
    return inst, tensors


@st.composite
def partial_cases(draw):
    """``(tensors, groups, assign, moving)`` on a synthetic instance: some
    modules placed (encoders possibly sharing a host), the head possibly
    unplaced, ``moving`` an unplaced member to price per device, and
    possibly tight memory."""
    inst, tensors = draw_instance(draw)
    n_modules, n_devices = tensors.n_modules, tensors.n_devices
    last_free = draw(st.booleans())  # every other member placed: exact vector
    assign = np.array(
        [draw(st.integers(0 if last_free else -1, n_devices - 1)) for _ in range(n_modules)],
        dtype=np.int64,
    )
    if draw(st.booleans()):  # two encoders on one host: slot contention
        shared = draw(st.integers(0, n_devices - 1))
        assign[0] = assign[1] = shared
    head = n_modules - 1  # synthetic instances list the head last
    if not last_free and draw(st.booleans()):
        assign[head] = -1
    moving = draw(st.integers(0, n_modules - 1))
    assign[moving] = -1
    groups = [tensors.group(request.model, request.source) for request in inst.requests]
    return tensors, groups, assign, moving


@SETTINGS
@given(partial_cases())
def test_latency_bounds_match_numpy_reference(case):
    tensors, groups, assign, moving = case
    for group in groups:
        bound = _LatencyBound(tensors, group)
        assert bound_tables(bound) == ref_tables(bound)
        assert bound.A.tolist() == [
            (i + c).tolist() for i, c in zip(group.in_comm, group.enc_comp)
        ]
        assert bound.lower_bound(assign) == ref_lower_bound(bound, assign)
        expected = ref_bound_vector(bound, assign, moving)
        got = bound.bound_vector(assign, moving)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tolist() == expected.tolist()
        got[:] = -1.0  # the search owns the vector: no bound state aliases it
        assert bound.bound_vector(assign, moving).tolist() == expected.tolist()


@SETTINGS
@given(partial_cases())
def test_energy_bounds_match_numpy_reference(case):
    tensors, groups, assign, moving = case
    energy = EnergyTensors(tensors)
    for group in groups:
        en = energy.group(group.model, group.source)
        bound = _EnergyBound(tensors, en)
        assert bound_tables(bound) == ref_tables(bound)
        assert bound.lower_bound(assign) == ref_lower_bound(bound, assign)
        got = bound.bound_vector(assign, moving)
        assert got.tolist() == ref_bound_vector(bound, assign, moving).tolist()


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
