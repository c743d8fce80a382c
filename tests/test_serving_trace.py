"""The arrival-trace column contract and its boundary.

An :class:`ArrivalTrace` is two columns, a read-only float64 ``times``
array and a ``model_names`` tuple, plus its metadata.  These tests pin
what the serving path relies on: the generator's columns, zero-copy
sharing with the engine (a run leaves ``times`` as it found it), the
per-arrival ``arrivals`` view, equality and pickling, and the refusals
at construction.  A derandomized property search then feeds malformed
traces end to end: each one either serves with conservation intact or
raises a ``ValueError`` naming the column or the arrival index.
"""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement.tensors import CongestionModel
from repro.serving import ServingRuntime, SLOPolicy
from repro.serving.workload import WORKLOAD_KINDS, Arrival, ArrivalTrace, WorkloadGenerator

MODELS = ["clip-vit-b16", "encoder-vqa-small"]


def _trace(times, model_names, **meta):
    return ArrivalTrace(
        times=times, model_names=model_names,
        duration_s=meta.get("duration_s", 30.0), kind="poisson", seed=meta.get("seed", 0),
    )


class TestColumns:
    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_generate_emits_two_columns(self, kind):
        trace = WorkloadGenerator(MODELS, kind=kind, rate_rps=2.0, duration_s=20.0, seed=3).generate()
        assert len(trace) > 0
        assert isinstance(trace.times, np.ndarray)
        assert trace.times.dtype == np.float64 and trace.times.ndim == 1
        assert not trace.times.flags.writeable
        assert trace.times.nbytes == 8 * len(trace)
        assert type(trace.model_names) is tuple
        assert set(trace.model_names) <= set(MODELS)
        with pytest.raises(ValueError):
            trace.times[0] = 1.0

    def test_empty_generate_has_empty_columns(self):
        trace = WorkloadGenerator(MODELS, rate_rps=0.01, duration_s=0.5, seed=0).generate()
        assert len(trace) == 0 and trace.times.shape == (0,) and trace.model_names == ()

    def test_second_run_same_digest_and_times_untouched(self):
        trace = WorkloadGenerator(MODELS, kind="bursty", rate_rps=1.0, duration_s=15.0, seed=4).generate()
        before = trace.times.copy()
        runtime = ServingRuntime(MODELS)
        first = runtime.run(trace)
        second = runtime.run(trace)
        assert second.digest() == first.digest()
        assert first.arrivals == len(trace)
        assert np.array_equal(trace.times, before)
        assert not trace.times.flags.writeable

    def test_arrivals_view_rows_match_the_columns(self):
        trace = WorkloadGenerator(MODELS, rate_rps=2.0, duration_s=5.0, seed=1).generate()
        view = trace.arrivals
        assert type(view) is tuple and len(view) == len(trace)
        for i, arrival in enumerate(view):
            assert type(arrival.time) is float
            assert arrival == Arrival(float(trace.times[i]), trace.model_names[i])

    def test_read_only_float64_column_is_kept_without_a_copy(self):
        times = np.array([0.5, 1.5])
        times.flags.writeable = False
        assert _trace(times, MODELS).times is times

    def test_writeable_column_is_copied(self):
        times = np.array([0.5, 1.5])
        trace = _trace(times, MODELS)
        times[0] = 9.0
        assert trace.times.tolist() == [0.5, 1.5]
        assert times.flags.writeable  # the caller's array keeps its flags

    def test_int_and_float32_times_widen_to_float64(self):
        assert _trace([1, 2], MODELS).times.dtype == np.float64
        trace = _trace(np.array([0.25, 0.5], dtype=np.float32), MODELS)
        assert trace.times.dtype == np.float64 and trace.times.tolist() == [0.25, 0.5]

    def test_equality_compares_columns_and_metadata(self):
        trace = _trace([0.5, 1.5], MODELS)
        assert trace == _trace((0.5, 1.5), tuple(MODELS))
        assert hash(trace) == hash(_trace((0.5, 1.5), tuple(MODELS)))
        assert trace != _trace([0.5, 1.75], MODELS)
        assert trace != _trace([0.5, 1.5], MODELS[::-1])
        assert trace != _trace([0.5, 1.5], MODELS, seed=1)
        assert trace != _trace([0.5, 1.5], MODELS, duration_s=31.0)
        assert trace != _trace([0.5], MODELS[:1])

    def test_pickle_round_trip_stays_read_only(self):
        trace = WorkloadGenerator(MODELS, rate_rps=2.0, duration_s=5.0, seed=2).generate()
        again = pickle.loads(pickle.dumps(trace))
        assert again == trace
        assert not again.times.flags.writeable

    def test_model_counts_in_first_appearance_order(self):
        trace = _trace([0.1, 0.2, 0.3, 0.4], ["b", "a", "b", "c"])
        assert list(trace.model_counts().items()) == [("b", 2), ("a", 1), ("c", 1)]
        rates = CongestionModel.from_trace(trace).rates
        assert list(rates) == ["b", "a", "c"]
        assert rates["b"] == 2 / 30.0


class TestBoundary:
    """Before columns, ``Arrival(True, ...)`` was served at t = 1.0 and a
    ``str`` time raised a ``TypeError`` deep in the run."""

    @pytest.mark.parametrize("times, names, field", [
        (np.zeros((2, 1)), MODELS, "times"),
        ([[0.5], [1.5]], MODELS, "times"),
        (np.zeros((), dtype=np.float64), (), "times"),
        ([0.5, True], MODELS, r"times\[1\]"),
        ([np.bool_(False)], MODELS[:1], r"times\[0\]"),
        (np.array([True, False]), MODELS, "times"),
        (["1.0"], MODELS[:1], "times"),
        ("0.5", MODELS[:1], "times"),
        (np.array(["1.0"]), MODELS[:1], "times"),
        ([None], MODELS[:1], "times"),
        ([object()], MODELS[:1], "times"),
        (np.array([0.5], dtype=object), MODELS[:1], "times"),
        ([0.5, [1.5]], MODELS, "times"),
        (0.5, MODELS[:1], "times"),
        ([0.5, 1.5], MODELS[:1], "times has 2 entries but model_names has 1"),
        ([0.5], [3], r"model_names\[0\]"),
        ([0.5, 1.5], [MODELS[0], None], r"model_names\[1\]"),
        ([0.5], MODELS[0], "model_names"),
        ([0.5], None, "model_names"),
    ])
    def test_refused_naming_the_column(self, times, names, field):
        with pytest.raises(ValueError, match=field):
            _trace(times, names)


# -- property search --------------------------------------------------------

GOOD_TIMES = st.one_of(st.floats(0.0, 20.0), st.integers(0, 20))
BAD_TIMES = st.sampled_from(
    (math.nan, math.inf, -math.inf, -1.0, -0.0, True, False, np.bool_(True), "1.0", None)
)
BAD_NAMES = st.sampled_from(("imagebind", 3, None, b"clip-vit-b16"))
ARRIVAL_INDEX = re.compile(r"^arrival \d+ ")
FUZZ_RUNTIME = ServingRuntime(MODELS, slo=SLOPolicy(admission=False), max_events=200_000)


@st.composite
def raw_columns(draw):
    """Valid columns with, each by chance, one bad time, one bad name,
    a length mismatch, or the times handed over as a float64 array."""
    n = draw(st.integers(0, 6))
    times = draw(st.lists(GOOD_TIMES, min_size=n, max_size=n))
    names = draw(st.lists(st.sampled_from(MODELS), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        times[draw(st.integers(0, n - 1))] = draw(BAD_TIMES)
    if n and draw(st.booleans()):
        names[draw(st.integers(0, n - 1))] = draw(BAD_NAMES)
    if draw(st.integers(0, 9)) == 0:
        names = names[:-1] if names else [MODELS[0]]
    elif draw(st.booleans()) and all(type(t) in (int, float) for t in times):
        times = np.array(times, dtype=np.float64)
    return times, names


@given(columns=raw_columns())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_malformed_traces_serve_conserved_or_raise_named(columns):
    times, names = columns
    try:
        trace = _trace(times, names)
    except ValueError as exc:
        assert re.search(r"\b(times|model_names)\b", str(exc)), str(exc)
        return
    # Accepted columns hold exactly what was given: no bool, string or
    # None slipped through as a number.
    assert all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in list(times))
    assert np.array_equal(trace.times, np.asarray(times, dtype=float), equal_nan=True)
    assert trace.model_names == tuple(names)
    try:
        report = FUZZ_RUNTIME.run(trace)
    except ValueError as exc:
        assert ARRIVAL_INDEX.match(str(exc)), str(exc)
        return
    assert all(0.0 <= t < math.inf for t in trace.times.tolist())
    assert set(trace.model_names) <= set(MODELS)
    assert report.arrivals == len(trace)
    assert report.completed + report.rejected + report.timed_out == report.arrivals
