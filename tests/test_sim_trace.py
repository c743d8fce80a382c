"""Trace recording and Gantt rendering (Fig. 3 substrate)."""

import pytest

from repro.sim.trace import (
    CATEGORY_COMPUTE,
    CATEGORY_HEAD,
    Span,
    TraceRecorder,
)

from conftest import parallel_compute_spans


class TestSpan:
    def test_duration(self):
        assert Span("d", CATEGORY_COMPUTE, "x", 1.0, 3.5).duration == 2.5

    def test_overlap_detection(self):
        a = Span("d1", CATEGORY_COMPUTE, "a", 0.0, 2.0)
        b = Span("d2", CATEGORY_COMPUTE, "b", 1.0, 3.0)
        c = Span("d3", CATEGORY_COMPUTE, "c", 2.0, 4.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # touching endpoints do not overlap


class TestTraceRecorder:
    def test_record_and_group_by_device(self):
        trace = TraceRecorder()
        trace.record("laptop", CATEGORY_COMPUTE, "encode", 0.0, 2.0)
        trace.record("jetson", CATEGORY_COMPUTE, "encode", 0.5, 1.5)
        grouped = trace.by_device()
        assert set(grouped) == {"laptop", "jetson"}

    def test_invalid_span_rejected(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.record("d", CATEGORY_COMPUTE, "x", 2.0, 1.0)

    def test_disabled_recorder_is_noop(self):
        trace = TraceRecorder(enabled=False)
        trace.record("d", CATEGORY_COMPUTE, "x", 0.0, 1.0)
        assert trace.spans == []

    def test_makespan(self):
        trace = TraceRecorder()
        trace.record("a", CATEGORY_COMPUTE, "x", 0.0, 2.0)
        trace.record("b", CATEGORY_HEAD, "y", 2.0, 2.4)
        assert trace.makespan() == 2.4

    def test_makespan_empty(self):
        assert TraceRecorder().makespan() == 0.0

    def test_parallel_compute_detection(self):
        trace = TraceRecorder()
        trace.record("laptop", CATEGORY_COMPUTE, "text", 0.0, 2.0)
        trace.record("jetson", CATEGORY_COMPUTE, "vision", 0.5, 1.5)
        assert len(parallel_compute_spans(trace)) == 1

    def test_same_device_compute_not_parallel(self):
        trace = TraceRecorder()
        trace.record("laptop", CATEGORY_COMPUTE, "a", 0.0, 2.0)
        trace.record("laptop", CATEGORY_COMPUTE, "b", 1.0, 3.0)
        assert parallel_compute_spans(trace) == []

    def test_gantt_renders_all_devices(self):
        trace = TraceRecorder()
        trace.record("laptop", CATEGORY_COMPUTE, "x", 0.0, 1.0)
        trace.record("jetson-a", CATEGORY_HEAD, "y", 1.0, 1.2)
        output = trace.render_gantt(width=40)
        assert "laptop" in output
        assert "jetson-a" in output
        assert "#" in output
        assert "H" in output

    def test_gantt_empty(self):
        assert "empty" in TraceRecorder().render_gantt()
