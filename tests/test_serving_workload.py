"""Workload generation: determinism, shape properties, validation."""

import pytest

from repro.serving.faults import FAIL, RECOVER, generate_churn
from repro.serving.workload import WORKLOAD_KINDS, ArrivalTrace, WorkloadGenerator

from scalar_reference import _bursty_times_scalar, _poisson_times_scalar

MODELS = ["clip-vit-b16", "encoder-vqa-small"]
DEVICES = ["desktop", "laptop", "jetson-b", "jetson-a"]


class TestWorkloadGenerator:
    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_same_seed_same_trace(self, kind):
        gen = WorkloadGenerator(MODELS, kind=kind, rate_rps=1.0, duration_s=30.0, seed=42)
        first, second = gen.generate(), gen.generate()
        assert first == second
        rebuilt = WorkloadGenerator(
            MODELS, kind=kind, rate_rps=1.0, duration_s=30.0, seed=42
        ).generate()
        assert rebuilt == first

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_different_seeds_differ(self, kind):
        a = WorkloadGenerator(MODELS, kind=kind, rate_rps=1.0, duration_s=30.0, seed=1).generate()
        b = WorkloadGenerator(MODELS, kind=kind, rate_rps=1.0, duration_s=30.0, seed=2).generate()
        assert a != b

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_arrivals_sorted_within_window_and_cataloged(self, kind):
        trace = WorkloadGenerator(MODELS, kind=kind, rate_rps=2.0, duration_s=20.0, seed=0).generate()
        times = [arrival.time for arrival in trace.arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < trace.duration_s for t in times)
        assert set(trace.model_counts()) <= set(MODELS)

    def test_poisson_rate_roughly_matches(self):
        trace = WorkloadGenerator(MODELS, rate_rps=2.0, duration_s=500.0, seed=0).generate()
        assert trace.observed_rate_rps == pytest.approx(2.0, rel=0.2)

    def test_bursty_is_burstier_than_poisson(self):
        """Fano factor of per-second counts: ~1 for Poisson, >1 for MMPP."""

        def fano(trace: ArrivalTrace) -> float:
            bins = [0] * int(trace.duration_s)
            for arrival in trace.arrivals:
                bins[int(arrival.time)] += 1
            mean = sum(bins) / len(bins)
            var = sum((b - mean) ** 2 for b in bins) / len(bins)
            return var / mean

        poisson = WorkloadGenerator(MODELS, kind="poisson", rate_rps=1.0, duration_s=400.0, seed=3).generate()
        bursty = WorkloadGenerator(
            MODELS, kind="bursty", rate_rps=1.0, duration_s=400.0, seed=3, burst_factor=8.0
        ).generate()
        assert fano(bursty) > 2.0 * fano(poisson)

    def test_diurnal_peak_outweighs_trough(self):
        """With rate(t) ~ 1 + a*sin(2*pi*t/T), the first half-period (peak)
        must receive more arrivals than the second (trough)."""
        period = 100.0
        trace = WorkloadGenerator(
            MODELS, kind="diurnal", rate_rps=1.0, duration_s=period, seed=5,
            diurnal_period_s=period, diurnal_amplitude=0.9,
        ).generate()
        peak = sum(1 for a in trace.arrivals if a.time < period / 2)
        trough = len(trace) - peak
        assert peak > 1.5 * trough

    def test_phase_offset_shifts_the_peak(self):
        """Offsetting by half a period swaps peak and trough halves."""
        period = 100.0
        kwargs = dict(
            kind="diurnal", rate_rps=1.0, duration_s=period, seed=5,
            diurnal_period_s=period, diurnal_amplitude=0.9,
        )
        shifted = WorkloadGenerator(
            MODELS, phase_offset_s=period / 2, **kwargs
        ).generate()
        first_half = sum(1 for a in shifted.arrivals if a.time < period / 2)
        second_half = len(shifted) - first_half
        assert second_half > 1.5 * first_half

    def test_phase_offset_zero_is_bit_identical(self):
        """The default offset must reproduce the historical stream exactly
        (the federation's timezone shifts ride on today's generator).  The
        golden digest below was recorded from the generator *before*
        ``phase_offset_s`` existed, so this pins offset 0 to the
        pre-change stream bit-for-bit, not merely to itself."""
        import hashlib

        kwargs = dict(
            kind="diurnal", rate_rps=1.2, duration_s=90.0, seed=11,
            diurnal_period_s=45.0, diurnal_amplitude=0.8,
        )
        default = WorkloadGenerator(MODELS, **kwargs).generate()
        explicit = WorkloadGenerator(MODELS, phase_offset_s=0.0, **kwargs).generate()
        assert explicit == default
        assert len(default) == 98
        assert default.arrivals[0].time == 1.2302431310670119
        digest = hashlib.sha256(
            repr([(a.time, a.model_name) for a in default.arrivals]).encode()
        ).hexdigest()
        assert digest == (
            "887140ecef3c5506c87dd463d81ade209d1f89b017e006ed6191d95e22859620"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadGenerator([], rate_rps=1.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(MODELS, kind="sawtooth")
        with pytest.raises(ValueError):
            WorkloadGenerator(MODELS, rate_rps=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(MODELS, duration_s=-1.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(MODELS, burst_factor=0.5)
        with pytest.raises(ValueError):
            WorkloadGenerator(MODELS, diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(MODELS, phase_offset_s=float("nan"))
        with pytest.raises(ValueError):
            WorkloadGenerator(MODELS, phase_offset_s=float("inf"))


    # ``<= 0`` lets NaN through, and ``generate()`` then died converting
    # NaN to an int (or overflowing on inf) with no field named.
    @pytest.mark.parametrize("field", [
        "rate_rps", "duration_s", "burst_dwell_s", "base_dwell_s",
        "diurnal_period_s", "burst_factor",
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected_naming_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            WorkloadGenerator(MODELS, **{field: bad})

    @pytest.mark.parametrize("field", [
        "rate_rps", "duration_s", "burst_dwell_s", "base_dwell_s",
        "diurnal_period_s", "burst_factor", "phase_offset_s",
    ])
    def test_bool_rejected_naming_the_field(self, field):
        with pytest.raises(ValueError, match=field):
            WorkloadGenerator(MODELS, **{field: True})


class TestChurnGeneration:
    def test_same_seed_same_events(self):
        a = generate_churn(DEVICES, "jetson-a", 0.1, 120.0, seed=9)
        b = generate_churn(DEVICES, "jetson-a", 0.1, 120.0, seed=9)
        assert a == b
        assert a != generate_churn(DEVICES, "jetson-a", 0.1, 120.0, seed=10)

    def test_requester_never_fails(self):
        events = generate_churn(DEVICES, "jetson-a", 0.5, 300.0, seed=0)
        assert events  # a 0.5/s rate over 300s produces events
        assert all(e.device != "jetson-a" for e in events if e.kind == FAIL)

    def test_events_are_consistent_deltas(self):
        """fail only live devices, recover only failed ones, keep min_live."""
        events = generate_churn(DEVICES, "jetson-a", 0.5, 300.0, seed=1, min_live=2)
        live = set(DEVICES)
        for event in events:
            if event.kind == FAIL:
                assert event.device in live
                live.discard(event.device)
                assert len(live) >= 2
            else:
                assert event.kind == RECOVER
                assert event.device not in live
                live.add(event.device)

    def test_zero_rate_is_empty(self):
        assert generate_churn(DEVICES, "jetson-a", 0.0, 60.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_churn(DEVICES, "jetson-a", -0.1, 60.0)
        with pytest.raises(ValueError):
            generate_churn(DEVICES, "jetson-a", 0.1, 0.0)


class TestVectorizedSamplerRegression:
    """The batched samplers must consume the identical RNG stream and emit
    bit-identical times as the scalar reference implementations."""

    @pytest.mark.parametrize("kind", ["poisson", "bursty"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("rate,duration", [(0.3, 45.0), (2.0, 30.0), (25.0, 8.0)])
    def test_times_and_stream_position_bit_equal(self, kind, seed, rate, duration):
        from repro.utils.seeding import rng_for

        gen = WorkloadGenerator(
            MODELS, kind=kind, rate_rps=rate, duration_s=duration, seed=seed
        )
        vec_rng = rng_for("serving-workload", kind, seed)
        ref_rng = rng_for("serving-workload", kind, seed)
        if kind == "poisson":
            vec = gen._poisson_times(vec_rng)
            ref = _poisson_times_scalar(gen, ref_rng)
        else:
            vec = gen._bursty_times(vec_rng)
            ref = _bursty_times_scalar(gen, ref_rng)
        assert list(vec) == ref
        # The stream must be left at exactly the scalar position, or the
        # subsequent model-assignment draws would diverge.
        assert vec_rng.integers(1 << 30, size=8).tolist() == \
            ref_rng.integers(1 << 30, size=8).tolist()

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_generate_matches_historical_per_arrival_draws(self, kind):
        """generate() batches the model assignment; the picks must equal the
        historical one-integers-call-per-arrival sequence."""
        from repro.utils.seeding import rng_for

        gen = WorkloadGenerator(MODELS, kind=kind, rate_rps=1.5, duration_s=40.0, seed=5)
        trace = gen.generate()
        rng = rng_for("serving-workload", kind, 5)
        if kind == "poisson":
            times = _poisson_times_scalar(gen, rng)
        elif kind == "bursty":
            times = _bursty_times_scalar(gen, rng)
        else:
            times = gen._diurnal_times(rng)
        historical = [
            (t, MODELS[int(rng.integers(len(MODELS)))]) for t in times
        ]
        assert [(a.time, a.model_name) for a in trace.arrivals] == historical

    def test_times_are_plain_floats(self):
        trace = WorkloadGenerator(MODELS, kind="poisson", rate_rps=2.0,
                                  duration_s=10.0, seed=0).generate()
        assert all(type(a.time) is float for a in trace.arrivals)

    @pytest.mark.parametrize("kind", ["poisson", "bursty"])
    def test_chunk_boundary_stress(self, kind):
        """Tiny chunks force many save/restore cycles; results must not
        depend on the batch size."""
        gen = WorkloadGenerator(MODELS, kind=kind, rate_rps=3.0,
                                duration_s=60.0, seed=2)
        baseline = gen.generate()
        original = gen._gap_chunk
        try:
            gen._gap_chunk = lambda expected: 7
            tiny = gen.generate()
        finally:
            gen._gap_chunk = original
        assert tiny == baseline
