"""Additional experiment coverage: Table VIII runner, extension studies,
and the lazy core exports."""

import pytest

from repro.experiments.extensions import (
    run_batched_burst_study,
    run_energy_study,
    run_fallbacks,
    run_queue_aware_study,
    run_stream_study,
)
from repro.experiments.table8 import render_table8, run_table8


class TestTable8Runner:
    # One cheap pair keeps this in the unit suite; the bench runs the matrix.
    ROWS = run_table8(samples=30, pairs=[("clip-vit-b16", "cifar-10")])

    def test_split_equals_centralized(self):
        assert self.ROWS[0].split_matches_centralized

    def test_accuracy_beats_chance(self):
        assert self.ROWS[0].split_accuracy > 0.5

    def test_paper_reference_attached(self):
        assert self.ROWS[0].paper_accuracy == pytest.approx(90.8)

    def test_render(self):
        output = render_table8(self.ROWS).render()
        assert "cifar-10" in output
        assert "yes" in output


class TestExtensionStudies:
    def test_fallback_report_shape(self):
        report = run_fallbacks()
        assert not report.fits_uncompressed
        assert report.compressed_fits
        assert report.partition_stages >= 2
        assert report.chain_seconds > 0

    def test_queue_aware_study_improves_mean(self):
        rows = run_queue_aware_study(burst=4)
        by_label = {row.router: row.summary for row in rows}
        assert by_label["queue-aware"].mean <= by_label["fastest-host (Eq. 7)"].mean

    def test_batched_study_improves_mean(self):
        rows = run_batched_burst_study(burst=4)
        by_mode = {row.mode: row.summary for row in rows}
        assert by_mode["batched"].mean < by_mode["fifo"].mean

    def test_stream_latency_grows_with_rate(self):
        rows = run_stream_study(rates=(0.05, 0.5), count=8)
        assert rows[0].summary.mean <= rows[1].summary.mean + 1e-9

    def test_energy_study_tradeoff(self):
        greedy, efficient = run_energy_study()
        assert efficient.energy_joules <= greedy.energy_joules
        assert greedy.latency_seconds <= efficient.latency_seconds + 1e-9


class TestLazyCoreExports:
    def test_engine_importable_from_core(self):
        import repro.core as core

        assert core.S2M3Engine.__name__ == "S2M3Engine"

    def test_unknown_attribute_raises(self):
        import repro.core as core

        with pytest.raises(AttributeError):
            core.NotAThing
