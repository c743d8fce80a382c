"""Experiment reporting, the CLI runner, and misc experiment plumbing."""

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.experiments.reporting import ExperimentTable, format_million, relative_saving
from repro.experiments.runner import s2m3_single_request_latency
from repro.profiles.devices import edge_device_names


class TestExperimentTable:
    def test_render_aligns_columns(self):
        table = ExperimentTable("T", headers=["a", "bbb"])
        table.add_row("x", 1.234)
        table.add_row("longer", None)
        output = table.render()
        assert "T" in output
        assert "1.23" in output
        assert "–" in output  # None renders as the paper's dash

    def test_row_arity_checked(self):
        table = ExperimentTable("T", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_column_access(self):
        table = ExperimentTable("T", headers=["name", "value"])
        table.add_row("x", 1)
        table.add_row("y", 2)
        assert table.column("value") == [1, 2]

    def test_notes_rendered(self):
        table = ExperimentTable("T", headers=["a"])
        table.add_row(1)
        table.add_note("hello")
        assert "note: hello" in table.render()

    def test_empty_table_renders(self):
        assert "T" in ExperimentTable("T", headers=["a"]).render()


class TestReportingHelpers:
    def test_relative_saving(self):
        assert relative_saving(124, 86) == pytest.approx(30.6, abs=0.1)

    def test_relative_saving_zero_base(self):
        assert relative_saving(0, 10) == 0.0

    def test_format_million(self):
        assert format_million(86_000_000) == "86M"
        assert format_million(1_400_000_000) == "1.4B"
        assert format_million(52_000) == "52K"
        assert format_million(12) == "12"


class TestRunnerHelpers:
    def test_default_devices_are_the_edge_cluster(self):
        assert s2m3_single_request_latency("clip-vit-b16") == s2m3_single_request_latency(
            "clip-vit-b16", device_names=edge_device_names()
        )

    def test_clusters_are_independent(self):
        # Each call deploys on a fresh cluster, so nothing carries over.
        first = s2m3_single_request_latency("clip-vit-b16")
        assert first > 0
        assert s2m3_single_request_latency("clip-vit-b16") == first

    def test_sequential_is_no_faster_than_parallel(self):
        parallel = s2m3_single_request_latency("clip-vit-b16")
        sequential = s2m3_single_request_latency("clip-vit-b16", parallel=False)
        assert sequential >= parallel


class TestCli:
    def test_registry_covers_all_artifacts(self):
        expected = {
            "table6", "table7", "table8", "table9", "table10", "table11",
            "fig3", "optimality", "batching", "ablations", "extensions",
            "energy", "replicas", "resilience", "validation",
        }
        assert expected == set(EXPERIMENTS)

    def test_cli_runs_a_fast_experiment(self, capsys):
        assert main(["batching"]) == 0
        out = capsys.readouterr().out
        assert "batch" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["table99"])
