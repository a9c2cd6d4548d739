"""Tests for the stream benchmark: records, artifact schema, CLI, traces."""

import json

import pytest

from repro.artifacts import ModelRegistry
from repro.bench import make_artifact, validate_artifact
from repro.bench.cli import main as bench_main
from repro.bench.streaming import run_stream_bench, stream_records_for_scenario
from repro.core.sgl import STOP_REASONS


class TestStreamBench:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        registry_dir = tmp_path_factory.mktemp("stream-registry")
        return stream_records_for_scenario(
            "grid_2d/tiny", n_batches=3, mode="drift", drift_rate=0.02,
            registry_dir=registry_dir,
        )

    def test_three_methods(self, records):
        assert [r.method for r in records] == [
            "stream_fit", "stream_update", "stream_refit",
        ]
        assert all(r.scenario == "grid_2d/tiny" for r in records)

    def test_update_record_carries_the_acceptance_numbers(self, records):
        update = records[1]
        assert update.quality["speedup_vs_refit"] > 0
        assert 0 < update.quality["resistance_correlation"] <= 1
        assert update.info["n_updates"] == 3
        assert update.info["n_incremental"] + update.info["n_refits"] == 3
        assert len(update.info["reasons"]) == 3
        assert update.info["latest_version"] == 4  # fit + 3 updates
        # Why each record's densification stopped.
        assert len(update.info["stop_reasons"]) == 3
        assert set(update.info["stop_reasons"]) <= set(STOP_REASONS)
        assert records[0].info["stop_reason"] in STOP_REASONS
        assert records[2].info["stop_reason"] in STOP_REASONS

    def test_lineage_reaches_the_initial_fit(self, records):
        update = records[1]
        assert update.info["lineage"][-1] == 1
        assert update.info["lineage"][0] == update.info["latest_version"]
        registry = ModelRegistry(update.info["registry"])
        assert registry.get("grid_2d_tiny@latest").version == 4

    def test_stream_stage_seconds_present(self, records):
        update = records[1]
        assert "drift_check" in update.stage_seconds
        assert "publish" in update.stage_seconds
        # The schema demands the {seconds, calls} shape, not flat floats.
        assert set(update.stage_seconds["drift_check"]) == {"seconds", "calls"}

    def test_records_form_a_valid_artifact(self, records):
        validate_artifact(make_artifact("stream-test", records))

    def test_quality_within_tolerance_of_refit(self, records):
        update, refit = records[1], records[2]
        assert update.quality["resistance_correlation"] >= (
            refit.quality["resistance_correlation"] - 0.05
        )

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_stream_bench(["no/such"], n_batches=2)

    def test_cli_writes_gateable_artifact_with_trace(self, tmp_path, capsys):
        out = tmp_path / "BENCH_streaming_test.json"
        code = bench_main([
            "stream", "--scenario", "grid_2d/tiny", "--batches", "3",
            "--registry-dir", str(tmp_path / "registry"),
            "--out", str(out), "--trace", str(tmp_path / "traces"),
        ])
        assert code == 0
        artifact = validate_artifact(json.loads(out.read_text()))
        assert len(artifact["results"]) == 3
        assert artifact["run_config"]["batches"] == 3
        assert bench_main(["compare", str(out), str(out)]) == 0

        from repro.obs import load_spans

        spans = load_spans(tmp_path / "traces" / "stream_grid_2d_tiny.jsonl")
        names = [s.name for s in spans]
        assert names.count("stream.update") == 3
        assert "stream.fit" in names

    def test_cli_unknown_scenario(self, capsys):
        assert bench_main(["stream", "--scenario", "no/such"]) == 2
