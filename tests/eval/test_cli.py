"""Tests for the repro-eval command-line interface."""

import json

import pytest

from repro.eval.__main__ import main


class TestCli:
    def test_table3_prints_measured_vs_paper(self, capsys):
        assert main(["table3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "(4.07)" in out   # the paper's token column appears
        assert "batch" in out

    def test_feature_selection_command(self, capsys):
        assert main(["feature-selection"]) == 0
        out = capsys.readouterr().out
        assert "74.1" in out and "90.3" in out

    def test_cluster_batching_command(self, capsys):
        assert main(["cluster-batching", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "random batching" in out
        assert "cluster batching" in out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliRoundTrip:
    """`run` writes a manifest, `trace` reads it back, and the golden
    layer's byte contract proves the artifact survives the loop intact."""

    def test_run_trace_manifest_roundtrip(self, tmp_path, capsys):
        from repro.obs import RunManifest, canonical_json
        from repro.testing import diff_payloads

        manifest_path = tmp_path / "run.json"
        assert main([
            "run", "--dataset", "beer", "--size", "30",
            "--manifest", str(manifest_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "beer / gpt-3.5" in out
        assert f"manifest written to {manifest_path}" in out

        assert main(["trace", str(manifest_path)]) == 0
        traced = capsys.readouterr().out
        assert "Manifest v1" in traced and "beer" in traced

        # Golden byte contract: load -> dump reproduces the file exactly,
        # and a full load -> to_dict -> from_dict loop is diff-free.
        written = manifest_path.read_text(encoding="utf-8")
        loaded = RunManifest.load(manifest_path)
        assert loaded.dumps() + "\n" == written
        reloaded = RunManifest.from_dict(json.loads(written))
        assert diff_payloads(loaded.to_dict(), reloaded.to_dict()) == []
        # and the canonical form is itself stable under a reload
        assert canonical_json(json.loads(canonical_json(loaded.to_dict()))) \
            == canonical_json(loaded.to_dict())

    def test_trace_rejects_missing_manifest(self, tmp_path):
        from repro.obs import ManifestError

        with pytest.raises(ManifestError):
            main(["trace", str(tmp_path / "absent.json")])


class TestGoldenCli:
    def test_golden_verify_single_cell_is_clean(self, capsys):
        assert main(["golden", "--cell", "di_restaurant_gpt4"]) == 0
        out = capsys.readouterr().out
        assert "golden di_restaurant_gpt4: OK" in out

    def test_golden_update_then_verify_in_scratch_store(self, tmp_path, capsys):
        store = str(tmp_path / "snapshots")
        assert main(["golden", "--update", "--cell", "sm_synthea_gpt35",
                     "--store", store]) == 0
        assert main(["golden", "--cell", "sm_synthea_gpt35",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "OK" in out

    def test_golden_drift_exits_nonzero_and_writes_artifact(
        self, tmp_path, capsys
    ):
        from repro.testing import GoldenStore, capture_snapshot, cell_by_name

        cell = cell_by_name("sm_synthea_gpt35")
        store = GoldenStore(tmp_path / "snapshots")
        payload = capture_snapshot(cell)
        payload["predictions"][0] = "__tampered__"
        store.save(cell.name, payload)
        artifact = tmp_path / "GOLDEN_DIFF.txt"
        assert main(["golden", "--cell", cell.name,
                     "--store", str(store.root),
                     "--diff-artifact", str(artifact)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "$.predictions[0]" in out
        assert artifact.exists()
        assert "__tampered__" in artifact.read_text(encoding="utf-8")


class TestServeBenchCli:
    def test_serve_bench_writes_the_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serving.json"
        assert main([
            "serve-bench", "--requests", "400", "--size", "40",
            "--baseline-requests", "100", "--out", str(out_path),
        ]) == 0
        printed = capsys.readouterr().out
        assert "serve-bench:" in printed
        assert "token cost per request" in printed

        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["bench"] == "serving"
        # the five headline metrics, flattened for dashboards
        for key in (
            "p50_latency_s", "p99_latency_s", "throughput_rps",
            "coalesce_rate", "cache_hit_rate",
        ):
            assert key in payload
            assert payload[key] == payload["coalesced"][key]
        assert payload["config"]["baseline_requests"] == 100
        assert payload["coalesced"]["n_requests"] == 400
        assert payload["uncoalesced"]["n_requests"] == 100
        assert payload["token_reduction"] > 1.0

    def test_serving_golden_cell_verifies_via_cli(self, capsys):
        assert main(["golden", "--cell", "serving_ed_adult_3tenants"]) == 0
        out = capsys.readouterr().out
        assert "golden serving_ed_adult_3tenants: OK" in out


class TestFlowCli:
    def test_describe_prints_the_plan_without_running(self, capsys):
        assert main(["flow", "--reference", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "flow: clean_match_beer" in out
        assert "1. detect [detect_errors]" in out
        assert "4. match [match_entities]" in out

    def test_run_resume_and_manifest(self, tmp_path, capsys):
        workdir = str(tmp_path / "flowrun")
        manifest = tmp_path / "flow_manifest.json"
        assert main([
            "flow", "--reference", "--workdir", workdir,
            "--manifest", str(manifest),
        ]) == 0
        out = capsys.readouterr().out
        assert "flow clean_match_beer: 4 stage(s)" in out
        assert "end to end:" in out
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert payload["kind"] == "flow_manifest"
        assert payload["order"] == ["detect", "impute", "align", "match"]

        assert main([
            "flow", "--reference", "--workdir", workdir, "--resume",
        ]) == 0
        resumed = capsys.readouterr().out
        assert resumed.count("resumed from ledger") == 4

    def test_spec_file_runs(self, tmp_path, capsys):
        from pathlib import Path

        example = (
            Path(__file__).parent.parent.parent
            / "examples" / "flows" / "clean_match_beer.yaml"
        )
        assert main(["flow", str(example), "--describe"]) == 0
        out = capsys.readouterr().out
        assert "flow: clean_match_beer" in out

    def test_errors_exit_2(self, tmp_path, capsys):
        # no spec and no --reference
        assert main(["flow"]) == 2
        # --resume without a ledger
        assert main([
            "flow", "--reference",
            "--workdir", str(tmp_path / "void"), "--resume",
        ]) == 2
        # unreadable spec path
        assert main(["flow", str(tmp_path / "absent.yaml")]) == 2
        # malformed spec
        bad = tmp_path / "bad.yaml"
        bad.write_text("flow: x\nstages: []\n", encoding="utf-8")
        assert main(["flow", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_bench_writes_the_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_flow.json"
        assert main(["flow", "--bench", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "flow-bench: clean_match_beer" in printed
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert set(payload["stages"]) == {"detect", "impute", "align", "match"}
        assert payload["end_to_end"]["n_requests"] > 0


class TestFuzzCli:
    def test_fuzz_command_reports_and_passes(self, capsys):
        assert main(["fuzz", "--cases", "40", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "40 cases" in out and "corpus digest" in out
        assert "0 violation(s)" in out


class TestShardCli:
    def test_run_with_workers_and_shards(self, capsys):
        assert main([
            "run", "--dataset", "adult", "--size", "24",
            "--workers", "2", "--shards", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "adult / gpt-3.5" in out
        assert "sharded: 3 shard(s) over 2 worker(s)" in out
        assert "sequential" in out

    def test_single_shard_run_agrees_with_the_legacy_path(self, capsys):
        assert main(["run", "--dataset", "adult", "--size", "24"]) == 0
        reference = capsys.readouterr().out.splitlines()[0]
        assert main([
            "run", "--dataset", "adult", "--size", "24", "--shards", "1",
        ]) == 0
        sharded = capsys.readouterr().out.splitlines()[0]
        # identical headline: metric, coverage, tokens, cost, and hours —
        # a single-shard plan reproduces the legacy run bit-for-bit
        # (more shards legitimately re-batch, so only S=1 must agree)
        assert sharded == reference

    def test_sharded_journal_and_resume(self, tmp_path, capsys):
        workdir = tmp_path / "journals"
        argv = [
            "run", "--dataset", "adult", "--size", "24", "--shards", "2",
            "--journal", str(workdir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert f"shard journals under {workdir}" in first
        journals = sorted(p.name for p in workdir.glob("shard-*.journal"))
        assert journals == ["shard-0000.journal", "shard-0001.journal"]
        # replaying against the same journals reproduces the run
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_shard_bench_writes_the_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_shards.json"
        assert main([
            "shard-bench", "--out", str(out_path),
            "--size", "40", "--shards", "2", "--workers", "1", "2",
        ]) == 0
        printed = capsys.readouterr().out
        assert "shard scaling" in printed
        assert f"report written to {out_path}" in printed
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["scaling"]["identical"] is True
        assert "decode" not in payload
        assert [run["workers"] for run in payload["scaling"]["runs"]] == [1, 2]

    def test_flow_with_workers(self, capsys):
        assert main(["flow", "--reference", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "flow clean_match_beer: 4 stage(s)" in parallel
        # parallel stage execution is deterministic run to run
        assert main(["flow", "--reference", "--workers", "2"]) == 0
        assert capsys.readouterr().out == parallel


class TestChaosCli:
    def test_one_matrix_drills_healthy_and_degraded_cells(
        self, tmp_path, capsys
    ):
        assert main([
            "chaos", "--cell", "di_restaurant_c1",
            "--cell", "ed_adult_blackout_c2", "--site", "pre_journal",
            "--workdir", str(tmp_path / "chaos"),
            "--artifact", str(tmp_path / "CHAOS_DIFF.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos di_restaurant_c1 @ pre_journal: OK" in out
        assert "chaos ed_adult_blackout_c2 @ pre_journal: OK" in out
        assert "chaos: 2/2 trial(s) resumed bit-identically" in out

    def test_resilience_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--resilience"])
