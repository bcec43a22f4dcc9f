"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import APP_REGISTRY, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestListApps:
    def test_lists_all_registered_apps(self):
        code, text = run_cli("list-apps")
        assert code == 0
        for name in APP_REGISTRY:
            assert name in text

    def test_registry_covers_whole_suite(self):
        # 14 Rodinia + SS + UMS + LULESH + HPGMG + HYPRE + cublas
        assert len(APP_REGISTRY) == 20


class TestInfo:
    def test_shows_version_and_costs(self):
        code, text = run_cli("info")
        assert code == 0
        assert "V100" in text and "K600" in text
        assert "native_dispatch_ns" in text


class TestRun:
    def test_run_native(self):
        code, text = run_cli("run", "hotspot", "--scale", "0.01")
        assert code == 0
        assert "runtime:" in text
        assert "native" in text

    def test_run_crac_with_checkpoint(self):
        code, text = run_cli(
            "run", "bfs", "--mode", "crac", "--scale", "0.01",
            "--checkpoint-at", "0.5",
        )
        assert code == 0
        assert "checkpoint:" in text
        assert "restart:" in text

    def test_run_checkpoint_without_restart(self):
        code, text = run_cli(
            "run", "bfs", "--mode", "crac", "--scale", "0.01",
            "--checkpoint-at", "0.5", "--no-restart",
        )
        assert code == 0
        assert "checkpoint:" in text
        assert "restart:" not in text

    def test_run_on_k600(self):
        code, text = run_cli(
            "run", "hotspot", "--scale", "0.01", "--gpu", "K600",
        )
        assert code == 0
        assert "K600" in text

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "doom")


class TestReproduce:
    def test_fig0(self):
        code, text = run_cli("reproduce", "fig0")
        assert code == 0
        assert "2019" in text

    def test_table2(self):
        code, text = run_cli("reproduce", "table2")
        assert code == 0
        assert "-s 8192 -q" in text

    def test_fig2_small_scale(self):
        code, text = run_cli("reproduce", "fig2", "--scale", "0.01")
        assert code == 0
        assert "Streamcluster" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("reproduce", "fig99")


class TestCkptBench:
    def test_smoke_writes_report(self, tmp_path):
        out_path = tmp_path / "BENCH_delta_ckpt.json"
        code, text = run_cli(
            "ckpt-bench", "--apps", "bfs", "--scale", "0.02", "--cuts", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert "checkpoint-mode sweep" in text
        assert "forked" in text

        import json

        report = json.loads(out_path.read_text())
        assert len(report["cuts"]) == 2
        row = report["apps"]["BFS"]
        assert set(row["modes"]) == {"full", "incremental", "forked"}
        for mode in row["modes"].values():
            assert mode["runtime_s"] >= row["baseline_s"]
        assert "min_forked_reduction_pct" in report["summary"]
        assert all(m["digest_match"] for m in row["modes"].values())
        assert report["ok"]

    def test_digest_mismatch_fails(self, tmp_path, monkeypatch):
        import json

        import repro.harness.ckpt_bench as ckpt_bench

        real_run_app = ckpt_bench.run_app

        def run_app(app, machine, **kwargs):
            result = real_run_app(app, machine, **kwargs)
            if kwargs.get("forked"):
                result.digest ^= 1  # a torn forked image
            return result

        monkeypatch.setattr(ckpt_bench, "run_app", run_app)
        out_path = tmp_path / "BENCH_delta_ckpt.json"
        code, text = run_cli(
            "ckpt-bench", "--apps", "bfs", "--scale", "0.02", "--cuts", "1",
            "--out", str(out_path),
        )
        assert code == 1
        assert "output digests match the uncheckpointed runs: NO" in text
        report = json.loads(out_path.read_text())
        modes = report["apps"]["BFS"]["modes"]
        assert {m: v["digest_match"] for m, v in modes.items()} == {
            "full": True, "incremental": True, "forked": False,
        }
        assert report["ok"] is False

    def test_dash_out_skips_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(
            "ckpt-bench", "--apps", "bfs", "--scale", "0.02", "--cuts", "1",
            "--out", "-",
        )
        assert code == 0
        assert not (tmp_path / "BENCH_delta_ckpt.json").exists()

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("ckpt-bench", "--apps", "doom")


class TestFaultCampaign:
    def test_smoke_writes_report(self, tmp_path):
        out_path = tmp_path / "BENCH_fault_campaign.json"
        code, text = run_cli(
            "fault-campaign", "--smoke", "--apps", "gaussian", "kmeans",
            "--mtbf-factors", "0.2", "--out", str(out_path),
        )
        assert code == 0
        assert "rank-death 2PC" in text
        assert "bit-correct" in text

        import json

        report = json.loads(out_path.read_text())
        totals = report["totals"]
        # The smoke sweep (one fault class per rung) must show every
        # ladder rung firing with bit-correct recovery.
        for rung in ("retry", "stream-reset", "restore"):
            assert totals["rung_counts"][rung] > 0
        assert totals["bit_correct"] + totals["aborted"] == totals["cells"]
        assert report["rank_death_2pc"]["no_half_commit"]
        assert report["rank_death_2pc"]["prior_state_restored"]
        assert set(report["apps"]) == {"Gaussian", "Kmeans"}

    def test_dash_out_skips_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(
            "fault-campaign", "--smoke", "--apps", "bfs",
            "--classes", "xfer-corrupt", "--mtbf-factors", "0.5",
            "--out", "-",
        )
        assert code == 0
        assert not (tmp_path / "BENCH_fault_campaign.json").exists()

    def test_unknown_class_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("fault-campaign", "--classes", "gremlins")


class TestSpecBench:
    def test_smoke_writes_report(self, tmp_path):
        out_path = tmp_path / "BENCH_spec.json"
        code, text = run_cli(
            "spec-bench", "--smoke", "--apps", "kmeans", "--scale", "0.1",
            "--cuts", "1", "--baseline", "-", "--out", str(out_path),
        )
        assert code == 0
        assert "speculative-checkpoint bench" in text
        assert "forced conflict" in text

        import json

        report = json.loads(out_path.read_text())
        row = report["apps"]["Kmeans"]
        assert set(row["modes"]) == {"forked", "speculative"}
        assert row["digest_equal"]
        assert row["stall_ratio"] < 0.10
        assert report["forced_conflict"]["invalidated"] > 0
        assert report["forced_conflict"]["digest_equal"]
        assert report["ok"]

    def test_update_baseline_writes_payload(self, tmp_path):
        baseline_path = tmp_path / "BENCH_spec_baseline.json"
        code, _ = run_cli(
            "spec-bench", "--smoke", "--apps", "kmeans", "--scale", "0.1",
            "--cuts", "1", "--baseline", str(baseline_path),
            "--update-baseline", "--out", "-",
        )
        assert code == 0

        import json

        payload = json.loads(baseline_path.read_text())
        assert payload["benchmark"] == "spec-baseline"
        assert "Kmeans" in payload["stall_ratio"]

    def test_missing_named_baseline_exits_1(self, tmp_path):
        missing = tmp_path / "missing.json"
        code, text = run_cli(
            "spec-bench", "--smoke", "--apps", "kmeans", "--scale", "0.1",
            "--cuts", "1", "--baseline", str(missing), "--out", "-",
        )
        assert code == 1
        assert f"no spec baseline at {missing}" in text

    def test_app_missing_from_baseline_fails(self, tmp_path):
        import json

        baseline_path = tmp_path / "BENCH_spec_baseline.json"
        # A baseline that gates Gaussian only; this run is Kmeans.
        baseline_path.write_text(json.dumps(
            {"benchmark": "spec-baseline", "stall_ratio": {"Gaussian": 0.03}}
        ))
        out_path = tmp_path / "BENCH_spec.json"
        code, text = run_cli(
            "spec-bench", "--smoke", "--apps", "kmeans", "--scale", "0.1",
            "--cuts", "1", "--baseline", str(baseline_path),
            "--out", str(out_path),
        )
        assert code == 1
        assert "[FAIL] Kmeans stall_ratio: missing from baseline" in text
        report = json.loads(out_path.read_text())
        assert report["apps"]["Kmeans"]["digest_equal"]
        assert report["gate"]["ok"] is False
        assert report["ok"] is False

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("spec-bench", "--apps", "doom")


class TestAnalyzeUpdateBaseline:
    """--update-baseline must refuse missing/placeholder justifications
    (the old code stamped 'TODO: justify before committing', which the
    justification audit rejects)."""

    @pytest.fixture
    def fake_finding_report(self, monkeypatch):
        from repro.analysis.findings import Finding

        finding = Finding(
            "wiring", "wiring/test-rule", "repro/fake.py", 1, "planted"
        )
        report = {
            "findings": [finding.to_dict()],
            "baselined": [],
            "unused_baseline": [],
            "counts": {
                "apis": 0, "modules": 0, "unbaselined": 1, "baselined": 0,
            },
            "ok": False,
        }
        monkeypatch.setattr(
            "repro.analysis.engine.analyze_package",
            lambda *a, **kw: dict(report),
        )
        return finding

    def test_missing_justify_refused(self, tmp_path, fake_finding_report):
        baseline = tmp_path / "baseline.json"
        code, text = run_cli(
            "analyze", "--baseline", str(baseline), "--update-baseline",
            "--out", "-",
        )
        assert code == 2
        assert "--justify" in text
        assert not baseline.exists(), "refused update still wrote the file"

    @pytest.mark.parametrize("msg", [
        "TODO: justify before committing",
        "fixme later",
        "TBD",
        "xxx placeholder",
        "   ",
    ])
    def test_placeholder_justify_refused(self, tmp_path, msg,
                                         fake_finding_report):
        baseline = tmp_path / "baseline.json"
        code, _ = run_cli(
            "analyze", "--baseline", str(baseline), "--update-baseline",
            "--justify", msg, "--out", "-",
        )
        assert code == 2
        assert not baseline.exists()

    def test_real_justification_accepted(self, tmp_path, fake_finding_report):
        import json

        baseline = tmp_path / "baseline.json"
        code, text = run_cli(
            "analyze", "--baseline", str(baseline), "--update-baseline",
            "--justify", "planted by the CLI regression test",
            "--out", "-",
        )
        assert code == 0
        assert "accepted 1 finding(s)" in text
        entries = json.loads(baseline.read_text())["entries"]
        assert len(entries) == 1
        assert entries[0]["justification"] == (
            "planted by the CLI regression test"
        )
        # The committed-baseline audit's own rule: no TODO markers.
        assert "TODO" not in entries[0]["justification"]


class TestVersion:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
