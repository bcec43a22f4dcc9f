"""The benchmark's own tests: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import common, run, tracing
from perfbench.ckpt_restart import CkptRestart, job_plan
from perfbench.common import Recorder, clock_conserved, tail
from perfbench.serve_churn import ServeChurn, campaign_plan
from perfbench.stream_uvm import StreamUvm

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _prefix(cls, seed: int):
    """Run a workload's virtual prefix; return (virtual rows, digest, recorder)."""
    workload = cls(seed)
    rec = Recorder()
    for i in range(workload.virtual_units):
        workload.run_unit(i, rec)
    workload.finish(rec)
    return workload.virtual_rows(), workload.digest, rec


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("cls", [StreamUvm, CkptRestart, ServeChurn])
def test_same_seed_same_virtual_metrics_and_digests(cls):
    rows_a, digest_a, rec_a = _prefix(cls, 7)
    rows_b, digest_b, rec_b = _prefix(cls, 7)
    assert rows_a == rows_b
    assert digest_a == digest_b
    assert rec_a.failure_details == rec_b.failure_details
    assert rec_a.failures["digest-mismatch"] == 0


def test_different_seed_different_inputs():
    assert StreamUvm(1).x.tobytes() != StreamUvm(2).x.tobytes()
    assert [job_plan(1, u) for u in range(38)] != [job_plan(2, u) for u in range(38)]
    assert campaign_plan(1, 0) != campaign_plan(2, 0)


def test_different_seed_different_digest():
    digests = []
    for seed in (1, 2):
        workload = StreamUvm(seed)
        for i in range(4):
            workload.run_unit(i, Recorder())
        digests.append(workload.digest)
    assert digests[0] != digests[1]


def test_job_plan_covers_every_app_in_both_modes():
    jobs = [job_plan(3, u) for u in range(CkptRestart.virtual_units)]
    for mode in ("full", "forked"):
        assert sorted(c.name for c, m, _, _ in jobs if m == mode) == sorted(
            c.name for c in {c for c, _, _, _ in jobs}
        )


# -- clock check and failure reasons --------------------------------------------


def test_clock_conservation_on_synthetic_records():
    assert clock_conserved(10.0, 8.0, 2.0)  # exactly conserved
    assert clock_conserved(12.5, 8.0, 2.0)  # stalls only add time
    assert not clock_conserved(9.9, 8.0, 2.0)  # time went missing
    assert not clock_conserved(7.0, 8.0, 0.0)  # ended before an unbroken run


def test_failure_reasons_and_percentage():
    rec = Recorder()
    for _ in range(8):
        with rec.op():
            pass
    rec.fail("clock-lost", "Gaussian/full")
    rec.fail("shed", "s0001 wave 0")
    assert rec.attempted == 8
    assert rec.failed == 1  # the shed request; the clock-lost job's output is right
    assert rec.flagged == 2
    assert rec.failed_ops_pct() == 25.0
    assert rec.correct
    assert rec.failures == {"clock-lost": 1, "shed": 1}
    with pytest.raises(ValueError):
        rec.fail("slow", "not a reason")


def test_op_counts_even_when_it_raises():
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with rec.op():
            raise RuntimeError("boom")
    assert rec.attempted == 1


def test_tail_percentile_is_highest_with_ten_beyond():
    assert common.tail_percentile(2000) == 99.0
    assert common.tail_percentile(1100) == 99.0
    assert common.tail_percentile(900) == 98.0
    assert common.tail_percentile(500) == 98.0
    assert common.tail_percentile(300) == 95.0
    assert common.tail_percentile(12) == 50.0


def test_tail_percentile_follows_the_minimum_not_the_run():
    samples = [float(v) for v in range(1, 2001)]
    value, q, beyond = tail(samples, min_ops=500)
    assert q == 98.0  # fixed by min_ops, though 2000 samples allow p99
    assert value == common.percentile(samples, 98) and beyond == 40


@pytest.mark.parametrize("cls", [StreamUvm, CkptRestart, ServeChurn])
def test_min_ops_leaves_ten_samples_beyond_the_tail(cls):
    n = cls.min_ops
    q = common.tail_percentile(n)
    assert n - 1 - round(q / 100 * (n - 1)) >= common.TAIL_MIN_BEYOND


def test_calibrator_slowdown_is_relative_to_the_reference():
    cal = common.Calibrator()
    assert cal.slowdown() == 1.0  # no sample yet: no correction
    ref, w = common.CAL_REF_MS, common.CAL_WINDOW_S
    cal.samples = [(0.1 * w, ref * 1.5), (0.9 * w, ref * 2.5), (1.5 * w, ref * 4.0)]
    assert cal.slowdown() == pytest.approx(8.0 / 3)
    # Each value is scaled by its own window; a window without samples
    # falls back to the whole run.
    scaled = cal.scale([0.5 * w, 1.2 * w, 7.5 * w], [6.0, 6.0, 8.0])
    assert scaled == pytest.approx([3.0, 1.5, 3.0])
    cal.run()
    assert len(cal.samples) == 4 and cal.spent_s > 0


def test_calibration_chunk_is_fixed_work():
    assert common.calibration_chunk() == common.calibration_chunk()


# -- tracer ----------------------------------------------------------------------


def test_self_time_is_span_minus_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 10.0, 12.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tr = tracing.SpanTracer()
    tr._enter("core.restart")  # t=0
    tr._enter("dmtcp.restore_memory")  # t=1
    tr._exit()  # t=3
    tr._enter("core.restart")  # t=4, nested under the same name
    tr._exit()  # t=10
    tr._exit()  # t=12
    # Outer: 12 s with 2 s + 6 s of children; inner: 6 s, no children.
    assert tr.self_s["dmtcp.restore_memory"] == 2.0
    assert tr.self_s["core.restart"] == 4.0 + 6.0
    assert tr.inclusive_s["core.restart"] == 12.0  # outermost only
    assert tr.count["core.restart"] == 1
    assert tr.layer_self_ms() == {"core": 10_000.0, "dmtcp": 2_000.0}
    by_id = {span[0]: span for span in tr.spans}
    restore = next(s for s in tr.spans if s[1] == "dmtcp.restore_memory")
    assert by_id[restore[4]][1] == "core.restart"


def test_install_wraps_and_uninstall_restores():
    from repro.core.session import CracSession

    before = CracSession.restart
    tr = tracing.SpanTracer()
    tr.install()
    try:
        assert CracSession.restart is not before
    finally:
        tr.uninstall()
    assert CracSession.restart is before


# -- BENCHMARK.json ---------------------------------------------------------------


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    spec = _benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["perfbench"]


def test_each_workload_records_its_reason_and_layer_split():
    for w in _benchmark()["workloads"]:
        why = w["why"]
        assert 0 < len(why) <= 200 and "\n" not in why
        split = why.rsplit("host split:", 1)[1]
        assert sum(layer in split for layer in run.LAYERS) >= 3


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-uvm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
