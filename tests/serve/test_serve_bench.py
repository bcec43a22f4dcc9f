"""serve-bench harness: cells, totals, gate, baseline round-trip."""

import io
import json

import pytest

from repro.cli import main
from repro.harness.serve_bench import (
    _percentile,
    baseline_payload,
    evaluate_gate,
    format_serve_bench,
    run_serve_bench,
)
from repro.trace.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def tiny_report():
    # Smallest campaign that still exercises every cell's fault lever.
    return run_serve_bench(
        sessions=8, nodes=3, slots=2, waves=2, seed=0,
        state_elems=32, baseline=None,
    )


def test_percentile_nearest_rank():
    assert _percentile([], 0.99) == 0.0
    assert _percentile([5.0], 0.99) == 5.0
    xs = [float(i) for i in range(1, 101)]
    assert _percentile(xs, 0.50) == 51.0  # index round(0.5 * 99) = 50
    assert _percentile(xs, 0.99) == 99.0
    assert _percentile(xs, 1.00) == 100.0


def test_campaign_runs_every_cell_clean(tiny_report):
    r = tiny_report
    assert [c["cell"] for c in r["cells"]] == [
        "baseline", "ecc", "kernel-hang", "node-death", "eviction-storm",
    ]
    assert r["totals"]["lost_sessions"] == 0
    assert r["totals"]["digest_mismatches"] == 0
    assert r["checks"] == {
        "zero_lost": True, "digests_equal": True, "gate_ok": True,
    }
    assert r["ok"]
    # The chaos cells actually recovered through their intended rungs.
    by_cell = {c["cell"]: c for c in r["cells"]}
    assert by_cell["node-death"]["failovers"] > 0
    assert by_cell["eviction-storm"]["parks"] > by_cell["baseline"]["parks"]
    json.dumps(r)  # JSON-safe end to end


def test_virtual_time_report_is_deterministic(tiny_report):
    again = run_serve_bench(
        sessions=8, nodes=3, slots=2, waves=2, seed=0,
        state_elems=32, baseline=None,
    )
    for key in ("totals", "config"):
        a, b = dict(tiny_report[key]), dict(again[key])
        a.pop("wall_s", None), b.pop("wall_s", None)
        assert a == b


def test_gate_against_baseline_file(tiny_report, tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline_payload(tiny_report)))
    gate = evaluate_gate(tiny_report, str(path))
    assert gate["baseline_found"]
    assert gate["resume_ratio"] == pytest.approx(1.0)
    assert gate["throughput_ratio"] == pytest.approx(1.0)
    assert gate["ok"]
    # A regressed run fails the gate.
    worse = json.loads(json.dumps(tiny_report))
    worse["totals"]["resume_p99_ms"] *= 2.0
    assert not evaluate_gate(worse, str(path))["ok"]


def test_no_baseline_records_only(tiny_report):
    # The --baseline - / --update-baseline path: nothing to gate against.
    gate = evaluate_gate(tiny_report, None)
    assert not gate["baseline_found"]
    assert gate["ok"]
    assert "recording run only" in format_serve_bench(tiny_report)


def test_missing_named_baseline_fails(tiny_report):
    gate = evaluate_gate(tiny_report, "benchmarks/definitely-missing.json")
    assert not gate["baseline_found"]
    assert gate["ok"] is False
    failed = dict(tiny_report, gate=gate, ok=False)
    text = format_serve_bench(failed)
    assert "no baseline at benchmarks/definitely-missing.json" in text
    assert "result: FAILED" in text


def test_cli_exits_1_on_missing_baseline(tmp_path):
    missing = tmp_path / "missing.json"
    out = io.StringIO()
    code = main(
        ["serve-bench", "--smoke", "--baseline", str(missing), "--out", "-"],
        out=out,
    )
    assert code == 1
    assert f"no serve baseline at {missing}" in out.getvalue()


def test_format_is_human_readable(tiny_report):
    text = format_serve_bench(tiny_report)
    assert "node-death" in text
    assert "result: OK" in text


def test_metrics_merge_matches_shared_registry():
    # Per-cell registries merged == one registry fed everything.
    shared, a, b = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for reg in (shared, a):
        reg.counter("c").inc(3)
        reg.histogram("h").record(10.0)
        reg.histogram("h").record(300.0)
    for reg in (shared, b):
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h").record(0.5)
    a.merge(b)
    assert a.snapshot() == shared.snapshot()
