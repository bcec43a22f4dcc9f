"""Checkpoint-mode comparison: full vs incremental vs forked.

Runs ≥2 Rodinia apps with several mid-run cuts under each checkpoint
mode and asserts the headline claim of the delta/forked pipeline:
forked+incremental checkpointing cuts the app-visible checkpoint stall
by at least 30% versus synchronous full checkpoints, with every mode's
output digest equal to the uncheckpointed run's. The report is only
printed, so the test never writes into the source tree; the committed
``BENCH_delta_ckpt.json`` comes from ``repro ckpt-bench --smoke``.
"""

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.apps.rodinia import Gaussian, Kmeans
from repro.harness import format_report, run_ckpt_bench


def test_delta_ckpt_modes(benchmark):
    report = run_once(
        benchmark,
        # Below ~quarter scale the fixed quiesce cost (which no mode can
        # hide) dominates the stall and the ≥30% claim is meaningless.
        lambda: run_ckpt_bench(
            [Gaussian, Kmeans], scale=max(BENCH_SCALE, 0.25), n_cuts=4
        ),
    )
    print()
    print(format_report(report))
    assert report["ok"], "a checkpointed run changed the output digest"

    for app, row in report["apps"].items():
        modes = row["modes"]
        # Incremental shrinks the image chain after the base cut.
        assert modes["incremental"]["image_mb"] <= modes["full"]["image_mb"]
        # Forked must never stall longer than the synchronous modes.
        assert modes["forked"]["stall_s"] <= modes["full"]["stall_s"]
        red = row["reduction_pct"]["forked"]
        assert red >= 30.0, (
            f"{app}: forked+incremental reduced stall by only {red:.1f}% "
            "(claim: ≥30%)"
        )
    assert report["summary"]["min_forked_reduction_pct"] >= 30.0
