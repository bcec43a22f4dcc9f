"""Checkpoint-mode cost sweep: full vs incremental vs forked.

Runs a workload several times on the same virtual machine — once with no
checkpoints (the baseline), then once per checkpoint mode with the same
set of mid-run cuts — and reports the *checkpoint stall*: the extra
virtual time the checkpointed run paid over the baseline. This is the
quantity CRUM/PhoenixOS-style forked checkpointing attacks: delta
encoding shrinks the image, forking moves its write off the critical
path so only quiesce + snapshot + COW remain as stall.

Every checkpointed run must also produce the uncheckpointed run's
output digest (``digest_match`` per mode); the report's ``ok`` is false
otherwise, and ``repro ckpt-bench`` exits 1.

``repro ckpt-bench`` drives this and emits ``BENCH_delta_ckpt.json``;
``benchmarks/test_delta_ckpt.py`` asserts the ≥30% stall reduction.
"""

from __future__ import annotations

from typing import Sequence

from repro.harness.runner import Machine, run_app

#: (mode name, incremental?, forked?) — forked implies incremental, the
#: combination both CRUM and PhoenixOS converge on.
CKPT_MODES: tuple[tuple[str, bool, bool], ...] = (
    ("full", False, False),
    ("incremental", True, False),
    ("forked", True, True),
)


def default_cuts(n_cuts: int) -> list[float]:
    """``n_cuts`` evenly spaced progress fractions, e.g. 4 → .2/.4/.6/.8."""
    if n_cuts < 1:
        raise ValueError("need at least one cut")
    return [(i + 1) / (n_cuts + 1) for i in range(n_cuts)]


def run_ckpt_bench(
    app_classes: Sequence[type],
    *,
    scale: float = 1.0,
    n_cuts: int = 4,
    seed: int = 0,
    gpu: str = "V100",
) -> dict:
    """Run the full/incremental/forked comparison; returns the report.

    Every run uses ``noise=False`` (pure virtual time) and keeps the
    original process alive (``restart_after_checkpoint=False``) so the
    runtime difference against the uncheckpointed baseline isolates the
    checkpoint stall exactly.
    """
    cuts = default_cuts(n_cuts)
    machine = Machine(gpu=gpu, seed=seed)
    report: dict = {
        "benchmark": "delta_ckpt",
        "scale": scale,
        "gpu": gpu,
        "cuts": cuts,
        "apps": {},
    }
    for cls in app_classes:
        app_name = cls.name
        baseline = run_app(
            cls(scale=scale, seed=seed), machine, mode="crac", noise=False
        )
        entry: dict = {
            "baseline_s": baseline.runtime_exact_s,
            "modes": {},
            "reduction_pct": {},
        }
        for mode, incremental, forked in CKPT_MODES:
            res = run_app(
                cls(scale=scale, seed=seed),
                machine,
                mode="crac",
                checkpoint_at=cuts,
                restart_after_checkpoint=False,
                incremental=incremental,
                forked=forked,
                noise=False,
            )
            entry["modes"][mode] = {
                "runtime_s": res.runtime_exact_s,
                "stall_s": res.runtime_exact_s - baseline.runtime_exact_s,
                "image_mb": [r.size_mb for r in res.checkpoints],
                "ckpt_s": [r.checkpoint_s for r in res.checkpoints],
                "digest_match": res.digest == baseline.digest,
            }
        full_stall = entry["modes"]["full"]["stall_s"]
        for mode in ("incremental", "forked"):
            stall = entry["modes"][mode]["stall_s"]
            entry["reduction_pct"][mode] = (
                100.0 * (1.0 - stall / full_stall) if full_stall > 0 else 0.0
            )
        report["apps"][app_name] = entry
    reductions = [
        e["reduction_pct"]["forked"] for e in report["apps"].values()
    ]
    report["summary"] = {
        "min_forked_reduction_pct": min(reductions),
        "max_forked_reduction_pct": max(reductions),
        "n_cuts": n_cuts,
    }
    report["ok"] = all(
        m["digest_match"]
        for e in report["apps"].values()
        for m in e["modes"].values()
    )
    return report


def format_report(report: dict) -> str:
    """Human-readable table of a :func:`run_ckpt_bench` report."""
    lines = [
        f"checkpoint-mode sweep (scale={report['scale']}, "
        f"gpu={report['gpu']}, cuts at "
        + ", ".join(f"{c:.0%}" for c in report["cuts"])
        + ")",
        f"{'app':<16} {'mode':<12} {'runtime s':>10} {'stall s':>9} "
        f"{'images MB':>24} {'vs full':>8}",
        "-" * 84,
    ]
    for app_name, entry in report["apps"].items():
        lines.append(
            f"{app_name:<16} {'(baseline)':<12} "
            f"{entry['baseline_s']:>10.3f}"
        )
        for mode, m in entry["modes"].items():
            sizes = "/".join(f"{s:.0f}" for s in m["image_mb"])
            red = entry["reduction_pct"].get(mode)
            lines.append(
                f"{'':<16} {mode:<12} {m['runtime_s']:>10.3f} "
                f"{m['stall_s']:>9.3f} {sizes:>24} "
                + (f"{red:>7.1f}%" if red is not None else f"{'—':>8}")
            )
    s = report["summary"]
    lines.append(
        "\noutput digests match the uncheckpointed runs: "
        + ("yes" if report["ok"] else "NO")
    )
    lines.append(
        f"forked+incremental stall reduction vs full: "
        f"{s['min_forked_reduction_pct']:.1f}%–"
        f"{s['max_forked_reduction_pct']:.1f}% "
        f"across {len(report['apps'])} apps, {s['n_cuts']} cuts"
    )
    return "\n".join(lines)
