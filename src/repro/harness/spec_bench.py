"""Speculative-checkpoint benchmark: near-zero stall at equal fidelity.

Three runs per app on the same virtual machine — uncheckpointed
baseline, forked mode (PR 2's best case: incremental + background
write), and speculative mode (validated speculation: no quiesce, no
drain stall) — all with the same mid-run cuts. The *checkpoint stall*
(extra virtual time over the baseline) is the quantity under test: the
speculative path must shrink it to under
``STALL_RATIO_LIMIT`` (10%) of the forked-mode stall.

Fidelity cells make sure the speed is not bought with torn images:

- a speculative run that kills the process after the last cut and
  restarts from the image must produce the same output digest as the
  uncheckpointed run (digest-equal restore);
- a *forced-conflict* cell writes a buffer inside the capture window so
  validation must invalidate and replay it (``invalidated > 0``), and
  the restored bytes must still equal the cut-point state.

``repro spec-bench`` drives this and emits ``BENCH_spec.json``; the CI
gate also compares each app's stall ratio against the committed
``benchmarks/BENCH_spec_baseline.json`` so the near-zero property
cannot silently regress. A missing baseline, or an app it lacks, fails
the gate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.session import CracSession
from repro.harness.baseline import Bound, format_gate, gate, record
from repro.harness.ckpt_bench import default_cuts
from repro.harness.runner import Machine, run_app

#: Baseline file the CI gate compares against.
DEFAULT_BASELINE = "benchmarks/BENCH_spec_baseline.json"
#: Speculative stall must stay below this fraction of the forked stall.
STALL_RATIO_LIMIT = 0.10
#: Stall-ratio regression limit vs the committed baseline.
REGRESSION_LIMIT = 1.25
#: Damping floor (seconds) added to both sides of the stall ratio so a
#: sub-millisecond stall cannot flip the gate on rounding.
STALL_FLOOR_S = 1e-3
#: Per-app gate: ``ratio <= limit × baseline + floor``.
BOUNDS = {"stall_ratio": Bound(REGRESSION_LIMIT, slack=STALL_FLOOR_S)}


def _forced_conflict_cell(*, seed: int, gpu: str) -> dict:
    """Write inside the capture window; validation must invalidate and
    replay, and the restored bytes must still equal the cut state."""
    nbytes = 1 << 20
    session = CracSession(gpu=gpu, seed=seed)
    backend = session.backend
    addr = backend.malloc(nbytes)
    backend.device_view(addr, nbytes)[:] = 17  # pre-cut contents
    image = session.checkpoint(speculative=True)
    # The capture window is open: these writes conflict with the cut.
    backend.device_view(addr, nbytes // 2)[:] = 99
    session.finish_forked_checkpoints()
    writer = image.forked_writer
    cell = {
        "invalidated": writer.invalidated,
        "replayed_bytes": writer.replayed_bytes,
        "replay_time_ns": writer.replay_time_ns,
        "committed": writer.committed,
    }
    # Restore must be digest-equal to a stop-the-world cut: the image
    # holds the *pre-window* bytes, not the conflicting write.
    session.kill()
    session.restart(image)
    restored = session.backend.device_view(addr, nbytes)
    cell["digest_equal"] = bool(np.all(restored == 17))
    cell["ok"] = bool(
        cell["invalidated"] > 0
        and cell["replayed_bytes"] > 0
        and cell["committed"]
        and cell["digest_equal"]
    )
    session.kill()
    return cell


def run_spec_bench(
    app_classes: Sequence[type],
    *,
    scale: float = 0.5,
    n_cuts: int = 3,
    seed: int = 0,
    gpu: str = "V100",
    smoke: bool = False,
    baseline: str | None = None,
) -> dict:
    """Run the forked-vs-speculative stall comparison; returns the
    gated report (``report["ok"]``).

    Every timing run uses ``noise=False`` and keeps the original process
    alive so the runtime delta against the uncheckpointed baseline
    isolates the stall exactly; the fidelity run restarts from the last
    speculative image and must reproduce the baseline digest.
    ``baseline`` names the committed baseline file to gate each app's
    stall ratio against (``None`` records the run without gating it).
    """
    if smoke:
        scale = min(scale, 0.25)
        n_cuts = min(n_cuts, 2)
    cuts = default_cuts(n_cuts)
    machine = Machine(gpu=gpu, seed=seed)
    report: dict = {
        "benchmark": "spec-bench",
        "version": 1,
        "smoke": smoke,
        "settings": {
            "scale": scale, "n_cuts": n_cuts, "seed": seed, "gpu": gpu,
        },
        "cuts": cuts,
        "apps": {},
        "checks": [],
    }

    def check(name: str, ok: bool, detail: str) -> None:
        report["checks"].append({"name": name, "ok": bool(ok),
                                 "detail": detail})

    for cls in app_classes:
        app_name = cls.name
        base = run_app(
            cls(scale=scale, seed=seed), machine, mode="crac", noise=False
        )
        runs = {}
        for mode, kwargs in (
            ("forked", {"incremental": True, "forked": True}),
            ("speculative", {"incremental": True, "speculative": True}),
        ):
            res = run_app(
                cls(scale=scale, seed=seed),
                machine,
                mode="crac",
                checkpoint_at=cuts,
                restart_after_checkpoint=False,
                noise=False,
                **kwargs,
            )
            runs[mode] = {
                "runtime_s": res.runtime_exact_s,
                "stall_s": res.runtime_exact_s - base.runtime_exact_s,
                "image_mb": [r.size_mb for r in res.checkpoints],
                "ckpt_s": [r.checkpoint_s for r in res.checkpoints],
            }
        stall_forked = runs["forked"]["stall_s"]
        stall_spec = runs["speculative"]["stall_s"]
        ratio = (stall_spec + STALL_FLOOR_S) / (stall_forked + STALL_FLOOR_S)

        # Fidelity: restart from the last speculative image; the output
        # digest must match the uncheckpointed run's.
        fid = run_app(
            cls(scale=scale, seed=seed),
            machine,
            mode="crac",
            checkpoint_at=cuts,
            restart_after_checkpoint=True,
            incremental=True,
            speculative=True,
            noise=False,
        )
        entry = {
            "baseline_s": base.runtime_exact_s,
            "modes": runs,
            "stall_ratio": ratio,
            "digest_equal": fid.digest == base.digest,
        }
        report["apps"][app_name] = entry
        check(
            f"{app_name}: spec stall < {STALL_RATIO_LIMIT:.0%} of forked",
            ratio < STALL_RATIO_LIMIT,
            f"stall {stall_spec:.4f}s vs forked {stall_forked:.4f}s "
            f"(ratio {ratio:.3f})",
        )
        check(
            f"{app_name}: speculative restore digest-equal",
            entry["digest_equal"],
            f"digest {fid.digest:#x} vs baseline {base.digest:#x}",
        )

    conflict = _forced_conflict_cell(seed=seed, gpu=gpu)
    report["forced_conflict"] = conflict
    check(
        "forced conflict: invalidate-and-replay, restore digest-equal",
        conflict["ok"],
        f"invalidated {conflict['invalidated']} handle(s), replayed "
        f"{conflict['replayed_bytes']} bytes, "
        f"digest_equal={conflict['digest_equal']}",
    )

    report["gate"] = gate(report["apps"], baseline, BOUNDS)
    report["ok"] = (
        all(c["ok"] for c in report["checks"]) and report["gate"]["ok"]
    )
    return report


def baseline_payload(report: dict) -> dict:
    """The slice of a report worth committing as the gate baseline."""
    return {
        "benchmark": "spec-baseline",
        "version": report["version"],
        "settings": report["settings"],
        "smoke": report["smoke"],
        **record(report["apps"], BOUNDS),
    }


def format_report(report: dict) -> str:
    """Human-readable table of a :func:`run_spec_bench` report."""
    s = report["settings"]
    lines = [
        f"speculative-checkpoint bench (scale={s['scale']}, "
        f"gpu={s['gpu']}, cuts at "
        + ", ".join(f"{c:.0%}" for c in report["cuts"])
        + ")",
        f"{'app':<16} {'mode':<12} {'runtime s':>10} {'stall s':>9} "
        f"{'images MB':>20} {'ratio':>7}",
        "-" * 80,
    ]
    for app_name, entry in report["apps"].items():
        lines.append(
            f"{app_name:<16} {'(baseline)':<12} "
            f"{entry['baseline_s']:>10.3f}"
        )
        for mode, m in entry["modes"].items():
            sizes = "/".join(f"{v:.0f}" for v in m["image_mb"])
            ratio = (
                f"{entry['stall_ratio']:>6.3f}"
                if mode == "speculative"
                else f"{'—':>6}"
            )
            lines.append(
                f"{'':<16} {mode:<12} {m['runtime_s']:>10.3f} "
                f"{m['stall_s']:>9.4f} {sizes:>20} {ratio:>7}"
            )
        lines.append(
            f"{'':<16} restore digest-equal: "
            + ("yes" if entry["digest_equal"] else "NO")
        )
    c = report["forced_conflict"]
    lines.append(
        f"\nforced conflict: invalidated={c['invalidated']} "
        f"replayed={c['replayed_bytes']}B "
        f"digest_equal={'yes' if c['digest_equal'] else 'NO'}"
    )
    lines.append("\nchecks:")
    for chk in report["checks"]:
        lines.append(
            f"  [{'PASS' if chk['ok'] else 'FAIL'}] {chk['name']} — "
            f"{chk['detail']}"
        )
    lines.extend(format_gate(report["gate"]))
    lines.append(f"\nspec-bench: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)
