"""The serve-tier chaos campaign: many sessions, five fault cells.

``repro serve-bench`` drives the :mod:`repro.serve` tier through a
matrix of *cells* — identical serving workloads under different fault
regimes — and holds the result to three hard requirements:

- **zero lost sessions** — every opened session closes (possibly after
  eviction, quarantine, or node death);
- **every digest equal** — each closed session's state vector matches
  the pure-numpy reference replay of exactly the requests it served;
- **bounded resume latency, per cell** — each cell's p99
  rehydrate/failover resume must not regress more than
  :data:`RESUME_REGRESSION_LIMIT`, nor its sessions/sec fall below
  :data:`THROUGHPUT_FLOOR`, against that cell in the committed
  baseline (virtual time, so the gate is deterministic). A missing
  baseline, or a cell it lacks, fails the gate.

Cells (all sharing the session/wave schedule, differing only in faults):

==================  =========================================================
``baseline``        no faults — the digest/latency reference
``ecc``             double-bit ECC per-session fault plan (fatal: the ladder
                    goes straight to the restore rung)
``kernel-hang``     wedged-kernel plan (sticky: watchdog trips at sync,
                    stream reset first, restore if the replay re-wedges)
``node-death``      a node stops heartbeating after the first wave; hot
                    sessions fail over to their buddy's shadow, parked ones
                    re-home without a restore
``eviction-storm``  slots cut to a third — every wave churns most of the
                    population through park/rehydrate
==================  =========================================================

Latencies and throughput are *virtual-time* (the simulation's clocks),
so reports are bit-reproducible for a given seed; the JSON also records
wall time per cell for CI budget tracking.
"""

from __future__ import annotations

import time

from repro.errors import AdmissionRejectedError, ServeDeadlineExceededError
from repro.gpu.timing import NS_PER_S
from repro.harness.baseline import Bound, format_gate, gate, record
from repro.harness.fault_injection import FaultSpec, derive_seed
from repro.serve.admission import AdmissionController
from repro.serve.pool import SessionPool
from repro.serve.scheduler import ServeScheduler
from repro.trace.metrics import MetricsRegistry

#: Baseline file the CI gate compares against.
DEFAULT_BASELINE = "benchmarks/BENCH_serve_baseline.json"
#: p99 resume-latency ratio above which the CI gate fails.
RESUME_REGRESSION_LIMIT = 1.25
#: Sessions/sec ratio *below* which the CI gate fails.
THROUGHPUT_FLOOR = 0.80
#: Damping floor (ms) on both sides of the p99 ratio, so a
#: sub-millisecond baseline cannot flip the gate on rounding.
RESUME_FLOOR_MS = 0.05
#: Per-cell gate: ``(p99 + floor) / (base + floor) <= limit`` rewritten
#: as ``p99 <= limit × base + (limit - 1) × floor``.
BOUNDS = {
    "resume_p99_ms": Bound(
        RESUME_REGRESSION_LIMIT,
        slack=(RESUME_REGRESSION_LIMIT - 1.0) * RESUME_FLOOR_MS,
    ),
    "sessions_per_sec": Bound(THROUGHPUT_FLOOR, higher_is_better=True),
}

_NS_PER_MS = 1e6


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile over virtual-time samples (0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _cell_faults(name: str) -> list[FaultSpec]:
    if name == "ecc":
        return [FaultSpec("ecc", probability=0.02, max_fires=2)]
    if name == "kernel-hang":
        return [FaultSpec("kernel-hang", probability=0.02, max_fires=2)]
    return []


def run_cell(
    name: str,
    *,
    sessions: int,
    nodes: int,
    slots: int,
    waves: int,
    seed: int,
    state_elems: int,
) -> tuple[dict, MetricsRegistry]:
    """Run one campaign cell; return (JSON-safe summary, its metrics)."""
    t_wall = time.perf_counter()  # lint: allow — CI wall-budget tracking only
    cell_seed = derive_seed(seed, f"serve-cell:{name}")
    if name == "eviction-storm":
        slots = max(1, slots // 3)
        waves += 1
    pool = SessionPool(nodes, slots=slots, seed=cell_seed)
    admission = AdmissionController(
        max_queue=max(8, (sessions * 3) // 4),
        deadline_ns=5e9,
        service_estimate_ns=500_000.0,
        servers=nodes * slots,
    )
    sched = ServeScheduler(
        pool,
        admission=admission,
        seed=cell_seed,
        state_elems=state_elems,
        fault_plan=_cell_faults(name),
    )
    sids = [f"{name}-{i:04d}" for i in range(sessions)]
    for sid in sids:
        sched.open_session(sid)
    shed = 0
    for wave in range(waves):
        admitted: list[tuple[str, float]] = []
        for sid in sids:
            try:
                admitted.append((sid, sched.offer(sid)))
            except (AdmissionRejectedError, ServeDeadlineExceededError):
                shed += 1
        for sid, wait_ns in admitted:
            sched.handle_request(sid, wait_ns=wait_ns)
        if name == "node-death" and wave == 0:
            pool.fail(pool.nodes[0].name)
            sched.sweep()
    results = [sched.close_session(sid) for sid in sids]
    lost = sum(1 for r in results if r["lost"])
    mismatches = sum(1 for r in results if not r["lost"] and not r["ok"])
    served = sum(r["requests"] for r in results if not r["lost"])
    # Campaign makespan: the furthest-advanced session clock (virtual
    # timelines are per-session; the slowest one bounds the campaign).
    makespan_ns = max(
        (rec.session.process.clock_ns for rec in sched.records.values()),
        default=0.0,
    )
    counters = sched.metrics.snapshot()["counters"]
    summary = {
        "cell": name,
        "sessions": sessions,
        "nodes": nodes,
        "slots": slots,
        "waves": waves,
        "requests_served": served,
        "requests_shed": shed,
        "lost_sessions": lost,
        "digest_mismatches": mismatches,
        "parks": int(counters.get("serve.evicted", 0)),
        "rehydrates": int(counters.get("serve.rehydrated", 0)),
        "failovers": int(counters.get("serve.failed_over", 0)),
        "quarantined": int(counters.get("serve.quarantined", 0)),
        "recovery_rungs": {
            rung: int(counters.get(f"serve.recovery.{rung}", 0))
            for rung in ("retry", "stream-reset", "restore", "failover")
        },
        "resume_p50_ms": _percentile(sched.resume_ns, 0.50) / _NS_PER_MS,
        "resume_p99_ms": _percentile(sched.resume_ns, 0.99) / _NS_PER_MS,
        "resume_samples": len(sched.resume_ns),
        "makespan_s": makespan_ns / NS_PER_S,
        "sessions_per_sec": (
            sessions / (makespan_ns / NS_PER_S) if makespan_ns else 0.0
        ),
        "admission": admission.snapshot(),
        "shipped_bytes": pool.shipped_bytes,
        "wall_s": round(time.perf_counter() - t_wall, 3),  # lint: allow — CI wall budget
    }
    return summary, sched.metrics


def _by_cell(report: dict) -> dict[str, dict]:
    return {c["cell"]: c for c in report["cells"]}


def evaluate_gate(report: dict, baseline_path: str | None) -> dict:
    """Gate every cell's p99 resume and throughput against the committed
    baseline (:func:`repro.harness.baseline.gate`)."""
    return gate(_by_cell(report), baseline_path, BOUNDS)


def run_serve_bench(
    *,
    sessions: int = 200,
    nodes: int = 4,
    slots: int = 12,
    waves: int = 2,
    seed: int = 0,
    state_elems: int = 64,
    smoke: bool = False,
    baseline: str | None = DEFAULT_BASELINE,
) -> dict:
    """Run the full five-cell campaign; return the gated report."""
    if smoke:
        sessions = min(sessions, 200)
        waves = min(waves, 2)
    cells = ["baseline", "ecc", "kernel-hang", "node-death", "eviction-storm"]
    report: dict = {
        "benchmark": "serve-bench",
        "version": 2,
        "smoke": smoke,
        "config": {
            "sessions": sessions,
            "nodes": nodes,
            "slots": slots,
            "waves": waves,
            "seed": seed,
            "state_elems": state_elems,
            "cells": cells,
        },
        "cells": [],
    }
    merged = MetricsRegistry()
    resume_all: list[float] = []
    for cell in cells:
        summary, metrics = run_cell(
            cell,
            sessions=sessions,
            nodes=nodes,
            slots=slots,
            waves=waves,
            seed=seed,
            state_elems=state_elems,
        )
        report["cells"].append(summary)
        merged.merge(metrics)
    counters = merged.snapshot()["counters"]
    resume_hist = merged.snapshot()["histograms"].get("serve.resume_ns")
    # Exact percentiles need the raw samples, which per-cell summaries
    # carry only as p50/p99; recompute totals from the worst cell to
    # stay conservative (p99 over pooled samples <= max per-cell p99).
    worst_p99 = max(c["resume_p99_ms"] for c in report["cells"])
    med_p50 = sorted(c["resume_p50_ms"] for c in report["cells"])[
        len(report["cells"]) // 2
    ]
    total_sessions = sessions * len(cells)
    total_makespan = max(c["makespan_s"] for c in report["cells"])
    report["totals"] = {
        "sessions": total_sessions,
        "requests_served": sum(c["requests_served"] for c in report["cells"]),
        "requests_shed": sum(c["requests_shed"] for c in report["cells"]),
        "lost_sessions": sum(c["lost_sessions"] for c in report["cells"]),
        "digest_mismatches": sum(
            c["digest_mismatches"] for c in report["cells"]
        ),
        "parks": sum(c["parks"] for c in report["cells"]),
        "rehydrates": sum(c["rehydrates"] for c in report["cells"]),
        "failovers": sum(c["failovers"] for c in report["cells"]),
        "resume_p50_ms": med_p50,
        "resume_p99_ms": worst_p99,
        "resume_mean_ms": (
            (resume_hist["mean"] / _NS_PER_MS) if resume_hist else 0.0
        ),
        "sessions_per_sec": (
            total_sessions / total_makespan if total_makespan else 0.0
        ),
        "wall_s": round(sum(c["wall_s"] for c in report["cells"]), 3),
    }
    report["metrics"] = {"counters": counters}
    report["gate"] = evaluate_gate(report, baseline)
    report["checks"] = {
        "zero_lost": report["totals"]["lost_sessions"] == 0,
        "digests_equal": report["totals"]["digest_mismatches"] == 0,
        "gate_ok": report["gate"]["ok"],
    }
    report["ok"] = all(report["checks"].values())
    return report


def baseline_payload(report: dict) -> dict:
    """The slice of a report worth committing as the gate baseline."""
    return {
        "benchmark": "serve-baseline",
        "version": report["version"],
        "config": report["config"],
        "smoke": report["smoke"],
        **record(_by_cell(report), BOUNDS),
    }


def format_serve_bench(report: dict) -> str:
    """Human-readable campaign summary."""
    lines = [
        f"serve-bench ({'smoke' if report['smoke'] else 'full'}): "
        f"{report['config']['sessions']} sessions/cell x "
        f"{len(report['config']['cells'])} cells, "
        f"{report['config']['nodes']} nodes x "
        f"{report['config']['slots']} slots"
    ]
    for c in report["cells"]:
        rungs = ", ".join(
            f"{k}={v}" for k, v in c["recovery_rungs"].items() if v
        ) or "none"
        lines.append(
            f"  {c['cell']:<15} served={c['requests_served']:>4} "
            f"shed={c['requests_shed']:>3} lost={c['lost_sessions']} "
            f"mismatch={c['digest_mismatches']} parks={c['parks']:>4} "
            f"p99 resume={c['resume_p99_ms']:.2f}ms "
            f"[{rungs}] ({c['wall_s']:.1f}s wall)"
        )
    t = report["totals"]
    lines.append(
        f"  totals: {t['sessions']} sessions, {t['requests_served']} served, "
        f"{t['lost_sessions']} lost, {t['digest_mismatches']} mismatched, "
        f"p50/p99 resume {t['resume_p50_ms']:.2f}/{t['resume_p99_ms']:.2f}ms, "
        f"{t['sessions_per_sec']:.1f} sessions/s"
    )
    lines.extend(f"  {line}" for line in format_gate(report["gate"]))
    lines.append(f"  result: {'OK' if report['ok'] else 'FAILED'}")
    return "\n".join(lines)
