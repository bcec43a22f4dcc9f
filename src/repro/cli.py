"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-apps`` — every workload with its Table 1/2 metadata;
- ``run APP``   — run a workload under any dispatcher, optionally with a
  mid-run checkpoint + kill + restart;
- ``reproduce WHAT`` — regenerate one (or all) of the paper's tables and
  figures at a chosen scale;
- ``fault-sim`` — §1(a)/(b) fault-tolerance economics: Young/Daly
  intervals, the analytic makespan, a Monte-Carlo check, and (with
  ``--session``) an end-to-end cross-validation that drives the real
  checkpoint pipeline with injected checkpoint/restore-stage faults;
- ``ckpt-bench`` — full vs incremental vs forked checkpoint stall
  comparison over Rodinia workloads, emitting ``BENCH_delta_ckpt.json``;
- ``perf-bench`` — wall-clock benchmark of the dirty-tracking/sanitizer
  hot paths (legacy vs vectorized, plus end-to-end capture/sanitize
  timings) with a calibration-normalized regression gate against the
  committed baseline; emits ``BENCH_perf.json``;
- ``fault-campaign`` — GPU runtime fault campaign: sweep fault class ×
  MTBF over guarded application runs, report per-rung recovery counts,
  lost virtual work, and bit-correctness, plus the
  rank-death-during-2PC scenario; emits ``BENCH_fault_campaign.json``;
- ``migrate`` — cluster migration bench: live (pre-copy) vs naive
  (stop-ship-restore) blackout across heterogeneous nodes, elastic
  N → M restore, scripted link faults, and rung-4 node failover;
  emits ``BENCH_migration.json``;
- ``serve-bench`` — multi-tenant serving-tier chaos campaign: hundreds
  of concurrent sessions through admission control, checkpoint-backed
  eviction, and the recovery ladder across fault cells (ECC, kernel
  hangs, node death, eviction storms); gates on zero lost sessions,
  digest equality, and p99 resume latency vs the committed baseline;
  emits ``BENCH_serve.json``;
- ``sanitize`` — compute-sanitizer-style hazard analysis: run one
  workload under the dynamic checkers (racecheck/synccheck/memcheck/
  initcheck), run the checkpoint-determinism lint, or run the full CI
  gate (planted-hazard detection + clean-app sweep + lint + overhead
  bound), emitting ``BENCH_sanitizer.json``;
- ``trace`` — run one workload with the unified tracer + profiler
  attached, write a Chrome/Perfetto ``trace_event`` JSON (load it at
  https://ui.perfetto.dev), and emit ``BENCH_trace.json`` with the
  overhead ratio, digest equality, and busy-ns/eq. 2 cross-checks;
- ``info``      — package version plus the calibrated cost model.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.apps import (
    CublasMicro,
    Hpgmg,
    Hypre,
    Lulesh,
    SimpleStreams,
    UnifiedMemoryStreams,
)
from repro.apps.rodinia import RODINIA_SUITE

APP_REGISTRY = {cls.name.lower(): cls for cls in RODINIA_SUITE}
APP_REGISTRY.update(
    {
        "simplestreams": SimpleStreams,
        "unifiedmemorystreams": UnifiedMemoryStreams,
        "lulesh": Lulesh,
        "hpgmg": Hpgmg,
        "hypre": Hypre,
        "cublas": CublasMicro,
    }
)

EXPERIMENTS = (
    "fig0", "table1", "table2", "fig2", "fig3", "fig4",
    "fig5", "fig5c", "table3", "fig6", "all",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRAC (SC 2020) reproduction: run workloads and "
        "regenerate the paper's evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list available workloads")
    sub.add_parser("info", help="show the calibrated cost model")

    cal = sub.add_parser(
        "calibrate", help="print target-vs-measured calibration for all apps"
    )
    cal.add_argument("--scale", type=float, default=1.0)

    run = sub.add_parser("run", help="run one workload")
    run.add_argument("app", choices=sorted(APP_REGISTRY))
    run.add_argument("--mode", default="native",
                     choices=["native", "crac", "crum", "proxy-cma", "crcuda"])
    run.add_argument("--scale", type=float, default=0.05)
    run.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    run.add_argument("--fsgsbase", action="store_true",
                     help="model the FSGSBASE kernel patch")
    run.add_argument("--checkpoint-at", type=float, default=None,
                     metavar="FRACTION",
                     help="take a checkpoint (CRAC only) at this progress")
    run.add_argument("--no-restart", action="store_true",
                     help="checkpoint without kill+restart")
    run.add_argument("--gzip", action="store_true",
                     help="enable DMTCP gzip compression")
    run.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("reproduce", help="regenerate a table/figure")
    rep.add_argument("what", choices=EXPERIMENTS)
    rep.add_argument("--scale", type=float, default=0.05)
    rep.add_argument("--bars", action="store_true",
                     help="render runtime figures as ASCII bar charts")

    fs = sub.add_parser(
        "fault-sim",
        help="fault-tolerance economics: analytic vs Monte-Carlo vs "
        "end-to-end session runs",
    )
    fs.add_argument("--work", type=float, default=2000.0,
                    help="job length in seconds of useful work")
    fs.add_argument("--mtbf", type=float, default=600.0,
                    help="mean time between failures, seconds")
    fs.add_argument("--interval", type=float, default=None,
                    help="checkpoint interval (default: Young's optimum)")
    fs.add_argument("--checkpoint-cost", type=float, default=1.0)
    fs.add_argument("--restart-cost", type=float, default=4.0)
    fs.add_argument("--runs", type=int, default=100,
                    help="Monte-Carlo repetitions")
    fs.add_argument("--session", action="store_true",
                    help="also cross-validate with end-to-end CracSession "
                    "runs through the real checkpoint store")
    fs.add_argument("--session-runs", type=int, default=3)
    fs.add_argument("--ckpt-fault-prob", type=float, default=0.0,
                    metavar="P", help="per-region fault probability while "
                    "the store writes an image (session mode)")
    fs.add_argument("--restore-fault-prob", type=float, default=0.0,
                    metavar="P", help="per-attempt mid-restore fault "
                    "probability (session mode)")
    fs.add_argument("--seed", type=int, default=0)

    cb = sub.add_parser(
        "ckpt-bench",
        help="full vs incremental vs forked checkpoint stall comparison",
    )
    cb.add_argument("--apps", nargs="+", default=["gaussian", "kmeans"],
                    choices=sorted(APP_REGISTRY),
                    help="workloads to sweep (large-image Rodinia apps "
                    "show the effect best)")
    cb.add_argument("--scale", type=float, default=1.0)
    cb.add_argument("--cuts", type=int, default=4,
                    help="number of evenly spaced checkpoint cuts")
    cb.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    cb.add_argument("--out", default="BENCH_delta_ckpt.json",
                    metavar="PATH", help="write the JSON report here "
                    "('-' to skip)")
    cb.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap the scale so the sweep "
                    "finishes in seconds")
    cb.add_argument("--seed", type=int, default=0)

    pb = sub.add_parser(
        "perf-bench",
        help="hot-path wall-clock benchmark + perf-regression gate",
    )
    pb.add_argument("--apps", nargs="+", default=["gaussian", "kmeans"],
                    choices=sorted(APP_REGISTRY),
                    help="workloads for the end-to-end sections (the "
                    "largest Rodinia apps by default)")
    pb.add_argument("--scale", type=float, default=1.0)
    pb.add_argument("--repeats", type=int, default=20,
                    help="repetitions per wall metric (aggregated; "
                    "higher = more stable)")
    pb.add_argument("--cuts", type=int, default=4,
                    help="number of evenly spaced checkpoint cuts")
    pb.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    pb.add_argument("--baseline", default=None, metavar="PATH",
                    help="baseline JSON to gate against (default: "
                    "benchmarks/BENCH_perf_baseline.json; '-' to skip "
                    "the gate)")
    pb.add_argument("--update-baseline", action="store_true",
                    help="write this run's metrics to the baseline path "
                    "instead of gating against it")
    pb.add_argument("--out", default="BENCH_perf.json",
                    metavar="PATH", help="write the JSON report here "
                    "('-' to skip)")
    pb.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: fewer repeats and smaller "
                    "micro traces so the bench finishes in seconds")
    pb.add_argument("--seed", type=int, default=0)

    fc = sub.add_parser(
        "fault-campaign",
        help="GPU runtime fault campaign: fault class × MTBF sweep "
        "through the recovery ladder",
    )
    fc.add_argument("--apps", nargs="+", default=["gaussian", "kmeans"],
                    choices=sorted(APP_REGISTRY),
                    help="workloads to sweep")
    fc.add_argument("--scale", type=float, default=0.05,
                    help="app scale (faults need fully-real iterations, "
                    "so keep it small)")
    fc.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    fc.add_argument("--classes", nargs="+", default=None,
                    choices=["ecc", "kernel-hang", "copy-stall",
                             "xfer-corrupt", "uvm-storm"],
                    help="fault classes to sweep (default: all)")
    fc.add_argument("--mtbf", nargs="+", type=float, default=None,
                    metavar="S",
                    help="absolute MTBF values in virtual seconds "
                    "(default: --mtbf-factors of each app's baseline "
                    "runtime)")
    fc.add_argument("--mtbf-factors", nargs="+", type=float,
                    default=[0.5, 0.2], metavar="F",
                    help="per-app MTBF as a fraction of its fault-free "
                    "runtime")
    fc.add_argument("--ranks", type=int, default=3,
                    help="ranks in the rank-death-during-2PC scenario")
    fc.add_argument("--out", default="BENCH_fault_campaign.json",
                    metavar="PATH", help="write the JSON report here "
                    "('-' to skip)")
    fc.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap the scale and sweep one "
                    "fault class per ladder rung")
    fc.add_argument("--seed", type=int, default=0)

    mg = sub.add_parser(
        "migrate",
        help="cluster migration bench: live vs naive blackout, elastic "
        "N-to-M restore, link faults, rung-4 node failover",
    )
    mg.add_argument("--apps", nargs="+", default=["gaussian", "kmeans"],
                    choices=sorted(APP_REGISTRY),
                    help="workloads to migrate mid-run")
    mg.add_argument("--scale", type=float, default=0.05,
                    help="problem-size scale in (0, 1]")
    mg.add_argument("--gpu-src", default="V100", choices=["V100", "K600"],
                    help="GPU model the jobs start on")
    mg.add_argument("--gpu-dst", default="K600", choices=["V100", "K600"],
                    help="GPU model the jobs migrate onto (a different "
                    "model exercises heterogeneous restore)")
    mg.add_argument("--ranks", type=int, default=3,
                    help="ranks in the elastic-restore source world")
    mg.add_argument("--elastic-to", nargs="+", type=int, default=[2, 5],
                    metavar="M",
                    help="rank counts to elastically restore onto")
    mg.add_argument("--out", default="BENCH_migration.json",
                    metavar="PATH", help="write the JSON report here "
                    "('-' to skip)")
    mg.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap the scale and shrink the "
                    "elastic region")
    mg.add_argument("--seed", type=int, default=0)

    sv = sub.add_parser(
        "serve-bench",
        help="multi-tenant serving-tier chaos campaign: admission, "
        "eviction, recovery ladder, node death",
    )
    sv.add_argument("--sessions", type=int, default=200,
                    help="concurrent sessions per cell")
    sv.add_argument("--nodes", type=int, default=4,
                    help="serving nodes in the pool")
    sv.add_argument("--slots", type=int, default=12,
                    help="GPU slots (hot sessions) per node")
    sv.add_argument("--waves", type=int, default=2,
                    help="request waves over the whole population")
    sv.add_argument("--state-elems", type=int, default=64,
                    help="float32 elements of per-session state")
    sv.add_argument("--baseline", default=None, metavar="PATH",
                    help="baseline JSON to gate against (default: "
                    "benchmarks/BENCH_serve_baseline.json; '-' to skip "
                    "the gate)")
    sv.add_argument("--update-baseline", action="store_true",
                    help="write this run's metrics to the baseline path "
                    "instead of gating against it")
    sv.add_argument("--out", default="BENCH_serve.json",
                    metavar="PATH", help="write the JSON report here "
                    "('-' to skip)")
    sv.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap sessions and waves so the "
                    "campaign finishes in seconds")
    sv.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser(
        "spec-bench",
        help="speculative-checkpoint bench: near-zero stall vs forked "
        "mode at equal image fidelity + regression gate",
    )
    sp.add_argument("--apps", nargs="+", default=["gaussian", "kmeans"],
                    choices=sorted(APP_REGISTRY),
                    help="workloads to compare (large-image Rodinia apps "
                    "show the stall gap best)")
    sp.add_argument("--scale", type=float, default=0.5)
    sp.add_argument("--cuts", type=int, default=3,
                    help="number of evenly spaced checkpoint cuts")
    sp.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    sp.add_argument("--baseline", default=None, metavar="PATH",
                    help="baseline JSON to gate against (default: "
                    "benchmarks/BENCH_spec_baseline.json; '-' to skip "
                    "the gate)")
    sp.add_argument("--update-baseline", action="store_true",
                    help="write this run's stall ratios to the baseline "
                    "path instead of gating against it")
    sp.add_argument("--out", default="BENCH_spec.json",
                    metavar="PATH", help="write the JSON report here "
                    "('-' to skip)")
    sp.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap the scale and cuts so the "
                    "comparison finishes in seconds")
    sp.add_argument("--seed", type=int, default=0)

    sz = sub.add_parser(
        "sanitize",
        help="hazard analysis: dynamic checkers over one workload, the "
        "determinism lint, or the full CI gate",
    )
    sz.add_argument("app", nargs="?", choices=sorted(APP_REGISTRY),
                    help="workload to check (omit with --lint/--gate)")
    sz.add_argument("--mode", default="crac",
                    choices=["native", "crac", "crum", "proxy-cma",
                             "crcuda"])
    sz.add_argument("--scale", type=float, default=0.05)
    sz.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    sz.add_argument("--checkpoint-at", type=float, default=None,
                    metavar="FRACTION",
                    help="take a CRAC checkpoint at this progress "
                    "(exercises synccheck)")
    sz.add_argument("--lint", action="store_true",
                    help="run only the static determinism lint over "
                    "src/repro")
    sz.add_argument("--gate", action="store_true",
                    help="run the full CI gate (planted detection + "
                    "clean apps + lint + overhead)")
    sz.add_argument("--out", default="BENCH_sanitizer.json",
                    metavar="PATH", help="write the gate JSON report "
                    "here ('-' to skip)")
    sz.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap the clean-sweep scale")
    sz.add_argument("--seed", type=int, default=0)

    an = sub.add_parser(
        "analyze",
        help="whole-program static analysis: API-wiring consistency, "
        "replay-determinism dataflow, and the determinism lint; fails "
        "on any unbaselined finding",
    )
    an.add_argument("--gate", action="store_true",
                    help="also run the planted-violation corpus "
                    "(100%% detection / 0 false positives) — the CI mode")
    an.add_argument("--baseline", default="benchmarks/ANALYSIS_baseline.json",
                    metavar="PATH",
                    help="committed baseline of accepted findings")
    an.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline to accept every current "
                    "finding; requires --justify")
    an.add_argument("--justify", default=None, metavar="MSG",
                    help="justification stamped on every finding accepted "
                    "by --update-baseline (required; placeholders like "
                    "'TODO' are refused — the justification audit rejects "
                    "them)")
    an.add_argument("--out", default="-", metavar="PATH",
                    help="write the findings/inventory JSON report here")
    an.add_argument("--sarif", default=None, metavar="PATH",
                    help="also export SARIF 2.1.0 for code-scanning UIs")

    tr = sub.add_parser(
        "trace",
        help="run one workload under the unified tracer and export a "
        "Chrome/Perfetto trace + BENCH_trace.json",
    )
    tr.add_argument("app", choices=sorted(APP_REGISTRY))
    tr.add_argument("--mode", default="crac",
                    choices=["native", "crac", "crum", "proxy-cma",
                             "crcuda"])
    tr.add_argument("--scale", type=float, default=0.05)
    tr.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    tr.add_argument("--checkpoint-at", type=float, default=None,
                    metavar="FRACTION",
                    help="take a CRAC checkpoint + kill + restart at this "
                    "progress (exercises the restart splice)")
    tr.add_argument("--trace-out", default=None, metavar="PATH",
                    help="Chrome trace output path (default "
                    "trace_<app>.json, '-' to skip)")
    tr.add_argument("--out", default="BENCH_trace.json",
                    metavar="PATH", help="write the JSON report here "
                    "('-' to skip)")
    tr.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap the scale")
    tr.add_argument("--seed", type=int, default=0)
    return parser


def cmd_list_apps(out) -> int:
    """``repro list-apps``."""
    print(f"{'name':<22} {'UVM':<4} {'streams':<8} {'paper args'}", file=out)
    print("-" * 78, file=out)
    for name in sorted(APP_REGISTRY):
        cls = APP_REGISTRY[name]
        print(
            f"{name:<22} {'✓' if cls.uses_uvm else '✗':<4} "
            f"{cls.stream_range if cls.uses_streams else '—':<8} "
            f"{cls.cli_args}",
            file=out,
        )
    return 0


def cmd_info(out) -> int:
    """``repro info``: version + cost model."""
    from repro.gpu.timing import DEFAULT_HOST_COSTS, GPU_SPECS

    print(f"repro {__version__} — CRAC (SC 2020) reproduction", file=out)
    print("\nGPU models:", file=out)
    for key, spec in GPU_SPECS.items():
        print(
            f"  {key}: {spec.name}, CC {spec.compute_capability[0]}."
            f"{spec.compute_capability[1]}, {spec.memory_bytes >> 30} GB, "
            f"{spec.max_concurrent_kernels} concurrent kernels",
            file=out,
        )
    c = DEFAULT_HOST_COSTS
    print("\nhost cost model (ns):", file=out)
    for field_name in (
        "native_dispatch_ns", "trampoline_body_ns", "log_record_ns",
        "crac_startup_ns", "replay_call_ns", "restart_bootstrap_ns",
        "ckpt_quiesce_ns",
    ):
        print(f"  {field_name:<22} {getattr(c, field_name):>14,.0f}", file=out)
    return 0


def cmd_run(args, out) -> int:
    """``repro run APP``."""
    from repro.harness import Machine, run_app

    cls = APP_REGISTRY[args.app]
    app = cls(scale=args.scale, seed=args.seed)
    machine = Machine(gpu=args.gpu, fsgsbase=args.fsgsbase, seed=args.seed)
    result = run_app(
        app,
        machine,
        mode=args.mode,
        checkpoint_at=args.checkpoint_at,
        restart_after_checkpoint=not args.no_restart,
        gzip=args.gzip,
        noise=False,
    )
    print(f"app:        {result.app_name} (scale={args.scale})", file=out)
    print(f"mode:       {result.mode} on {result.gpu}", file=out)
    print(f"runtime:    {result.runtime_exact_s:.4f} s (virtual)", file=out)
    print(f"CUDA calls: {result.cuda_calls:,} ({result.cps:,.0f}/s)", file=out)
    print(f"digest:     {result.digest:#010x}", file=out)
    for rec in result.checkpoints:
        print(
            f"checkpoint: {rec.checkpoint_s:.3f} s, {rec.size_mb:.1f} MB "
            f"at {rec.at_progress:.0%}",
            file=out,
        )
        if rec.restart_s is not None:
            print(
                f"restart:    {rec.restart_s:.3f} s "
                f"({rec.replayed_calls} calls replayed)",
                file=out,
            )
    return 0


def cmd_calibrate(args, out) -> int:
    """``repro calibrate``: target-vs-measured table."""
    from repro.harness.calibration import calibration_table, worst_error

    rows = calibration_table(scale=args.scale)
    print(
        f"{'app':<22} {'runtime s (tgt)':>18} {'calls (tgt)':>22} "
        f"{'image MB (tgt)':>20}",
        file=out,
    )
    print("-" * 86, file=out)
    for r in rows:
        print(
            f"{r.name:<22} "
            f"{r.measured_runtime_s:>8.1f} ({r.target_runtime_s:>6.1f}) "
            f"{r.measured_calls:>12,} ({r.target_calls:>7,}) "
            f"{r.measured_ckpt_mb:>10.0f} ({r.target_ckpt_mb:>6.0f})",
            file=out,
        )
    name, err = worst_error(rows)
    print(f"\nworst calibration error: {err:.1%} ({name})", file=out)
    return 0


def cmd_fault_sim(args, out) -> int:
    """``repro fault-sim``: Young/Daly vs Monte-Carlo vs session runs."""
    from repro.harness.fault_tolerance import (
        FaultSimulator,
        daly_interval,
        expected_completion_time,
        young_interval,
    )

    c, r, m = args.checkpoint_cost, args.restart_cost, args.mtbf
    tau_y = young_interval(c, m)
    tau_d = daly_interval(c, m)
    tau = args.interval if args.interval is not None else tau_y
    print(f"work {args.work:.0f} s, MTBF {m:.0f} s, "
          f"C {c:.2f} s, R {r:.2f} s", file=out)
    print(f"Young interval:  {tau_y:10.2f} s", file=out)
    print(f"Daly interval:   {tau_d:10.2f} s", file=out)
    print(f"using interval:  {tau:10.2f} s", file=out)
    analytic = expected_completion_time(args.work, tau, c, r, m)
    print(f"analytic makespan:    {analytic:10.2f} s", file=out)
    sim = FaultSimulator(mtbf_s=m, seed=args.seed)
    mc = sim.mean_makespan(args.work, tau, c, r, runs=args.runs)
    print(f"Monte-Carlo makespan: {mc:10.2f} s "
          f"({args.runs} runs, {mc / analytic:.2f}× analytic)", file=out)
    no_ckpt = sim.mean_makespan(args.work, None, 0.0, r,
                                runs=max(1, args.runs // 5))
    print(f"no checkpointing:     {no_ckpt:10.2f} s "
          f"({no_ckpt / analytic:.2f}× analytic)", file=out)
    if args.session:
        cv = sim.cross_validate_session(
            args.work,
            args.interval,
            runs=args.session_runs,
            ckpt_fault_prob=args.ckpt_fault_prob,
            restore_fault_prob=args.restore_fault_prob,
        )
        print("\nsession-backed cross-validation (real pipeline, "
              "measured costs):", file=out)
        print(f"  measured C {cv.checkpoint_cost_s:.3f} s, "
              f"R {cv.restart_cost_s:.3f} s, "
              f"interval {cv.interval_s:.2f} s", file=out)
        print(f"  analytic  {cv.analytic_s:10.2f} s", file=out)
        print(f"  simulated {cv.simulated_s:10.2f} s "
              f"({cv.ratio:.2f}× analytic, {len(cv.outcomes)} runs)",
              file=out)
        for i, o in enumerate(cv.outcomes):
            print(f"  run {i}: {o.makespan_s:8.2f} s, "
                  f"{o.failures} failures, {o.checkpoints} ckpts, "
                  f"{o.aborted_checkpoints} aborted, "
                  f"{o.restart_attempts} restart attempts, "
                  f"{o.work_lost_s:.1f} s lost", file=out)
    return 0


def cmd_ckpt_bench(args, out) -> int:
    """``repro ckpt-bench``: checkpoint-mode stall sweep + JSON report."""
    import json

    from repro.harness.ckpt_bench import format_report, run_ckpt_bench

    scale = min(args.scale, 0.25) if args.smoke else args.scale
    report = run_ckpt_bench(
        [APP_REGISTRY[name] for name in args.apps],
        scale=scale,
        n_cuts=args.cuts,
        seed=args.seed,
        gpu=args.gpu,
    )
    print(format_report(report), file=out)
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}", file=out)
    return 0


def cmd_perf_bench(args, out) -> int:
    """``repro perf-bench``: hot-path wall bench + regression gate."""
    import json
    import os

    from repro.harness.perf_bench import (
        DEFAULT_BASELINE,
        baseline_payload,
        format_report,
        run_perf_bench,
    )

    baseline_path = args.baseline or DEFAULT_BASELINE
    baseline = None
    if not args.update_baseline and args.baseline != "-":
        if os.path.exists(baseline_path):
            with open(baseline_path) as fh:
                baseline = json.load(fh)
        else:
            print(f"note: no baseline at {baseline_path}; "
                  "gate records this run only", file=out)
    repeats = min(args.repeats, 10) if args.smoke else args.repeats
    report = run_perf_bench(
        [APP_REGISTRY[name] for name in args.apps],
        scale=args.scale,
        repeats=repeats,
        n_cuts=args.cuts,
        seed=args.seed,
        gpu=args.gpu,
        smoke=args.smoke,
        baseline=baseline,
    )
    print(format_report(report), file=out)
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}", file=out)
    if args.update_baseline:
        with open(baseline_path, "w") as fh:
            json.dump(baseline_payload(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline {baseline_path}", file=out)
    return 0 if report["ok"] else 1


def cmd_fault_campaign(args, out) -> int:
    """``repro fault-campaign``: runtime fault sweep + JSON report."""
    import json

    from repro.harness.fault_tolerance import (
        format_fault_campaign,
        run_fault_campaign,
    )

    scale = min(args.scale, 0.05) if args.smoke else args.scale
    classes = args.classes
    if args.smoke and classes is None:
        # One class per ladder rung keeps the smoke run small while
        # still proving retry, stream-reset, and restore all fire.
        classes = ["xfer-corrupt", "kernel-hang", "ecc"]
    report = run_fault_campaign(
        [APP_REGISTRY[name] for name in args.apps],
        scale=scale,
        seed=args.seed,
        gpu=args.gpu,
        fault_classes=classes,
        mtbf_s=args.mtbf,
        mtbf_factors=tuple(args.mtbf_factors),
        rank_death_ranks=args.ranks,
    )
    print(format_fault_campaign(report), file=out)
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}", file=out)
    return 0


def cmd_migrate(args, out) -> int:
    """``repro migrate``: cluster migration bench + JSON report."""
    import json

    from repro.harness.migrate_bench import (
        format_migration_bench,
        run_migration_bench,
    )

    scale = min(args.scale, 0.05) if args.smoke else args.scale
    report = run_migration_bench(
        [APP_REGISTRY[name] for name in args.apps],
        scale=scale,
        seed=args.seed,
        gpu_src=args.gpu_src,
        gpu_dst=args.gpu_dst,
        ranks=args.ranks,
        elastic_to=tuple(args.elastic_to),
        smoke=args.smoke,
    )
    print(format_migration_bench(report), file=out)
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}", file=out)
    return 0


def cmd_serve_bench(args, out) -> int:
    """``repro serve-bench``: serving-tier chaos campaign + gate."""
    import json
    import os

    from repro.harness.serve_bench import (
        DEFAULT_BASELINE,
        baseline_payload,
        format_serve_bench,
        run_serve_bench,
    )

    baseline_path = args.baseline or DEFAULT_BASELINE
    gate_path: str | None = baseline_path
    if args.update_baseline or args.baseline == "-":
        gate_path = None
    elif not os.path.exists(baseline_path):
        print(f"error: no serve baseline at {baseline_path}; record one "
              "with --update-baseline, or pass --baseline - to run "
              "without the gate", file=out)
        return 1
    report = run_serve_bench(
        sessions=args.sessions,
        nodes=args.nodes,
        slots=args.slots,
        waves=args.waves,
        seed=args.seed,
        state_elems=args.state_elems,
        smoke=args.smoke,
        baseline=gate_path,
    )
    print(format_serve_bench(report), file=out)
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}", file=out)
    if args.update_baseline:
        with open(baseline_path, "w") as fh:
            json.dump(baseline_payload(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline {baseline_path}", file=out)
    return 0 if report["ok"] else 1


def cmd_spec_bench(args, out) -> int:
    """``repro spec-bench``: speculative vs forked stall + fidelity."""
    import json
    import os

    from repro.harness.spec_bench import (
        DEFAULT_BASELINE,
        baseline_payload,
        format_report,
        run_spec_bench,
    )

    baseline_path = args.baseline or DEFAULT_BASELINE
    baseline = None
    if not args.update_baseline and args.baseline != "-":
        if os.path.exists(baseline_path):
            with open(baseline_path) as fh:
                baseline = json.load(fh)
        else:
            print(f"note: no baseline at {baseline_path}; "
                  "gate records this run only", file=out)
    report = run_spec_bench(
        [APP_REGISTRY[name] for name in args.apps],
        scale=args.scale,
        n_cuts=args.cuts,
        seed=args.seed,
        gpu=args.gpu,
        smoke=args.smoke,
        baseline=baseline,
    )
    print(format_report(report), file=out)
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}", file=out)
    if args.update_baseline:
        with open(baseline_path, "w") as fh:
            json.dump(baseline_payload(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline {baseline_path}", file=out)
    return 0 if report["ok"] else 1


def cmd_sanitize(args, out) -> int:
    """``repro sanitize``: hazard analysis / lint / CI gate."""
    import json

    if args.gate:
        from repro.sanitizer.gate import format_gate, run_gate

        scale = min(args.scale, 0.05) if args.smoke else args.scale
        report = run_gate(scale=scale, gpu=args.gpu, seed=args.seed)
        print(format_gate(report), file=out)
        if args.out != "-":
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"\nwrote {args.out}", file=out)
        return 0 if report["ok"] else 1

    if args.lint:
        from repro.sanitizer.lint import format_findings, lint_package

        findings = lint_package()
        print(format_findings(findings), file=out)
        return 0 if not findings else 1

    if args.app is None:
        print("sanitize: give an APP, or use --lint / --gate", file=out)
        return 2

    from repro.harness import Machine, run_app
    from repro.sanitizer.core import Sanitizer

    san = Sanitizer()
    result = run_app(
        APP_REGISTRY[args.app](scale=args.scale, seed=args.seed),
        Machine(gpu=args.gpu, seed=args.seed),
        mode=args.mode,
        checkpoint_at=args.checkpoint_at,
        restart_after_checkpoint=False,
        noise=False,
        sanitizer=san,
    )
    print(f"app:     {result.app_name} (scale={args.scale}, "
          f"mode={args.mode})", file=out)
    print(f"runtime: {result.runtime_exact_s:.4f} s (virtual)", file=out)
    print(san.report.summary(), file=out)
    return 0 if san.report.clean else 1


def cmd_analyze(args, out) -> int:
    """``repro analyze``: static wiring/determinism analysis + gate."""
    import json

    from repro.analysis.engine import (
        analyze_package,
        findings_from_report,
        run_corpus_gate,
    )
    from repro.analysis.findings import Baseline, format_findings, to_sarif

    ok = True
    gate = None
    if args.gate:
        gate = run_corpus_gate()
        print(
            f"corpus:  {gate['detected']}/{gate['positives']} planted "
            f"violations detected, {gate['false_positives']} false "
            f"positive(s) on {len(gate['scenarios']) - gate['positives']} "
            "negative control(s)",
            file=out,
        )
        for row in gate["scenarios"]:
            if not row["ok"]:
                print(
                    f"  FAIL {row['name']}: expected {row['expect']}, "
                    f"found {row['found']}",
                    file=out,
                )
        ok = ok and gate["ok"]

    baseline = Baseline.load(args.baseline)
    report = analyze_package(baseline=baseline)
    findings = findings_from_report(report)

    if args.update_baseline:
        # The justification audit (tests/analysis/test_baseline.py)
        # rejects empty or placeholder entries, so refuse to write them
        # here rather than producing a baseline CI will bounce.
        justify = (args.justify or "").strip()
        placeholders = ("todo", "fixme", "tbd", "xxx")
        if not justify:
            print(
                "analyze: --update-baseline requires --justify MSG — "
                "every accepted finding is stamped with it and the "
                "justification audit rejects empty entries",
                file=out,
            )
            return 2
        if any(p in justify.lower() for p in placeholders):
            print(
                f"analyze: refusing placeholder justification {justify!r} "
                "(contains TODO/FIXME/TBD/XXX); write the real reason "
                "each finding is acceptable",
                file=out,
            )
            return 2
        for f in findings:
            baseline.add(f, justify)
        baseline.save(args.baseline)
        print(
            f"baseline: accepted {len(findings)} finding(s) into "
            f"{args.baseline} with justification {justify!r}",
            file=out,
        )
        findings = []
        report["findings"] = []
        report["ok"] = True

    counts = report["counts"]
    print(
        f"analyze: {counts['apis']} APIs / {counts['modules']} modules — "
        f"{counts['unbaselined']} unbaselined, "
        f"{counts['baselined']} baselined finding(s)",
        file=out,
    )
    if findings:
        print(format_findings(findings), file=out)
        ok = False
    if report["unused_baseline"]:
        print(
            "stale baseline entries (finding fixed — delete them): "
            + ", ".join(report["unused_baseline"]),
            file=out,
        )
        ok = False

    if args.out != "-":
        payload = dict(report)
        if gate is not None:
            payload["corpus_gate"] = gate
        payload["ok"] = ok
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=out)
    if args.sarif is not None:
        with open(args.sarif, "w") as fh:
            json.dump(to_sarif(findings), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.sarif}", file=out)
    return 0 if ok else 1


def cmd_trace(args, out) -> int:
    """``repro trace APP``: traced run + Chrome trace + JSON report."""
    import json

    from repro.harness.trace_bench import format_trace_bench, run_trace_bench
    from repro.trace import write_chrome_trace

    scale = min(args.scale, 0.05) if args.smoke else args.scale
    report, tracer, _profiler = run_trace_bench(
        APP_REGISTRY[args.app],
        scale=scale,
        gpu=args.gpu,
        seed=args.seed,
        mode=args.mode,
        checkpoint_at=args.checkpoint_at,
    )
    print(format_trace_bench(report), file=out)
    trace_out = args.trace_out
    if trace_out is None:
        trace_out = f"trace_{args.app}.json"
    if trace_out != "-":
        write_chrome_trace(tracer, trace_out, label=report["app"])
        print(f"\nwrote {trace_out} (load at https://ui.perfetto.dev)",
              file=out)
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=out)
    return 0 if report["ok"] else 1


def cmd_reproduce(args, out) -> int:
    """``repro reproduce WHAT``: regenerate a table/figure."""
    from repro.harness import experiments as ex
    from repro.harness.report import render_all, render_bars, render_table

    scale = args.scale
    if getattr(args, "bars", False) and args.what in ("fig2", "fig5"):
        rows = (
            ex.fig2_rodinia_runtime(scale, noise=False)
            if args.what == "fig2"
            else ex.fig5_runtimes(scale, noise=False)
        )
        print(
            render_bars(
                f"{args.what} — native vs CRAC", rows, ["native_s", "crac_s"]
            ),
            file=out,
        )
        return 0
    table = {
        "fig0": lambda: render_table("§1 TOP500", ex.fig0_top500(), "year"),
        "table1": lambda: render_table(
            "Table 1", ex.table1_characterization(scale)),
        "table2": lambda: render_table("Table 2", ex.table2_cli_arguments()),
        "fig2": lambda: render_table(
            "Figure 2", ex.fig2_rodinia_runtime(scale, noise=False)),
        "fig3": lambda: render_table(
            "Figure 3", ex.fig3_rodinia_checkpoint(scale)),
        "fig4": lambda: render_table("Figure 4", ex.fig4_simplestreams(scale)),
        "fig5": lambda: render_table(
            "Figure 5a/5b", ex.fig5_runtimes(scale, noise=False)),
        "fig5c": lambda: render_table("Figure 5c", ex.fig5c_checkpoint(scale)),
        "table3": lambda: render_table(
            "Table 3", ex.table3_ipc_comparison(min(scale, 0.05))),
        "fig6": lambda: render_table(
            "Figure 6", ex.fig6_fsgsbase(scale, noise=False)),
        "all": lambda: render_all(scale),
    }[args.what]
    print(table(), file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list-apps":
        return cmd_list_apps(out)
    if args.command == "info":
        return cmd_info(out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "calibrate":
        return cmd_calibrate(args, out)
    if args.command == "fault-sim":
        return cmd_fault_sim(args, out)
    if args.command == "ckpt-bench":
        return cmd_ckpt_bench(args, out)
    if args.command == "perf-bench":
        return cmd_perf_bench(args, out)
    if args.command == "fault-campaign":
        return cmd_fault_campaign(args, out)
    if args.command == "migrate":
        return cmd_migrate(args, out)
    if args.command == "spec-bench":
        return cmd_spec_bench(args, out)
    if args.command == "serve-bench":
        return cmd_serve_bench(args, out)
    if args.command == "sanitize":
        return cmd_sanitize(args, out)
    if args.command == "analyze":
        return cmd_analyze(args, out)
    if args.command == "trace":
        return cmd_trace(args, out)
    if args.command == "reproduce":
        return cmd_reproduce(args, out)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
