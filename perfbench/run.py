"""The repository's benchmark: three seeded workloads, both clocks.

Run from the repository root::

    python3 perfbench/run.py --workload stream-uvm --seed 1 --seconds 30 --trace 0

Workloads (each drives the program only through its public entry
points; see the module of each for what it does and why):

- ``stream-uvm``   -- many streams sharing UVM pages, CRAC against native
- ``ckpt-restart`` -- every paper app as a 4-cut, kill and restart job
- ``serve-churn``  -- park/rehydrate churn, a node death, ECC faults

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Host times are CPU time of the benchmark process. Op times and rates
are scaled to a reference CPU speed by a fixed calibration chunk run
between ops (``perfbench.common.Calibrator``); raw values are printed
beside them.
Virtual times come from the program's simulated clocks.
``--trace 1`` runs the workload untraced for a third of the time, then replays
the same units with every layer's entry points wrapped, and reports the
per-layer metrics and the tracing overhead; spans go to
``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every line before
it is a human-readable row: metric, value, unit and notes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "stream-uvm": ("perfbench.stream_uvm", "StreamUvm"),
    "ckpt-restart": ("perfbench.ckpt_restart", "CkptRestart"),
    "serve-churn": ("perfbench.serve_churn", "ServeChurn"),
}

#: End-to-end metrics every workload reports in its result line.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("host_op_p50_ms", "ms"),
    ("host_op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("overhead_pct", "%"),
)

#: Virtual-clock rows that only some workloads exercise: printed for
#: every workload, as ``n/a`` where the workload has no such event.
WORKLOAD_ROWS = (
    ("ckpt_stall_p50_ms.full", "ms"),
    ("ckpt_stall_p50_ms.forked", "ms"),
    ("restart_p50_ms", "ms"),
    ("image_mb.full", "MB"),
    ("image_mb.forked", "MB"),
    ("rehydrate_p50_ms", "ms"),
    ("rehydrate_p99_ms", "ms"),
    ("failover_resume_p50_ms", "ms"),
    ("served_per_virtual_s", "1/s"),
)

#: Layers of the per-layer split: the program's packages (``apps`` is
#: the paper applications' own host code) plus the benchmark's own code.
LAYERS = ("apps", "linux", "dmtcp", "core", "cuda", "gpu", "serve", "cluster", "bench")

#: Per-layer metrics of the traced run, by name and unit.
PER_LAYER = (
    ("linux.split_process.count", "count"),
    ("linux.split_process.host_ms", "ms"),
    ("linux.mmap.count", "count"),
    ("dmtcp.capture.count", "count"),
    ("dmtcp.capture.host_ms", "ms"),
    ("dmtcp.restore_memory.host_ms", "ms"),
    ("dmtcp.store.commit.host_ms", "ms"),
    ("dmtcp.store.export.host_ms", "ms"),
    ("dmtcp.store.export.bytes", "B"),
    ("dmtcp.store.import.host_ms", "ms"),
    ("dmtcp.image_bytes", "B"),
    ("dmtcp.delta_ratio", "ratio"),
    ("core.checkpoint.host_ms", "ms"),
    ("core.restart.count", "count"),
    ("core.restart.host_ms", "ms"),
    ("core.restart.virtual_ms", "ms"),
    ("core.replay.calls", "count"),
    ("core.refill.mb", "MB"),
    ("cuda.calls", "count"),
    ("cuda.dispatch.host_ms", "ms"),
    ("cuda.dispatch.virtual_ms", "ms"),
    ("gpu.kernels", "count"),
    ("gpu.copies", "count"),
    ("gpu.uvm.migrated_pages", "count"),
    ("gpu.sync.host_ms", "ms"),
    ("gpu.busy_virtual_ms", "ms"),
    ("serve.request.host_ms", "ms"),
    ("serve.parks", "count"),
    ("serve.rehydrates", "count"),
    ("serve.failovers", "count"),
    ("serve.shed", "count"),
    ("serve.admission_wait_virtual_ms", "ms"),
    ("serve.rehydrates_per_request", "ratio"),
    ("cluster.shipped_bytes", "B"),
    ("cluster.transfers", "count"),
    ("cluster.resends", "count"),
) + tuple(
    (f"{layer}.{kind}", unit)
    for layer in LAYERS
    for kind, unit in (("self_ms", "ms"), ("self_pct", "%"))
) + (
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)

#: Extra fresh-process set-ups whose median, with the run's own, is
#: reported as ``setup_s``.
SETUP_PROBES = 8


def import_program() -> None:
    """Put the checkout's program on the path, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    sys.path[:0] = [SRC, ROOT]
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


def set_up(workload: str, seed: int):
    """Imports, first split-process construction and input generation.

    Returns ``(workload instance, CPU seconds)``. The time covers the
    process from its start, so it is the set-up time only when this is
    the first thing a fresh process does. It is not calibrated: a
    fraction of a second is too short to sample the host speed well,
    and the median over several fresh processes is steadier.
    """
    module_name, class_name = WORKLOADS[workload]
    cls = getattr(importlib.import_module(module_name), class_name)
    from repro.core.halves import SplitProcess

    SplitProcess(gpu="V100", seed=seed)
    instance = cls(seed)
    return instance, time.process_time()


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure(instance, rec, *, seconds: float | None, units: int | None = None):
    """Run units until ``seconds`` of host CPU time passed, the virtual
    prefix is done and ``min_ops`` ops ran; or exactly ``units`` units.

    Returns ``(units run, host CPU seconds)``, calibration excluded.
    """
    from perfbench.common import host_clock

    tracer = rec.tracer
    t0 = host_clock()
    i = 0
    while True:
        if units is not None:
            if i >= units:
                break
        elif (
            i >= instance.virtual_units
            and rec.attempted >= instance.min_ops
            and host_clock() - t0 >= seconds
        ):
            break
        if tracer is not None:
            tracer.begin_unit()
        try:
            instance.run_unit(i, rec)
        except Exception as exc:  # noqa: BLE001 - reported, run continues
            rec.errors.append(f"unit {i}: {exc!r}")
        finally:
            if tracer is not None:
                tracer.end_unit()
        i += 1
    instance.finish(rec)
    return i, host_clock() - t0 - rec.calibrator.spent_s


def row(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
    print(f"  {name:<34} {shown:>14} {unit:<6} {note}".rstrip())


def print_failures(rec) -> None:
    row("failed_ops_pct", rec.failed_ops_pct(), "%",
        f"{rec.flagged} of {rec.attempted} ops; {rec.failed} failed, "
        f"{rec.failures['clock-lost']} clock-lost")
    for reason, n in sorted(rec.failures.items()):
        print(f"    {reason}: {n}")
    for err in rec.errors:
        print(f"    unit error: {err}")


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    instance, own_setup = set_up(workload, seed)
    from perfbench.common import Recorder, percentile, tail

    setups = [own_setup] + [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    gc.collect()
    rec = Recorder()
    units, cpu_s = measure(instance, rec, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    virtual = instance.virtual_rows()
    slow = rec.calibrator.slowdown()
    scaled_ms = rec.calibrator.scale(rec.op_end, rec.op_ms)
    tail_ms, tail_q, beyond = tail(scaled_ms, instance.min_ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rec.attempted / cpu_s * slow,
        "host_op_p50_ms": percentile(scaled_ms, 50),
        "host_op_tail_ms": tail_ms,
        "peak_rss_mb": rss_mb,
        "overhead_pct": virtual["overhead_pct"][0],
    }
    print(
        f"{workload} seed={seed}: {units} units, {rec.attempted} ops in {cpu_s:.2f} "
        f"CPU s; host speed {1 / slow:.3f} of reference "
        f"({len(rec.calibrator.samples)} calibration samples)"
    )
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"raw {rec.attempted / cpu_s:.6g}",
        "host_op_p50_ms": f"raw {percentile(rec.op_ms, 50):.6g}",
        "host_op_tail_ms": f"p{tail_q:g}, {beyond} samples beyond, n={rec.attempted}, "
        f"raw {percentile(rec.op_ms, tail_q):.6g}",
        "overhead_pct": f"virtual, first {instance.virtual_units} units",
    }
    for name, unit in END_TO_END:
        row(name, metrics[name], unit, notes.get(name, ""))
    print_failures(rec)
    for name, unit in WORKLOAD_ROWS:
        if name in virtual:
            row(name, virtual[name][0], unit, "virtual")
        else:
            row(name, "n/a", unit, f"not exercised by {workload}")
    for name, (value, unit) in virtual.items():
        if name != "overhead_pct" and name not in dict(WORKLOAD_ROWS):
            row(name, value, unit, "virtual")
    for label in getattr(instance, "clock_lost", []):
        print(f"    clock-lost (first round): {label}")
    return {
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END
        },
    }


def per_layer_values(tracer, counters: dict, overhead_pct: float) -> dict:
    """Per-layer metric values from the traced run."""
    c = dict(tracer.counters)
    c.update(counters)
    get = lambda name: float(c.get(name, 0.0))  # noqa: E731
    full_n, inc_n = get("dmtcp.captures.full"), get("dmtcp.captures.incremental")
    delta_ratio = (
        (get("dmtcp.image_bytes.incremental") / inc_n)
        / (get("dmtcp.image_bytes.full") / full_n)
        if full_n and inc_n else 0.0
    )
    served = get("serve.served")
    values = {
        "linux.split_process.count": tracer.count["linux.split_process"],
        "linux.split_process.host_ms": tracer.host_ms("linux.split_process"),
        "linux.mmap.count": tracer.count["linux.mmap"],
        "dmtcp.capture.count": tracer.count["dmtcp.capture"],
        "dmtcp.capture.host_ms": tracer.host_ms("dmtcp.capture"),
        "dmtcp.restore_memory.host_ms": tracer.host_ms("dmtcp.restore_memory"),
        "dmtcp.store.commit.host_ms": tracer.host_ms("dmtcp.store.commit"),
        "dmtcp.store.export.host_ms": tracer.host_ms("dmtcp.store.export"),
        "dmtcp.store.export.bytes": get("dmtcp.store.export.bytes"),
        "dmtcp.store.import.host_ms": tracer.host_ms("dmtcp.store.import"),
        "dmtcp.image_bytes": get("dmtcp.image_bytes"),
        "dmtcp.delta_ratio": delta_ratio,
        "core.checkpoint.host_ms": tracer.host_ms("core.checkpoint"),
        "core.restart.count": tracer.count["core.restart"],
        "core.restart.host_ms": tracer.host_ms("core.restart"),
        "core.restart.virtual_ms": get("core.restart.virtual_ms"),
        "core.replay.calls": get("core.replay.calls"),
        "core.refill.mb": get("core.refill.mb"),
        "cuda.calls": tracer.count["cuda.dispatch"],
        "cuda.dispatch.host_ms": tracer.host_ms("cuda.dispatch"),
        "cuda.dispatch.virtual_ms": get("cuda.dispatch.virtual_ms"),
        "gpu.kernels": tracer.count["gpu.kernels"],
        "gpu.copies": tracer.count["gpu.copies"],
        "gpu.uvm.migrated_pages": get("gpu.uvm.migrated_pages"),
        "gpu.sync.host_ms": tracer.host_ms("gpu.sync"),
        "gpu.busy_virtual_ms": get("gpu.busy_virtual_ms"),
        "serve.request.host_ms": tracer.host_ms("serve.request"),
        "serve.parks": get("serve.parks"),
        "serve.rehydrates": get("serve.rehydrates"),
        "serve.failovers": get("serve.failovers"),
        "serve.shed": get("serve.shed"),
        "serve.admission_wait_virtual_ms": get("serve.admission_wait_virtual_ms"),
        "serve.rehydrates_per_request": get("serve.rehydrates") / served if served else 0.0,
        "cluster.shipped_bytes": get("cluster.shipped_bytes"),
        "cluster.transfers": tracer.count["cluster.transfers"],
        "cluster.resends": get("cluster.resends"),
        "trace.overhead_pct": overhead_pct,
        "trace.spans": tracer.closed,
    }
    self_ms = tracer.layer_self_ms()
    total = sum(self_ms.values()) or 1.0
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = self_ms[layer]
        values[f"{layer}.self_pct"] = 100.0 * self_ms[layer] / total
    return values


def traced(workload: str, seed: int, seconds: float) -> dict:
    from perfbench.common import Recorder
    from perfbench.tracing import SpanTracer

    instance = set_up(workload, seed)[0]
    plain = Recorder()
    units, plain_s = measure(instance, plain, seconds=seconds / 3)
    del instance
    gc.collect()
    instance = set_up(workload, seed)[0]
    tracer = SpanTracer()
    rec = Recorder(tracer)
    tracer.install()
    try:
        _, traced_s = measure(instance, rec, seconds=None, units=units)
    finally:
        tracer.uninstall()
    overhead = 100.0 * (
        (traced_s / rec.calibrator.slowdown()) / (plain_s / plain.calibrator.slowdown()) - 1.0
    )
    values = per_layer_values(tracer, rec.counters, overhead)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    tracer.write(spans_path)
    print(
        f"{workload} seed={seed}: {units} units untraced in {plain_s:.2f} CPU s, "
        f"traced in {traced_s:.2f} CPU s; spans in {os.path.relpath(spans_path, ROOT)}"
    )
    for name, unit in PER_LAYER:
        row(name, values[name], unit)
    print_failures(rec)
    for name, (value, unit) in instance.virtual_rows().items():
        row(name, value, unit, "virtual")
    return {
        "correct": plain.correct and rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.setup_probe:
        print(set_up(args.workload, args.seed)[1])
        return 0
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
