"""Shared pieces of the benchmark: seeds, percentiles, op records,
host-speed calibration and checks.

Nothing here imports the program under test, so the statistics and the
failure bookkeeping can be unit-tested on synthetic records.
"""

from __future__ import annotations

import gc
import statistics
import time
import zlib
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: Percentiles the host-op tail may be reported at, highest first (see
#: :func:`tail`).
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

#: Reasons an op itself failed: it did not end with a right output.
#: The result line's ``failed`` counts these.
OP_FAIL_REASONS = (
    "error",  # the program raised
    "digest-mismatch",  # output differs from the reference
    "lost-session",  # a served session could not be closed
    "shed",  # admission refused the request
)
#: Reasons an op can be counted in ``failed_ops_pct``: the op failures
#: plus ``clock-lost``, a restarted job that ended earlier than physics
#: allows. A clock-lost job's output is right and no reported metric is
#: taken from its total virtual runtime, so it is a defect of the
#: program's clock, reported on its own row rather than as a failed op.
FAIL_REASONS = OP_FAIL_REASONS + ("clock-lost",)


def host_clock() -> float:
    """Seconds of CPU time this process has used.

    Host-clock metrics use CPU time rather than wall time: the program
    is single-threaded and does no I/O while measured, so the two agree
    on an idle machine, but on a shared one wall time also counts the
    stretches the process spends descheduled.
    """
    return time.process_time()


#: CPU ms one :func:`calibration_chunk` takes on the reference machine
#: (a quiet core of the machine the bounds were set on). Host metrics
#: are reported as if measured at that speed.
CAL_REF_MS = 0.25
#: Host CPU seconds of ops between two calibration chunks.
CAL_EVERY_S = 0.004
#: Host CPU seconds per calibration window (see :meth:`Calibrator.scale`).
CAL_WINDOW_S = 1.0


def calibration_chunk() -> int:
    """A fixed piece of host work with the program's mix of dict, tuple,
    string, small-numpy and CRC operations; never changes."""
    vec = np.zeros(64, np.float32)
    table: dict = {}
    crc = 0
    for i in range(150):
        table[i & 63] = (i, str(i))
        vec += np.float32(0.5)
        crc = zlib.crc32(vec.tobytes(), crc)
    return crc


class Calibrator:
    """The machine's current CPU speed, sampled between ops.

    On a shared machine the CPU time of the same work drifts by tens of
    percent over seconds to minutes (other tenants on sibling hardware
    threads). A fixed chunk of work run between ops drifts with it, so
    dividing by its slowdown against :data:`CAL_REF_MS`, sampled in the
    same :data:`CAL_WINDOW_S` window, takes the drift out of host
    metrics while leaving every change in the program's own cost.
    """

    def __init__(self) -> None:
        #: ``(host clock at the end, chunk ms)`` per sample
        self.samples: list[tuple[float, float]] = []
        #: host CPU seconds spent calibrating, warm-up runs included
        self.spent_s = 0.0
        self._last = host_clock()

    def maybe_run(self) -> None:
        if host_clock() - self._last >= CAL_EVERY_S:
            self.run()

    def run(self) -> None:
        # Warm caches first and keep the collector out of the timed
        # chunk, so what the ops left behind does not leak into it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = host_clock()
            calibration_chunk()
            t1 = host_clock()
            calibration_chunk()
            t2 = host_clock()
        finally:
            if enabled:
                gc.enable()
        self._last = t2
        self.spent_s += t2 - t0
        self.samples.append((t2, (t2 - t1) * 1e3))

    def slowdown(self) -> float:
        """Speed over the whole run relative to the reference (> 1:
        slower); 1.0 before the first sample."""
        if not self.samples:
            return 1.0
        return statistics.fmean(ms for _, ms in self.samples) / CAL_REF_MS

    def scale(self, ends: list[float], values: list[float]) -> list[float]:
        """Divide each value by the slowdown of the window it ended in
        (``ends`` are host-clock readings); windows without a sample use
        the whole run's."""
        by_window: dict[int, list[float]] = {}
        for t, ms in self.samples:
            by_window.setdefault(int(t // CAL_WINDOW_S), []).append(ms)
        slow = {w: statistics.fmean(ms) / CAL_REF_MS for w, ms in by_window.items()}
        overall = self.slowdown()
        return [
            v / slow.get(int(t // CAL_WINDOW_S), overall) for t, v in zip(ends, values)
        ]


def derive(seed: int, name: str) -> int:
    """Independent 32-bit sub-seed for the named input stream."""
    return zlib.crc32(f"{seed}:{name}".encode()) & 0xFFFFFFFF


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


def tail_percentile(n: int) -> float:
    """Highest percentile of :data:`TAIL_LADDER` that leaves at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples above its rank (the median
    when none does)."""
    for q in TAIL_LADDER:
        rank = min(n - 1, max(0, int(round(q / 100.0 * (n - 1)))))
        if n - 1 - rank >= TAIL_MIN_BEYOND:
            return q
    return TAIL_LADDER[-1]


def tail(samples, min_ops: int) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` of the reported tail.

    The percentile is :func:`tail_percentile` of ``min_ops``, the op
    count every run of the workload reaches, not of this run's count:
    op counts vary with host speed, and a percentile that moved with
    them would jump between populations of unlike ops (the slowest
    ckpt-restart jobs are HPGMG's, about 2.6% of jobs per mode).
    """
    q = tail_percentile(min_ops)
    value = percentile(samples, q)
    return value, q, sum(1 for v in samples if v > value)


def clock_conserved(
    restarted_ns: float, uncheckpointed_ns: float, restart_ns: float
) -> bool:
    """Clock-conservation check for one restarted job.

    A job that checkpoints, dies and restarts cannot finish sooner than
    the same job run without checkpoints plus the restart time it
    reports: checkpoint stalls only add time, and the restart itself is
    spent after the kill. A violation means virtual time was lost
    somewhere across the restart.
    """
    return restarted_ns >= uncheckpointed_ns + restart_ns


class Recorder:
    """Per-run op timings, failure reasons and counters.

    ``op()`` times one op in host CPU time (:func:`host_clock`);
    ``fail()`` records a failed op with its reason; ``add()`` accumulates
    a named counter. A tracer, when attached, is told where each op
    begins so its spans carry the op id.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.calibrator = Calibrator()
        self.op_ms: list[float] = []
        #: host clock at the end of each op (to find its calibration window)
        self.op_end: list[float] = []
        self.failures: Counter[str] = Counter()
        self.failure_details: list[str] = []
        self.counters: Counter[str] = Counter()
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.op_ms)

    @property
    def failed(self) -> int:
        """Ops that failed (:data:`OP_FAIL_REASONS`)."""
        return sum(self.failures[r] for r in OP_FAIL_REASONS)

    @property
    def flagged(self) -> int:
        """Ops counted in ``failed_ops_pct``: failed or clock-lost."""
        return sum(self.failures.values())

    @contextmanager
    def op(self):
        """Time one op; the op counts as attempted even if it raises."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(len(self.op_ms))
        t0 = host_clock()
        try:
            yield
        finally:
            end = host_clock()
            self.op_ms.append((end - t0) * 1e3)
            self.op_end.append(end)
            if tracer is not None:
                tracer.end_op()
            self.calibrator.maybe_run()

    def fail(self, reason: str, detail: str) -> None:
        if reason not in FAIL_REASONS:
            raise ValueError(f"unknown failure reason {reason!r}")
        self.failures[reason] += 1
        self.failure_details.append(f"{reason}: {detail}")

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    @property
    def correct(self) -> bool:
        """Outputs were right: nothing raised, no digest differed and no
        session was lost. Clock-lost jobs and shed requests are failed
        ops, not wrong outputs."""
        return (
            self.failures["error"] == 0
            and self.failures["digest-mismatch"] == 0
            and self.failures["lost-session"] == 0
            and not self.errors
        )

    def failed_ops_pct(self) -> float:
        return 100.0 * self.flagged / self.attempted if self.attempted else 0.0
