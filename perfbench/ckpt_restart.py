"""``ckpt-restart``: every paper app as a checkpoint, kill and restart job.

A job runs one app under a ``CracSession`` and takes four periodic cuts
into a ``CheckpointStore``; after the last cut the process is killed and
the job continues from ``restart_latest``. Its output digest must equal
a native run of the same app and inputs. Each round is one pass over the
apps with fresh app seeds and scales; every app runs twice in it, once
with ``full`` cuts (the paper's CRAC) and once with ``forked`` cuts
(incremental images written on a background timeline), on the same
inputs, so the two modes are compared pairwise.

Per app and round the benchmark also runs the app natively and under
CRAC without checkpoints (untimed references, shared by the two jobs).
The job itself is the timed op.

Clock conservation: a restarted job must end no earlier than the
uncheckpointed CRAC run plus the restart time it reports. Jobs that
break it are counted in ``failed_ops_pct`` with reason ``clock-lost``
and the run goes on; their outputs are right, so they are not failed
ops in the result line (see ``perfbench.common.FAIL_REASONS``).
"""

from __future__ import annotations

import zlib

import numpy as np

from perfbench.common import clock_conserved, derive, percentile
from repro.apps import Hpgmg, Hypre, Lulesh, SimpleStreams, UnifiedMemoryStreams
from repro.apps.base import AppContext
from repro.apps.rodinia import RODINIA_SUITE
from repro.core.halves import SplitProcess
from repro.core.session import CracSession
from repro.cuda.interface import NativeBackend
from repro.dmtcp.store import CheckpointStore

NAME = "ckpt-restart"
APPS = tuple(RODINIA_SUITE) + (SimpleStreams, UnifiedMemoryStreams, Lulesh, Hpgmg, Hypre)
MODES = ("full", "forked")
CUTS = (0.2, 0.4, 0.6, 0.8)
#: App scale range around 0.25 (iteration counts and virtual runtimes
#: shrink with scale, the call mix does not). Narrow, because the host
#: cost of the heaviest job (HPGMG) grows steeply with it.
SCALE_LO, SCALE_HI = 0.24, 0.26


def job_plan(seed: int, unit: int) -> tuple[type, str, float, int]:
    """``(app class, mode, scale, app seed)`` of job number ``unit``."""
    rnd, k = divmod(unit, len(APPS) * len(MODES))
    app, mode = divmod(k, len(MODES))
    cls = APPS[app]
    rng = np.random.default_rng(derive(derive(seed, f"round{rnd}"), cls.name))
    scale = float(rng.uniform(SCALE_LO, SCALE_HI))
    return cls, MODES[mode], scale, int(rng.integers(0, 2**31))


def run_native(cls, scale: float, app_seed: int) -> tuple[int, float]:
    split = SplitProcess(gpu="V100", seed=app_seed)
    backend = NativeBackend(split.runtime)
    result = cls(scale=scale, seed=app_seed).run(
        AppContext(backend=backend, upper_mmap=split.upper_mmap)
    )
    return result.digest, backend.process.clock_ns


def run_crac(cls, scale: float, app_seed: int, mode: str | None = None) -> dict:
    """Run under CRAC; with ``mode`` take the four cuts and restart."""
    session = CracSession(gpu="V100", seed=app_seed)
    store = CheckpointStore()
    chain: list = []
    reports: list = []
    forked = mode == "forked"

    def cut(progress: float) -> None:
        # Coarse-grained apps report progress rarely; take every cut
        # whose trigger has passed, so each job gets all four.
        while len(chain) < len(CUTS) and progress >= CUTS[len(chain)]:
            parent = chain[-1] if forked and chain else None
            chain.append(session.checkpoint(
                incremental=parent is not None, parent=parent,
                store=store, forked=forked,
            ))
            if len(chain) == len(CUTS):
                session.kill()
                reports.append(session.restart_latest(store))

    ctx = AppContext(
        backend=session.backend,
        upper_mmap=lambda n: session.split.upper_mmap(n),
        checkpoint_cb=cut if mode else None,
    )
    result = cls(scale=scale, seed=app_seed).run(ctx)
    session.finish_forked_checkpoints()
    return {
        "digest": result.digest,
        "clock_ns": session.backend.process.clock_ns,
        "images": chain,
        "restart": reports[0] if reports else None,
    }


class CkptRestart:
    """Workload driver (see module docstring). One unit is one job."""

    name = NAME
    #: One round: every app, once in each mode.
    virtual_units = len(APPS) * len(MODES)
    #: Jobs every run reaches; the host tail is p98, inside the HPGMG
    #: forked jobs (1 in 38) for any run length (see common.tail).
    min_ops = 500

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.jobs: list[dict] = []  # the virtual-metric prefix
        self.clock_lost: list[str] = []
        self._refs: tuple | None = None  # ((app, scale, seed), native, plain)
        #: CRC of every job's output digest within the virtual prefix
        self.digest = 0

    def run_unit(self, i: int, rec) -> None:
        cls, mode, scale, app_seed = job_plan(self.seed, i)
        label = f"{cls.name}/{mode}"
        key = (cls, scale, app_seed)
        if self._refs is None or self._refs[0] != key:
            native = run_native(cls, scale, app_seed)
            plain = run_crac(cls, scale, app_seed)
            self._refs = (key, native, plain)
            rec.add("cuda.dispatch.virtual_ms", (plain["clock_ns"] - native[1]) / 1e6)
        _, (want, native_ns), plain = self._refs
        try:
            with rec.op():
                job = run_crac(cls, scale, app_seed, mode)
        except Exception as exc:  # noqa: BLE001 - a failed job is a failed op
            rec.fail("error", f"{label}: {exc!r}")
            return
        report = job["restart"]
        if report is None:
            rec.fail("error", f"{label}: job never reached its last cut")
            return
        if job["digest"] != want or plain["digest"] != want:
            rec.fail("digest-mismatch", f"{label}: digest differs from native")
        elif not clock_conserved(job["clock_ns"], plain["clock_ns"], report.restart_time_ns):
            rec.fail(
                "clock-lost",
                f"{label}: ended at {job['clock_ns'] / 1e9:.3f} s, below "
                f"{plain['clock_ns'] / 1e9:.3f} s uncheckpointed + "
                f"{report.restart_time_ns / 1e9:.3f} s restart",
            )
            if i < self.virtual_units:
                self.clock_lost.append(label)
        if i < self.virtual_units:
            self.digest = zlib.crc32(job["digest"].to_bytes(4, "little"), self.digest)
            self.jobs.append({
                "mode": mode,
                "stalls_ns": [img.checkpoint_time_ns for img in job["images"]],
                "image_bytes": sum(img.size_bytes for img in job["images"]),
                "restart_ns": report.restart_time_ns,
                "overhead_pct": 100.0 * (plain["clock_ns"] / native_ns - 1.0),
            })

    def finish(self, rec) -> None:
        pass

    def virtual_rows(self) -> dict:
        # Mean per-job eq. 1 overhead of the uncheckpointed runs.
        overheads = [j["overhead_pct"] for j in self.jobs]
        rows = {"overhead_pct": (sum(overheads) / len(overheads), "%")}
        for mode in MODES:
            jobs = [j for j in self.jobs if j["mode"] == mode]
            stalls = [s for j in jobs for s in j["stalls_ns"]]
            rows[f"ckpt_stall_p50_ms.{mode}"] = (percentile(stalls, 50) / 1e6, "ms")
            rows[f"image_mb.{mode}"] = (
                percentile([j["image_bytes"] for j in jobs], 50) / (1 << 20), "MB",
            )
        rows["restart_p50_ms"] = (
            percentile([j["restart_ns"] for j in self.jobs], 50) / 1e6, "ms",
        )
        return rows
