"""``serve-churn``: waves of requests over a few hundred served sessions.

One unit is a campaign: open every session, serve three closed-loop
waves (each session sends its next request only after the previous
wave completed), close every session and check its digest against
``reference_digest``. Slots are cut so most sessions park and rehydrate
every wave; one node dies after the first wave, so its hot sessions
fail over to their buddy's shadow; a low-probability ECC fault plan is
active. Each campaign draws its own session count, state size, service
time and dying node from the run seed.

The timed op is one served request (``handle_request``). A native
backend runs the same request kernel so the CRAC overhead on a served
request can be read off the virtual clock.
"""

from __future__ import annotations

import zlib

import numpy as np

from perfbench.common import derive, percentile
from repro.core.halves import SplitProcess
from repro.cuda.api import FatBinary
from repro.cuda.interface import NativeBackend
from repro.errors import AdmissionRejectedError, ServeDeadlineExceededError
from repro.harness.fault_injection import FaultSpec
from repro.serve.admission import AdmissionController
from repro.serve.pool import SessionPool
from repro.serve.scheduler import ServeScheduler

NAME = "serve-churn"
NODES = 4
SLOTS = 12
WAVES = 3
SESSIONS_LO, SESSIONS_HI = 236, 244
ECC = FaultSpec("ecc", probability=0.002, max_fires=1)


def campaign_plan(seed: int, unit: int) -> dict:
    """Inputs of campaign number ``unit``."""
    rng = np.random.default_rng(derive(seed, f"campaign{unit}"))
    return {
        "seed": derive(seed, f"campaign{unit}:program"),
        "sessions": int(rng.integers(SESSIONS_LO, SESSIONS_HI + 1)),
        "state_elems": int(rng.integers(60, 69)),
        "service_ns": float(200_000.0 * rng.uniform(0.97, 1.03)),
        "dead_node": int(rng.integers(0, NODES)),
    }


class ServeChurn:
    """Workload driver (see module docstring). One unit is one campaign."""

    name = NAME
    virtual_units = 1
    #: Requests every run reaches; the host tail is p99 (see common.tail).
    min_ops = 1100

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rows: dict = {}
        #: CRC of every closed session's digest in the first campaign
        self.digest = 0

    def run_unit(self, i: int, rec) -> None:
        plan = campaign_plan(self.seed, i)
        n = plan["sessions"]
        pool = SessionPool(NODES, slots=SLOTS, seed=plan["seed"])
        admission = AdmissionController(
            max_queue=n, deadline_ns=5e9, service_estimate_ns=500_000.0,
            servers=NODES * SLOTS,
        )
        sched = ServeScheduler(
            pool, admission=admission, seed=plan["seed"],
            state_elems=plan["state_elems"], service_ns=plan["service_ns"],
            fault_plan=[ECC],
        )
        # The same request kernel, run natively: the overhead baseline.
        native = NativeBackend(SplitProcess(gpu="V100", seed=plan["seed"]).runtime)
        native.register_app_binary(FatBinary("serve.fatbin", ("serve_step",)))
        native_ns: float | None = None
        sids = [f"c{i}-s{k:04d}" for k in range(n)]
        for sid in sids:
            sched.open_session(sid)
        overheads: list[float] = []
        rehydrate_ns: list[float] = []
        failover_ns: list[float] = []
        served = wait_total = 0.0
        for wave in range(WAVES):
            admitted = []
            for sid in sids:
                try:
                    admitted.append((sid, sched.offer(sid)))
                except (AdmissionRejectedError, ServeDeadlineExceededError) as exc:
                    rec.fail("shed", f"{sid} wave {wave}: {exc}")
            for sid, wait_ns in admitted:
                mark = len(sched.resume_ns)
                try:
                    with rec.op():
                        out = sched.handle_request(sid, wait_ns=wait_ns)
                except Exception as exc:  # noqa: BLE001 - a failed request is a failed op
                    rec.fail("error", f"{sid} wave {wave}: {exc!r}")
                    continue
                rehydrate_ns += sched.resume_ns[mark:]
                served += 1
                wait_total += wait_ns
                if native_ns is None:
                    t0 = native.process.clock_ns
                    native.launch("serve_step", duration_ns=plan["service_ns"])
                    native.device_synchronize()
                    native_ns = native.process.clock_ns - t0
                crac_ns = out["latency_ns"] - wait_ns
                overheads.append(100.0 * (crac_ns / native_ns - 1.0))
                rec.add("cuda.dispatch.virtual_ms", (crac_ns - native_ns) / 1e6)
            if wave == 0:
                pool.fail(pool.nodes[plan["dead_node"]].name)
                mark = len(sched.resume_ns)
                sched.sweep()
                failover_ns += sched.resume_ns[mark:]
        lost = 0
        for sid in sids:
            mark = len(sched.resume_ns)
            result = sched.close_session(sid)
            rehydrate_ns += sched.resume_ns[mark:]
            if result["lost"]:
                lost += 1
                rec.fail("lost-session", sid)
            elif not result["ok"]:
                rec.fail("digest-mismatch", f"{sid}: differs from reference_digest")
            if i == 0 and not result["lost"]:
                self.digest = zlib.crc32(result["digest"].to_bytes(4, "little"), self.digest)
        counters = sched.metrics.snapshot()["counters"]
        rec.add("serve.parks", counters.get("serve.evicted", 0))
        rec.add("serve.rehydrates", counters.get("serve.rehydrated", 0))
        rec.add("serve.failovers", counters.get("serve.failed_over", 0))
        rec.add("serve.shed", sum(
            v for k, v in counters.items() if k.startswith("serve.requests.shed")
        ))
        rec.add("serve.admission_wait_virtual_ms", wait_total / 1e6)
        rec.add("serve.served", served)
        if i == 0:
            makespan_ns = max(r.session.process.clock_ns for r in sched.records.values())
            self.rows = {
                "overhead_pct": (percentile(overheads, 50), "%"),
                "rehydrate_p50_ms": (percentile(rehydrate_ns, 50) / 1e6, "ms"),
                "rehydrate_p99_ms": (percentile(rehydrate_ns, 99) / 1e6, "ms"),
                "failover_resume_p50_ms": (percentile(failover_ns, 50) / 1e6, "ms"),
                "served_per_virtual_s": (served / (makespan_ns / 1e9), "1/s"),
                "rehydrate_samples": (len(rehydrate_ns), "count"),
                "failover_samples": (len(failover_ns), "count"),
                "lost_sessions": (lost, "count"),
            }

    def finish(self, rec) -> None:
        pass

    def virtual_rows(self) -> dict:
        return self.rows
