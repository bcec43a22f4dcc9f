"""``stream-uvm``: a closed-loop CUDA call stream over many streams and UVM.

Each round issues, on every stream, an async host-to-device copy, a
kernel that folds the stream's data into a *shared* managed buffer (the
streams' slices share UVM pages, the CRUM corner case), and an async
device-to-host copy; the host then touches a few managed pages, and the
round ends with a device sync. Every iteration is real (no fast-forward).

The identical round runs under ``NativeBackend`` and under a
``CracSession``; the CRAC round is the timed op, and the outputs of the
two must be bit-equal. No checkpoint or restart runs here, so this
workload bypasses dmtcp, core restart, serve and cluster.
"""

from __future__ import annotations

import zlib

import numpy as np

from perfbench.common import derive
from repro.core.halves import SplitProcess
from repro.core.session import CracSession
from repro.cuda.api import FatBinary, ManagedUse
from repro.cuda.interface import NativeBackend
from repro.gpu.uvm import UVM_PAGE

NAME = "stream-uvm"
STREAMS = 16
ELEMS = 64  # float32 per stream per round
MANAGED_PAGES = 4
#: Rounds of pre-generated inputs; later rounds cycle through them.
#: Every POOL rounds both sides start over in a fresh process (outside
#: the op timer): without checkpoints the program's dirty-tracking and
#: UVM write logs grow with every round, and a run-length-dependent
#: peak RSS would read a faster program as a bigger one.
POOL = 512
#: Rounds the virtual-clock metrics are computed over (fixed, so they
#: do not depend on how fast the host is).
VIRTUAL_ROUNDS = POOL
#: Mean kernel duration, chosen so the CRAC side runs near the paper's
#: highest call rate (HPGMG, about 37k CUDA calls per virtual second).
KERNEL_NS = 1.8e6


class _Side:
    """One backend's copy of the program state."""

    def __init__(self, backend, managed_offsets) -> None:
        self.b = backend
        backend.register_app_binary(FatBinary("stream_uvm.fatbin", ("fold",)))
        self.streams = [backend.stream_create() for _ in range(STREAMS)]
        self.dev = [backend.malloc(ELEMS * 4) for _ in range(STREAMS)]
        self.managed = backend.malloc_managed(MANAGED_PAGES * UVM_PAGE)
        self.offsets = managed_offsets
        self.out = [np.zeros(ELEMS, np.float32) for _ in range(STREAMS)]

    def round(self, x, durations, touches) -> int:
        """Run one round; returns the CRC of its host-visible outputs."""
        b = self.b
        nbytes = ELEMS * 4
        for s in range(STREAMS):
            stream, dev, off = self.streams[s], self.dev[s], int(self.offsets[s])
            b.memcpy(dev, x[s], nbytes, "h2d", stream=stream, async_=True)

            def fold(dev=dev, off=off):
                v = b.device_view(dev, nbytes, np.float32)
                m = b.device_view(self.managed, nbytes, np.float32, offset=off)
                m *= np.float32(0.5)
                m += v
                v += m

            b.launch(
                "fold", fold, stream=stream, duration_ns=float(durations[s]),
                managed=[ManagedUse(self.managed, off, nbytes, "rw")],
            )
            b.memcpy(self.out[s], dev, nbytes, "d2h", stream=stream, async_=True)
        for p in touches:
            v = b.managed_view(self.managed, 16, np.float32, offset=int(p) * UVM_PAGE)
            v += np.float32(1.0)
        b.device_synchronize()
        crc = 0
        for o in self.out:
            crc = zlib.crc32(o.tobytes(), crc)
        return crc


class StreamUvm:
    """Workload driver (see module docstring). One unit is one round."""

    name = NAME
    virtual_units = VIRTUAL_ROUNDS
    #: Ops every run reaches; the host tail is p99 (see common.tail).
    min_ops = 1100

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(derive(seed, NAME))
        # Evenly spread slices: four per page, so streams share UVM pages.
        offsets = [
            (s * MANAGED_PAGES * UVM_PAGE) // STREAMS + 4 * ELEMS * (s % 3)
            for s in range(STREAMS)
        ]
        self.x = rng.random((POOL, STREAMS, ELEMS), dtype=np.float32)
        self.durations = KERNEL_NS * rng.uniform(0.85, 1.15, (POOL, STREAMS))
        self.touches = rng.integers(0, MANAGED_PAGES, (POOL, 2))
        self.seed = seed
        self.offsets = offsets
        self._start_epoch(0)
        self.native_ns = 0.0
        self.crac_ns = 0.0
        self.crac_calls = 0
        #: CRC of every CRAC round output within the virtual prefix
        self.digest = 0

    def _start_epoch(self, epoch: int) -> None:
        split = SplitProcess(gpu="V100", seed=derive(self.seed, f"native{epoch}"))
        self.native = _Side(NativeBackend(split.runtime), self.offsets)
        session = CracSession(gpu="V100", seed=derive(self.seed, f"crac{epoch}"))
        self.crac = _Side(session.backend, self.offsets)

    def run_unit(self, i: int, rec) -> None:
        k = i % POOL
        if k == 0 and i > 0:
            self.finish(rec)
            self._start_epoch(i // POOL)
        args = (self.x[k], self.durations[k], self.touches[k])
        nat, crac = self.native.b, self.crac.b
        n0 = nat.process.clock_ns
        want = self.native.round(*args)
        n1 = nat.process.clock_ns
        c0, calls0 = crac.process.clock_ns, crac.total_calls
        with rec.op():
            got = self.crac.round(*args)
        c1 = crac.process.clock_ns
        rec.add("cuda.dispatch.virtual_ms", ((c1 - c0) - (n1 - n0)) / 1e6)
        if got != want:
            rec.fail("digest-mismatch", f"round {i}: CRAC output differs from native")
        if i < VIRTUAL_ROUNDS:
            self.native_ns += n1 - n0
            self.crac_ns += c1 - c0
            self.crac_calls += crac.total_calls - calls0
            self.digest = zlib.crc32(got.to_bytes(4, "little"), self.digest)

    def finish(self, rec) -> None:
        """End-of-epoch check: the shared managed buffers must match too."""
        nbytes = MANAGED_PAGES * UVM_PAGE
        a = self.native.b.device_view(self.native.managed, nbytes)
        b = self.crac.b.device_view(self.crac.managed, nbytes)
        if not np.array_equal(a, b):
            rec.fail("digest-mismatch", "shared managed buffer differs from native")

    def virtual_rows(self) -> dict:
        return {
            # Paper eq. 1 over the whole call stream.
            "overhead_pct": (100.0 * (self.crac_ns / self.native_ns - 1.0), "%"),
            "virtual_calls_per_s": (self.crac_calls / (self.crac_ns / 1e9), "1/s"),
        }
