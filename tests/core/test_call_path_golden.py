"""Golden call-path parity: the per-call CUDA path, pinned bit for bit.

Runs 64 rounds shaped like the ``stream-uvm`` benchmark (16 streams,
async copies around a kernel that folds each stream's data into a shared
managed buffer, host touches of managed pages, a device sync), plus a
few pinned, host-VAS and memset calls, on both dispatch backends, with
``fsgsbase`` on and off, untraced and with a :class:`repro.trace.Tracer`
attached. The values were recorded before the per-call path was made
cheaper: that work may change what a call costs on the host, never the
virtual clock, a counter, a byte or a span.
"""

import zlib

import numpy as np
import pytest

from repro.core.halves import SplitProcess
from repro.core.session import CracSession
from repro.cuda.api import FatBinary, ManagedUse
from repro.cuda.interface import NativeBackend
from repro.gpu.uvm import UVM_PAGE
from repro.trace import Tracer

ROUNDS = 64
STREAMS = 16
ELEMS = 64
MANAGED_PAGES = 4
SEED = 5

#: Recorded on the commit before the call-path work, per
#: (mode, fsgsbase, traced). ``state_crc`` folds every buffer's dirty
#: spans and write sequence, the device and UVM counters and the
#: stashed-conflict count (see :func:`_state_crc`).
GOLDEN = {
    ("native", False, False): {
        "clock": "136253320.26882532", "fs_switch_count": 0,
        "syscall_count": 1, "out_crc": 2662775580, "state_crc": 3946943233,
        "api_spans": None,
    },
    ("native", False, True): {
        "clock": "136679440.26882532", "fs_switch_count": 0,
        "syscall_count": 1, "out_crc": 2662775580, "state_crc": 3946943233,
        "api_spans": 5284,
    },
    ("native", True, False): {
        "clock": "136253320.26882532", "fs_switch_count": 0,
        "syscall_count": 1, "out_crc": 2662775580, "state_crc": 3946943233,
        "api_spans": None,
    },
    ("native", True, True): {
        "clock": "136679440.26882532", "fs_switch_count": 0,
        "syscall_count": 1, "out_crc": 2662775580, "state_crc": 3946943233,
        "api_spans": 5284,
    },
    ("crac", False, False): {
        "clock": "418964195.3727895", "fs_switch_count": 10568,
        "syscall_count": 10569, "out_crc": 2662775580,
        "state_crc": 3946943233, "api_spans": None,
    },
    ("crac", False, True): {
        "clock": "419420915.3727895", "fs_switch_count": 10568,
        "syscall_count": 10569, "out_crc": 2662775580,
        "state_crc": 3946943233, "api_spans": 5284,
    },
    ("crac", True, False): {
        "clock": "416502839.26882535", "fs_switch_count": 10568,
        "syscall_count": 1, "out_crc": 2662775580, "state_crc": 3946943233,
        "api_spans": None,
    },
    ("crac", True, True): {
        "clock": "416929862.2268768", "fs_switch_count": 10568,
        "syscall_count": 1, "out_crc": 2662775580, "state_crc": 3946943233,
        "api_spans": 5284,
    },
}

#: Identical for every case: same program, same entry points.
GOLDEN_CALLS = {
    "__cudaRegisterFatBinary": 1, "__cudaRegisterFunction": 1,
    "cudaStreamCreate": 16, "cudaMalloc": 16, "cudaMallocManaged": 1,
    "cudaMallocHost": 1, "cudaMemcpyAsync": 2048,
    "cudaPushCallConfiguration": 1024, "cudaPopCallConfiguration": 1024,
    "cudaLaunchKernel": 1024, "cudaDeviceSynchronize": 64, "cudaMemcpy": 48,
    "cudaMemsetAsync": 8, "cudaStreamSynchronize": 8,
}
GOLDEN_API_LOG = {
    "__cudaRegisterFatBinary": 1, "__cudaRegisterFunction": 1,
    "cudaStreamCreate": 16, "cudaMalloc": 16, "cudaMallocManaged": 1,
    "cudaMallocHost": 1, "cudaMemcpyAsync": 2048, "cudaLaunchKernel": 1024,
    "cudaDeviceSynchronize": 64, "cudaMemcpy": 48, "cudaMemsetAsync": 8,
    "cudaStreamSynchronize": 8,
}


def _make(mode: str, fsgsbase: bool):
    if mode == "native":
        split = SplitProcess(gpu="V100", seed=SEED, fsgsbase=fsgsbase)
        return NativeBackend(split.runtime)
    return CracSession(gpu="V100", seed=SEED, fsgsbase=fsgsbase).backend


def _run(mode: str, fsgsbase: bool, traced: bool):
    b = _make(mode, fsgsbase)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.attach(b)
    rng = np.random.default_rng(SEED)
    nbytes = ELEMS * 4
    b.register_app_binary(FatBinary("golden.fatbin", ("fold",)))
    streams = [b.stream_create() for _ in range(STREAMS)]
    dev = [b.malloc(nbytes) for _ in range(STREAMS)]
    managed = b.malloc_managed(MANAGED_PAGES * UVM_PAGE)
    pinned = b.malloc_host(2 * nbytes)
    vas = b.process.vas.mmap(4096, tag="golden-host")
    offsets = [
        (s * MANAGED_PAGES * UVM_PAGE) // STREAMS + 4 * ELEMS * (s % 3)
        for s in range(STREAMS)
    ]
    out = [np.zeros(ELEMS, np.float32) for _ in range(STREAMS)]
    wide = np.zeros(2 * ELEMS, np.float32)
    crc = 0
    for r in range(ROUNDS):
        x = rng.random((STREAMS, ELEMS), dtype=np.float32)
        durations = 1.8e6 * rng.uniform(0.85, 1.15, STREAMS)
        touches = rng.integers(0, MANAGED_PAGES, 2)
        for s in range(STREAMS):
            stream, d, off = streams[s], dev[s], offsets[s]
            b.memcpy(d, x[s], nbytes, "h2d", stream=stream, async_=True)

            def fold(d=d, off=off):
                v = b.device_view(d, nbytes, np.float32)
                m = b.device_view(managed, nbytes, np.float32, offset=off)
                m *= np.float32(0.5)
                m += v
                v += m

            b.launch(
                "fold", fold, stream=stream, duration_ns=float(durations[s]),
                managed=[ManagedUse(managed, off, nbytes, "rw")],
            )
            b.memcpy(out[s], d, nbytes, "d2h", stream=stream, async_=True)
        for p in touches:
            v = b.managed_view(managed, 16, np.float32, offset=int(p) * UVM_PAGE)
            v += np.float32(1.0)
        if r % 8 == 3:
            # Offsets on both numpy ends, a pinned round trip, a plain
            # VAS round trip and a partial memset.
            b.memcpy(dev[0], x, 128, "h2d", src_offset=64, dst_offset=32)
            b.memcpy(wide, dev[1], 96, "d2h", dst_offset=40, src_offset=8)
            b.memcpy(pinned, dev[2], nbytes, "d2h", dst_offset=nbytes)
            b.memcpy(dev[3], pinned, nbytes, "h2d", src_offset=nbytes)
            b.memcpy(vas, dev[4], 64, "d2h", stream=streams[4])
            b.memcpy(dev[5], vas, 64, "h2d", src_offset=16)
            b.memset(dev[6], r & 0xFF, 40, stream=streams[6], async_=True)
            b.stream_synchronize(streams[6])
        b.device_synchronize()
        for o in out:
            crc = zlib.crc32(o.tobytes(), crc)
    crc = zlib.crc32(wide.tobytes(), crc)
    return b, tracer, crc


def _state_crc(b) -> int:
    rt = b.runtime
    dev = rt.devices[0]
    crc = zlib.crc32(repr((
        dev.copied_bytes, dev.total_kernels,
        rt.uvm.fault_count, rt.uvm.migrated_bytes,
    )).encode())
    for addr in sorted(rt.buffers):
        buf = rt.buffers[addr]
        stashed = len(getattr(buf, "stashed_conflicts", ()))
        crc = zlib.crc32(repr((
            addr, buf.contents.dirty_spans(), buf.contents.write_seq, stashed,
        )).encode(), crc)
    return crc


CASES = [
    (mode, fsgsbase, traced)
    for mode in ("native", "crac")
    for fsgsbase in (False, True)
    for traced in (False, True)
]


@pytest.mark.parametrize("mode,fsgsbase,traced", CASES)
def test_call_path_matches_golden(mode, fsgsbase, traced):
    b, tracer, out_crc = _run(mode, fsgsbase, traced)
    proc = b.process
    rt = b.runtime
    got = {
        "clock": repr(proc.clock_ns),
        "fs_switch_count": proc.fs_switch_count,
        "syscall_count": proc.syscall_count,
        "out_crc": out_crc,
        "state_crc": _state_crc(b),
        "api_spans": (
            sum(tracer.api_call_counter().values()) if tracer is not None
            else None
        ),
    }
    assert got == GOLDEN[(mode, fsgsbase, traced)]
    assert dict(b.call_counter) == GOLDEN_CALLS
    assert dict(rt.api_log) == GOLDEN_API_LOG


def test_golden_covers_stream_uvm_shape():
    """The recorded run really exercised UVM migration and shared-page
    write conflicts, so the pins above constrain those paths too."""
    b, _, _ = _run("crac", False, False)
    rt = b.runtime
    managed = [buf for buf in rt.buffers.values() if hasattr(buf, "residency")]
    assert rt.uvm.fault_count > 0
    assert any(buf.stashed_conflicts for buf in managed)

