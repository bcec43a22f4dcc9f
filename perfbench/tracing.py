"""Span tracer for the traced run: wraps each layer's public entry points.

The untraced run installs nothing. The traced run replaces the public
functions listed in :func:`entry_points` with wrappers that record one
span per call: name, host start and end, parent span and op id. Spans
are aggregated as they close, so memory stays bounded however long the
run is; the first :attr:`SpanTracer.keep` spans are also kept verbatim
and written out at the end.

Self time of a span is its duration minus the time covered by its
children. Every wrapped name starts with its layer (``apps``, ``linux``,
``dmtcp``, ``core``, ``cuda``, ``gpu``, ``serve``, ``cluster``); host
time outside every wrapped call is the benchmark's own (``bench``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

#: Dispatch-backend methods that are not CUDA entry points: simulation
#: accessors (``device_view`` is how kernel bodies read buffers) and the
#: trampoline's restart-time plumbing, which core's restart calls.
_NOT_ENTRY_POINTS = {
    "device_view", "use_thread", "prepaid_calls", "note_external_calls",
    "patch_translation", "swap_runtime", "reregister_fatbins",
}


def _restart_report(tracer, args, kwargs, call):
    result = call()
    tracer.add("core.restart.virtual_ms", result.restart_time_ns / 1e6)
    tracer.add("core.replay.calls", result.replayed_calls)
    tracer.add("core.refill.mb", result.refilled_bytes / (1 << 20))
    return result


def _capture_size(tracer, args, kwargs, call):
    result = call()
    kind = "incremental" if result.incremental else "full"
    tracer.add("dmtcp.image_bytes", result.size_bytes)
    tracer.add(f"dmtcp.image_bytes.{kind}", result.size_bytes)
    tracer.add(f"dmtcp.captures.{kind}", 1)
    return result


def _export_bytes(tracer, args, kwargs, call):
    result = call()
    tracer.add("dmtcp.store.export.bytes", result["size_bytes"])
    return result


def _kernel_busy(tracer, args, kwargs, call):
    # GpuDevice.enqueue_kernel(self, stream, duration_ns, at_ns, label)
    result = call()
    duration_ns = kwargs["duration_ns"] if "duration_ns" in kwargs else args[2]
    tracer.add("gpu.busy_virtual_ms", duration_ns / 1e6)
    return result


def _send_outcome(tracer, args, kwargs, call):
    result = call()
    tracer.add("cluster.shipped_bytes", result.nbytes)
    if result.outcome != "ok":
        tracer.add("cluster.resends", 1)
    return result


def _count_migrated(tracer, args, kwargs, call):
    """Around-hook for UVM accesses: count the pages the call migrated."""
    from repro.gpu.uvm import UVM_PAGE

    manager = args[0]
    before = manager.migrated_bytes
    result = call()
    tracer.add("gpu.uvm.migrated_pages", (manager.migrated_bytes - before) // UVM_PAGE)
    return result


def entry_points():
    """``(class, method, span name, hook)`` for every wrapped call.

    A hook is called as ``hook(tracer, args, kwargs, call)`` in place of
    the plain call and returns its result, so it can read state around it.
    """
    from repro.apps.base import CudaApp
    from repro.cluster.interconnect import Interconnect
    from repro.core.halves import SplitProcess
    from repro.core.session import CracSession
    from repro.core.trampoline import CracBackend
    from repro.cuda.api import CudaRuntime
    from repro.cuda.interface import CudaDispatchBase
    from repro.dmtcp.checkpointer import DmtcpCheckpointer
    from repro.dmtcp.store import CheckpointStore
    from repro.gpu.device import GpuDevice
    from repro.gpu.memory import PagedContents
    from repro.gpu.uvm import UvmManager
    from repro.linux.address_space import VirtualAddressSpace
    from repro.serve.pool import SessionPool
    from repro.serve.scheduler import ServeScheduler

    points = [
        (CudaApp, "run", "apps.run", None),
        (SplitProcess, "__init__", "linux.split_process", None),
        (VirtualAddressSpace, "mmap", "linux.mmap", None),
        (VirtualAddressSpace, "munmap", "linux.munmap", None),
        (DmtcpCheckpointer, "checkpoint", "dmtcp.capture", _capture_size),
        (DmtcpCheckpointer, "restore_memory", "dmtcp.restore_memory", None),
        (CheckpointStore, "commit", "dmtcp.store.commit", None),
        (CheckpointStore, "load", "dmtcp.store.load", None),
        (CheckpointStore, "export_generation", "dmtcp.store.export", _export_bytes),
        (CheckpointStore, "import_generation", "dmtcp.store.import", None),
        (CracSession, "checkpoint", "core.checkpoint", None),
        (CracSession, "restart", "core.restart", _restart_report),
        (CracSession, "kill", "core.kill", None),
        (CudaRuntime, "cudaLaunchKernel", "cuda.runtime.launch", None),
        (CudaRuntime, "cudaMemcpy", "cuda.runtime.memcpy", None),
        (GpuDevice, "enqueue_kernel", "gpu.kernels", _kernel_busy),
        (GpuDevice, "enqueue_copy", "gpu.copies", None),
        (GpuDevice, "synchronize_all", "gpu.sync", None),
        (GpuDevice, "stream_ready", "gpu.sync", None),
        (UvmManager, "host_access", "gpu.uvm", _count_migrated),
        (UvmManager, "device_access", "gpu.uvm", _count_migrated),
        (ServeScheduler, "open_session", "serve.open", None),
        (ServeScheduler, "offer", "serve.offer", None),
        (ServeScheduler, "handle_request", "serve.request", None),
        (ServeScheduler, "close_session", "serve.close", None),
        (ServeScheduler, "sweep", "serve.sweep", None),
        (SessionPool, "ship", "cluster.ship", None),
        (Interconnect, "send", "cluster.transfers", _send_outcome),
    ]
    for attr in (
        "view", "write_bytes", "read_bytes", "copy_from", "snapshot", "restore",
        "dirty_snapshot", "apply_delta",
    ):
        points.append((PagedContents, attr, "gpu.memory", None))
    for cls in (CudaDispatchBase, CracBackend):
        for attr, value in vars(cls).items():
            if (
                callable(value)
                and not attr.startswith("_")
                and attr not in _NOT_ENTRY_POINTS
            ):
                points.append((cls, attr, "cuda.dispatch", None))
    return points


class SpanTracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        self.spans: list[tuple] = []
        self.closed = 0
        self.count: dict[str, int] = defaultdict(int)
        #: inclusive host seconds per name (outermost calls only, so a
        #: method that calls its own override is not counted twice)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 0
        self._active: dict[str, int] = defaultdict(int)
        self._op_id: int | None = None
        self._installed: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def begin_unit(self) -> None:
        self._enter("bench.unit")

    def end_unit(self) -> None:
        self._exit()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._enter("bench.op")

    def end_op(self) -> None:
        self._exit()
        self._op_id = None

    def _enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = end - start
        self._active[name] -= 1
        if self._active[name] == 0:
            self.count[name] += 1
            self.inclusive_s[name] += dur
        self.self_s[name] += dur - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.closed += 1
        if len(self.spans) < self.keep:
            self.spans.append((
                span_id, name, start, end, parent[3] if parent else None, self._op_id
            ))

    # -- installation ----------------------------------------------------------

    def _wrap(self, cls, attr: str, name: str, hook) -> None:
        orig = vars(cls)[attr]
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                if hook is None:
                    return orig(*args, **kwargs)
                return hook(tracer, args, kwargs, lambda: orig(*args, **kwargs))
            finally:
                tracer._exit()

        setattr(cls, attr, wrapper)
        self._installed.append((cls, attr, orig))

    def install(self) -> None:
        """Wrap every entry point (undo with :meth:`uninstall`)."""
        for cls, attr, name, hook in entry_points():
            self._wrap(cls, attr, name, hook)

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, orig = self._installed.pop()
            setattr(cls, attr, orig)

    # -- results ---------------------------------------------------------------

    def host_ms(self, name: str) -> float:
        """Inclusive host ms of the outermost spans called ``name``."""
        return 1e3 * self.inclusive_s.get(name, 0.0)

    def layer_self_ms(self) -> dict[str, float]:
        """Self ms summed per layer (the first component of span names)."""
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += 1e3 * s
        return out

    def write(self, path: str) -> None:
        """Write the kept spans (and the aggregate) as JSON."""
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent_id", "op_id"],
            "spans": self.spans,
            "closed": self.closed,
            "count": dict(self.count),
            "inclusive_ms": {k: 1e3 * v for k, v in self.inclusive_s.items()},
            "self_ms": {k: 1e3 * v for k, v in self.self_s.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
