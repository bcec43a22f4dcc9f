"""The DMTCP checkpoint/restore engine.

Checkpoint: quiesce → run plugin precheckpoint hooks → walk the address
space → save every region *not* covered by a plugin skip range → account
write time (optionally through the gzip cost model; the paper disables
gzip). Restore: map every saved region back at its original address
(``MAP_FIXED``) in the target process and reload its pages.

Note the §3.2.2 subtlety: DMTCP's view of memory is the *merged*
``/proc/PID/maps``; deciding which bytes inside a merged entry belong to
the upper half is impossible from the maps file alone. The checkpointer
therefore intersects merged entries with plugin skip ranges — which CRAC
computes from its own loader registry — and saves the remainder.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

from repro.dmtcp.forked import ForkedCheckpoint
from repro.dmtcp.image import CheckpointImage, SavedRegion
from repro.dmtcp.plugins import DmtcpPlugin
from repro.gpu.timing import DEFAULT_HOST_COSTS, NS_PER_S, HostCosts
from repro.linux.address_space import PAGE_SIZE
from repro.linux.process import SimProcess

if TYPE_CHECKING:  # avoid a dmtcp → harness import cycle at runtime
    from repro.harness.fault_injection import FaultInjector


def _merge_ranges(skips: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Sort and coalesce ``(start, size)`` ranges given in any order.

    Returns parallel ``(starts, ends)`` lists of disjoint, non-adjacent
    half-open intervals in address order — the form
    :func:`_subtract_merged` walks with a bisect.
    """
    starts: list[int] = []
    ends: list[int] = []
    for s_start, s_size in sorted(skips):
        s_end = s_start + s_size
        if ends and s_start <= ends[-1]:
            ends[-1] = max(ends[-1], s_end)
        else:
            starts.append(s_start)
            ends.append(s_end)
    return starts, ends


def _subtract_merged(
    span: tuple[int, int], starts: list[int], ends: list[int]
) -> list[tuple[int, int]]:
    """Remove merged skip intervals (see :func:`_merge_ranges`) from
    ``span``; returns the surviving (start, end) parts in order."""
    lo, hi = span
    parts: list[tuple[int, int]] = []
    # First interval that ends past ``lo``; ends are sorted like starts.
    i = bisect.bisect_right(ends, lo)
    while i < len(starts) and starts[i] < hi:
        if lo < starts[i]:
            parts.append((lo, starts[i]))
        lo = ends[i]
        i += 1
    if lo < hi:
        parts.append((lo, hi))
    return parts


def _subtract_ranges(
    span: tuple[int, int], skips: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Remove ``(start, size)`` skip ranges, in any order and possibly
    overlapping, from ``span``; returns surviving (start, end) parts."""
    return _subtract_merged(span, *_merge_ranges(skips))


class DmtcpCheckpointer:
    """Checkpoints and restores one :class:`SimProcess`."""

    def __init__(
        self,
        process: SimProcess,
        plugins: list[DmtcpPlugin] | None = None,
        costs: HostCosts = DEFAULT_HOST_COSTS,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self.process = process
        self.plugins = list(plugins or [])
        self.costs = costs
        self.fault_injector = fault_injector
        #: repro.trace.Tracer receiving pipeline stage spans; None = untraced
        self.tracer = None
        #: repro.spec.HandleTable snapshotted by speculative cuts; None
        #: disables speculative=True (no versions to validate against)
        self.handle_table = None

    # -- checkpoint ------------------------------------------------------------

    def checkpoint(
        self,
        *,
        gzip: bool = False,
        incremental: bool = False,
        parent: CheckpointImage | None = None,
        forked: bool = False,
        speculative: bool = False,
        defer_commit: bool = False,
    ) -> CheckpointImage:
        """Take a checkpoint; advances the process clock by the cost.

        With ``incremental=True`` (requires a ``parent`` image) only the
        pages dirtied since the previous checkpoint are saved; restore
        walks the parent chain base-first. Plugins see ``image.incremental``
        and may delta-encode their blobs the same way (CRAC stages only
        dirtied GPU spans).

        Dirty tracking is cleared only when the image durably *commits*
        (:meth:`CheckpointImage.mark_committed`): a fault at any later
        stage — region-save, image-write, 2PC commit — leaves every dirty
        bit intact so the next incremental cut still captures them. With
        ``defer_commit=True`` the caller (a checkpoint store or a forked
        writer) owns the commit point; otherwise the image commits at the
        end of this call.

        ``forked=True`` skips the synchronous image write: the app
        resumes after quiesce + snapshot, and the write proceeds on a
        background timeline tracked by the :class:`ForkedCheckpoint`
        attached as ``image.forked_writer`` — commit (and the
        ``image-write`` fault stage) move to its ``finish()``.

        ``speculative=True`` goes further (PhoenixOS-style validated
        speculation): *nothing* stops the world. The cut snapshots the
        handle-version table and buffer contents instantly, kernels keep
        launching, and quiesce + region walk + PCIe drain + image write
        all run on a background timeline tracked by the
        :class:`repro.spec.SpeculativeCheckpoint` attached as
        ``image.forked_writer``. Conflict detection and commit move to
        its ``finish()``; an aborted speculation rolls back with every
        dirty bit intact. Requires a wired ``handle_table``.
        """
        if incremental and parent is None:
            raise ValueError("incremental checkpoint requires a parent image")
        if speculative and forked:
            raise ValueError(
                "speculative and forked checkpoints are exclusive modes"
            )
        if speculative and self.handle_table is None:
            raise ValueError(
                "speculative checkpoint requires a wired handle table"
            )
        proc = self.process
        t_start = proc.clock_ns
        background_ns = 0.0
        if speculative:
            # No quiesce: the app stalls only for the version-table
            # snapshot; the coordination work joins the background
            # timeline the writer validates against.
            proc.advance(
                self.costs.spec_cut_ns
                + len(self.handle_table) * self.costs.spec_handle_ns
            )
            background_ns += self.costs.ckpt_quiesce_ns
            if self.tracer is not None:
                self.tracer.ckpt_span("spec-cut", t_start, proc.clock_ns)
        else:
            proc.advance(self.costs.ckpt_quiesce_ns)
            if self.tracer is not None:
                self.tracer.ckpt_span("quiesce", t_start, proc.clock_ns)

        image = CheckpointImage(
            pid=proc.pid,
            created_at_ns=proc.clock_ns,
            gzip=gzip,
            incremental=incremental,
            parent=parent if incremental else None,
            speculative=speculative,
        )
        for plugin in self.plugins:
            if self.fault_injector is not None:
                self.fault_injector.check("precheckpoint", plugin.name)
            plugin.on_precheckpoint(image)

        # Plugin veto ranges are not guaranteed page-aligned, but both
        # the dirty-page bookkeeping and restore's MAP_FIXED mmap work in
        # whole pages: expand every skip outward to page boundaries (skip
        # granularity is the page, like DMTCP's).
        skips: list[tuple[int, int]] = []
        for plugin in self.plugins:
            for s_start, s_size in plugin.skip_ranges():
                lo = s_start - (s_start % PAGE_SIZE)
                hi = s_start + s_size
                hi = (hi + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
                skips.append((lo, hi - lo))
        skip_starts, skip_ends = _merge_ranges(skips)

        # A speculative plugin deferred its PCIe drain instead of
        # advancing the app clock; fold it into the background window.
        background_ns += getattr(image, "spec_deferred_ns", 0.0)

        t_regions = proc.clock_ns
        for region in proc.vas.regions():
            if self.fault_injector is not None:
                self.fault_injector.check("region-save", region.tag)
            if speculative:
                background_ns += self.costs.ckpt_region_ns
            else:
                proc.advance(self.costs.ckpt_region_ns)
            parts = _subtract_merged(
                (region.start, region.end), skip_starts, skip_ends
            )
            # A region the skips cover whole (every lower-half region)
            # saves nothing, so its pages are never copied.
            if parts:
                snapshot = (
                    region.dirty_pages_snapshot()
                    if incremental
                    else region.pages_snapshot()
                )
            for lo, hi in parts:
                shift = (lo - region.start) // PAGE_SIZE
                pages = {
                    pg - shift: data
                    for pg, data in snapshot.items()
                    if lo <= region.start + pg * PAGE_SIZE < hi
                }
                image.add_region(
                    SavedRegion(
                        start=lo,
                        size=hi - lo,
                        perms=region.perms,
                        tag=region.tag,
                        pages=pages,
                        incremental=incremental,
                    )
                )
            image.record_region_capture(
                region, frozenset(region.dirty), region.write_seq
            )

        if self.tracer is not None:
            self.tracer.ckpt_span(
                "save-regions", t_regions, proc.clock_ns,
                regions=len(image.regions),
            )

        written = image.size_bytes
        write_ns = written / self.costs.ckpt_write_bw * NS_PER_S
        if gzip:
            write_ns += written / self.costs.gzip_bw * NS_PER_S
        if speculative:
            # Everything a stop-the-world cut pays synchronously runs on
            # the background timeline; validation happens at finish().
            from repro.spec import SpeculativeCheckpoint

            image.forked_writer = SpeculativeCheckpoint(  # type: ignore[attr-defined]
                image=image,
                cut_ns=proc.clock_ns,
                validate_end_ns=proc.clock_ns + background_ns + write_ns,
                costs=self.costs,
                handle_table=self.handle_table,
                fault_injector=self.fault_injector,
                tracer=self.tracer,
            )
        elif forked:
            # The write happens on the forked child's timeline; the app
            # resumes now and only pays COW for pages it touches inside
            # the write window (charged at finish()).
            image.forked_writer = ForkedCheckpoint(  # type: ignore[attr-defined]
                image=image,
                fork_ns=proc.clock_ns,
                write_end_ns=proc.clock_ns + write_ns,
                costs=self.costs,
                fault_injector=self.fault_injector,
                tracer=self.tracer,
            )
        else:
            t_write = proc.clock_ns
            proc.advance(write_ns)
            if self.tracer is not None:
                self.tracer.ckpt_span(
                    "write", t_write, proc.clock_ns, bytes=written, gzip=gzip
                )

        for plugin in self.plugins:
            plugin.on_resume(image)
        image.checkpoint_time_ns = proc.clock_ns - t_start
        if not forked and not speculative and not defer_commit:
            image.mark_committed()
            if self.tracer is not None:
                self.tracer.instant(
                    "ckpt", "commit", proc.clock_ns, pid=image.pid
                )
        return image

    # -- restore -----------------------------------------------------------------

    def restore_memory(self, image: CheckpointImage, target: SimProcess) -> float:
        """Map the image's regions into ``target`` at original addresses.

        Incremental images restore by walking their parent chain
        base-first: the base recreates mappings and full contents; each
        increment overlays its dirtied pages.

        Returns the virtual-time cost (the caller — CRAC's restart
        orchestrator — owns the clock of the restarted process).
        """
        cost = 0.0
        for img in image.chain():
            for saved in img.regions:
                region = target.vas.find(saved.start)
                if region is None or region.start != saved.start:
                    target.vas.mmap(
                        saved.size,
                        addr=saved.start,
                        fixed=True,
                        perms=saved.perms,
                        tag=saved.tag,
                    )
                    region = target.vas.find(saved.start)
                if saved.incremental:
                    region.apply_pages(dict(saved.pages))
                else:
                    region.load_pages(dict(saved.pages))
                cost += self.costs.ckpt_region_ns
            cost += img.size_bytes / self.costs.ckpt_read_bw * NS_PER_S
            if img.gzip:
                cost += img.size_bytes / self.costs.gzip_bw * NS_PER_S
        return cost
