"""Placement equivalence: ``mmap`` against a brute-force first-fit model.

The model keeps mappings as a plain list of ``(start, end)`` intervals
and finds a free spot by trying every candidate (the scan start and
every mapping end past it) in address order, checking each against
every interval. The address space must choose exactly the same address
for every call — hint, ASLR draw, next-fit cursor and wrap-around
included — and end with exactly the same mappings.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError
from repro.linux.address_space import (
    DEFAULT_MMAP_WINDOW,
    PAGE_SIZE,
    MemoryRegion,
    VirtualAddressSpace,
)

#: A small explicit window, so windowed scans fill up and fail.
WINDOW = (0x2000_0000, 0x2000_0000 + 48 * PAGE_SIZE)
#: The top of the default window, where next-fit runs out and wraps.
TOP = DEFAULT_MMAP_WINDOW[1] - 16 * PAGE_SIZE
#: Bases that fixed mappings, hints and munmaps are drawn around.
ANCHORS = (WINDOW[0], DEFAULT_MMAP_WINDOW[0], TOP)


class FirstFitModel:
    """Brute-force reference for :meth:`VirtualAddressSpace.mmap`."""

    def __init__(self, aslr, seed, cursor):
        self.aslr = aslr
        self.rng = random.Random(seed)
        self.cursor = cursor
        self.intervals = []

    def free(self, addr, size):
        return all(e <= addr or s >= addr + size for s, e in self.intervals)

    def evict(self, addr, size):
        kept = []
        for s, e in self.intervals:
            if e <= addr or s >= addr + size:
                kept.append((s, e))
                continue
            if s < addr:
                kept.append((s, addr))
            if addr + size < e:
                kept.append((addr + size, e))
        self.intervals = kept

    def first_fit(self, start, size, hi):
        cands = sorted({start} | {e for _, e in self.intervals if e > start})
        for cand in cands:
            if cand + size <= hi and self.free(cand, size):
                return cand
        return None

    def mmap(self, size, addr, fixed, window):
        if fixed:
            self.evict(addr, size)
            start = addr
        else:
            start = self.place(size, addr, window)
        self.intervals.append((start, start + size))
        return start

    def place(self, size, hint, window):
        lo, hi = window or DEFAULT_MMAP_WINDOW
        if hint is not None and lo <= hint and hint + size <= hi and self.free(hint, size):
            return hint
        if self.aslr:
            span = (hi - lo - size) // PAGE_SIZE
            if span > 0:
                for _ in range(64):
                    cand = lo + self.rng.randrange(span) * PAGE_SIZE
                    if self.free(cand, size):
                        return cand
        first = lo if window is not None else max(lo, self.cursor)
        for start in (first, lo):
            cand = self.first_fit(start, size, hi)
            if cand is not None:
                if window is None:
                    self.cursor = cand + size
                return cand
        raise AddressSpaceError("model: out of address space")


addr_strategy = st.tuples(
    st.sampled_from(ANCHORS), st.integers(-8, 56)
).map(lambda t: t[0] + t[1] * PAGE_SIZE)

op_strategy = st.one_of(
    st.tuples(
        st.just("mmap"),
        st.integers(1, 12),  # pages
        st.none() | addr_strategy,  # hint (or MAP_FIXED address)
        st.booleans(),  # fixed
        st.sampled_from([None, WINDOW]),
    ),
    st.tuples(st.just("munmap"), st.integers(1, 12), addr_strategy),
)


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(op_strategy, max_size=40),
    aslr=st.booleans(),
    seed=st.integers(0, 2**16),
    cursor_at_top=st.booleans(),
)
def test_mmap_matches_brute_force_first_fit(ops, aslr, seed, cursor_at_top):
    vas = VirtualAddressSpace(aslr=aslr, seed=seed)
    if cursor_at_top:
        vas._next_fit_cursor = TOP
    model = FirstFitModel(aslr, seed, vas._next_fit_cursor)
    for op in ops:
        if op[0] == "munmap":
            _, pages, addr = op
            vas.munmap(addr, pages * PAGE_SIZE)
            model.evict(addr, pages * PAGE_SIZE)
        else:
            _, pages, addr, fixed, window = op
            if fixed and addr is None:
                continue
            size = pages * PAGE_SIZE
            try:
                want = model.mmap(size, addr, fixed, window)
            except AddressSpaceError:
                with pytest.raises(AddressSpaceError):
                    vas.mmap(size, addr, fixed=fixed, window=window)
                continue
            assert vas.mmap(size, addr, fixed=fixed, window=window) == want
        assert vas._next_fit_cursor == model.cursor
    assert [(r.start, r.end) for r in vas.regions()] == sorted(model.intervals)


@settings(max_examples=200, deadline=None)
@given(
    layout=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)), max_size=8),
    probe=st.tuples(st.integers(0, 46), st.integers(1, 6)),
)
def test_overlapping_insert_raises(layout, probe):
    base = WINDOW[0]
    vas = VirtualAddressSpace(aslr=False)
    for pg, pages in layout:
        vas.mmap(pages * PAGE_SIZE, base + pg * PAGE_SIZE, fixed=True)
    before = [(r.start, r.end) for r in vas.regions()]
    start, size = base + probe[0] * PAGE_SIZE, probe[1] * PAGE_SIZE
    clash = any(s < start + size and start < e for s, e in before)
    region = MemoryRegion(start, size, "rw-", "probe")
    if clash:
        with pytest.raises(AddressSpaceError):
            vas._insert(region)
        assert [(r.start, r.end) for r in vas.regions()] == before
    else:
        vas._insert(region)
        assert vas.find(start) is region


@pytest.mark.parametrize("perms", ["rwx", "rw-", "r-x", "r--", "-wx", "-w-", "--x", "---"])
def test_every_valid_permission_string_is_accepted(perms):
    assert MemoryRegion(0, PAGE_SIZE, perms, "t").perms == perms


@pytest.mark.parametrize("perms", ["", "rw", "rwxx", "wrx", "RW-", "r w"])
def test_malformed_permission_string_is_rejected(perms):
    with pytest.raises(AddressSpaceError):
        MemoryRegion(0, PAGE_SIZE, perms, "t")
