"""Tests for split-process construction (Figure 1)."""

import pytest

from repro.core.halves import ARENA_WINDOWS, ENTRY_POINTS, SplitProcess
from repro.linux.loader import LOWER_HALF_WINDOW


@pytest.fixture
def split():
    return SplitProcess(seed=4)


class TestConstruction:
    def test_lower_half_loaded_first_and_in_window(self, split):
        lo, hi = LOWER_HALF_WINDOW
        for start, size in split.lower.regions:
            assert lo <= start and start + size <= hi

    def test_upper_half_outside_lower_window(self, split):
        lo, hi = LOWER_HALF_WINDOW
        for start, size in split.upper.regions:
            assert start + size <= lo or start >= hi

    def test_aslr_disabled(self, split):
        """CRAC disables ASLR via personality (§3.2.4)."""
        assert not split.process.vas.aslr

    def test_entry_table_written_into_lower_half(self, split):
        table_addr = split.entry_table.table_addr
        assert split.loader.half_of(table_addr) == "lower"
        # The table holds the entry addresses, little-endian.
        first = int.from_bytes(split.process.vas.read(table_addr, 8), "little")
        assert first == split.entry_table.resolve(ENTRY_POINTS[0])

    def test_entry_table_covers_runtime_api(self, split):
        for name in ("cudaMalloc", "cudaLaunchKernel", "__cudaRegisterFatBinary"):
            addr = split.entry_table.resolve(name)
            assert split.loader.half_of(addr) == "lower"

    def test_layout_is_deterministic_across_processes(self):
        s1, s2 = SplitProcess(seed=9), SplitProcess(seed=9)
        assert s1.lower.regions == s2.lower.regions
        assert s1.entry_table.entries == s2.entry_table.entries

    def test_skip_upper(self):
        s = SplitProcess(seed=1, load_upper=False)
        assert s.upper is None
        assert s.loader.ranges("upper") == []


class TestArenaCarving:
    def test_device_arena_lands_in_its_subwindow(self, split):
        addr = split.runtime.cudaMalloc(1024)
        lo, hi = ARENA_WINDOWS["cuda-device-arena"]
        assert lo <= addr < hi

    def test_families_live_in_disjoint_subwindows(self, split):
        rt = split.runtime
        d = rt.cudaMalloc(64)
        p = rt.cudaMallocHost(64)
        h = rt.cudaHostAlloc(64)
        m = rt.cudaMallocManaged(64)
        windows = [
            ARENA_WINDOWS["cuda-device-arena"],
            ARENA_WINDOWS["cuda-pinned-arena"],
            ARENA_WINDOWS["cuda-hostalloc-arena"],
            ARENA_WINDOWS["cuda-managed-arena"],
        ]
        for ptr, (lo, hi) in zip((d, p, h, m), windows):
            assert lo <= ptr < hi

    def test_family_addresses_independent_of_interleaving(self):
        """The property that lets CRAC skip cudaHostAlloc during replay."""
        s1 = SplitProcess(seed=3)
        d1 = s1.runtime.cudaMalloc(128)
        s1.runtime.cudaHostAlloc(256)  # interleaved hostAlloc
        m1 = s1.runtime.cudaMallocManaged(512)

        s2 = SplitProcess(seed=3)
        d2 = s2.runtime.cudaMalloc(128)
        m2 = s2.runtime.cudaMallocManaged(512)  # no hostAlloc this time

        assert (d1, m1) == (d2, m2)

    def test_upper_mmap_tracked(self, split):
        addr = split.upper_mmap(4096)
        assert split.loader.half_of(addr) == "upper"


#: ``(start, size, perms, tag)`` of every mapping of a fresh split
#: process, as the placement code has always laid it out. Restart
#: replays land allocations at recorded addresses, so any drift in
#: placement would break every checkpoint taken before it.
GOLDEN_LOWER = [
    (0x1000_0000_0000, 0x400000, "r-x", "lower:libcuda.so.text"),
    (0x1000_0040_0000, 0x100000, "rw-", "lower:libcuda.so.data"),
    (0x1000_0050_0000, 0x100000, "r-x", "lower:libcudart.so.text"),
    (0x1000_0060_0000, 0x40000, "rw-", "lower:libcudart.so.data"),
    (0x1000_0064_0000, 0x800000, "r-x", "lower:libcublas.so.text"),
    (0x1000_00E4_0000, 0x80000, "rw-", "lower:libcublas.so.data"),
    (0x1000_00EC_0000, 0x200000, "r-x", "lower:libc-lower.so.text"),
    (0x1000_010C_0000, 0x80000, "rw-", "lower:libc-lower.so.data"),
    (0x1000_0114_0000, 0x40000, "r-x", "lower:ld-lower.so.text"),
    (0x1000_0118_0000, 0x10000, "rw-", "lower:ld-lower.so.data"),
    (0x1000_0119_0000, 0x6000, "r-x", "lower:crac-helper.text"),
    (0x1000_0119_6000, 0x6000, "rw-", "lower:crac-helper.data"),
]
GOLDEN_UPPER = [
    (0x7000_0000_0000, 0x40000, "r-x", "upper:libcuda-dummy.so.text"),
    (0x7000_0004_0000, 0x10000, "rw-", "upper:libcuda-dummy.so.data"),
    (0x7000_0005_0000, 0x200000, "r-x", "upper:libc.so.text"),
    (0x7000_0025_0000, 0x80000, "rw-", "upper:libc.so.data"),
    (0x7000_002D_0000, 0x40000, "r-x", "upper:ld.so.text"),
    (0x7000_0031_0000, 0x10000, "rw-", "upper:ld.so.data"),
    (0x7000_0032_0000, 0x80000, "r-x", "upper:app.text"),
    (0x7000_003A_0000, 0x80000, "rw-", "upper:app.data"),
    (0x7000_0042_0000, 0x400000, "rw-", "upper:[heap]"),
    (0x7000_0082_0000, 0x800000, "rw-", "upper:[stack]"),
]


class TestGoldenLayout:
    @pytest.mark.parametrize("load_upper", [True, False])
    def test_fresh_layout_matches_golden(self, load_upper):
        split = SplitProcess(load_upper=load_upper)
        got = [(r.start, r.size, r.perms, r.tag) for r in split.process.vas.regions()]
        assert got == GOLDEN_LOWER + (GOLDEN_UPPER if load_upper else [])

    def test_whole_entry_table_is_written(self, split):
        table = split.process.vas.read(
            split.entry_table.table_addr, 8 * len(ENTRY_POINTS)
        )
        assert [
            int.from_bytes(table[8 * i : 8 * i + 8], "little")
            for i in range(len(ENTRY_POINTS))
        ] == [split.entry_table.resolve(name) for name in ENTRY_POINTS]
