"""Property-based tests for checkpoint/restore invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dmtcp import DmtcpCheckpointer, DmtcpPlugin
from repro.dmtcp.checkpointer import _subtract_ranges
from repro.linux import PAGE_SIZE, SimProcess

BASE = 0x4000_0000

# Random process-memory builder: (page_offset, n_pages, payload) mmaps.
region_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=8),
        st.binary(min_size=1, max_size=256),
    ),
    min_size=1,
    max_size=12,
)

skip_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=16),
    ),
    max_size=4,
)


def build_process(specs):
    proc = SimProcess(aslr=False, seed=71)
    placed = []
    for pg, npages, payload in specs:
        addr = BASE + pg * PAGE_SIZE
        if proc.vas.overlapping(addr, npages * PAGE_SIZE):
            continue
        proc.vas.mmap(npages * PAGE_SIZE, addr=addr, fixed=True, tag="upper:x")
        proc.vas.write(addr, payload)
        placed.append((addr, payload))
    return proc, placed


@settings(max_examples=100, deadline=None)
@given(region_specs)
def test_checkpoint_restore_roundtrip_bit_exact(specs):
    proc, placed = build_process(specs)
    image = DmtcpCheckpointer(proc).checkpoint()
    fresh = SimProcess(aslr=False, seed=72)
    DmtcpCheckpointer(proc).restore_memory(image, fresh)
    for addr, payload in placed:
        assert fresh.vas.read(addr, len(payload)) == payload


@settings(max_examples=100, deadline=None)
@given(region_specs)
def test_incremental_chain_roundtrip(specs):
    """Write → full ckpt → write more → incremental ckpt → restore chain
    must equal the live state."""
    proc, placed = build_process(specs)
    ckpt = DmtcpCheckpointer(proc)
    base = ckpt.checkpoint()
    # Second generation of writes over the same regions.
    gen2 = []
    for i, (addr, payload) in enumerate(placed):
        data = bytes([i % 251]) * min(len(payload) + 7, 300)
        proc.vas.write(addr, data)
        gen2.append((addr, data))
    inc = ckpt.checkpoint(incremental=True, parent=base)
    fresh = SimProcess(aslr=False, seed=73)
    ckpt.restore_memory(inc, fresh)
    for addr, data in gen2:
        assert fresh.vas.read(addr, len(data)) == data


@settings(max_examples=100, deadline=None)
@given(region_specs, skip_specs)
def test_skip_ranges_never_leak_into_image(specs, skips):
    proc, placed = build_process(specs)
    skip_ranges = [
        (BASE + pg * PAGE_SIZE, npages * PAGE_SIZE) for pg, npages in skips
    ]

    class Veto(DmtcpPlugin):
        def skip_ranges(self):
            return skip_ranges

    image = DmtcpCheckpointer(proc, [Veto()]).checkpoint()
    for region in image.regions:
        for s_start, s_size in skip_ranges:
            # No saved region may intersect a vetoed range.
            assert region.start + region.size <= s_start or (
                region.start >= s_start + s_size
            )


def _skip_lists():
    """Skip lists in any order, with overlapping, adjacent, nested and
    duplicated ranges: each extra range is derived from an earlier one."""
    base = st.tuples(st.integers(0, 120), st.integers(1, 40))
    derived = st.tuples(
        st.sampled_from(["adjacent-after", "adjacent-before", "overlap", "nested", "dup"]),
        st.integers(1, 20),
    )

    def build(args):
        firsts, extras, order = args
        skips = list(firsts)
        for i, (kind, k) in enumerate(extras):
            s, sz = skips[i % len(skips)]
            if kind == "adjacent-after":
                skips.append((s + sz, k))
            elif kind == "adjacent-before":
                skips.append((max(s - k, 0), min(k, s) or 1))
            elif kind == "overlap":
                skips.append((s + sz // 2, sz + k))
            elif kind == "nested":
                skips.append((s, max(sz - k, 1)))
            else:
                skips.append((s, sz))
        return [skips[i % len(skips)] for i in order] if order else skips

    return st.tuples(
        st.lists(base, min_size=1, max_size=4),
        st.lists(derived, max_size=4),
        st.one_of(st.just(None), st.permutations(range(8))),
    ).map(build) | st.lists(base, max_size=5)


@settings(max_examples=400)
@given(st.tuples(st.integers(0, 100), st.integers(1, 100)), _skip_lists())
def test_subtract_ranges_properties(span, skips):
    lo, width = span
    hi = lo + width
    skips_se = [(s, sz) for s, sz in skips]
    parts = _subtract_ranges((lo, hi), skips_se)
    # Parts are disjoint, ordered, inside the span...
    for (a1, b1), (a2, b2) in zip(parts, parts[1:]):
        assert b1 <= a2
    for a, b in parts:
        assert lo <= a < b <= hi
        # ...and intersect no skip.
        for s, sz in skips_se:
            assert b <= s or a >= s + sz
    # Every point outside all skips is covered by some part.
    covered = sum(b - a for a, b in parts)
    skipped_inside = 0
    for x in range(lo, hi):
        if any(s <= x < s + sz for s, sz in skips_se):
            skipped_inside += 1
    assert covered == (hi - lo) - skipped_inside
    # The parts are exactly the maximal runs of unskipped points, and
    # the answer does not depend on the order the skips come in.
    runs: list[tuple[int, int]] = []
    for x in range(lo, hi):
        if any(s <= x < s + sz for s, sz in skips_se):
            continue
        if runs and runs[-1][1] == x:
            runs[-1] = (runs[-1][0], x + 1)
        else:
            runs.append((x, x + 1))
    assert parts == runs
    assert _subtract_ranges((lo, hi), sorted(skips_se, reverse=True)) == parts
