"""Property-based tests for PagedContents dirty-span bookkeeping.

The incremental GPU checkpoint path relies on three invariants:

1. every byte that differs from the last commit lies inside
   ``dirty_spans()`` (over-approximation is fine, under is data loss);
2. ``dirty_snapshot()`` applied onto a copy of the last-committed state
   reproduces the current contents exactly (the delta-chain property);
3. the span algebra (``merge_spans``/``subtract_spans``) agrees with a
   plain set-of-offsets model.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import PagedContents, merge_spans, subtract_spans

SIZE = 1 << 15

mutation = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=SIZE - 1),
        st.binary(min_size=1, max_size=1024),
    ),
    st.tuples(
        st.just("view"),
        st.integers(min_value=0, max_value=SIZE - 64),
        st.integers(min_value=1, max_value=64),
    ),
    st.tuples(st.just("fill"), st.integers(min_value=0, max_value=255)),
)
mutations = st.lists(mutation, max_size=20)


def apply_ops(c, ops):
    for op in ops:
        if op[0] == "write":
            _, off, data = op
            n = min(len(data), SIZE - off)
            c.write_bytes(off, data[:n])
        elif op[0] == "view":
            _, off, n = op
            c.view(off, n)[:] = 0xC3
        else:
            c.fill(op[1])


def dense(c):
    return np.frombuffer(c.read_bytes(0, SIZE), dtype=np.uint8).copy()


@settings(max_examples=100)
@given(mutations, mutations)
def test_dirty_spans_cover_every_changed_byte(base_ops, ops):
    c = PagedContents(SIZE)
    apply_ops(c, base_ops)
    c.clear_dirty()  # commit point
    committed = dense(c)

    apply_ops(c, ops)
    changed = np.nonzero(dense(c) != committed)[0]
    spans = c.dirty_spans()
    for idx in changed:
        assert any(lo <= idx < hi for lo, hi in spans), (
            f"byte {idx} changed since commit but is not in {spans}"
        )
    assert c.dirty_byte_count == sum(hi - lo for lo, hi in spans)


@settings(max_examples=100)
@given(mutations, mutations)
def test_dirty_snapshot_replays_onto_committed_clone(base_ops, ops):
    c = PagedContents(SIZE)
    apply_ops(c, base_ops)
    c.clear_dirty()

    clone = PagedContents(SIZE)
    clone.write_bytes(0, c.read_bytes(0, SIZE))  # last-committed state

    apply_ops(c, ops)
    clone.apply_delta(c.dirty_snapshot(c.dirty_spans()))
    assert clone.read_bytes(0, SIZE) == c.read_bytes(0, SIZE)
    assert clone.equal_contents(c)


@settings(max_examples=60)
@given(mutations, mutations, mutations)
def test_delta_chain_over_two_commits(base_ops, ops1, ops2):
    """Two incremental cuts stack: base + d1 + d2 == live contents."""
    c = PagedContents(SIZE)
    apply_ops(c, base_ops)
    c.clear_dirty()
    clone = PagedContents(SIZE)
    clone.write_bytes(0, c.read_bytes(0, SIZE))

    apply_ops(c, ops1)
    d1 = c.dirty_snapshot(c.dirty_spans())
    c.clear_dirty()
    apply_ops(c, ops2)
    d2 = c.dirty_snapshot(c.dirty_spans())
    c.clear_dirty()

    clone.apply_delta(d1)
    clone.apply_delta(d2)
    assert clone.equal_contents(c)
    assert c.dirty_byte_count == 0


@settings(max_examples=100)
@given(mutations)
def test_partial_clear_leaves_remainder(ops):
    """Clearing only the first captured span keeps the rest dirty."""
    c = PagedContents(SIZE)
    apply_ops(c, ops)
    spans = c.dirty_spans()
    if not spans:
        assert c.dirty_byte_count == 0
        return
    head, rest = spans[:1], spans[1:]
    c.clear_dirty(head)
    assert c.dirty_spans() == rest
    c.clear_dirty()
    assert c.dirty_byte_count == 0


span_list = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=64),
    ).map(lambda t: (t[0], t[0] + t[1])),
    max_size=12,
)


def as_set(spans):
    return {i for lo, hi in spans for i in range(lo, hi)}


@settings(max_examples=150)
@given(span_list)
def test_merge_spans_matches_set_model(spans):
    merged = merge_spans(spans)
    assert as_set(merged) == as_set(spans)
    # Canonical form: sorted, non-empty, non-adjacent.
    for (lo, hi), (lo2, _) in zip(merged, merged[1:]):
        assert lo < hi < lo2
    assert all(lo < hi for lo, hi in merged)


@settings(max_examples=150)
@given(span_list, span_list)
def test_subtract_spans_matches_set_model(base, minus):
    got = subtract_spans(merge_spans(base), merge_spans(minus))
    assert as_set(got) == as_set(base) - as_set(minus)
