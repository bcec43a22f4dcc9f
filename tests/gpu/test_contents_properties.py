"""Property-based tests for PagedContents (sparse buffer contents)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import PagedContents

SIZE = 1 << 16

write_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SIZE - 1),
        st.binary(min_size=1, max_size=2048),
    ),
    max_size=25,
)


def reference_model(ops):
    """A dense numpy reference of the same writes."""
    ref = np.zeros(SIZE, dtype=np.uint8)
    for off, data in ops:
        n = min(len(data), SIZE - off)
        ref[off : off + n] = np.frombuffer(data[:n], dtype=np.uint8)
    return ref


def apply(contents, ops):
    for off, data in ops:
        n = min(len(data), SIZE - off)
        contents.write_bytes(off, data[:n])


@settings(max_examples=120)
@given(write_ops)
def test_matches_dense_reference(ops):
    c = PagedContents(SIZE)
    apply(c, ops)
    ref = reference_model(ops)
    assert c.read_bytes(0, SIZE) == ref.tobytes()


@settings(max_examples=120)
@given(write_ops, st.integers(0, SIZE - 1), st.integers(0, 4096))
def test_read_into_out_matches_reference(ops, lo, n):
    """``read_bytes(..., out=)`` fills the array exactly as the bytes form
    reads: over holes (a non-zero fill), partial spans and, via the last
    write's own range, an exactly matching span."""
    c = PagedContents(SIZE)
    c.fill(0x5A)
    apply(c, ops)
    ref = np.full(SIZE, 0x5A, dtype=np.uint8)
    for off, data in ops:
        m = min(len(data), SIZE - off)
        ref[off : off + m] = np.frombuffer(data[:m], dtype=np.uint8)
    windows = [(lo, min(n, SIZE - lo))]
    if ops:
        off, data = ops[-1]
        windows.append((off, min(len(data), SIZE - off)))
    for w_lo, w_n in windows:
        out = np.zeros(w_n, dtype=np.uint8)
        assert c.read_bytes(w_lo, w_n, out=out) is None
        assert out.tobytes() == ref[w_lo : w_lo + w_n].tobytes()
        assert c.read_bytes(w_lo, w_n) == out.tobytes()


@settings(max_examples=100)
@given(write_ops)
def test_snapshot_restore_roundtrip(ops):
    c = PagedContents(SIZE)
    apply(c, ops)
    before = c.read_bytes(0, SIZE)
    snap = c.snapshot()
    c.fill(0xEE)  # destroy
    c.restore(snap)
    assert c.read_bytes(0, SIZE) == before


@settings(max_examples=100)
@given(write_ops, write_ops)
def test_equal_contents_agrees_with_bytes(ops_a, ops_b):
    a, b = PagedContents(SIZE), PagedContents(SIZE)
    apply(a, ops_a)
    apply(b, ops_b)
    bytes_equal = a.read_bytes(0, SIZE) == b.read_bytes(0, SIZE)
    assert a.equal_contents(b) == bytes_equal


@settings(max_examples=100)
@given(
    write_ops,
    st.integers(min_value=0, max_value=SIZE // 2),
    st.integers(min_value=0, max_value=SIZE // 2),
    st.integers(min_value=1, max_value=SIZE // 2),
)
def test_copy_from_matches_dense_copy(ops, src_off, dst_off, n):
    src = PagedContents(SIZE)
    apply(src, ops)
    dst = PagedContents(SIZE)
    dst.write_bytes(0, b"\x55" * 4096)  # pre-existing destination data
    ref_dst = np.frombuffer(dst.read_bytes(0, SIZE), dtype=np.uint8).copy()
    ref_src = np.frombuffer(src.read_bytes(0, SIZE), dtype=np.uint8)

    dst.copy_from(src, src_off, dst_off, n)
    ref_dst[dst_off : dst_off + n] = ref_src[src_off : src_off + n]
    assert dst.read_bytes(0, SIZE) == ref_dst.tobytes()


@settings(max_examples=60)
@given(write_ops)
def test_views_never_alias_incorrectly(ops):
    """A view written through is observed by read_bytes."""
    c = PagedContents(SIZE)
    apply(c, ops)
    v = c.view(100, 64)
    v[:] = 0xAB
    assert c.read_bytes(100, 64) == b"\xab" * 64
