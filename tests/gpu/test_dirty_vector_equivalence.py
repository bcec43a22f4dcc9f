"""Observational equivalence: vectorized structures vs legacy rebuilds.

The vectorization PR replaced three per-write-rebuild structures with
numpy-backed ones. These properties pin the contract: for any op
sequence, the new structures answer every query byte-for-byte the same
as the old code (kept verbatim in :mod:`repro.gpu.dirty_legacy`).

A reference model (set of offsets / dict offset→epoch) arbitrates when
the two implementations could share a bug.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.dirty_legacy import LegacyDirtyIndex, LegacyWrittenSet
from repro.gpu.intervals import EpochIntervalIndex, SpanSet
from repro.sanitizer.core import _Access, _AccessIndex
from repro.sanitizer.vector_clock import VectorClock

SIZE = 256

span = st.tuples(
    st.integers(min_value=0, max_value=SIZE - 1),
    st.integers(min_value=1, max_value=64),
).map(lambda t: (t[0], min(SIZE, t[0] + t[1])))

dirty_op = st.one_of(
    st.tuples(st.just("mark"), span),
    st.tuples(st.just("clear"), st.lists(span, max_size=3)),
    st.tuples(st.just("clear_all"), st.just(None)),
    st.tuples(st.just("query"), st.just(None)),
)


def replay_both(ops):
    """Drive legacy + vectorized dirty indexes and a dict model through
    the same ops; compare every query; return the final triple."""
    legacy, vector = LegacyDirtyIndex(), EpochIntervalIndex()
    model: dict[int, int] = {}  # offset -> epoch of last write
    epoch = 0
    snap = 0
    for kind, arg in ops:
        if kind == "mark":
            lo, hi = arg
            epoch += 1
            legacy.mark(lo, hi, epoch)
            vector.mark(lo, hi, epoch)
            for off in range(lo, hi):
                model[off] = epoch
        elif kind == "clear":
            legacy.clear(arg, up_to_epoch=snap)
            vector.clear(arg, up_to_epoch=snap)
            for lo, hi in arg:
                for off in range(lo, hi):
                    if model.get(off, 0) <= snap:
                        model.pop(off, None)
        elif kind == "clear_all":
            legacy.clear_all()
            vector.clear_all()
            model.clear()
        else:
            assert legacy.intervals() == vector.intervals()
            assert legacy.spans() == vector.spans()
            assert legacy.byte_count == vector.byte_count
            assert legacy.bytes_since(snap) == vector.bytes_since(snap)
            # Nothing is newer than the newest mark (the O(1) answer).
            assert legacy.bytes_since(epoch) == vector.bytes_since(epoch) == 0
            assert not any(ep > epoch for ep in model.values())
            snap = epoch
    return legacy, vector, model


@settings(max_examples=150)
@given(st.lists(dirty_op, max_size=30))
def test_dirty_index_equivalence(ops):
    legacy, vector, model = replay_both(ops)
    assert legacy.intervals() == vector.intervals()
    assert legacy.spans() == vector.spans()
    assert legacy.byte_count == vector.byte_count
    # Both agree with the per-offset model.
    expected = sorted(model)
    got = [
        off for lo, hi in vector.spans() for off in range(lo, hi)
    ]
    assert got == expected
    for lo, hi, ep in vector.intervals():
        for off in range(lo, hi):
            assert model[off] == ep


@settings(max_examples=150)
@given(st.lists(dirty_op, max_size=30), st.integers(0, 40))
def test_bytes_since_equivalence(ops, since):
    legacy, vector, model = replay_both(ops)
    assert legacy.bytes_since(since) == vector.bytes_since(since)
    assert vector.bytes_since(since) == sum(
        1 for ep in model.values() if ep > since
    )


@settings(max_examples=150)
@given(st.lists(dirty_op, max_size=30), st.sampled_from([16, 64, 128]))
def test_page_epochs_match_intervals(ops, page_size):
    _, vector, model = replay_both(ops)
    per_page = vector.page_epochs(page_size, SIZE)
    n_pages = (SIZE + page_size - 1) // page_size
    assert len(per_page) == n_pages
    for p in range(n_pages):
        lo, hi = p * page_size, min(SIZE, (p + 1) * page_size)
        expect = max(
            (model.get(off, 0) for off in range(lo, hi)), default=0
        )
        assert per_page[p] == expect


written_op = st.one_of(
    st.tuples(st.just("add"), span),
    st.tuples(st.just("holes"), span),
    st.tuples(st.just("covers"), span),
)


@settings(max_examples=150)
@given(st.lists(written_op, max_size=40), st.lists(span, max_size=2))
def test_span_set_equivalence(ops, initial):
    legacy, vector = LegacyWrittenSet(initial), SpanSet(initial)
    covered = {
        off for lo, hi in initial for off in range(lo, hi)
    }
    for kind, (lo, hi) in ops:
        if kind == "add":
            legacy.add(lo, hi)
            vector.add(lo, hi)
            covered.update(range(lo, hi))
        elif kind == "holes":
            assert legacy.holes(lo, hi) == vector.holes(lo, hi)
            missing = [o for o in range(lo, hi) if o not in covered]
            got = [
                o for a, b in vector.holes(lo, hi) for o in range(a, b)
            ]
            assert got == missing
        else:
            assert legacy.covers(lo, hi) == vector.covers(lo, hi)
            assert vector.covers(lo, hi) == all(
                o in covered for o in range(lo, hi)
            )
    assert legacy.spans() == vector.spans()
    assert legacy.byte_count == vector.byte_count
    assert bool(legacy) == bool(vector)


# -- racecheck scan ----------------------------------------------------------

clock = st.dictionaries(
    st.sampled_from([0, 1, 2, 3, "host"]),
    st.integers(min_value=1, max_value=4),
    max_size=4,
).map(VectorClock)

access = st.tuples(
    span, st.booleans(), st.sampled_from([0, 1, 2, 3]), clock
)


def brute_force_races(accesses, lo, hi, write, sid, probe_clock):
    """The pre-vectorization racecheck scan, as a plain loop."""
    rows = []
    for i, a in enumerate(accesses):
        if a.hi <= lo or a.lo >= hi:
            continue
        if not (write or a.write) or a.sid == sid:
            continue
        if a.clock.concurrent_with(probe_clock):
            rows.append(i)
    return rows


@settings(max_examples=150)
@given(st.lists(access, max_size=25), st.lists(access, max_size=8))
def test_race_rows_match_brute_force(recorded, probes):
    index = _AccessIndex()
    accesses = []
    for i, ((lo, hi), write, sid, vc) in enumerate(recorded):
        a = _Access(lo, hi, write, sid, vc, i, f"op{i}")
        accesses.append(a)
        index.add(a)
    for (lo, hi), write, sid, vc in probes:
        assert index.race_rows(lo, hi, sid, write, vc) == (
            brute_force_races(accesses, lo, hi, write, sid, vc)
        )


@settings(max_examples=100)
@given(st.lists(access, max_size=12), st.lists(access, max_size=12),
       st.lists(access, max_size=4))
def test_race_rows_survive_rebuild(first, second, probes):
    """rebuild() after pruning answers like a fresh index."""
    index = _AccessIndex()
    accesses = []
    for i, ((lo, hi), write, sid, vc) in enumerate(first + second):
        a = _Access(lo, hi, write, sid, vc, i, f"op{i}")
        accesses.append(a)
        index.add(a)
    kept = accesses[len(first):]
    index.rebuild(kept)
    fresh = _AccessIndex()
    for a in kept:
        fresh.add(a)
    for (lo, hi), write, sid, vc in probes:
        assert index.race_rows(lo, hi, sid, write, vc) == (
            fresh.race_rows(lo, hi, sid, write, vc)
        )


def test_epoch_regression_rejected():
    """Epochs are the buffer write sequence — monotone by construction;
    the index enforces the precondition its last-write-wins flush
    relies on."""
    from repro.cuda.errors import CudaError

    idx = EpochIntervalIndex()
    idx.mark(0, 10, 5)
    try:
        idx.mark(0, 10, 4)
    except CudaError:
        pass
    else:  # pragma: no cover - failure path
        raise AssertionError("epoch regression accepted")


def test_clock_matrix_widens_mid_append():
    """Appending a clock with many fresh components must survive the
    matrix reallocating while the row is being filled (regression:
    stale row view after _col() widened the storage)."""
    from repro.sanitizer.vector_clock import ClockMatrix

    m = ClockMatrix()
    wide = VectorClock({i: i + 1 for i in range(10)})
    m.append(wide)
    row_leq, q_leq = m.versus(wide)
    assert bool(row_leq[0]) and bool(q_leq[0])
    narrow = VectorClock({0: 1})
    row_leq, q_leq = m.versus(narrow)
    assert not row_leq[0] and bool(q_leq[0])
