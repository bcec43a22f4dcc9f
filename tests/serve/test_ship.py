"""Shadow shipping exports each generation once and keeps every check."""

import numpy as np
import pytest

from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.store import CheckpointStore
from repro.errors import CorruptCheckpointError
from repro.serve import ServeScheduler, SessionPool

FB = FatBinary("ship.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N


def make_session(seed=5):
    session = CracSession(seed=seed)
    session.backend.register_app_binary(FB)
    ptr = session.backend.malloc(NBYTES)
    session.backend.memcpy(ptr, np.arange(N, dtype=np.float32), NBYTES, "h2d")
    heap = session.split.upper_mmap(4096)
    session.process.vas.write(heap, b"upper-half state")
    return session, ptr


def bump(session, ptr):
    def fn():
        view = session.backend.device_view(ptr, NBYTES, np.float32)
        np.add(view, 1.0, out=view)

    session.backend.launch("mutate", fn, duration_ns=50_000.0)
    session.backend.device_synchronize()


def cut(session, ptr, store, parent=None):
    bump(session, ptr)
    return session.checkpoint(
        store=store, incremental=parent is not None, parent=parent
    )


@pytest.fixture
def export_calls(monkeypatch):
    calls = []
    real = CheckpointStore.export_generation

    def counting(self, generation):
        calls.append(generation)
        return real(self, generation)

    monkeypatch.setattr(CheckpointStore, "export_generation", counting)
    return calls


def test_ship_exports_each_new_generation_once(export_calls):
    pool = SessionPool(2, seed=1)
    dst = pool.nodes[1]
    store = CheckpointStore(keep_generations=8)
    session, ptr = make_session()
    image = cut(session, ptr, store)
    shipped = []
    for _ in range(4):
        out = pool.ship("s0", store, "serve0", dst)
        shipped.append(out["records"])
        image = cut(session, ptr, store, parent=image)
    out = pool.ship("s0", store, "serve0", dst)
    shipped.append(out["records"])
    # Every ship sends exactly the one generation cut since the last,
    # and exports nothing the shadow already holds.
    assert shipped == [1, 1, 1, 1, 1]
    assert export_calls == store.generations
    assert dst.shadows["s0"].latest() is not None
    session.kill()


def test_export_chain_skips_held_generations():
    store = CheckpointStore(keep_generations=8)
    session, ptr = make_session()
    full = cut(session, ptr, store)
    inc = cut(session, ptr, store, parent=full)
    cut(session, ptr, store, parent=inc)
    g1, g2, g3 = store.generations
    assert [r["generation"] for r in store.export_chain(g3)] == [g1, g2, g3]
    assert [r["generation"] for r in store.export_chain(g3, skip={g1})] == [g2, g3]
    assert store.export_chain(g3, skip={g1, g2, g3}) == []
    session.kill()


def test_corrupt_shipped_ancestor_fails_the_next_ship():
    pool = SessionPool(2, seed=2)
    dst = pool.nodes[1]
    store = CheckpointStore(keep_generations=8)
    session, ptr = make_session()
    full = cut(session, ptr, store)
    pool.ship("s0", store, "serve0", dst)
    base_gen = store.latest()
    # Rot one byte of the already-shipped base's stored pages.
    region = next(r for r in store.get(base_gen).image.regions if r.pages)
    pg = min(region.pages)
    data = bytearray(region.pages[pg])
    data[0] ^= 0xFF
    region.pages[pg] = bytes(data)
    cut(session, ptr, store, parent=full)
    with pytest.raises(CorruptCheckpointError):
        pool.ship("s0", store, "serve0", dst)
    session.kill()


def churned_pool(n_sessions=6, rounds=20):
    """Two one-slot nodes, so every request parks and ships a session."""
    pool = SessionPool(2, slots=1, seed=0)
    sched = ServeScheduler(pool, seed=0, state_elems=16)
    sids = [f"s{k}" for k in range(n_sessions)]
    for sid in sids:
        sched.open_session(sid)
    for _ in range(rounds):
        for sid in sids:
            sched.handle_request(sid)
    return pool, sched, sids


def test_ship_map_holds_exactly_the_shadow_generations():
    pool, sched, sids = churned_pool()
    assert max(r.parks for r in sched.records.values()) > 8
    for (sid, node), state in pool._ship_maps.items():
        shadow = pool.node(node).shadows[sid]
        held = [shadow.get(g).image for g in shadow.generations]
        assert len(state["images"]) == len(held)
        assert {id(i) for i in state["images"].values()} == {
            id(i) for i in held
        }


def test_close_session_leaves_no_shadow_or_ship_map():
    pool, sched, sids = churned_pool(rounds=3)
    for sid in sids:
        assert sched.close_session(sid)["ok"]
    for node in pool.nodes:
        assert node.shadows == {}
    assert pool._ship_maps == {}
    # The closed session's own clock stays readable.
    assert all(r.session.process.clock_ns > 0 for r in sched.records.values())
