"""Object ownership: a session's parts never own the session.

With the cycle collector off, a dropped session (and everything only it
references) must be freed by reference counting alone — the plugin,
fault domain, watchdog and a served session's failover handler hold
their owners weakly.
"""

import gc
import weakref

import pytest

from repro.core.halves import SplitProcess, default_app_image, helper_image
from repro.core.session import CracSession
from repro.dmtcp.store import CheckpointStore
from repro.serve import ServeScheduler, SessionPool


@pytest.fixture
def no_gc():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_killed_session_and_its_store_are_freed_by_refcount(no_gc):
    session = CracSession(seed=1)
    store = CheckpointStore()
    domain = session.enable_fault_domain(store)
    session.backend.malloc(4096)
    assert domain.checkpoint() is not None
    session.kill()
    session_ref, store_ref = weakref.ref(session), weakref.ref(store)
    del session, store, domain
    assert session_ref() is None
    assert store_ref() is None


def test_served_session_is_freed_with_its_scheduler(no_gc):
    pool = SessionPool(2, slots=1, seed=0)
    sched = ServeScheduler(pool, seed=0, state_elems=16)
    sids = [f"s{k}" for k in range(3)]
    for sid in sids:
        sched.open_session(sid)
    for _ in range(3):
        for sid in sids:
            sched.handle_request(sid)
    sched.close_session("s1")
    record = sched.records["s0"]
    assert record.parks > 0  # parked and shipped, not just opened
    refs = [
        weakref.ref(obj)
        for obj in (sched, record, record.session, record.store,
                    record.domain)
    ]
    del record, sched, pool
    assert [r() for r in refs] == [None] * len(refs)


def test_failover_handler_does_not_keep_its_scheduler_alive(no_gc):
    pool = SessionPool(2, slots=2, seed=0)
    sched = ServeScheduler(pool, seed=0, state_elems=16)
    handler = sched.open_session("s0").domain.failover_handler
    sched_ref = weakref.ref(sched)
    del sched, pool
    assert sched_ref() is None
    assert callable(handler)


def test_program_images_are_built_once():
    assert helper_image() is helper_image()
    assert default_app_image() is default_app_image()
    a, b = SplitProcess(seed=1), SplitProcess(seed=2)
    assert a.app_image is b.app_image
