"""Runtime lock-order validation (repro.engine.lockdep).

Covers the dynamic layer of the concurrency-correctness subsystem: rank
enforcement, acquisition-graph cycle detection, re-entrant RLock
accounting, warn-once edge dedup, and the enable/disable surface.  Every
test resets the global graph so intentional violations here never bleed
into the suite-wide clean-report assertion in conftest.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import lockdep
from repro.engine.lockdep import (
    LockOrderViolation,
    RankedCondition,
    RankedLock,
)
from repro.storage.latch import ranked_condition, ranked_lock


@pytest.fixture(autouse=True)
def _fresh_graph():
    lockdep.reset()
    yield
    lockdep.reset()


def _lock(name: str) -> RankedLock:
    return RankedLock(name)


pytestmark = pytest.mark.lockdep


class TestRankRule:
    def test_descending_acquisition_is_clean(self):
        outer = _lock("store.unit_latch")       # rank 42
        inner = _lock("storage.buffer")         # rank 10
        with outer:
            with inner:
                pass
        assert lockdep.violations() == []

    def test_ascending_acquisition_raises(self):
        inner = _lock("storage.buffer")         # rank 10
        outer = _lock("store.unit_latch")       # rank 42
        with inner:
            with pytest.raises(LockOrderViolation) as exc:
                outer.acquire()
        assert "rank" in str(exc.value)
        assert lockdep.violations() != []

    def test_equal_rank_two_instances_raises(self):
        # Two distinct unit latches share rank 42: nesting them is the
        # latch-discipline bug the leaf-per-operation rule forbids, and
        # the equal-rank rule is its runtime enforcement.
        first = _lock("store.unit_latch")
        second = _lock("store.unit_latch")
        with first:
            with pytest.raises(LockOrderViolation):
                second.acquire()

    def test_violation_does_not_take_the_lock(self):
        inner = _lock("storage.buffer")
        outer = _lock("store.unit_latch")
        with inner:
            with pytest.raises(LockOrderViolation):
                outer.acquire()
        # The failed acquisition must not have been granted: another
        # thread can take it immediately.
        grabbed = []

        def worker():
            grabbed.append(outer.acquire(timeout=1.0))
            outer.release()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=2.0)
        assert grabbed == [True]

    def test_warn_once_per_edge(self):
        inner = _lock("storage.buffer")
        outer = _lock("store.unit_latch")
        with inner:
            with pytest.raises(LockOrderViolation):
                outer.acquire()
            # Same edge again: recorded once, not raised again.
            outer.acquire()
            outer.release()
        assert len(lockdep.violations()) == 1

    def test_full_hierarchy_descends_clean(self):
        names = ["server.client", "server.gate", "server.connections",
                 "storage.transactions", "sessions.class_locks",
                 "store.unit_latch", "store.surrogates",
                 "store.commit_latch", "mapper.versions",
                 "mapper.read_cache", "storage.buffer", "storage.wal"]
        locks = [_lock(name) for name in names]
        for lock in locks:
            lock.acquire()
        for lock in reversed(locks):
            lock.release()
        assert lockdep.violations() == []


class TestCycleRule:
    def test_cycle_between_unranked_locks_raises(self):
        alpha = _lock("test.alpha")
        beta = _lock("test.beta")
        with alpha:
            with beta:
                pass
        with beta:
            with pytest.raises(LockOrderViolation) as exc:
                alpha.acquire()
        assert "cycle" in str(exc.value)

    def test_three_lock_cycle_detected(self):
        a, b, c = _lock("test.a"), _lock("test.b"), _lock("test.c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(LockOrderViolation):
                a.acquire()

    def test_consistent_order_never_raises(self):
        alpha = _lock("test.alpha")
        beta = _lock("test.beta")
        for _ in range(3):
            with alpha:
                with beta:
                    pass
        assert lockdep.violations() == []

    def test_edges_recorded(self):
        alpha = _lock("test.alpha")
        beta = _lock("test.beta")
        with alpha:
            with beta:
                pass
        assert ("test.alpha", "test.beta") in lockdep.edges()


class TestReentrancy:
    def test_reentrant_reacquisition_is_clean(self):
        lock = _lock("store.unit_latch")
        with lock:
            with lock:
                with lock:
                    pass
        assert lockdep.violations() == []

    def test_reentrant_release_keeps_outer_entry(self):
        outer = _lock("store.unit_latch")
        inner = _lock("storage.buffer")
        with outer:
            with outer:
                pass
            # The outer hold must still be tracked: acquiring a
            # higher-ranked lock now is still a violation.
            bad = _lock("sessions.class_locks")
            with pytest.raises(LockOrderViolation):
                bad.acquire()
            with inner:     # descending is still fine
                pass

    def test_unranked_same_class_records_no_self_edge(self):
        # Unranked same-class nesting: the class-keyed graph records no
        # self-edge (it carries no ordering information), so this stays
        # clean — only *ranked* same-class nesting is rejected, by the
        # equal-rank rule above.
        first = _lock("test.pool")
        second = _lock("test.pool")
        with first:
            with second:
                pass
        assert ("test.pool", "test.pool") not in lockdep.edges()
        assert lockdep.violations() == []


class TestConditions:
    def test_condition_wait_for_roundtrip(self):
        lock = _lock("sessions.class_locks")
        cond = RankedCondition(lock)
        fired = []

        def waker():
            with cond:
                fired.append(True)
                cond.notify_all()
        thread = threading.Thread(target=waker)
        with cond:
            thread.start()
            assert cond.wait_for(lambda: fired, timeout=2.0)
        thread.join(timeout=2.0)
        assert lockdep.violations() == []

    def test_condition_holds_locks_rank(self):
        lock = _lock("sessions.class_locks")    # rank 50
        cond = RankedCondition(lock)
        higher = _lock("storage.transactions")  # rank 60
        with cond:
            with pytest.raises(LockOrderViolation):
                higher.acquire()


class TestEnableSurface:
    def test_default_on_under_pytest(self):
        assert lockdep.enabled()
        assert isinstance(ranked_lock("test.default"), RankedLock)

    def test_disable_enable_roundtrip(self):
        lockdep.disable()
        try:
            assert not lockdep.enabled()
            unchecked = ranked_lock("storage.buffer")
            checked_outer = _lock("store.unit_latch")
            # An unchecked lock neither checks nor records.
            with unchecked:
                with checked_outer:
                    pass
        finally:
            lockdep.enable()
        assert lockdep.enabled()
        assert lockdep.violations() == []

    def test_unchecked_lock_is_plain_rlock(self):
        lockdep.disable()
        try:
            lock = ranked_lock("storage.buffer")
        finally:
            lockdep.enable()
        assert type(lock) is type(threading.RLock())
        assert lock.acquire()
        assert lock.acquire()
        lock.release()
        lock.release()
        assert lockdep.violations() == []

    def test_ranked_lock_is_a_plain_rlock_when_disabled(self):
        """Off at construction, the factory makes a plain ``RLock``,
        and a condition waits over it as over a ranked one; on, it
        makes a :class:`RankedLock`."""
        lockdep.disable()
        try:
            lock = ranked_lock("sessions.class_locks")
        finally:
            lockdep.enable()
        with lock:
            with lock:
                pass
        cond = ranked_condition(lock)
        fired = []

        def waker():
            with cond:
                fired.append(True)
                cond.notify_all()
        thread = threading.Thread(target=waker)
        with cond:
            thread.start()
            assert cond.wait_for(lambda: fired, timeout=2.0)
        thread.join(timeout=2.0)
        checked = ranked_lock("sessions.class_locks")
        assert isinstance(checked, RankedLock)
        assert lockdep.violations() == []

    def test_reset_clears_state(self):
        inner = _lock("storage.buffer")
        outer = _lock("store.unit_latch")
        with inner:
            with pytest.raises(LockOrderViolation):
                outer.acquire()
        lockdep.reset()
        assert lockdep.violations() == []
        assert lockdep.edges() == set()


class TestEngineIntegration:
    def test_migrated_locks_are_ranked(self):
        from repro import Database
        from repro.workloads import UNIVERSITY_DDL
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        assert db.store.commit_latch.name == "store.commit_latch"
        assert db.store._surrogate_mutex.name == "store.surrogates"
        assert db.store.versions._mutex.name == "mapper.versions"
        assert db.store.read_cache._lock.name == "mapper.read_cache"
        assert db.store.transactions._mutex.name == "storage.transactions"

    def test_update_workload_records_descending_edges_only(self):
        from repro import Database
        from repro.workloads import UNIVERSITY_DDL
        lockdep.reset()
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        db.execute('Insert course(course-no := 1, title := "T",'
                   ' credits := 3)')
        db.execute('Modify course(credits := 4) Where course-no = 1')
        db.execute('Delete course Where course-no = 1')
        from repro.analysis.lock_order import LOCK_RANKS
        for held, acquired in lockdep.edges():
            held_rank = LOCK_RANKS.get(held)
            acquired_rank = LOCK_RANKS.get(acquired)
            if held_rank is not None and acquired_rank is not None:
                assert acquired_rank < held_rank, (held, acquired)
        assert lockdep.violations() == []
