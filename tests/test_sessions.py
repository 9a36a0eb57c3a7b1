"""Multi-session concurrency tests: blocking 2PL, deadlock detection,
lock upgrades, and the legacy fail-fast mode (``lock_timeout=0``)."""

import threading
import time

import pytest

from repro import Database
from repro.engine.sessions import (
    DeadlockError,
    LockConflict,
    LockManager,
    LockTimeout,
    Session,
)
from repro.workloads import UNIVERSITY_DDL


@pytest.fixture()
def db():
    database = Database(UNIVERSITY_DDL, constraint_mode="off")
    database.execute('Insert course(course-no := 1, title := "T",'
                     ' credits := 3)')
    database.execute('Insert department(dept-nbr := 100, name := "D")')
    return database


def legacy_session(db):
    """Fail-fast, shared-lock-read sessions: the pre-MVCC semantics."""
    return Session(db, mvcc=False, lock_timeout=0)


class TestLockManager:
    def test_shared_locks_compatible(self):
        locks = LockManager()
        locks.acquire_shared(1, "course")
        locks.acquire_shared(2, "course")

    def test_exclusive_blocks_shared_failfast(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "course")
        with pytest.raises(LockConflict):
            locks.acquire_shared(2, "course", timeout=0)

    def test_shared_blocks_exclusive_failfast(self):
        locks = LockManager()
        locks.acquire_shared(1, "course")
        with pytest.raises(LockConflict):
            locks.acquire_exclusive(2, "course", timeout=0)

    def test_upgrade_own_lock(self):
        locks = LockManager()
        assert locks.acquire_shared(1, "course") == "new"
        assert locks.acquire_exclusive(1, "course") == "upgraded"
        assert locks.holdings(1)["course"] == "exclusive"

    def test_reentrant_grants_are_held(self):
        locks = LockManager()
        locks.acquire_shared(1, "course")
        assert locks.acquire_shared(1, "course") == "held"
        locks.acquire_exclusive(1, "department")
        assert locks.acquire_exclusive(1, "department") == "held"
        # shared under own exclusive is already covered
        assert locks.acquire_shared(1, "department") == "held"

    def test_release_all(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "course")
        locks.release_all(1)
        locks.acquire_exclusive(2, "course")

    def test_blocking_acquire_waits_for_release(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "course")
        got = []

        def contender():
            got.append(locks.acquire_exclusive(2, "course", timeout=5.0))

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.05)
        assert not got             # still blocked
        locks.release_all(1)
        thread.join(timeout=5.0)
        assert got == ["new"]
        assert locks.holdings(2)["course"] == "exclusive"

    def test_lock_timeout(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "course")
        start = time.monotonic()
        with pytest.raises(LockTimeout):
            locks.acquire_exclusive(2, "course", timeout=0.2)
        assert time.monotonic() - start >= 0.15
        assert locks.statistics()["timeouts"] == 1

    def test_deadlock_detected_not_timed_out(self):
        """A 2-cycle is resolved by victim abort well before the (long)
        timeout, and the victim is the youngest session in the cycle."""
        locks = LockManager()
        locks.acquire_exclusive(1, "a")
        locks.acquire_exclusive(2, "b")
        results = {}

        def older():
            try:
                locks.acquire_exclusive(1, "b", timeout=30.0)
                results[1] = "granted"
            except DeadlockError:
                results[1] = "deadlock"
                locks.release_all(1)

        def younger():
            try:
                locks.acquire_exclusive(2, "a", timeout=30.0)
                results[2] = "granted"
            except DeadlockError:
                results[2] = "deadlock"
                locks.release_all(2)

        start = time.monotonic()
        threads = [threading.Thread(target=older),
                   threading.Thread(target=younger)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert time.monotonic() - start < 10.0   # no timeout-waiting
        assert results[2] == "deadlock"          # youngest loses...
        assert results[1] == "granted"           # ...and the cycle breaks
        assert locks.statistics()["deadlocks"] >= 1

    def test_deadlock_victim_deterministic(self):
        """The same interleaving always dooms the same (youngest)
        session, independent of which thread reaches detection first."""
        for _ in range(5):
            locks = LockManager()
            locks.acquire_exclusive(1, "a")
            locks.acquire_exclusive(2, "b")
            victims = []

            def contend(sid, want):
                try:
                    locks.acquire_exclusive(sid, want, timeout=30.0)
                except DeadlockError:
                    victims.append(sid)
                finally:
                    locks.release_all(sid)

            threads = [threading.Thread(target=contend, args=(1, "b")),
                       threading.Thread(target=contend, args=(2, "a"))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert victims == [2]

    def test_upgrade_under_contention(self):
        """Two readers racing to upgrade form an upgrade deadlock; one is
        aborted, the other gets the exclusive lock."""
        locks = LockManager()
        locks.acquire_shared(1, "course")
        locks.acquire_shared(2, "course")
        outcome = {}

        def upgrade(sid):
            try:
                outcome[sid] = locks.acquire_exclusive(sid, "course",
                                                       timeout=30.0)
            except DeadlockError:
                outcome[sid] = "deadlock"
                locks.release_all(sid)

        threads = [threading.Thread(target=upgrade, args=(sid,))
                   for sid in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert sorted(outcome.values()) == ["deadlock", "upgraded"]
        assert outcome[2] == "deadlock"          # youngest loses

    def test_rollback_drops_new_and_demotes_upgrades(self):
        locks = LockManager()
        locks.acquire_shared(1, "course")
        acquired = [("course",) + locks.acquire(1, "course", "X"),
                    ("department",) + locks.acquire(1, "department", "X")]
        assert acquired == [("course", "upgraded", "S"),
                            ("department", "new", None)]
        locks.rollback(1, acquired)
        # upgrade demoted back to shared; new lock fully released
        assert locks.holdings(1) == {"course": "shared"}
        locks.acquire_exclusive(2, "department", timeout=0)

    def test_rollback_keeps_preheld(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "course")
        acquired = [("course",) + locks.acquire(1, "course", "X")]
        assert acquired[0][1] == "held"
        locks.rollback(1, acquired)
        assert locks.holdings(1)["course"] == "exclusive"


class TestSessions:
    """Legacy fail-fast semantics (mvcc=False, lock_timeout=0)."""

    def test_writer_blocks_reader_until_commit(self, db):
        alice, bob = legacy_session(db), legacy_session(db)
        alice.execute('Modify course(credits := 5) Where course-no = 1')
        with pytest.raises(LockConflict):
            bob.query("From course Retrieve title")
        alice.commit()
        assert bob.query("From course Retrieve credits").scalar() == 5
        bob.commit()

    def test_readers_share(self, db):
        alice, bob = legacy_session(db), legacy_session(db)
        assert alice.query("From course Retrieve title").rows
        assert bob.query("From course Retrieve title").rows
        alice.commit()
        bob.commit()

    def test_reader_blocks_writer(self, db):
        alice, bob = legacy_session(db), legacy_session(db)
        alice.query("From course Retrieve title")
        with pytest.raises(LockConflict):
            bob.execute('Modify course(credits := 9) Where course-no = 1')
        alice.commit()
        bob.execute('Modify course(credits := 9) Where course-no = 1')
        bob.commit()

    def test_abort_isolates_other_session(self, db):
        alice, bob = legacy_session(db), legacy_session(db)
        alice.execute('Insert course(course-no := 2, title := "New",'
                      ' credits := 1)')
        alice.abort()
        titles = bob.query("From course Retrieve title").column(0)
        assert titles == ["T"]
        bob.commit()

    def test_two_open_transactions_commit_independently(self, db):
        alice, bob = legacy_session(db), legacy_session(db)
        alice.execute('Insert course(course-no := 2, title := "A2",'
                      ' credits := 1)')
        bob.execute('Insert department(dept-nbr := 200, name := "D2")')
        bob.commit()
        alice.commit()
        assert len(db.query("From course Retrieve title")) == 2
        assert len(db.query("From department Retrieve name")) == 2

    def test_disjoint_classes_do_not_conflict(self, db):
        alice, bob = legacy_session(db), legacy_session(db)
        alice.execute('Modify course(credits := 7) Where course-no = 1')
        bob.execute('Modify department(name := "D9")'
                    ' Where dept-nbr = 100')
        alice.commit()
        bob.commit()
        assert db.query("From course Retrieve credits").scalar() == 7
        assert db.query("From department Retrieve name").scalar() == "D9"

    def test_update_locks_cover_eva_partners(self, db):
        # Modifying students can touch courses (enrolment EVA): a reader
        # of COURSE must conflict with a student writer.
        alice, bob = legacy_session(db), legacy_session(db)
        alice.execute('Insert student(soc-sec-no := 1, courses-enrolled :='
                      ' course with (course-no = 1))')
        with pytest.raises(LockConflict):
            bob.query("From course Retrieve title")
        alice.commit()
        bob.commit()

    def test_holdings_reporting(self, db):
        alice = legacy_session(db)
        alice.query("From course Retrieve title")
        assert alice.holdings()["course"] == "shared"
        alice.commit()
        assert alice.holdings() == {}

    def test_serializable_outcome(self, db):
        """The classic lost-update interleaving is prevented outright."""
        alice, bob = legacy_session(db), legacy_session(db)
        alice.execute('Modify course(credits := 1 + credits)'
                      ' Where course-no = 1')
        with pytest.raises(LockConflict):
            bob.execute('Modify course(credits := 1 + credits)'
                        ' Where course-no = 1')
        alice.commit()
        bob.execute('Modify course(credits := 1 + credits)'
                    ' Where course-no = 1')
        bob.commit()
        assert db.query("From course Retrieve credits").scalar() == 5


class TestConcurrentSessions:
    """Threaded sessions: blocking waits, victim retry, satellite fixes."""

    def test_session_ids_per_database(self):
        db_a = Database(UNIVERSITY_DDL, constraint_mode="off")
        db_b = Database(UNIVERSITY_DDL, constraint_mode="off")
        assert Session(db_a).session_id == 1
        assert Session(db_a).session_id == 2
        assert Session(db_b).session_id == 1   # independent counters

    def test_session_id_allocation_thread_safe(self, db):
        ids = []
        ids_lock = threading.Lock()

        def open_sessions():
            for _ in range(50):
                session = Session(db)
                with ids_lock:
                    ids.append(session.session_id)

        threads = [threading.Thread(target=open_sessions) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(ids) == len(set(ids)) == 200

    def test_begin_detached_mints_unique_txn_ids(self, db):
        manager = db.store.transactions
        txn_ids = []
        ids_lock = threading.Lock()

        def mint():
            for _ in range(100):
                txn = manager.begin_detached()
                with ids_lock:
                    txn_ids.append(txn.transaction_id)

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(txn_ids) == len(set(txn_ids)) == 400

    def test_writer_blocks_then_reader_proceeds(self, db):
        """A blocking (non-MVCC) reader waits out the writer instead of
        failing, and sees the committed value."""
        alice = Session(db, mvcc=False)
        bob = Session(db, mvcc=False)
        alice.execute('Modify course(credits := 5) Where course-no = 1')
        seen = []

        def read():
            seen.append(bob.query("From course Retrieve credits",
                                  timeout=10.0).scalar())
            bob.commit()

        thread = threading.Thread(target=read)
        thread.start()
        time.sleep(0.05)
        alice.commit()
        thread.join(timeout=10.0)
        assert seen == [5]

    def test_statement_timeout_keeps_transaction(self, db):
        """A timed-out statement fails but the session's transaction and
        earlier locks survive; partial acquisition is rolled back."""
        alice = Session(db, mvcc=False)
        bob = Session(db, mvcc=False)
        alice.execute('Modify course(credits := 5) Where course-no = 1')
        bob.execute('Modify department(name := "D2") Where dept-nbr = 100')
        with pytest.raises(LockTimeout):
            bob.execute('Modify course(credits := 9) Where course-no = 1',
                        timeout=0.2)
        # bob still holds the department write (IX class + entity X under
        # entity-granularity locking), but nothing on course
        assert bob.holdings() == {"department": "intention-exclusive"}
        assert list(bob.entity_holdings().values()) == ["exclusive"]
        assert not any(key[0] == "course" for key in bob.entity_holdings())
        alice.commit()
        bob.execute('Modify course(credits := 9) Where course-no = 1')
        bob.commit()
        assert db.query("From course Retrieve credits").scalar() == 9
        assert db.query("From department Retrieve name").scalar() == "D2"

    def test_deadlock_victim_statement_retried(self, db):
        """Fresh-transaction deadlock victims replay automatically: both
        opposite-order writers eventually commit."""
        barrier = threading.Barrier(2, timeout=10.0)
        errors = []

        def writer(first, second):
            session = Session(db)
            try:
                session.execute(f'Modify {first}(credits := 1 + credits)'
                                if first == "course" else
                                f'Modify {first}(name := "X")'
                                ' Where dept-nbr = 100')
                barrier.wait()
                session.execute(f'Modify {second}(credits := 1 + credits)'
                                if second == "course" else
                                f'Modify {second}(name := "Y")'
                                ' Where dept-nbr = 100')
                session.commit()
            except DeadlockError:
                session.abort()   # whole-transaction victim: caller retries
            except Exception as exc:   # pragma: no cover - diagnostic aid
                errors.append(exc)
                session.abort()

        threads = [
            threading.Thread(target=writer, args=("course", "department")),
            threading.Thread(target=writer, args=("department", "course")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert db.perf.deadlocks >= 1

    def test_fresh_statement_deadlock_autoretries(self, db):
        """When the deadlocked statement is the transaction's first, the
        session replays it internally — the caller never sees the error."""
        results = []

        def writer(sid):
            session = Session(db)
            for _ in range(4):
                session.execute('Modify course(credits := 1 + credits)'
                                ' Where course-no = 1')
                session.commit()
            results.append(sid)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert sorted(results) == [0, 1, 2]
        # credits is range-typed 1..15: 3 + 3*4 = 15 exactly
        assert db.query("From course Retrieve credits").scalar() == 15

    def test_session_context_manager(self, db):
        with Session(db) as session:
            session.execute('Modify course(credits := 8) Where course-no = 1')
        assert db.query("From course Retrieve credits").scalar() == 8
        with pytest.raises(ValueError):
            with Session(db) as session:
                session.execute('Modify course(credits := 4)'
                                ' Where course-no = 1')
                raise ValueError("boom")
        assert db.query("From course Retrieve credits").scalar() == 8


class TestMultiGranularity:
    """The intention-lock matrix and entity-granular (two-level) keys."""

    def test_intention_modes_compatible(self):
        locks = LockManager()
        assert locks.acquire(1, "course", "IS")[0] == "new"
        assert locks.acquire(2, "course", "IX")[0] == "new"
        assert locks.acquire(3, "course", "IX")[0] == "new"
        assert locks.acquire(4, "course", "IS")[0] == "new"

    def test_is_compatible_with_shared_but_ix_is_not(self):
        locks = LockManager()
        locks.acquire(1, "course", "S")
        assert locks.acquire(2, "course", "IS")[0] == "new"
        with pytest.raises(LockConflict):
            locks.acquire(3, "course", "IX", timeout=0)

    def test_class_x_excludes_every_intention_mode(self):
        locks = LockManager()
        locks.acquire(1, "course", "X")
        for mode in ("IS", "IX", "S", "SIX", "X"):
            with pytest.raises(LockConflict):
                locks.acquire(2, "course", mode, timeout=0)

    def test_six_admits_only_is(self):
        locks = LockManager()
        locks.acquire(1, "course", "SIX")
        assert locks.acquire(2, "course", "IS")[0] == "new"
        for mode in ("IX", "S", "SIX", "X"):
            with pytest.raises(LockConflict):
                locks.acquire(3, "course", mode, timeout=0)

    def test_disjoint_entity_keys_do_not_conflict(self):
        locks = LockManager()
        locks.acquire(1, "course", "IX")
        locks.acquire(1, ("course", 7), "X")
        locks.acquire(2, "course", "IX")
        assert locks.acquire(2, ("course", 8), "X")[0] == "new"
        with pytest.raises(LockConflict):
            locks.acquire(2, ("course", 7), "X", timeout=0)

    def test_ix_and_s_combine_to_six(self):
        locks = LockManager()
        assert locks.acquire(1, "course", "IX") == ("new", None)
        assert locks.acquire(1, "course", "S") == ("upgraded", "IX")
        assert locks.holdings(1)["course"] == "shared-intention-exclusive"
        # SIX covers everything but X: further IS/IX/S are "held".
        assert locks.acquire(1, "course", "IX")[0] == "held"
        assert locks.acquire(1, "course", "S")[0] == "held"

    def test_entity_lock_upgrade_and_rollback_demotion(self):
        locks = LockManager()
        key = ("course", 3)
        locks.acquire(1, "course", "IX")
        assert locks.acquire(1, key, "S") == ("new", None)
        grant = locks.acquire(1, key, "X")
        assert grant == ("upgraded", "S")
        assert locks.entity_holdings(1) == {key: "exclusive"}
        # Partial-statement rollback with the 3-tuple record demotes the
        # upgrade back to exactly the mode held before.
        locks.rollback(1, [(key, *grant)])
        assert locks.entity_holdings(1) == {key: "shared"}

    def test_victim_determinism_on_entity_keys(self):
        """The same two-entity deadlock always dooms the youngest
        session when the cycle runs through (class, surrogate) keys."""
        for _ in range(5):
            locks = LockManager()
            key_a, key_b = ("account", 1), ("account", 2)
            locks.acquire(1, "account", "IX")
            locks.acquire(2, "account", "IX")
            locks.acquire(1, key_a, "X")
            locks.acquire(2, key_b, "X")
            victims = []

            def contend(sid, want):
                try:
                    locks.acquire(sid, want, "X", timeout=30.0)
                except DeadlockError:
                    victims.append(sid)
                finally:
                    locks.release_all(sid)

            threads = [threading.Thread(target=contend, args=(1, key_b)),
                       threading.Thread(target=contend, args=(2, key_a))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert victims == [2]

    def test_release_all_prunes_entity_keys(self):
        """S3: the holder map stays bounded by live locks — hammering
        entity keys must not leave one empty husk per key ever locked."""
        locks = LockManager()
        for round_nbr in range(100):
            locks.acquire(1, "account", "IX")
            for surrogate in range(8):
                locks.acquire(1, ("account", round_nbr * 8 + surrogate), "X")
            locks.release_all(1)
            assert locks.statistics()["tracked_keys"] == 0
        assert locks._holders == {}

    def test_rollback_prunes_entity_keys(self):
        locks = LockManager()
        acquired = [("account", *locks.acquire(1, "account", "IX")),
                    (("account", 5), *locks.acquire(1, ("account", 5), "X"))]
        locks.rollback(1, acquired)
        assert locks.statistics()["tracked_keys"] == 0
        assert locks._holders == {}

    def test_statistics_count_entity_exclusives(self):
        locks = LockManager()
        locks.acquire(1, "account", "IX")
        locks.acquire(1, ("account", 1), "X")
        locks.acquire(2, "account", "IS")
        stats = locks.statistics()
        assert stats["entity_exclusive_held"] == 1
        assert stats["intention_held"] == 1
        assert stats["exclusive_held"] == 0
        assert stats["tracked_keys"] == 2


class TestEntityGranularSessions:
    """End-to-end entity-granularity behavior through Session."""

    def test_disjoint_entity_updates_overlap(self, db):
        db.execute('Insert course(course-no := 2, title := "U", credits := 1)')
        alice = Session(db)
        bob = Session(db)
        alice.execute('Modify course(credits := 7) Where course-no = 1')
        # Same class, different entity: bob is NOT blocked even fail-fast.
        bob.execute('Modify course(credits := 8) Where course-no = 2',
                    timeout=0)
        assert alice.holdings() == {"course": "intention-exclusive"}
        assert bob.holdings() == {"course": "intention-exclusive"}
        assert len(alice.entity_holdings()) == 1
        assert len(bob.entity_holdings()) == 1
        alice.commit()
        bob.commit()
        assert db.query('From course Retrieve credits'
                        ' Where course-no = 1').scalar() == 7
        assert db.query('From course Retrieve credits'
                        ' Where course-no = 2').scalar() == 8

    def test_same_entity_updates_conflict(self, db):
        alice = Session(db)
        bob = Session(db)
        alice.execute('Modify course(credits := 7) Where course-no = 1')
        with pytest.raises(LockConflict):
            bob.execute('Modify course(credits := 8) Where course-no = 1',
                        timeout=0)
        alice.commit()
        bob.commit()

    def test_insert_takes_class_exclusive(self, db):
        """Inserts are phantoms by construction: class-level X, which
        the entity writer's IX makes conflicting in both directions."""
        alice = Session(db)
        bob = Session(db)
        alice.execute('Insert course(course-no := 3, title := "V",'
                      ' credits := 2)')
        assert alice.holdings()["course"] == "exclusive"
        with pytest.raises(LockConflict):
            bob.execute('Modify course(credits := 8) Where course-no = 1',
                        timeout=0)
        alice.commit()
        bob.commit()

    def test_unqualified_modify_takes_class_exclusive(self, db):
        alice = Session(db)
        alice.execute('Modify course(credits := 6)')
        assert alice.holdings() == {"course": "exclusive"}
        assert alice.entity_holdings() == {}
        alice.commit()

    def test_entity_locks_off_restores_class_granularity(self, db):
        alice = Session(db, entity_locks=False)
        bob = Session(db, entity_locks=False)
        db.execute('Insert course(course-no := 2, title := "U", credits := 1)')
        alice.execute('Modify course(credits := 7) Where course-no = 1')
        assert alice.holdings() == {"course": "exclusive"}
        with pytest.raises(LockConflict):
            bob.execute('Modify course(credits := 8) Where course-no = 2',
                        timeout=0)
        alice.commit()
        bob.commit()

    def test_eva_assignment_falls_back_to_class_locks(self, db):
        """A Modify that writes an EVA touches the partner class too:
        it must keep the class-exclusive fallback on both sides."""
        alice = Session(db)
        alice.execute('Insert student(soc-sec-no := 9)')
        alice.commit()
        alice.execute('Modify student(courses-enrolled := course'
                      ' with (course-no = 1)) Where soc-sec-no = 9')
        holdings = alice.holdings()
        assert holdings["student"] == "exclusive"
        assert holdings["course"] == "exclusive"
        assert alice.entity_holdings() == {}
        alice.commit()


class TestSatelliteRegressions:
    """S1/S2: reads outside the write latch, racy lazy initialisation."""

    def test_shared_lock_reads_overlap_in_time(self, db):
        """S1: two non-MVCC shared-lock Retrieves must run concurrently
        — the read path takes no store-wide latch that would serialize
        their statement bodies."""
        intervals = []
        intervals_lock = threading.Lock()
        original = db._run_retrieve

        def slow_retrieve(query, **kwargs):
            start = time.monotonic()
            time.sleep(0.2)
            result = original(query, **kwargs)
            with intervals_lock:
                intervals.append((start, time.monotonic()))
            return result

        db._run_retrieve = slow_retrieve
        try:
            errors = []

            def read():
                try:
                    session = Session(db, mvcc=False)
                    assert session.query(
                        "From course Retrieve title").rows
                    session.commit()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            db._run_retrieve = original
        assert errors == []
        assert len(intervals) == 2
        # Overlap: each started before the other finished.  A statement-
        # scope mutex would have made them strictly sequential.
        latest_start = max(start for start, _ in intervals)
        earliest_end = min(end for _, end in intervals)
        assert latest_start < earliest_end

    def test_concurrent_first_sessions_share_one_lock_manager(self):
        """S2: Database wires its LockManager and session-id counter
        eagerly, so concurrent first Sessions agree on ONE manager and
        mint unique session ids."""
        for _ in range(20):
            database = Database(UNIVERSITY_DDL)
            managers = []
            ids = []
            state_lock = threading.Lock()
            barrier = threading.Barrier(8, timeout=10.0)

            def construct():
                barrier.wait()
                session = Session(database, mvcc=False)
                with state_lock:
                    managers.append(session.locks)
                    ids.append(session.session_id)

            threads = [threading.Thread(target=construct)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert len(managers) == 8
            assert all(m is managers[0] for m in managers)
            assert managers[0] is database._lock_manager
            assert sorted(ids) == list(range(1, 9))


@pytest.mark.lockdep
class TestLockdepIntegration:
    """Regressions for 2PL behavior under runtime lock-order checking
    (lockdep is on by default under pytest; these assert it stays
    silent and does not disturb the fail-fast path)."""

    def test_lock_timeout_zero_fail_fast_under_lockdep(self, db):
        from repro.engine import lockdep
        writer = Session(db)
        failfast = Session(db, lock_timeout=0)
        writer.execute('Modify course(credits := 4) Where course-no = 1')
        started = time.monotonic()
        with pytest.raises(LockConflict) as exc:
            failfast.execute(
                'Modify course(credits := 5) Where course-no = 1')
        elapsed = time.monotonic() - started
        # Fail-fast means *immediately*: no wait slice, no deadlock
        # search, and definitely not the 10s default timeout.
        assert not isinstance(exc.value, (LockTimeout, DeadlockError))
        assert elapsed < 0.5
        writer.commit()
        failfast.execute('Modify course(credits := 5) Where course-no = 1')
        failfast.commit()
        assert db.query("From course Retrieve credits").scalar() == 5
        assert lockdep.violations() == []

    def test_wait_slice_predicate_rechecks_before_grant(self, db):
        """The SIM304 fix: the condition wait re-evaluates its predicate
        under the lock, so a blocked writer wakes into a grant (not a
        stale-blockers loop) as soon as the holder commits."""
        from repro.engine import lockdep
        writer = Session(db)
        blocked = Session(db, lock_timeout=5.0)
        writer.execute('Modify course(credits := 6) Where course-no = 1')
        outcome = {}

        def contend():
            blocked.execute(
                'Modify course(credits := 7) Where course-no = 1')
            outcome["done"] = time.monotonic()
            blocked.commit()
        thread = threading.Thread(target=contend)
        thread.start()
        time.sleep(0.15)            # let it park in the wait
        released = time.monotonic()
        writer.commit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # Granted promptly after release: within a couple of wait
        # slices, not the full timeout.
        assert outcome["done"] - released < 1.0
        assert db.query("From course Retrieve credits").scalar() == 7
        assert lockdep.violations() == []


class TestOneTransactionPath:
    """A ``Database`` statement is a statement of the database's default
    session: it takes the same locks as any other session's, and its
    Retrieves read committed state beside another session's open
    writes."""

    def test_database_write_waits_for_a_session_and_survives_its_abort(
            self, db):
        session = Session(db)
        session.execute('Modify course(credits := 9) Where course-no = 1')
        failures = []

        def database_write():
            try:
                db.execute('Modify course(credits := 7) Where course-no = 1')
            except BaseException as exc:    # surfaced below
                failures.append(exc)

        thread = threading.Thread(target=database_write)
        thread.start()
        # Parked on the session's entity lock: a state, not a sleep.
        deadline = time.monotonic() + 10.0
        while session.locks.statistics()["waiting_now"] != 1:
            assert thread.is_alive() and time.monotonic() < deadline, \
                "the database write never waited for the session's lock"
        session.abort()
        thread.join(10.0)
        assert not thread.is_alive()
        assert failures == []
        assert db.query("From course Retrieve credits").scalar() == 7
        assert Session(db).query(
            "From course Retrieve credits").scalar() == 7

    def test_database_query_beside_an_open_writer_reads_committed(self, db):
        session = Session(db)
        session.execute('Modify course(credits := 9) Where course-no = 1')
        waits = db.perf.lock_waits
        assert db.query("From course Retrieve credits").scalar() == 3
        assert db.perf.lock_waits == waits
        assert session.query("From course Retrieve credits").scalar() == 9
        session.commit()
        assert db.query("From course Retrieve credits").scalar() == 9

    def test_a_crash_drops_the_default_sessions_transaction_and_locks(
            self, db):
        db.begin()
        db.execute('Modify course(credits := 9) Where course-no = 1')
        db.simulate_crash()
        assert db.statistics()["locks"]["tracked_keys"] == 0
        other = Session(db, lock_timeout=0)     # fail-fast: no lock left
        other.execute('Modify course(credits := 8) Where course-no = 1')
        other.commit()
        db.begin()                              # none is open any more
        db.abort()
        assert db.query("From course Retrieve credits").scalar() == 8
