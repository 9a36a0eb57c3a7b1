"""Write-ahead logging and crash-recovery tests.

The substrate provides the durability DMSII gave SIM (paper §1): commit
forces the log and data pages; in-flight work is undone from before-
images; all volatile state (buffer pool, indexes, counters) rebuilds from
the disk image.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.interfaces.server import SimClient
from repro.workloads import UNIVERSITY_DDL, build_university


@pytest.fixture()
def db():
    return Database(UNIVERSITY_DDL, constraint_mode="off")


class TestDurability:
    def test_committed_data_survives_crash(self, db):
        with db.transaction():
            db.execute('Insert person(name := "Durable", soc-sec-no := 1)')
        db.simulate_crash()
        assert db.query("From person Retrieve name").rows == [("Durable",)]

    def test_inflight_transaction_undone(self, db):
        with db.transaction():
            db.execute('Insert person(name := "Keep", soc-sec-no := 1)')
        db.begin()
        db.execute('Insert person(name := "Lose", soc-sec-no := 2)')
        db.store.pool.flush()   # steal: uncommitted pages reach disk
        db.simulate_crash()
        assert db.query("From person Retrieve name").rows == [("Keep",)]

    def test_recovery_undoes_the_losers_slots_and_nothing_else(self, db):
        with db.transaction():
            db.execute('Insert person(name := "Keep", soc-sec-no := 1)')
        assert db.simulate_crash()["undone_slots"] == 0
        db.begin()
        for k in range(5):
            db.execute(f'Insert person(soc-sec-no := {k + 2})')
        db.store.pool.flush()
        assert db.simulate_crash()["undone_slots"] >= 5
        assert db.store.class_count("person") == 1

    def test_unflushed_inflight_also_gone(self, db):
        db.begin()
        db.execute('Insert person(name := "Volatile", soc-sec-no := 1)')
        db.simulate_crash()
        assert db.query("From person Retrieve name").rows == []

    def test_update_before_images_restored(self, db):
        with db.transaction():
            db.execute('Insert course(course-no := 1, title := "T",'
                       ' credits := 3)')
        db.begin()
        db.execute('Modify course(credits := 9) Where course-no = 1')
        db.store.pool.flush()
        db.simulate_crash()
        assert db.query("From course Retrieve credits").scalar() == 3

    def test_deleted_entity_restored_on_crash(self, db):
        with db.transaction():
            db.execute('Insert person(name := "Phoenix", soc-sec-no := 1)')
        db.begin()
        db.execute('Delete person Where soc-sec-no = 1')
        db.store.pool.flush()
        db.simulate_crash()
        assert db.query("From person Retrieve name").rows == [("Phoenix",)]

    def test_aborted_transaction_stays_aborted(self, db):
        with db.transaction():
            db.execute('Insert person(name := "Base", soc-sec-no := 1)')
        db.begin()
        db.execute('Insert person(name := "Undone", soc-sec-no := 2)')
        db.abort()
        db.store.pool.flush()
        db.simulate_crash()
        assert db.query("From person Retrieve name").rows == [("Base",)]


class TestRebuild:
    def test_indexes_rebuilt(self, db):
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 42)')
        db.simulate_crash()
        # unique index works (lookup + duplicate rejection)
        assert db.query("From person Retrieve name"
                        " Where soc-sec-no = 42").rows == [("A",)]
        from repro.errors import UniquenessViolation
        with pytest.raises(UniquenessViolation):
            db.execute('Insert person(name := "B", soc-sec-no := 42)')

    def test_eva_indexes_rebuilt_both_directions(self, db):
        with db.transaction():
            db.execute('Insert instructor(name := "I", soc-sec-no := 1,'
                       ' employee-nbr := 1001)')
            db.execute('Insert student(name := "S", soc-sec-no := 2,'
                       ' advisor := instructor with (name = "I"))')
        db.simulate_crash()
        assert db.query('From student Retrieve name of advisor'
                        ).scalar() == "I"
        assert db.query('From instructor Retrieve count(advisees) of'
                        ' instructor').scalar() == 1

    def test_surrogate_generator_advances_past_recovered_data(self, db):
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.simulate_crash()
        with db.transaction():
            db.execute('Insert person(name := "B", soc-sec-no := 2)')
        surrogates = [s for s in db.store.scan_class("person")]
        assert len(surrogates) == len(set(surrogates)) == 2

    def test_mv_dva_values_and_sequence_rebuilt(self):
        db = Database("""
            Class Doc ( k: integer unique required;
                        tags: string[8] mv );
        """, constraint_mode="off")
        with db.transaction():
            db.execute('Insert doc(k := 1)')
            db.execute('Modify doc(tags := include "a") Where k = 1')
            db.execute('Modify doc(tags := include "b") Where k = 1')
        db.simulate_crash()
        with db.transaction():
            db.execute('Modify doc(tags := include "c") Where k = 1')
        tags = db.query("From doc Retrieve tags Order By tags").column(0)
        assert tags == ["a", "b", "c"]

    def test_spouse_reflexive_eva_recovered(self, db):
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
            db.execute('Insert person(name := "B", soc-sec-no := 2)')
            db.execute('Modify person(spouse := person with (name = "B"))'
                       ' Where name = "A"')
        db.simulate_crash()
        rows = db.query("From person Retrieve name, name of spouse"
                        " Order By name").rows
        assert rows == [("A", "B"), ("B", "A")]

    def test_repeated_crashes(self, db):
        for round_no in range(3):
            with db.transaction():
                db.execute(f'Insert person(name := "P{round_no}",'
                           f' soc-sec-no := {round_no + 1})')
            db.simulate_crash()
        assert len(db.query("From person Retrieve name")) == 3

    def test_populated_university_survives(self):
        db = build_university(students=15, instructors=5, courses=10,
                              seed=3)
        before = db.query("From student Retrieve name,"
                          " count(courses-enrolled) of student").rows
        db.store.pool.flush()      # mapper-level population is autocommit
        db.simulate_crash()
        after = db.query("From student Retrieve name,"
                         " count(courses-enrolled) of student").rows
        assert before == after


class TestWalMechanics:
    def test_commit_forces_log(self, db):
        forces_before = db.perf.wal_forces
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
        assert db.perf.wal_forces > forces_before

    def test_wal_rule_on_eviction(self):
        from repro.mapper import MapperStore, PhysicalDesign
        from repro import parse_ddl
        schema = parse_ddl(UNIVERSITY_DDL)
        design = PhysicalDesign(schema, pool_capacity=1)
        store = MapperStore(schema, design.finalize())
        transactions = store.transactions
        txn = transactions.begin_detached()
        with transactions.activate(txn):
            for k in range(40):   # force evictions across several files
                store.insert_entity("person", {"soc-sec-no": k})
            # Every data-block write was preceded by a log force: the
            # durable log prefix covers every record whose page could be
            # on disk.
            assert store.perf.wal_forces > 0
            transactions.commit_detached(txn)

    def test_log_truncated_after_recovery(self, db):
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.simulate_crash()
        assert len(db.store.wal) == 0

    def test_recovery_checkpoints(self, db):
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
        stats = db.simulate_crash()
        assert db.perf.wal_checkpoints == 1
        assert stats["checkpoint_lsn"] == db.store.wal.last_checkpoint_lsn


class TestAbortEndsTheTransaction:
    """An abort flushes its compensations, then ends with an ABORT
    record: recovery leaves an aborted transaction alone once that
    record is durable, and undoes it as a loser until then."""

    SALARY = "From instructor Retrieve salary Where employee-nbr = 1001"

    def test_committed_write_after_an_abort_survives_a_crash(self):
        db = build_university(seed=7)
        aborted = db.session()
        aborted.execute(
            "Modify instructor(salary := 1) Where employee-nbr = 1001")
        aborted.abort()
        writer = db.session()
        writer.execute(
            "Modify instructor(salary := 22222) Where employee-nbr = 1001")
        writer.commit()
        db.simulate_crash()
        # Without an end record the aborted update stays a loser, and
        # its before-image overwrites the later committed salary.
        assert db.query(self.SALARY).scalar() == 22222
        assert db.check().ok

    def test_stolen_page_whose_compensation_never_landed_is_undone(self):
        from repro.errors import InjectedCrash
        db = build_university(seed=7)
        db.store.pool.flush()
        before = db.query(self.SALARY).scalar()
        aborted = db.session()
        aborted.execute(
            "Modify instructor(salary := 1) Where employee-nbr = 1001")
        db.store.pool.flush()   # steal: the uncommitted salary is on disk
        injector = db.install_faults(seed=3)
        # The abort's flush is its first write: the machine dies there,
        # so neither the compensation nor the ABORT record gets out.
        injector.crash_after_writes(1)
        with pytest.raises(InjectedCrash):
            aborted.abort()
        db.simulate_crash()
        assert db.query(self.SALARY).scalar() == before
        assert db.check().ok


class TestACrashEndsEverySession:
    """A crash drops every open transaction, so every session, server
    sessions included, forgets its own and frees its locks: nothing
    waits on a dead transaction, and aborting one replays nothing."""

    def test_sessions_open_at_a_crash_hold_nothing_after_it(self):
        db = build_university(seed=7)
        db.store.pool.flush()
        salary = ("From instructor Retrieve salary"
                  " Where employee-nbr = {}").format
        recovered = db.query(salary(1001)).scalar()
        stale = db.session(lock_timeout=0)
        stale.execute(
            "Modify instructor(salary := 11111) Where employee-nbr = 1001")
        with db.serve() as server, SimClient(*server.address) as client:
            client.execute("Modify instructor(salary := 11112)"
                           " Where employee-nbr = 1002", timeout=0)
            db.simulate_crash()
            assert db.statistics()["locks"]["tracked_keys"] == 0
            assert not stale.in_transaction()
            assert stale.entity_holdings() == {}
            writer = db.session(lock_timeout=0)
            for employee in (1001, 1002):
                writer.execute(f"Modify instructor(salary := 22222)"
                               f" Where employee-nbr = {employee}")
            writer.commit()
            # Replaying the pre-crash undos would restore the old salaries
            # over the committed ones.
            stale.abort()
            client.abort()
            client.execute("Modify instructor(salary := 33333)"
                           " Where employee-nbr = 1003", timeout=0)
            client.commit()
        assert recovered == 32400
        assert [db.query(salary(e)).scalar() for e in (1001, 1002)] \
            == [22222, 22222]
        assert db.query(salary(1003)).scalar() == 33333
        assert db.check().ok


class TestATransactionThatCannotEndStopsTheStore:
    """A commit whose flush gives up after the in-memory commit point,
    or an abort that cannot finish, leaves a transaction whose writes
    memory shows but no end record closes: recovery will undo it.  So
    the store fails: every later statement, begin or commit, on any
    session and through the server, is refused until recovery, and no
    later commit can be undone over."""

    SALARY = "From instructor Retrieve salary Where employee-nbr = 1001"
    WRITE = "Modify instructor(salary := 22222) Where employee-nbr = 1001"

    def _with_a_doomed_end(self):
        db = build_university(seed=7)
        db.store.pool.flush()
        before = db.query(self.SALARY).scalar()
        writer = db.session()
        writer.execute(
            "Modify instructor(salary := 11111) Where employee-nbr = 1001")
        # Exhausts the retry policy on the end's first page write.
        db.install_faults(seed=3).fail_write(1, "transient", repeat=5)
        return db, writer, before

    def _refused_until_recovery(self, db, before):
        from repro.errors import StoreFailedError
        from repro.interfaces.server import ServerError, SimClient
        other = db.session()
        for refused in (lambda: db.execute(self.WRITE),
                        lambda: db.query(self.SALARY),
                        lambda: other.execute(self.SALARY),
                        other.begin, other.commit):
            with pytest.raises(StoreFailedError):
                refused()
        with db.serve() as server, SimClient(*server.address) as client:
            with pytest.raises(ServerError) as refused:
                client.execute(self.WRITE)
            assert refused.value.remote_type == "StoreFailedError"
        db.simulate_crash()
        assert db.query(self.SALARY).scalar() == before
        db.execute(self.WRITE)
        db.simulate_crash()
        assert db.query(self.SALARY).scalar() == 22222
        assert db.check().ok

    def test_a_commit_whose_flush_gives_up(self):
        from repro.errors import TransientStorageError
        db, writer, before = self._with_a_doomed_end()
        with pytest.raises(TransientStorageError):
            writer.commit()
        self._refused_until_recovery(db, before)

    def test_an_abort_whose_flush_gives_up(self):
        from repro.errors import TransientStorageError
        db, writer, before = self._with_a_doomed_end()
        with pytest.raises(TransientStorageError):
            writer.abort()
        self._refused_until_recovery(db, before)


class TestRecoveryIdempotence:
    """Recovery must be re-runnable: a crash *during* the undo pass
    followed by a fresh recovery converges to the same disk image as an
    uninterrupted recovery (undo applies absolute before-images in a
    fixed order from the durable log, and appends nothing to it)."""

    SCRIPT = [
        'Insert person(name := "W{0}", soc-sec-no := {1})'.format(i, i + 1)
        for i in range(6)
    ]

    def _crashed_db(self):
        """A database with committed work plus a flushed multi-record
        in-flight transaction — several loser slots for undo to restore."""
        from repro.errors import InjectedCrash
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        for statement in self.SCRIPT:
            db.execute(statement)
        db.begin()
        for i in range(4):
            db.execute(f'Insert person(name := "L{i}",'
                       f' soc-sec-no := {100 + i})')
        db.store.pool.flush()   # steal: loser pages reach the platter
        injector = db.install_faults(seed=41)
        injector.crash_after_writes(1)
        db.execute('Insert person(name := "LX", soc-sec-no := 999)')
        with pytest.raises(InjectedCrash):
            db.store.pool.flush()   # the machine dies on this steal
        return db, injector

    def test_crash_during_recovery_converges(self):
        from repro.errors import InjectedCrash
        # reference: one uninterrupted recovery
        db_a, _ = self._crashed_db()
        db_a.simulate_crash()
        reference = db_a.store.disk.fingerprint()
        reference_rows = sorted(
            db_a.query("From person Retrieve name, soc-sec-no").rows)

        # victim: recovery itself crashes mid-undo, then reruns
        db_b, injector = self._crashed_db()
        assert len(db_b.store.wal.loser_updates()) > 1
        injector.crash_after_writes(1)   # fires inside undo_losers
        with pytest.raises(InjectedCrash):
            db_b.simulate_crash()
        db_b.simulate_crash()            # second, uninterrupted pass
        assert db_b.store.disk.fingerprint() == reference
        assert sorted(db_b.query(
            "From person Retrieve name, soc-sec-no").rows) == reference_rows
        assert db_b.check().ok

    def test_repeated_interrupted_recoveries_converge(self):
        from repro.errors import InjectedCrash
        db, injector = self._crashed_db()
        losers = len(db.store.wal.loser_updates())
        assert losers > 2
        # crash recovery at successively later points; each rerun starts
        # from the same durable log and absolute before-images
        for crash_at in range(1, losers):
            injector.crash_after_writes(crash_at)
            with pytest.raises(InjectedCrash):
                db.simulate_crash()
        db.simulate_crash()
        assert db.check().ok
        names = {name for name, _ in
                 db.query("From person Retrieve name, soc-sec-no").rows}
        assert names == {f"W{i}" for i in range(6)}

    def test_rebuild_metadata_rerun_is_noop(self, db):
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.simulate_crash()
        writes_before = db.store.pool.perf.physical_writes
        for record_file in db.store._files.values():
            record_file.rebuild_metadata(db.store.disk)
        db.store.pool.flush()
        assert db.store.pool.perf.physical_writes == writes_before


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 5)),
                min_size=1, max_size=12),
       st.booleans())
def test_crash_recovery_matches_committed_model(operations, flush_mid):
    """Property: after any committed prefix + an arbitrary in-flight
    suffix + crash, the database equals the committed prefix exactly."""
    db = Database(UNIVERSITY_DDL, constraint_mode="off")
    committed = {}
    ssn = [0]

    def apply(db_apply, commit_ops):
        for insert, key in commit_ops:
            if insert:
                ssn[0] += 1
                db_apply.execute(
                    f'Insert person(name := "p{key}",'
                    f' soc-sec-no := {ssn[0]})')
                committed[ssn[0]] = f"p{key}"

    half = len(operations) // 2
    with db.transaction():
        apply(db, operations[:half])
    db.begin()
    for offset, (insert, key) in enumerate(operations[half:]):
        if insert:
            db.execute(f'Insert person(name := "lost{key}",'
                       f' soc-sec-no := {9000 + offset})')
    if flush_mid:
        db.store.pool.flush()
    db.simulate_crash()
    rows = dict((s, n) for n, s in
                db.query("From person Retrieve name, soc-sec-no").rows)
    assert rows == {s: n for s, n in committed.items()}
