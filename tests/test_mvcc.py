"""MVCC snapshot isolation: Retrieves over versioned records.

Readers pin a commit epoch and never block on (or take) class locks;
writers stage logical pre-images that commit atomically at an epoch
bump.  These tests drive the full stack — ``Session`` snapshot
Retrieves over ``MapperStore`` version chains — plus the
``VersionManager`` GC behaviour directly.
"""

import threading
import time

import pytest

from repro import Database
from repro.engine.sessions import Session
from repro.mapper.versions import VersionManager
from repro.workloads import UNIVERSITY_DDL


@pytest.fixture()
def db():
    database = Database(UNIVERSITY_DDL, constraint_mode="off")
    database.execute('Insert department(dept-nbr := 100, name := "Physics")')
    database.execute('Insert course(course-no := 101, title := "Algebra",'
                     ' credits := 3)')
    database.execute('Insert course(course-no := 102, title := "Calculus",'
                     ' credits := 4)')
    database.execute('Insert student(name := "John Doe",'
                     ' soc-sec-no := 456887766,'
                     ' courses-enrolled := course with (title = "Algebra"))')
    return database


def credits_of(session, title):
    return session.query(
        f'From course Retrieve credits Where title = "{title}"').scalar()


class TestSnapshotReads:
    def test_reader_sees_preimage_of_open_writer(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        # The writer's transaction is open: its new value is invisible.
        assert credits_of(reader, "Algebra") == 3
        writer.commit()
        assert credits_of(reader, "Algebra") == 9

    def test_reader_takes_no_locks_and_never_blocks(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        # Qualified single-class Modify locks at entity granularity now:
        # IX on the class, X on the one matching entity.
        assert writer.holdings() == {"course": "intention-exclusive"}
        assert list(writer.entity_holdings().values()) == ["exclusive"]
        started = time.monotonic()
        assert credits_of(reader, "Algebra") == 3
        assert time.monotonic() - started < 2.0
        assert reader.holdings() == {}
        writer.abort()

    def test_read_your_own_writes(self, db):
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        assert credits_of(writer, "Algebra") == 9
        writer.commit()

    def test_uncommitted_insert_invisible_to_others(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Insert course(course-no := 103, title := "Logic",'
                       ' credits := 2)')
        assert len(reader.query("From course Retrieve title").rows) == 2
        assert len(writer.query("From course Retrieve title").rows) == 3
        writer.commit()
        assert len(reader.query("From course Retrieve title").rows) == 3

    def test_uncommitted_delete_still_visible_to_others(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Delete course Where title = "Calculus"')
        rows = reader.query("From course Retrieve title").rows
        assert sorted(r[0] for r in rows) == ["Algebra", "Calculus"]
        assert credits_of(reader, "Calculus") == 4
        writer.commit()
        rows = reader.query("From course Retrieve title").rows
        assert [r[0] for r in rows] == ["Algebra"]

    def test_aborted_writes_never_visible(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.execute('Insert course(course-no := 104, title := "Sets",'
                       ' credits := 1)')
        writer.abort()
        assert credits_of(reader, "Algebra") == 3
        assert credits_of(Session(db), "Algebra") == 3
        assert len(reader.query("From course Retrieve title").rows) == 2

    def test_mv_eva_fanout_snapshot(self, db):
        """Include on an MV EVA stages fanout pre-images on both sides:
        a concurrent reader sees neither the new membership nor the new
        inverse until commit."""
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify student(courses-enrolled := include course'
                       ' with (title = "Calculus"))'
                       ' Where name = "John Doe"')
        assert reader.query(
            'From student Retrieve count(courses-enrolled) of student'
            ' Where name = "John Doe"').scalar() == 1
        assert reader.query(
            'From course Retrieve count(students-enrolled) of course'
            ' Where title = "Calculus"').scalar() == 0
        # The writer sees its own fanout.
        assert writer.query(
            'From student Retrieve count(courses-enrolled) of student'
            ' Where name = "John Doe"').scalar() == 2
        writer.commit()
        assert reader.query(
            'From course Retrieve count(students-enrolled) of course'
            ' Where title = "Calculus"').scalar() == 1

    def test_snapshot_pins_epoch_across_concurrent_commit(self, db):
        """A snapshot opened before a commit keeps reading the old epoch
        even after the commit lands."""
        store = db.store
        query = db.compile('From course Retrieve credits'
                           ' Where title = "Algebra"')
        snap = store.begin_snapshot(None)
        try:
            writer = Session(db)
            writer.execute('Modify course(credits := 9)'
                           ' Where title = "Algebra"')
            writer.commit()
            with store.snapshot_scope(snap):
                result = db._run_retrieve(query, executor=db.executor)
            assert result.scalar() == 3
        finally:
            store.end_snapshot(snap)
        assert Session(db).query('From course Retrieve credits'
                                 ' Where title = "Algebra"').scalar() == 9


class TestEstimatesNeverScan:
    def test_planning_beside_an_open_writer_scans_nothing(self, monkeypatch):
        """The cost model reads latest O(1) index counts and the point
        read itself keeps its index (probe + changed records): a
        snapshot point read beside another session's open write scans
        no class at all, whether its plan is being compiled (cold) or
        reused (warm).  It was 8 scans per statement when every
        estimate paid one, and 1 while ``find_by_dva`` fell back."""
        from repro.mapper.store import MapperStore
        from repro.workloads import build_university
        db = build_university(departments=3, instructors=6, students=14,
                              courses=9, seed=11)
        text = ("From instructor Retrieve name, salary, name of "
                "assigned-department Where employee-nbr = {}")
        before = {key: Session(db).query(text.format(key)).rows
                  for key in (1001, 1002)}
        scans = []
        real_scan = MapperStore.scan_class

        def counting_scan(self, class_name):
            scans.append(class_name)
            return real_scan(self, class_name)
        monkeypatch.setattr(MapperStore, "scan_class", counting_scan)

        writer, reader = Session(db), Session(db)
        writer.execute("Modify instructor(salary := 1)"
                       " Where employee-nbr = 1003")
        db.plan_cache.clear()
        for key, counter in ((1001, "plan_cache_misses"),
                             (1002, "plan_cache_hits")):
            del scans[:]
            count = db.perf.as_dict()[counter]
            assert reader.query(text.format(key)).rows == before[key]
            assert db.perf.as_dict()[counter] == count + 1
            assert scans == [], counter
        assert db.perf.snapshot_find_overlays >= 2
        assert db.perf.snapshot_find_scans == 0
        writer.abort()


class TestVersionManager:
    def test_commit_bumps_epoch_once_per_transaction(self, db):
        store = db.store
        before = store.versions.statistics()["epoch"]
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.execute('Modify course(credits := 8) Where title = "Calculus"')
        writer.commit()
        after = store.versions.statistics()["epoch"]
        assert after == before + 1

    def test_chains_pruned_when_no_snapshot_is_active(self, db):
        store = db.store
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.commit()
        stats = store.versions.statistics()
        assert stats["active_snapshots"] == 0
        assert stats["chained_keys"] == 0

    def test_chains_retained_while_snapshot_is_pinned(self, db):
        store = db.store
        snap = store.begin_snapshot(None)
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.commit()
        try:
            assert store.versions.statistics()["chained_keys"] > 0
            with store.snapshot_scope(snap):
                pass
        finally:
            store.end_snapshot(snap)
        # Releasing the last snapshot lets the next commit GC the chain.
        writer.execute('Modify course(credits := 7) Where title = "Algebra"')
        writer.commit()
        assert store.versions.statistics()["chained_keys"] == 0

    def test_a_committing_key_is_never_in_neither_table(self):
        """``lookup`` and ``changed`` answer a miss without the mutex —
        pending entries looked at first, committed ones second — so a
        commit has to chain a key before it unpends it.  Probed from
        inside the commit (the mutex is re-entrant) before each of its
        steps, the pre-image is found every time."""
        versions = VersionManager()
        snap = versions.begin_snapshot()
        for key in (("rec", "course", 7), ("mv", "course", "tags", 7)):
            versions.stage(1, key, "before")
        seen = []

        def probing(step):
            def wrapped(key, *args):
                seen.append((versions.lookup(snap, key),
                             versions.changed(snap, ("course",))))
                return step(key, *args)
            return wrapped
        versions._chain = probing(versions._chain)
        versions._unpend = probing(versions._unpend)
        versions.commit(1)
        assert seen == [((True, "before"), {7})] * 4

    def test_an_unwatched_populate_reads_no_pre_images(self, monkeypatch):
        """Population writes through the Mapper with no transaction
        (auto-committed).  With no snapshot pinned and no history kept
        nobody can ask for its pre-images, so it reads none: it decodes
        no more records and makes no more ``read_many`` calls than a
        store that never stages."""
        from repro.mapper.store import MapperStore
        from repro.storage.files import RecordFile
        from repro.workloads.university import populate_university
        calls = []
        read_many = RecordFile.read_many

        def counting(self, rids):
            calls.append(len(rids))
            return read_many(self, rids)
        monkeypatch.setattr(RecordFile, "read_many", counting)

        def populate():
            database = Database(UNIVERSITY_DDL, constraint_mode="off")
            del calls[:]
            populate_university(database, departments=2, instructors=4,
                                students=12, courses=6, seed=3)
            return database.perf.records_decoded, len(calls)

        unwatched = populate()
        monkeypatch.setattr(MapperStore, "_stage", lambda self, *args: None)
        assert unwatched == populate()

    def test_session_executor_carries_the_batch_size(self, db):
        """A session runs its statements on an executor of its own, at
        the database's batch size; the database's own statements run on
        ``db.executor``."""
        db.executor.batch_size = 7
        executor = Session(db).executor
        assert executor is not db.executor
        assert executor.batch_size == 7
        assert executor.accessor is not db.executor.accessor
        assert db._session.executor is db.executor

    def test_reader_beside_uncommitted_writer_sees_snapshot(self, db):
        """A reader's scan of the class sees the committed state while a
        writer holds changes to every matching row, and the new state
        once the writer commits."""
        for i in range(20):
            db.execute(f'Insert course(course-no := {200 + i},'
                       f' title := "C{i}", credits := 1)')
        writer = Session(db)
        reader = Session(db)
        writer.execute("Modify course(credits := 15) Where credits = 1")
        rows = reader.query("From course Retrieve credits"
                            " Where credits = 1").rows
        assert len(rows) == 20
        writer.commit()
        rows = reader.query("From course Retrieve credits"
                            " Where credits = 1").rows
        assert rows == []


class TestMixedWorkload:
    def test_many_readers_one_writer_no_blocking(self, db):
        """Eight snapshot readers run to completion while a writer holds
        the course class exclusively the whole time."""
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        observed = []
        errors = []

        def read(_i):
            try:
                session = Session(db)
                observed.append(credits_of(session, "Algebra"))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert observed == [3] * 8
        writer.commit()
        assert credits_of(Session(db), "Algebra") == 9
