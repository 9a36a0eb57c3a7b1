"""Read-path cache correctness: strict invalidation everywhere.

The decoded-record / role / EVA fan-out caches (``repro.mapper.read_cache``)
and the engine's epoch-validated memoization (``repro.engine.access``) must
never serve a stale value: every mutation path — direct, transactional,
statement-level rollback, full abort, and crash recovery — has to drop the
affected entries.  Each test warms the caches with a query *before*
mutating, so a missed invalidation would surface as a wrong answer.
"""

import contextlib
import sys
import threading
import time

import pytest

from repro import Database
from repro.errors import IntegrityError, SimError
from repro.types.tvl import NULL
from repro.mapper.read_cache import MISSING, ReadCache
from repro.perf import PerfCounters
from repro.workloads import UNIVERSITY_DDL, build_university


@pytest.fixture()
def db():
    database = Database(UNIVERSITY_DDL, constraint_mode="off")
    database.execute('Insert department(dept-nbr := 100, name := "Physics")')
    database.execute('Insert department(dept-nbr := 200, name := "Math")')
    database.execute(
        'Insert instructor(name := "Joe Bloke", soc-sec-no := 111223333,'
        ' employee-nbr := 1729, salary := 50000,'
        ' assigned-department := department with (name = "Physics"))')
    database.execute(
        'Insert student(name := "John Doe", soc-sec-no := 456887766,'
        ' student-nbr := 2001,'
        ' advisor := instructor with (name = "Joe Bloke"),'
        ' major-department := department with (name = "Physics"))')
    database.execute('Insert course(course-no := 101, title := "Algebra I",'
                     ' credits := 3)')
    return database


def names(db):
    return db.query("From student Retrieve name, name of advisor,"
                    " name of major-department").rows


def assert_cache_matches_physical(store):
    """The read cache's invariant: every cached role, record and
    fan-out equals what a physical read returns right now."""
    cache = store.read_cache
    with cache._lock:
        roles = dict(cache._roles)
        records = dict(cache._records)
        fanout = dict(cache._fanout)
    infos = {info.rel_id: info for info in store._evas.values()}
    for (class_name, surrogate), rid in roles.items():
        assert rid == store._surrogate_index[class_name].lookup_one(
            surrogate), ("role", class_name, surrogate)
    for (class_name, surrogate), (rid, values) in records.items():
        assert rid == store._surrogate_index[class_name].lookup_one(
            surrogate), ("record rid", class_name, surrogate)
        assert values == store._class_file[class_name].read(rid)[1], \
            ("record", class_name, surrogate)
    for (rel_id, side, surrogate), targets in fanout.items():
        try:
            physical = tuple(infos[rel_id].targets(side, surrogate))
        except IntegrityError:      # lost the role that held the key:
            physical = ()           # an empty fan-out may outlive it
        assert targets == physical, ("fanout", rel_id, side, surrogate)


# ---------------------------------------------------------------- unit level


def cached_record(cache, class_name, surrogate):
    """A one-key record lookup: ``(rid, record)`` or None."""
    return cache.get_record_batch(class_name, [surrogate])[0].get(surrogate)


def cached_role(cache, class_name, surrogate):
    """A one-key role lookup: rid, None (cached negative) or MISSING."""
    found = cache.get_role_batch(class_name, [surrogate])[0]
    return found.get(surrogate, MISSING)


def cached_fanout(cache, rel_id, side, surrogate):
    """A one-key fan-out lookup: the target tuple or None."""
    return cache.get_fanout_batch(rel_id, side, [surrogate])[0].get(surrogate)


class TestReadCacheUnit:
    def test_record_lru_eviction(self):
        cache = ReadCache(PerfCounters(), record_capacity=2)
        cache.put_record_batch("a", {1: ("rid1", {"x": 1})}, cache.epoch)
        cache.put_record_batch("a", {2: ("rid2", {"x": 2})}, cache.epoch)
        cache.put_record_batch("a", {3: ("rid3", {"x": 3})}, cache.epoch)
        assert cached_record(cache, "a", 1) is None      # evicted
        assert cached_record(cache, "a", 3) == ("rid3", {"x": 3})

    def test_lru_recency_updated_on_hit(self):
        cache = ReadCache(PerfCounters(), record_capacity=2)
        cache.put_record_batch("a", {1: ("rid1", {})}, cache.epoch)
        cache.put_record_batch("a", {2: ("rid2", {})}, cache.epoch)
        cached_record(cache, "a", 1)                     # 1 is now recent
        cache.put_record_batch("a", {3: ("rid3", {})}, cache.epoch)
        assert cached_record(cache, "a", 2) is None      # 2 was the LRU
        assert cached_record(cache, "a", 1) is not None

    def test_a_hit_never_waits_for_the_lock(self):
        """With another thread inside the cache every lookup still
        answers at once, and still counts as a use: the entry it hit
        outlives the next eviction (its second chance)."""
        cache = ReadCache(PerfCounters(), record_capacity=2)
        cache.put_record_batch("a", {1: ("rid1", {})}, cache.epoch)
        cache.put_record_batch("a", {2: ("rid2", {})}, cache.epoch)
        cache.put_role_batch("a", {1: "rid1"}, cache.epoch)
        cache.put_fanout_batch(7, True, {1: (2,)}, cache.epoch)
        inside, leave = threading.Event(), threading.Event()

        def occupant():
            with cache._lock:
                inside.set()
                leave.wait(10)
        holder = threading.Thread(target=occupant)
        holder.start()
        assert inside.wait(10)
        answers = []
        reader = threading.Thread(target=lambda: answers.extend((
            cached_record(cache, "a", 1),
            cache.get_record_batch("a", [1, 9]),
            cached_role(cache, "a", 1), cached_fanout(cache, 7, True, 1),
            cache.get_fanout_batch(7, True, [1, 9]))))
        reader.start()
        reader.join(5)
        waited = reader.is_alive()
        leave.set()
        holder.join()
        reader.join()
        assert not waited
        assert answers == [("rid1", {}), ({1: ("rid1", {})}, [9]), "rid1",
                           (2,), ({1: (2,)}, [9])]
        cache.put_record_batch("a", {3: ("rid3", {})}, cache.epoch)
        assert cached_record(cache, "a", 2) is None     # the one never hit
        assert cached_record(cache, "a", 1) == ("rid1", {})

    def test_a_dropped_entry_takes_its_mark_along(self):
        """Invalidation and ``clear`` drop a hit's mark with its entry —
        the key filled again starts unmarked, so it is what the next
        eviction takes — and the marks are a fixed array: however many
        keys are hit, they never outgrow the LRU's bound."""
        cache = ReadCache(PerfCounters(), record_capacity=2)

        def fill(*surrogates):
            for surrogate in surrogates:
                cache.put_record_batch("a", {surrogate: ("rid", {})},
                                       cache.epoch)

        fill(1)
        cached_record(cache, "a", 1)
        cache.invalidate_record("a", 1)
        fill(1, 2, 3)
        assert cached_record(cache, "a", 1) is None
        cached_record(cache, "a", 2)
        cache.clear()
        fill(2, 1, 3)
        assert cached_record(cache, "a", 2) is None
        marks = cache._records.marks
        size = len(marks)
        for surrogate in range(1000):
            fill(surrogate)
            cached_record(cache, "a", surrogate)
        assert cache._records.marks is marks and len(marks) == size
        assert len(cache._records) == 2

    def test_hits_beside_evicting_fills_lose_nothing(self):
        """More threads than cores hit, fill and invalidate a cache a
        few entries wide, switched every 10 µs: no lookup raises, no
        LRU outgrows its bound and every entry is the one put for its
        key."""
        cache = ReadCache(PerfCounters(), record_capacity=8,
                          fanout_capacity=8)
        stop, errors = threading.Event(), []

        def worker(seed):
            try:
                step = seed
                while not stop.is_set():
                    step += 1
                    key = step % 24
                    for found in (cached_record(cache, "a", key),
                                  cached_fanout(cache, 1, True, key)):
                        if found is not None and found[0] != key:
                            errors.append((key, found))
                    cache.get_record_batch("a", [key, key + 1])
                    cache.put_record_batch("a", {key: (key, {})},
                                           cache.epoch)
                    cache.put_fanout_batch(1, True, {key: (key,)},
                                           cache.epoch)
                    if step % 7 == 0:
                        cache.invalidate_eva(1, key)
            except Exception as exc:    # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for lru in (cache._records, cache._fanout):
            assert len(lru) <= lru.capacity
            assert all(found[0] == key[-1] for key, found in lru.items())

    def test_role_negative_caching(self):
        cache = ReadCache(PerfCounters())
        assert cached_role(cache, "a", 1) is MISSING
        cache.put_role_batch("a", {1: None}, cache.epoch)
        assert cached_role(cache, "a", 1) is None        # cached negative
        cache.invalidate_role("a", 1)
        assert cached_role(cache, "a", 1) is MISSING

    def test_invalidate_role_drops_record_too(self):
        cache = ReadCache(PerfCounters())
        cache.put_record_batch("a", {1: ("rid", {})}, cache.epoch)
        cache.invalidate_role("a", 1)
        assert cached_record(cache, "a", 1) is None

    def test_invalidate_eva_drops_both_sides_of_each_endpoint(self):
        cache = ReadCache(PerfCounters())
        for side in (True, False):
            cache.put_fanout_batch(7, side, {1: (2,)}, cache.epoch)
            cache.put_fanout_batch(7, side, {2: (1,)}, cache.epoch)
        cache.invalidate_eva(7, 1, 2)
        for side in (True, False):
            assert cached_fanout(cache, 7, side, 1) is None
            assert cached_fanout(cache, 7, side, 2) is None

    def test_every_invalidation_bumps_epoch(self):
        cache = ReadCache(PerfCounters())
        epochs = [cache.epoch]
        cache.invalidate_record("a", 1)
        epochs.append(cache.epoch)
        cache.invalidate_role("a", 1)
        epochs.append(cache.epoch)
        cache.invalidate_eva(7, 1)
        epochs.append(cache.epoch)
        cache.note_write()
        epochs.append(cache.epoch)
        cache.clear()
        epochs.append(cache.epoch)
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)

    def test_disabled_cache_stores_nothing(self):
        cache = ReadCache(PerfCounters())
        cache.enabled = False
        cache.put_record_batch("a", {1: ("rid", {})}, cache.epoch)
        cache.put_role_batch("a", {1: None}, cache.epoch)
        cache.put_fanout_batch(7, True, {1: (2,)}, cache.epoch)
        assert cached_record(cache, "a", 1) is None
        assert cached_role(cache, "a", 1) is MISSING
        assert cached_fanout(cache, 7, True, 1) is None


# ------------------------------------------------- forced-interleaving fills


@contextlib.contextmanager
def parked_after(target, method_name):
    """Wrap ``target.method_name`` so that the first call made off the
    main thread, AFTER the real call has returned, sets ``parked`` and
    waits for ``resume``: the caller then holds a value it read before
    whatever the main thread does in between."""
    real = getattr(target, method_name)
    parked, resume = threading.Event(), threading.Event()
    main = threading.get_ident()

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        if threading.get_ident() != main and not parked.is_set():
            parked.set()
            assert resume.wait(10.0), "reader never released"
        return result

    setattr(target, method_name, wrapper)
    try:
        yield parked, resume
    finally:
        resume.set()
        delattr(target, method_name)    # the instance shadow only


def race(read, parked, resume, write):
    """Run ``read`` on a thread until it parks, run ``write`` here,
    release the reader; returns what ``read`` returned."""
    outcome = {}

    def reader():
        try:
            outcome["value"] = read()
        except BaseException as exc:    # surfaced below
            outcome["error"] = exc

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        assert parked.wait(10.0), "reader never reached its physical read"
        write()
    finally:
        resume.set()
        thread.join(10.0)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestValidatedFills:
    """A reader that holds no lock reads a unit, a writer then mutates
    and invalidates it, and only then does the reader reach its cache
    fill.  The interleaving is forced (no sleeps, no scheduler luck):
    the late fill must be dropped, or the next lock holder reads a
    value that is no longer — or never was — committed."""

    @pytest.fixture()
    def student(self, db):
        store = db.store
        surrogate = store.find_by_dva("student", "soc-sec-no", 456887766)[0]
        store.read_cache.clear()
        return surrogate

    def test_record_fill_racing_a_write_is_dropped(self, db, student):
        store = db.store
        name = db.schema.get_class("person").attribute("name")
        with parked_after(store.class_file("person"),
                              "read_many") as gates:
            seen = race(lambda: store.record_of(student, "person"), *gates,
                        write=lambda: store.write_dva(student, name, "Jack"))
        at = store.field_positions("person")["name"]
        assert seen[1][at] == "John Doe"    # the tuple it read, unchanged
        assert store.record_of(student, "person")[1][at] == "Jack"
        assert_cache_matches_physical(store)
        assert db.check().ok

    def test_batch_fill_racing_a_write_is_dropped(self, db, student):
        """The batched fill: one epoch check for the whole batch."""
        store = db.store
        name = db.schema.get_class("person").attribute("name")
        with parked_after(store.class_file("person"), "read_many") as gates:
            seen = race(lambda: store.fetch_many("person", [student]),
                        *gates,
                        write=lambda: store.write_dva(student, name, "Jack"))
        at = store.field_positions("person")["name"]
        assert seen[student][1][at] == "John Doe"
        assert store.fetch_many("person", [student])[student][1][at] \
            == "Jack"
        assert_cache_matches_physical(store)
        assert db.check().ok

    def test_role_fill_racing_a_drop_is_dropped(self, db, student):
        store = db.store
        index = store._surrogate_index["student"]
        with parked_after(index, "lookup_one") as gates:
            seen = race(lambda: store.has_role(student, "student"), *gates,
                        write=lambda: store.remove_role(student, "student"))
        assert seen is True
        assert store.has_role(student, "student") is False
        assert_cache_matches_physical(store)
        assert db.check().ok

    def test_fanout_fill_racing_an_include_is_dropped(self, db, student):
        store = db.store
        enrolled = db.schema.get_class("student").attribute(
            "courses-enrolled")
        course = store.find_by_dva("course", "course-no", 101)[0]
        with parked_after(store.eva_info(enrolled),
                              "targets_many") as gates:
            seen = race(lambda: store.eva_targets(student, enrolled), *gates,
                        write=lambda: store.eva_include(student, enrolled,
                                                        course))
        assert seen == []
        assert store.eva_targets(student, enrolled) == [course]
        assert_cache_matches_physical(store)
        assert db.check().ok

    def test_snapshot_reader_keeps_its_view_and_fills_nothing_stale(
            self, db, student):
        store = db.store
        name = db.schema.get_class("person").attribute("name")
        snap = store.begin_snapshot()

        def read():
            with store.snapshot_scope(snap):
                return store.record_of(student, "person")

        try:
            with parked_after(store.class_file("person"),
                              "read_many") as gates:
                seen = race(read, *gates,
                            write=lambda: store.write_dva(student, name,
                                                          "Jack"))
        finally:
            store.end_snapshot(snap)
        # The second version probe caught the write: the snapshot still
        # sees its own epoch, the latest view sees the write.
        at = store.field_positions("person")["name"]
        assert seen[1][at] == "John Doe"
        assert store.record_of(student, "person")[1][at] == "Jack"
        assert_cache_matches_physical(store)
        assert db.check().ok

    def test_snapshot_structure_fill_racing_an_include_is_dropped(
            self, db, student):
        """A structure mapping's traversal reads physical state only, so
        a snapshot reader fills the fan-out cache — validated like any
        fill: an include landing between its epoch capture and its fill
        drops the fill."""
        store = db.store
        enrolled = db.schema.get_class("student").attribute(
            "courses-enrolled")
        info, side = store._eva_side(enrolled)
        assert not info.reads_view
        course = store.find_by_dva("course", "course-no", 101)[0]
        snap = store.begin_snapshot()

        def read():
            with store.snapshot_scope(snap):
                return store.eva_targets(student, enrolled)

        try:
            assert read() == []             # a quiet snapshot read fills
            assert cached_fanout(store.read_cache, info.rel_id, side,
                                 student) == ()
            store.read_cache.clear()
            with parked_after(info, "targets_many") as gates:
                seen = race(read, *gates, write=lambda: store.eva_include(
                    student, enrolled, course))
            assert (info.rel_id, side, student) not in store.read_cache._fanout
            assert read() == [] == seen     # the pin still holds
        finally:
            store.end_snapshot(snap)
        assert store.eva_targets(student, enrolled) == [course]
        assert_cache_matches_physical(store)
        assert db.check().ok


# ----------------------------------------------------- auto-commit mutations


class TestInvalidationOutsideTransactions:
    def test_modify_dva_then_requery(self, db):
        assert names(db) == [("John Doe", "Joe Bloke", "Physics")]
        db.execute('Modify student(name := "Jack Doe")'
                   ' Where soc-sec-no = 456887766')
        assert names(db) == [("Jack Doe", "Joe Bloke", "Physics")]

    def test_modify_target_of_shared_path_then_requery(self, db):
        assert names(db)[0][1] == "Joe Bloke"
        db.execute('Modify instructor(name := "J. Bloke, PhD")'
                   ' Where employee-nbr = 1729')
        assert names(db)[0][1] == "J. Bloke, PhD"

    def test_delete_then_requery(self, db):
        assert len(names(db)) == 1
        db.execute('Delete student Where soc-sec-no = 456887766')
        assert names(db) == []
        # The person role survives the subclass delete and stays readable.
        assert db.query('From person Retrieve name'
                        ' Where soc-sec-no = 456887766').rows \
            == [("John Doe",)]

    def test_eva_include_then_requery(self, db):
        # Empty TYPE 3 domains yield the dummy all-null row (§4.5).
        enrolled = ("From student Retrieve title of courses-enrolled")
        assert db.query(enrolled).rows == [(NULL,)]
        db.execute('Modify student(courses-enrolled := include course with'
                   ' (course-no = 101)) Where soc-sec-no = 456887766')
        assert db.query(enrolled).rows == [("Algebra I",)]

    def test_eva_exclude_then_requery(self, db):
        db.execute('Modify student(courses-enrolled := include course with'
                   ' (course-no = 101)) Where soc-sec-no = 456887766')
        # Warm the fan-out cache in both directions.
        assert db.query("From student Retrieve title of"
                        " courses-enrolled").rows == [("Algebra I",)]
        assert db.query("From course Retrieve name of students-enrolled"
                        " Where course-no = 101").rows == [("John Doe",)]
        db.execute('Modify student(courses-enrolled := exclude course with'
                   ' (course-no = 101)) Where soc-sec-no = 456887766')
        assert db.query("From student Retrieve title of"
                        " courses-enrolled").rows == [(NULL,)]
        assert db.query("From course Retrieve name of students-enrolled"
                        " Where course-no = 101").rows == [(NULL,)]

    def test_single_valued_eva_reassignment(self, db):
        db.execute(
            'Insert instructor(name := "Jane Roe", soc-sec-no := 222334444,'
            ' employee-nbr := 1730,'
            ' assigned-department := department with (name = "Math"))')
        assert names(db)[0][1] == "Joe Bloke"
        db.execute('Modify student(advisor := instructor with'
                   ' (employee-nbr = 1730)) Where soc-sec-no = 456887766')
        assert names(db)[0][1] == "Jane Roe"
        # The inverse direction must not serve the old fan-out either.
        assert db.query('From instructor Retrieve name of advisees'
                        ' Where employee-nbr = 1729').rows == [(NULL,)]

    def test_mapper_level_role_mutations(self, db):
        surrogate = db.store.find_by_dva("student", "soc-sec-no",
                                         456887766)[0]
        query = ("From person Retrieve profession"
                 " Where soc-sec-no = 456887766")
        assert db.query(query).rows == [("student",)]
        db.store.add_role(surrogate, "instructor",
                          {"employee-nbr": 1999})
        assert sorted(db.query(query).rows) \
            == [("instructor",), ("student",)]
        db.store.remove_role(surrogate, "instructor")
        assert db.query(query).rows == [("student",)]

    def test_insert_after_negative_role_check(self, db):
        # A query over an empty subclass caches negative role entries;
        # Insert From must invalidate them before the next query.
        assert db.query("From teaching-assistant Retrieve name").rows == []
        db.execute('Insert teaching-assistant From student'
                   ' Where soc-sec-no = 456887766'
                   ' (employee-nbr := 2000, teaching-load := 2)')
        assert db.query("From teaching-assistant Retrieve name").rows \
            == [("John Doe",)]


# ------------------------------------------------------------- transactions


class TestInvalidationInTransactions:
    def test_read_your_writes_inside_transaction(self, db):
        assert names(db)[0][0] == "John Doe"
        db.begin()
        db.execute('Modify student(name := "Jack Doe")'
                   ' Where soc-sec-no = 456887766')
        assert names(db)[0][0] == "Jack Doe"
        db.commit()
        assert names(db)[0][0] == "Jack Doe"

    def test_abort_restores_dva(self, db):
        assert names(db)[0][0] == "John Doe"
        db.begin()
        db.execute('Modify student(name := "Jack Doe")'
                   ' Where soc-sec-no = 456887766')
        assert names(db)[0][0] == "Jack Doe"
        db.abort()
        assert names(db)[0][0] == "John Doe"

    def test_abort_restores_eva(self, db):
        enrolled = "From student Retrieve title of courses-enrolled"
        db.begin()
        db.execute('Modify student(courses-enrolled := include course with'
                   ' (course-no = 101)) Where soc-sec-no = 456887766')
        assert db.query(enrolled).rows == [("Algebra I",)]
        db.abort()
        assert db.query(enrolled).rows == [(NULL,)]

    def test_abort_restores_delete(self, db):
        db.begin()
        db.execute('Delete student Where soc-sec-no = 456887766')
        assert names(db) == []
        db.abort()
        assert names(db) == [("John Doe", "Joe Bloke", "Physics")]

    def test_failed_statement_leaves_no_stale_values(self, db):
        db.execute('Insert student(name := "Jane Roe",'
                   ' soc-sec-no := 456887767, student-nbr := 2002)')
        before = sorted(db.query("From student Retrieve name,"
                                 " soc-sec-no").rows)
        # Uniqueness violation aborts the statement mid-flight after some
        # records may have been touched.
        with pytest.raises(SimError):
            db.execute('Modify student(soc-sec-no := 456887766)'
                       ' Where name = "Jane Roe"')
        assert sorted(db.query("From student Retrieve name,"
                               " soc-sec-no").rows) == before


# ----------------------------------------------------------- crash recovery


class TestCrashRecovery:
    def test_inflight_modify_undone_with_caches(self, db):
        assert names(db)[0][0] == "John Doe"      # warm every cache layer
        db.begin()
        db.execute('Modify student(name := "Lost Update")'
                   ' Where soc-sec-no = 456887766')
        assert names(db)[0][0] == "Lost Update"
        db.store.pool.flush()                     # steal: dirty pages out
        db.simulate_crash()
        assert names(db)[0][0] == "John Doe"

    def test_committed_state_survives_with_caches(self, db):
        with db.transaction():
            db.execute('Modify student(name := "Jack Doe")'
                       ' Where soc-sec-no = 456887766')
        assert names(db)[0][0] == "Jack Doe"
        db.simulate_crash()
        assert names(db)[0][0] == "Jack Doe"
        # Post-recovery mutations keep invalidating the rebuilt state.
        db.begin()
        db.execute('Modify student(name := "Gone Again")'
                   ' Where soc-sec-no = 456887766')
        db.abort()
        assert names(db)[0][0] == "Jack Doe"


# ------------------------------------------------------------ perf counters


class TestPerfAccounting:
    def test_second_query_reports_cache_hits(self, db):
        first = db.query("From student Retrieve name, name of advisor")
        second = db.query("From student Retrieve name, name of advisor")
        assert second.perf is not None
        assert second.perf.overall_hit_rate() > 0.0
        assert second.perf.records_decoded <= first.perf.records_decoded

    def test_result_perf_charges_a_statement_only_with_its_own_events(
            self, db):
        """A second thread runs a whole statement between this
        Retrieve's first read and its last (forced from inside the run,
        not left to the scheduler): the Retrieve's ``perf`` is what it
        counts alone, field by field, and the totals hold both."""
        text = "From student Retrieve name, name of advisor"
        db.query(text)
        alone = db.query(text).perf.as_dict()
        assert alone["memo_hits"] > 0
        accessor = db.executor.accessor
        read_column, stranger = accessor.dva_batch, []

        def read_beside_a_stranger(attr, instances):
            if not stranger:
                thread = threading.Thread(target=lambda: stranger.append(
                    db.session().execute("From course Retrieve title")))
                thread.start()
                thread.join(30)
                assert not thread.is_alive()
            return read_column(attr, instances)

        accessor.dva_batch = read_beside_a_stranger
        before = db.perf.as_dict()
        try:
            beside = db.query(text).perf.as_dict()
        finally:
            del accessor.dva_batch
        theirs = stranger[0].perf.as_dict()
        assert theirs["memo_misses"] > 0
        assert beside == alone
        after = db.perf.as_dict()
        for name in ("memo_hits", "memo_misses", "record_cache_hits",
                     "batch_rows"):
            assert after[name] - before[name] == alone[name] + theirs[name]

    def test_statistics_expose_read_path_counters(self, db):
        db.query("From student Retrieve name")
        stats = db.statistics()
        assert "read_path" in stats
        assert stats["read_path"]["records_decoded"] > 0

    #: E13's repeated-qualification statement: two hot EVA hops shared
    #: by many students and a TYPE 2 existential over the enrollments
    REPEATED_QUALIFICATION = (
        "From student Retrieve name, name of advisor, name of"
        " major-department Where credits of courses-enrolled >= 2")

    @pytest.fixture()
    def university(self):
        return build_university(departments=4, instructors=12, students=40,
                                courses=24, seed=17)

    def test_warm_run_returns_the_cold_rows_in_fewer_logical_reads(
            self, university):
        """E13 in counts (the warm-over-cold wall-clock ratio it gated
        is retired): from empty pool, read cache and memos, then again."""
        university.cold_cache()
        university.reset_io_stats()
        cold = university.query(self.REPEATED_QUALIFICATION)
        cold_reads = university.io_stats.logical_reads
        university.reset_io_stats()
        warm = university.query(self.REPEATED_QUALIFICATION)
        assert warm.rows == cold.rows and len(cold.rows) == 40
        assert university.io_stats.logical_reads < cold_reads
        assert warm.perf.overall_hit_rate() > cold.perf.overall_hit_rate()

    def test_an_invalidation_costs_one_requery(self, university):
        """Strict but not sticky: the statement after a Modify refills
        what the Modify dropped, the one after that is warm again."""
        query = self.REPEATED_QUALIFICATION
        university.query(query)
        ssn = university.query("From student Retrieve soc-sec-no").rows[0][0]
        university.execute(
            f'Modify student(name := "Renamed") Where soc-sec-no = {ssn}')
        refill = university.query(query)
        warm = university.query(query)
        assert warm.rows == refill.rows
        assert ("Renamed",) in [row[:1] for row in warm.rows]
        assert warm.perf.overall_hit_rate() > refill.perf.overall_hit_rate()
        assert warm.perf.records_decoded < refill.perf.records_decoded


# ----------------------------------------------- update-path index selection


class TestSelectionIndexPath:
    def test_equality_on_indexed_dva_uses_index(self, db):
        before = db.perf.index_selections
        db.execute('Modify student(name := "Jack Doe")'
                   ' Where soc-sec-no = 456887766')
        # Two index-served selections: one names the entities to lock,
        # one re-selects under the locks (engine/sessions.py).
        assert db.perf.index_selections == before + 2
        assert names(db)[0][0] == "Jack Doe"

    def test_or_predicate_falls_back_to_scan(self, db):
        before = db.perf.index_selections
        db.execute('Modify student(name := "Jack Doe")'
                   ' Where soc-sec-no = 456887766 or student-nbr = 2001')
        assert db.perf.index_selections == before
        assert names(db)[0][0] == "Jack Doe"

    def test_unindexed_equality_falls_back_to_scan(self, db):
        before = db.perf.index_selections
        db.execute('Modify student(student-nbr := 2101)'
                   ' Where name = "John Doe"')
        assert db.perf.index_selections == before
        assert db.query("From student Retrieve student-nbr").rows \
            == [(2101,)]

    def test_index_and_scan_selections_agree(self, db):
        from repro import parse_dml
        db.execute('Insert student(name := "Jane Roe",'
                   ' soc-sec-no := 456887767, student-nbr := 2002)')
        statement = parse_dml('Delete student Where soc-sec-no = 456887766')
        selected = db.executor.select_entities("student", statement.where)
        ssn = db.schema.get_class("student").attribute("soc-sec-no")
        expected = [surrogate
                    for surrogate in db.store.scan_class("student")
                    if db.store.read_dva(surrogate, ssn) == 456887766]
        assert sorted(selected) == sorted(expected) and len(selected) == 1
