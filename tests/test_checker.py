"""Semantic consistency checker tests: a clean bill of health on intact
databases, and detection of each corruption class when the physical state
is damaged behind the Mapper's back."""

import pytest

from repro import Database
from repro.workloads import UNIVERSITY_DDL
from repro.workloads.university import build_university


@pytest.fixture()
def db():
    return Database(UNIVERSITY_DDL, constraint_mode="off")


def problems_of(report, category):
    return [p for p in report.problems if p.startswith(f"[{category}]")]


class TestCleanDatabases:
    def test_empty_database_is_consistent(self, db):
        report = db.check()
        assert report.ok
        assert report.checked["records"] == 0

    def test_populated_university_is_consistent(self):
        database = build_university()
        report = database.check()
        assert report.ok, report.problems[:5]
        # the sweep actually covered ground
        assert report.checked["records"] > 100
        assert report.checked["eva_instances"] > 100
        assert report.checked["hierarchy_edges"] > 0
        assert report.checked["blocks"] > 0
        assert "consistent" in report.summary()

    def test_consistent_after_updates_and_recovery(self):
        database = build_university(departments=2, instructors=3,
                                    students=6, courses=5)
        database.execute('Insert student(name := "New",'
                         ' soc-sec-no := 900000001)')
        database.execute('Delete course Where course-no = 105')
        database.simulate_crash()
        assert database.check().ok

    def test_report_is_truthy_iff_clean(self, db):
        report = db.check()
        assert bool(report) is True
        report.add("test", "synthetic problem")
        assert bool(report) is False
        assert "synthetic problem" in report.summary()


class TestCorruptionDetection:
    """Each test vandalizes physical state through raw file/disk
    operations (bypassing the Mapper, as a crashed or buggy layer would)
    and asserts the right check category fires."""

    def test_dangling_eva_reference(self, db):
        db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.execute('Insert person(name := "B", soc-sec-no := 2,'
                   ' spouse := person with (soc-sec-no = 1))')
        store = db.store
        info = store._evas[("person", "spouse")]
        holder = store._class_file["person"]
        fmt = store._class_format["person"]
        # point one stored foreign key at a surrogate that has no record
        from repro.types.tvl import is_null
        at = store.field_positions("person")[info.field]
        rid = next(r for r, _, rec in holder.scan(fmt)
                   if not is_null(rec[at]))
        holder.update(rid, {info.field: 999999})
        report = db.check(constraints=False)
        assert not report.ok
        assert problems_of(report, "eva") or problems_of(report, "index")

    def test_hierarchy_hole(self, db):
        db.execute('Insert student(name := "S", soc-sec-no := 1)')
        store = db.store
        person_file = store._class_file["person"]
        person_fmt = store._class_format["person"]
        rid, _, _ = next(person_file.scan(person_fmt))
        person_file.delete(rid)        # base record gone, role remains
        report = db.check(constraints=False)
        assert not report.ok
        assert problems_of(report, "hierarchy")

    def test_unique_violation_on_disk(self, db):
        db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.execute('Insert person(name := "B", soc-sec-no := 2)')
        store = db.store
        person_file = store._class_file["person"]
        person_fmt = store._class_format["person"]
        rids = [rid for rid, _, _ in person_file.scan(person_fmt)]
        person_file.update(rids[1], {"soc-sec-no": 1})
        report = db.check()
        assert problems_of(report, "constraint")

    def test_required_null_on_disk(self, db):
        from repro.types.tvl import NULL
        db.execute('Insert course(course-no := 1, title := "T",'
                   ' credits := 3)')
        store = db.store
        course_file = store._class_file["course"]
        course_fmt = store._class_format["course"]
        rid, _, _ = next(course_file.scan(course_fmt))
        course_file.update(rid, {"title": NULL})
        report = db.check()
        assert problems_of(report, "constraint")
        # constraint checking can be switched off independently
        assert not problems_of(db.check(constraints=False), "constraint")

    def test_stale_index_entry(self, db):
        db.execute('Insert person(name := "A", soc-sec-no := 1)')
        store = db.store
        from repro.storage.records import RID
        store._surrogate_index["person"].insert(424242, RID(7, 7))
        report = db.check(constraints=False)
        assert problems_of(report, "index")

    def test_free_space_header_drift(self, db):
        db.execute('Insert person(name := "A", soc-sec-no := 1)')
        store = db.store
        store.pool.flush()
        person_file = store._class_file["person"]
        block = store.disk.read(person_file.file_id, 0)
        block.used += 17
        store.disk.write(person_file.file_id, 0, block)
        store.pool.invalidate()
        report = db.check(constraints=False)
        assert problems_of(report, "free-space")

    def test_instance_count_drift(self, db):
        db.execute('Insert department(dept-nbr := 100, name := "Math")')
        db.execute('Insert student(name := "S", soc-sec-no := 1,'
                   ' major-department := department with'
                   ' (dept-nbr = 100))')
        store = db.store
        info = next(i for i in store._evas.values()
                    if i.instance_count > 0)
        info.instance_count += 5
        report = db.check(constraints=False)
        assert problems_of(report, "eva")

    def test_torn_committed_block_caught_after_cold_cache(self):
        database = build_university(departments=2, instructors=3,
                                    students=6, courses=5)
        database.store.pool.flush()
        injector = database.install_faults(seed=3)
        injector.torn_write(1, keep=0.3)
        database.execute('Insert person(name := "Shear",'
                         ' soc-sec-no := 900000001)')
        database.cold_cache()
        report = database.check(constraints=False)
        assert not report.ok


class TestCheckerDiscipline:
    def test_checker_reads_bypass_and_preserve_caches(self):
        database = build_university(departments=2, instructors=3,
                                    students=6, courses=5)
        database.query("From student Retrieve name")   # warm the caches
        cache = database.store.read_cache
        epoch_before = cache.epoch
        hits_before = database.perf.record_cache_hits
        misses_before = database.perf.record_cache_misses
        database.check()
        assert cache.enabled                  # restored after the sweep
        # the sweep produced no cache traffic at all
        assert database.perf.record_cache_hits == hits_before
        assert database.perf.record_cache_misses == misses_before
        assert cache.epoch > epoch_before     # entries were dropped

    def test_check_mutates_nothing(self):
        database = build_university(departments=2, instructors=3,
                                    students=6, courses=5)
        database.store.pool.flush()
        before = database.store.disk.fingerprint()
        database.check()
        database.store.pool.flush()
        assert database.store.disk.fingerprint() == before
