"""Database save/open tests: a saved file reopens as an identical,
fully-operational database (opening is a restart through the recovery
path)."""

import os

import pytest

from repro import Database, PhysicalDesign, parse_ddl
from repro.errors import SimError, TransactionError
from repro.workloads import UNIVERSITY_DDL, build_university


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "university.simdb")


class TestRoundTrip:
    def test_data_survives(self, path):
        db = build_university(students=10, instructors=4, courses=8, seed=2)
        db.store.pool.flush()
        fingerprint = db.query(
            "From student Retrieve soc-sec-no, name of advisor,"
            " count(courses-enrolled) of student").rows
        db.save(path)
        # Blocks and log records hold a RID's block and slot as ints, so
        # the file never names the RID class and survives its changes.
        with open(path, "rb") as saved:
            assert b"repro.storage.records" not in saved.read()
        reopened = Database.open(path)
        assert reopened.query(
            "From student Retrieve soc-sec-no, name of advisor,"
            " count(courses-enrolled) of student").rows == fingerprint

    def test_schema_extensions_survive(self, path):
        ddl = UNIVERSITY_DDL + """
        Derive compensation on instructor as salary + bonus;
        View earners of instructor where compensation > 0;
        """
        db = Database(ddl, constraint_mode="off")
        db.execute('Insert instructor(soc-sec-no := 1, employee-nbr := 1001,'
                   ' salary := 10, bonus := 5)')
        db.save(path)
        reopened = Database.open(path)
        assert reopened.query("From earners Retrieve compensation"
                              ).scalar() == 15

    def test_constraints_still_enforced_after_open(self, path):
        from repro import ConstraintViolation
        db = Database(UNIVERSITY_DDL, constraint_mode="immediate")
        db.execute('Insert course(course-no := 1, title := "Full",'
                   ' credits := 12)')
        db.save(path)
        reopened = Database.open(path)
        with pytest.raises(ConstraintViolation):
            reopened.execute('Insert student(soc-sec-no := 1)')
        reopened.execute('Insert student(soc-sec-no := 1,'
                         ' courses-enrolled := course with'
                         ' (title = "Full"))')

    def test_design_choices_survive(self, path):
        from repro import EvaMapping
        schema = parse_ddl(UNIVERSITY_DDL)
        design = PhysicalDesign(schema, block_size=512, pool_capacity=16)
        design.override_eva("student", "courses-enrolled",
                            EvaMapping.POINTER)
        db = Database(schema, design=design.finalize(),
                      constraint_mode="off")
        db.save(path)
        reopened = Database.open(path)
        assert reopened.design.block_size == 512
        enrolled = reopened.schema.get_class("student").attribute(
            "courses-enrolled")
        assert reopened.design.eva_mapping(enrolled) is EvaMapping.POINTER

    def test_surrogates_continue_after_open(self, path):
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.save(path)
        reopened = Database.open(path)
        with reopened.transaction():
            reopened.execute('Insert person(name := "B", soc-sec-no := 2)')
        surrogates = list(reopened.store.scan_class("person"))
        assert len(surrogates) == len(set(surrogates)) == 2

    def test_uncommitted_work_not_saved(self, path):
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        with db.transaction():
            db.execute('Insert person(name := "Kept", soc-sec-no := 1)')
        db.begin()
        db.execute('Insert person(name := "Open", soc-sec-no := 2)')
        with pytest.raises(TransactionError):
            db.save(path)
        db.abort()
        db.save(path)
        reopened = Database.open(path)
        assert reopened.query("From person Retrieve name").rows == \
            [("Kept",)]


class TestFileFormat:
    def test_magic_validated(self, tmp_path):
        bogus = tmp_path / "not-a-db"
        bogus.write_bytes(b"something else entirely")
        with pytest.raises(SimError, match="not a SIM database"):
            Database.open(str(bogus))

    def test_version_validated(self, tmp_path, path):
        import pickle
        from repro.persistence import MAGIC
        stale = tmp_path / "old.simdb"
        with open(stale, "wb") as handle:
            handle.write(MAGIC)
            pickle.dump({"version": 999}, handle)
        with pytest.raises(SimError, match="version"):
            Database.open(str(stale))

    def test_version_1_file_refused(self, tmp_path):
        """Version 1 stored records as dicts; it is refused by name, not
        converted or misread."""
        import pickle
        from repro.persistence import MAGIC, VERSION
        assert VERSION == 2
        old = tmp_path / "v1.simdb"
        with open(old, "wb") as handle:
            handle.write(MAGIC)
            pickle.dump({"version": 1, "disk_blocks": {}}, handle)
        with pytest.raises(SimError, match="version 1 .* version 2 only"):
            Database.open(str(old))

    def test_file_exists_on_disk(self, path):
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        db.save(path)
        assert os.path.getsize(path) > len(b"SIMREPRO")
