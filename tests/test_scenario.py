"""End-to-end scenario: a full academic-term lifecycle on one database.

Exercises the whole stack in one narrative — DDL, transactional loading,
VERIFY enforcement, role extension, views, derived attributes, history,
optimizer, structured output, crash recovery — the way a downstream
adopter would actually drive the system.
"""

import pytest
from decimal import Decimal

from repro import ConstraintViolation, Database
from repro.interfaces import HostSession, QueryBuilder
from repro.interfaces.builder import attr, path
from repro.types.tvl import NULL, is_null
from repro.workloads import UNIVERSITY_DDL

TERM_DDL = UNIVERSITY_DDL + """
Derive compensation on instructor as salary + bonus;
View overloaded of instructor where count(courses-taught) >= 2;
"""


@pytest.fixture(scope="module")
def db():
    database = Database(TERM_DDL, constraint_mode="immediate",
                        track_history=True)
    with database.transaction():
        database.execute('Insert department(dept-nbr := 100,'
                         ' name := "Physics")')
        database.execute('Insert department(dept-nbr := 200,'
                         ' name := "Math")')
        for number, title, credits in [
                (101, "Mechanics", 6), (102, "Optics", 6),
                (103, "Algebra", 6), (104, "Analysis", 6),
                (105, "Seminar", 2)]:
            database.execute(
                f'Insert course(course-no := {number},'
                f' title := "{title}", credits := {credits})')
        database.execute(
            'Insert instructor(name := "Newton", soc-sec-no := 1,'
            ' employee-nbr := 1001, salary := 70000, bonus := 5000,'
            ' assigned-department := department with (name = "Physics"),'
            ' courses-taught := course with (course-no <= 102))')
        database.execute(
            'Insert instructor(name := "Gauss", soc-sec-no := 2,'
            ' employee-nbr := 1002, salary := 80000, bonus := 0,'
            ' assigned-department := department with (name = "Math"),'
            ' courses-taught := course with (title = "Algebra"))')
        for index, name in enumerate(["Alice", "Bruno", "Chen"]):
            database.execute(
                f'Insert student(name := "{name}",'
                f' soc-sec-no := {10 + index},'
                f' advisor := instructor with (name = "Newton"),'
                f' major-department := department with (name = "Physics"),'
                f' courses-enrolled := course with (credits = 6))')
    return database


class TestTermLifecycle:
    def test_loading_respected_constraints(self, db):
        sums = db.query("From student Retrieve sum(credits of"
                        " courses-enrolled) of student").column(0)
        assert all(total >= 12 for total in sums)

    def test_underload_rejected_midterm(self, db):
        with pytest.raises(ConstraintViolation):
            db.execute('Modify student(courses-enrolled := exclude'
                       ' courses-enrolled) Where name = "Alice"')
        # nothing changed
        assert db.query('From student Retrieve count(courses-enrolled) of'
                        ' student Where name = "Alice"').scalar() == 4

    def test_view_and_derived_together(self, db):
        rows = db.query("From overloaded Retrieve name, compensation"
                        " Order By name").rows
        assert rows == [("Newton", Decimal("75000.00"))]

    def test_promote_student_to_ta(self, db):
        db.execute('Insert teaching-assistant From student'
                   ' Where name = "Chen"'
                   ' (employee-nbr := 60001, teaching-load := 5,'
                   '  salary := 12000, bonus := 0)')
        rows = db.query('From person Retrieve profession'
                        ' Where name = "Chen"').rows
        assert {r[0] for r in rows} == {"student", "instructor"}
        assert db.query("From teaching-assistant Retrieve teaching-load"
                        ).scalar() == 5

    def test_builder_and_host_interface(self, db):
        built = (QueryBuilder("instructor")
                 .retrieve("name", path("name", "assigned-department"))
                 .order_by("name"))
        rows = built.run(db).rows
        assert ("Gauss", "Math") in rows
        cursor = HostSession(db).open_cursor(
            "From instructor Retrieve name,"
            " title of courses-taught Where name = \"Newton\"")
        formats = [record.format_name for record in cursor]
        assert formats[0] == "instructor"
        assert formats.count("courses-taught") == 2

    def test_history_spans_the_term(self, db):
        newton = db.query('From instructor Retrieve instructor'
                          ' Where name = "Newton"').scalar()
        before = db.clock
        db.execute('Modify instructor(salary := salary + 1000)'
                   ' Where name = "Newton"')
        assert db.clock == before + 1
        assert db.value_as_of(newton, "instructor", "salary", before) == \
            Decimal("70000.00")
        # the whole term was loaded by one transaction: one epoch, one
        # transition, whatever happened inside it
        history = db.attribute_history(newton, "instructor", "salary")
        assert [(step.old, step.new) for step in history[-2:]] == [
            (NULL, Decimal("70000.00")),
            (Decimal("70000.00"), Decimal("71000.00"))]
        assert history[-1].epoch == db.clock

    def test_optimizer_used_for_selective_lookup(self, db):
        report = db.explain("From student Retrieve name"
                            " Where soc-sec-no = 11")
        assert "index" in report

    def test_crash_mid_registration(self, db):
        with db.transaction():
            db.execute('Insert student(name := "Durable",'
                       ' soc-sec-no := 99, courses-enrolled := course'
                       ' with (credits = 6))')
        db.begin()
        db.execute('Insert student(name := "Ghost", soc-sec-no := 98,'
                   ' courses-enrolled := course with (credits = 6))')
        db.store.pool.flush()
        db.simulate_crash()
        names = set(db.query("From student Retrieve name").column(0))
        assert "Durable" in names and "Ghost" not in names

    def test_catalog_reflects_schema(self, db):
        from repro.directory import build_catalog
        catalog = build_catalog(db.schema)
        assert catalog.query('From db-constraint Retrieve name'
                             ' Order By name').column(0) == ["v1", "v2"]
