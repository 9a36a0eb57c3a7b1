"""Temporal data tests (paper §6): one time axis, the commit epoch.

``track_history=True`` keeps every committed version in the Mapper's
version chains; the clock is the commit epoch; an as-of read is the read
protocol under a pin (``MapperStore.as_of``); histories are derived from
the chains on demand.  What never committed leaves no trace.
"""

import threading

import pytest

from repro import Database, SimError
from repro.errors import UniquenessViolation
from repro.types.tvl import NULL, is_null
from repro.workloads import UNIVERSITY_DDL


@pytest.fixture()
def db():
    database = Database(UNIVERSITY_DDL, constraint_mode="off",
                        track_history=True)
    database.execute('Insert course(course-no := 1, title := "A",'
                     ' credits := 3)')                                 # t1
    database.execute('Insert course(course-no := 2, title := "B",'
                     ' credits := 4)')                                 # t2
    database.execute('Insert student(soc-sec-no := 1, courses-enrolled :='
                     ' course with (title = "A"))')                    # t3
    return database


def student(db):
    return db.query("From student Retrieve student").scalar()


def course(db, title):
    return db.query(f'From course Retrieve course'
                    f' Where title = "{title}"').scalar()


def steps(history):
    return [(step.epoch, step.old, step.new) for step in history]


class TestScalarHistory:
    def test_transitions_recorded(self, db):
        db.execute('Modify student(name := "First") Where soc-sec-no = 1')
        db.execute('Modify student(name := "Second") Where soc-sec-no = 1')
        assert steps(db.attribute_history(student(db), "student", "name")) \
            == [(4, NULL, "First"), (5, "First", "Second")]

    def test_initial_values_arrive_with_the_role(self, db):
        assert steps(db.attribute_history(course(db, "A"), "course",
                                          "credits")) == [(1, NULL, 3)]

    def test_scalar_as_of(self, db):
        b = course(db, "B")
        db.execute('Modify course(credits := 9) Where title = "B"')   # t4
        db.execute('Modify course(credits := 11) Where title = "B"')  # t5
        assert db.value_as_of(b, "course", "credits", 3) == 4
        assert db.value_as_of(b, "course", "credits", 4) == 9
        assert db.value_as_of(b, "course", "credits", 5) == 11

    def test_clock_steps_per_effective_statement(self, db):
        before = db.clock
        db.execute('Modify course(credits := 5) Where title = "A"')
        db.execute('Modify course(credits := 6) Where title = "A"')
        assert db.clock == before + 2

    def test_queries_do_not_tick(self, db):
        before = db.clock
        db.query("From course Retrieve title")
        assert db.clock == before

    def test_statement_that_changes_nothing_does_not_tick(self, db):
        before = db.clock
        assert db.execute('Modify course(credits := 5)'
                          ' Where title = "no such course"') == 0
        assert db.execute('Delete student Where soc-sec-no = 77') == 0
        assert db.clock == before

    def test_explicit_transaction_collapses_to_one_epoch(self, db):
        b = course(db, "B")
        before = db.clock
        with db.transaction():
            db.execute('Modify course(credits := 9) Where title = "B"')
            # a pin never sees half a transaction, not even one's own
            assert db.value_as_of(b, "course", "credits", db.clock) == 4
            db.execute('Modify course(credits := 11) Where title = "B"')
            db.execute('Modify course(title := "B2") Where title = "B"')
        assert db.clock == before + 1
        assert steps(db.attribute_history(b, "course", "credits")) == [
            (2, NULL, 4), (before + 1, 4, 11)]
        assert db.value_as_of(b, "course", "title", before) == "B"
        assert db.value_as_of(b, "course", "title", before + 1) == "B2"


class TestCollectionHistory:
    def test_eva_as_of(self, db):
        surr = student(db)
        course_a, course_b = course(db, "A"), course(db, "B")
        db.execute('Modify student(courses-enrolled := include course with'
                   ' (title = "B")) Where soc-sec-no = 1')             # t4
        db.execute('Modify student(courses-enrolled := exclude'
                   ' courses-enrolled with (title = "A"))'
                   ' Where soc-sec-no = 1')                            # t5
        assert db.value_as_of(surr, "student", "courses-enrolled", 3) == \
            [course_a]
        assert sorted(db.value_as_of(surr, "student", "courses-enrolled",
                                     4)) == sorted([course_a, course_b])
        assert db.value_as_of(surr, "student", "courses-enrolled", 5) == \
            [course_b]
        # the history is the sequence of the collection's versions
        assert steps(db.attribute_history(
            surr, "student", "courses-enrolled")) == [
                (3, (), (course_a,)),
                (4, (course_a,), (course_a, course_b)),
                (5, (course_a, course_b), (course_b,))]

    def test_inverse_side_history_recorded(self, db):
        assert steps(db.attribute_history(
            course(db, "A"), "course", "students-enrolled")) == [
                (3, (), (student(db),))]
        assert db.value_as_of(course(db, "A"), "course",
                              "students-enrolled", 2) == []

    def test_mv_dva_versions(self):
        """An array-mapped (``max``) and a separate-unit MV DVA."""
        db = Database("""
            Class Contact (
              name: string[20] required;
              phones: integer mv (max 4);
              nicknames: string[10] mv );
            """, track_history=True)
        db.execute('Insert contact(name := "Sam", phones := 1)')       # t1
        surr = db.query("From contact Retrieve contact").scalar()
        db.execute('Modify contact(phones := include 2)')              # t2
        db.execute('Modify contact(phones := exclude 1)')              # t3
        db.execute('Modify contact(nicknames := include "Sam")')       # t4
        db.execute('Modify contact(nicknames := include "Sammy")')     # t5
        db.execute('Modify contact(nicknames := exclude "Sam")')       # t6
        assert db.value_as_of(surr, "contact", "phones", 1) == [1]
        assert db.value_as_of(surr, "contact", "phones", 2) == [1, 2]
        assert steps(db.attribute_history(surr, "contact", "phones")) == [
            (1, (), (1,)), (2, (1,), (1, 2)), (3, (1, 2), (2,))]
        assert db.value_as_of(surr, "contact", "nicknames", 3) == []
        assert db.value_as_of(surr, "contact", "nicknames", 5) == [
            "Sam", "Sammy"]
        assert steps(db.attribute_history(surr, "contact", "nicknames")) == [
            (4, (), ("Sam",)), (5, ("Sam",), ("Sam", "Sammy")),
            (6, ("Sam", "Sammy"), ("Sammy",))]


class TestWhatNeverCommittedLeavesNoTrace:
    """The journal this replaced recorded writes at the time they were
    made, and nothing un-journalled them on abort."""

    def check_untouched(self, db, clock):
        a = course(db, "A")
        assert db.clock == clock                       # it never happened
        assert db.value_as_of(student(db), "student", "courses-enrolled",
                              clock) == [a]            # no duplicate
        assert db.query("From student Retrieve courses-enrolled"
                        ).column(0) == [a]
        assert db.value_as_of(a, "course", "credits", clock) == 3
        assert steps(db.attribute_history(a, "course", "credits")) == [
            (1, NULL, 3)]                              # no 3 -> 9
        assert steps(db.attribute_history(
            student(db), "student", "courses-enrolled")) == [(3, (), (a,))]

    def test_aborted_transaction(self, db):
        clock = db.clock
        db.begin()
        db.execute('Modify student(courses-enrolled := exclude'
                   ' courses-enrolled with (title = "A"))'
                   ' Where soc-sec-no = 1')
        db.execute('Modify course(credits := 9) Where title = "A"')
        db.abort()
        self.check_untouched(db, clock)

    def test_failed_statement(self, db):
        clock = db.clock
        with pytest.raises(UniquenessViolation):
            # the exclude and the credits change are applied, then the
            # course-no collides with course B's and the statement rolls
            # back
            db.execute('Modify course(students-enrolled := exclude'
                       ' students-enrolled with (soc-sec-no = 1),'
                       ' credits := 9, course-no := 2) Where title = "A"')
        self.check_untouched(db, clock)

    def test_session_abort(self, db):
        clock = db.clock
        session = db.session()
        session.execute('Modify student(courses-enrolled := exclude'
                        ' courses-enrolled with (title = "A"))'
                        ' Where soc-sec-no = 1')
        session.execute('Modify course(credits := 9) Where title = "A"')
        session.abort()
        self.check_untouched(db, clock)


class TestRoleHistory:
    def test_role_acquisition_ticks(self, db):
        surr = student(db)
        assert not db.had_role_at(surr, "student", 2)
        assert db.had_role_at(surr, "student", 3)

    def test_role_loss(self, db):
        surr = student(db)
        db.execute('Delete student Where soc-sec-no = 1')   # t4
        assert db.had_role_at(surr, "student", 3)
        assert not db.had_role_at(surr, "student", db.clock)
        assert db.had_role_at(surr, "person", db.clock)

    def test_role_sets_version_by_version(self, db):
        surr = student(db)
        db.execute('Insert instructor From person Where soc-sec-no = 1'
                   ' (employee-nbr := 1001)')               # t4
        db.execute('Delete student Where soc-sec-no = 1')   # t5
        assert steps(db.role_history(surr)) == [
            (3, (), ("person", "student")),
            (4, ("person", "student"), ("person", "student", "instructor")),
            (5, ("person", "student", "instructor"),
             ("person", "instructor"))]

    def test_subrole_as_of(self, db):
        surr = student(db)
        db.execute('Insert instructor From person Where soc-sec-no = 1'
                   ' (employee-nbr := 1001)')               # t4
        assert db.value_as_of(surr, "person", "profession", 2) == []
        assert db.value_as_of(surr, "person", "profession", 3) == ["student"]
        assert db.value_as_of(surr, "person", "profession", 4) == [
            "student", "instructor"]
        assert steps(db.attribute_history(surr, "person", "profession")) == [
            (3, (), ("student",)), (4, ("student",),
                                    ("student", "instructor"))]


class TestApi:
    def test_history_off_by_default(self):
        plain = Database(UNIVERSITY_DDL, constraint_mode="off")
        plain.execute('Insert course(course-no := 1, title := "A",'
                      ' credits := 3)')
        for call in (lambda: plain.clock,
                     lambda: plain.value_as_of(1, "course", "credits", 0),
                     lambda: plain.had_role_at(1, "course", 0),
                     lambda: plain.attribute_history(1, "course", "credits"),
                     lambda: plain.role_history(1)):
            with pytest.raises(SimError, match="history tracking is off"):
                call()

    def test_value_as_of_before_existence_is_null(self, db):
        assert is_null(db.value_as_of(course(db, "A"), "course",
                                      "credits", 0))

    def test_transition_describe(self, db):
        db.execute('Modify course(credits := 9) Where title = "A"')
        step = db.attribute_history(course(db, "A"), "course",
                                    "credits")[-1]
        assert step.describe() == "t4: 3 -> 9"

    def test_history_is_volatile(self, db):
        """A crash loses the chains (they are volatile, like the
        indexes): epochs before it are refused, not answered wrongly."""
        a = course(db, "A")
        db.simulate_crash()
        assert db.attribute_history(a, "course", "credits") == []
        with pytest.raises(SimError, match="older than the retained"):
            db.value_as_of(a, "course", "credits", 2)
        assert db.value_as_of(a, "course", "credits", db.clock) == 3
        db.execute('Modify course(credits := 9) Where title = "A"')
        assert steps(db.attribute_history(a, "course", "credits")) == [
            (db.clock, 3, 9)]

    def test_saved_database_reopens_with_history_on(self, db, tmp_path):
        path = str(tmp_path / "history.sim")
        db.save(path)
        reopened = Database.open(path)
        a = course(reopened, "A")
        reopened.execute('Modify course(credits := 9) Where title = "A"')
        assert steps(reopened.attribute_history(a, "course", "credits")) \
            == [(reopened.clock, 3, 9)]


def test_as_of_reads_beside_a_committing_session(db):
    """An as-of pin on one thread while a Session commits on another:
    every pinned read is one of the committed versions, never a torn or
    uncommitted one (and, under ``make lockdep``, in rank order)."""
    b = course(db, "B")
    base = db.clock
    rounds = 40
    failures = []

    def writer():
        try:
            session = db.session()
            for n in range(rounds):
                session.execute(f'Modify course(credits := {n % 15 + 1},'
                                f' title := "B{n}") Where course-no = 2')
                session.commit()
        except Exception as exc:        # reported by the main thread
            failures.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    while thread.is_alive():
        epoch = db.clock
        credits = db.value_as_of(b, "course", "credits", epoch)
        title = db.value_as_of(b, "course", "title", epoch)
        if epoch == base:
            assert (credits, title) == (4, "B")
        else:
            n = epoch - base - 1
            assert (credits, title) == (n % 15 + 1, f"B{n}")
    thread.join(timeout=30)
    assert not thread.is_alive() and not failures
    assert db.clock == base + rounds
    assert [step.new for step in db.attribute_history(
        b, "course", "title")] == ["B"] + [f"B{n}" for n in range(rounds)]
    assert db.statistics()["storage"]["mvcc"]["active_snapshots"] == 0
