"""VERIFY constraint enforcement (paper §3.3): trigger detection, immediate
and deferred checking, rollback on violation."""

import pytest

from repro import ConstraintViolation, Database
from repro.workloads import UNIVERSITY_DDL, build_university


@pytest.fixture()
def db():
    """UNIVERSITY with constraints ON (immediate mode)."""
    database = Database(UNIVERSITY_DDL, constraint_mode="immediate")
    database.execute('Insert course(course-no := 1, title := "Heavy",'
                     ' credits := 12)')
    database.execute('Insert course(course-no := 2, title := "Light",'
                     ' credits := 2)')
    return database


class TestV1CreditSum:
    def test_insert_with_enough_credits_passes(self, db):
        db.execute('Insert student(soc-sec-no := 1, courses-enrolled :='
                   ' course with (title = "Heavy"))')

    def test_insert_with_too_few_credits_fails(self, db):
        with pytest.raises(ConstraintViolation) as info:
            db.execute('Insert student(soc-sec-no := 1, courses-enrolled :='
                       ' course with (title = "Light"))')
        assert "too few credits" in str(info.value)
        # statement rolled back entirely
        assert len(db.query("From person Retrieve soc-sec-no")) == 0

    def test_dropping_course_below_threshold_fails(self, db):
        db.execute('Insert student(soc-sec-no := 1, courses-enrolled :='
                   ' course with (title = "Heavy"))')
        with pytest.raises(ConstraintViolation):
            db.execute('Modify student(courses-enrolled := exclude'
                       ' courses-enrolled with (title = "Heavy"))'
                       ' Where soc-sec-no = 1')
        # unchanged
        assert db.query('From student Retrieve count(courses-enrolled) of'
                        ' student').scalar() == 1

    def test_modifying_course_credits_triggers_enrolled_students(self, db):
        # Changing CREDITS can violate v1 for students of that course —
        # trigger detection must catch the dependency through the EVA.
        db.execute('Insert student(soc-sec-no := 1, courses-enrolled :='
                   ' course with (title = "Heavy"))')
        with pytest.raises(ConstraintViolation):
            db.execute('Modify course(credits := 2)'
                       ' Where title = "Heavy"')

    def test_unrelated_update_not_checked(self, db):
        db.execute('Insert student(soc-sec-no := 1, courses-enrolled :='
                   ' course with (title = "Heavy"))')
        before = db.perf.constraint_checks_run
        db.execute('Modify person(name := "Renamed") Where soc-sec-no = 1')
        # name is not a term of v1 or v2: no checks run.
        assert db.perf.constraint_checks_run == before


class TestV2SalaryBonus:
    def test_cap_enforced(self, db):
        with pytest.raises(ConstraintViolation) as info:
            db.execute('Insert instructor(soc-sec-no := 1,'
                       ' employee-nbr := 1001, salary := 90000,'
                       ' bonus := 20000)')
        assert "too much money" in str(info.value)

    def test_null_bonus_passes_like_sql_check(self, db):
        # salary + NULL bonus is unknown; unknown passes (SQL CHECK rule).
        db.execute('Insert instructor(soc-sec-no := 1, employee-nbr := 1001,'
                   ' salary := 90000)')

    def test_raise_over_cap_rejected(self, db):
        db.execute('Insert instructor(soc-sec-no := 1, employee-nbr := 1001,'
                   ' salary := 60000, bonus := 0)')
        with pytest.raises(ConstraintViolation):
            db.execute('Modify instructor(salary := 2 * salary)'
                       ' Where employee-nbr = 1001')


class TestDeferredMode:
    def test_violations_checked_at_commit(self):
        db = Database(UNIVERSITY_DDL, constraint_mode="deferred")
        db.execute('Insert course(course-no := 1, title := "Heavy",'
                   ' credits := 12)')
        db.begin()
        # Temporarily violating insert is fine inside the transaction...
        db.execute('Insert student(soc-sec-no := 1)')
        # ...as long as it is repaired before commit.
        db.execute('Modify student(courses-enrolled := include course with'
                   ' (title = "Heavy")) Where soc-sec-no = 1')
        db.commit()
        assert len(db.query("From student Retrieve soc-sec-no")) == 1

    def test_unrepaired_violation_fails_commit(self):
        db = Database(UNIVERSITY_DDL, constraint_mode="deferred")
        db.begin()
        db.execute('Insert student(soc-sec-no := 1)')
        with pytest.raises(ConstraintViolation):
            db.commit()
        db.abort()
        assert len(db.query("From student Retrieve soc-sec-no")) == 0

    def test_transaction_context_aborts_on_violation(self):
        db = Database(UNIVERSITY_DDL, constraint_mode="deferred")
        with pytest.raises(ConstraintViolation):
            with db.transaction():
                db.execute('Insert student(soc-sec-no := 1)')
        assert len(db.query("From student Retrieve soc-sec-no")) == 0


class TestDeferredTouchesBelongToTheirTransaction:
    """Deferred touches live on the transaction that made them: checked
    at its commit, dropped with its abort, never another's business."""

    @pytest.fixture()
    def db(self):
        return Database(UNIVERSITY_DDL, constraint_mode="deferred")

    def test_an_auto_committed_statement_is_checked_at_its_commit(self, db):
        with pytest.raises(ConstraintViolation):
            db.execute('Insert student(soc-sec-no := 1)')
        assert len(db.query("From student Retrieve soc-sec-no")) == 0
        db.begin()
        db.execute('Insert department(dept-nbr := 100, name := "D")')
        db.commit()             # owes nothing for the failed statement

    def test_one_sessions_abort_keeps_anothers_touches(self, db):
        a, b = db.session(), db.session()
        a.execute('Insert student(soc-sec-no := 1)')
        b.execute('Insert department(dept-nbr := 100, name := "D")')
        b.abort()
        with pytest.raises(ConstraintViolation):
            a.commit()
        assert len(db.query("From student Retrieve soc-sec-no")) == 0

    def test_one_sessions_commit_checks_only_its_own_touches(self, db):
        a, b = db.session(), db.session()
        a.execute('Insert student(soc-sec-no := 1)')
        b.execute('Insert department(dept-nbr := 100, name := "D")')
        b.commit()
        with pytest.raises(ConstraintViolation):
            a.commit()
        assert len(db.query("From department Retrieve dept-nbr")) == 1


class TestTriggerAnalysis:
    def test_terms_collected(self, db):
        compiled = db.constraints.compiled
        v1 = next(c for c in compiled if c.constraint.name == "v1")
        assert ("class", "student") in v1.terms
        assert ("attr", "student", "courses-enrolled") in v1.terms
        assert ("attr", "course", "students-enrolled") in v1.terms
        assert ("attr", "course", "credits") in v1.terms

    def test_each_chain_is_walked_back_once(self):
        """v1's scoped path names the same EVA node as its scope; the
        propagation walks it back once, not once per mention."""
        db = build_university(seed=7, constraint_mode="immediate")
        v1 = next(c for c in db.constraints.compiled
                  if c.constraint.name == "v1")
        assert len(v1.chain_nodes) == 1
        store, manager = db.store, db.constraints
        calls = []
        propagate = manager._propagate

        def counted(compiled, entities):
            def eva_targets(*args):
                calls.append(args)
                return type(store).eva_targets(store, *args)
            store.eva_targets = eva_targets
            try:
                return propagate(compiled, entities)
            finally:
                del store.eva_targets

        manager._propagate = counted
        db.execute('Insert course(course-no := 999, title := "New",'
                   ' credits := 3)')
        db.execute('Delete course Where course-no = 999')
        # One back-traversal for the inserted course (the listed-twice
        # node made it two); the deleted one is no course any more.
        assert len(calls) == 1

    def test_skip_counter_grows_for_untriggered(self, db):
        before = db.perf.constraint_checks_skipped
        db.execute('Insert department(dept-nbr := 100, name := "D")')
        assert db.perf.constraint_checks_skipped > before

    def test_off_mode_never_checks(self):
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        db.execute('Insert student(soc-sec-no := 1)')   # v1 would fail
        assert db.perf.constraint_checks_run == 0
