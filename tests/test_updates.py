"""Update statement semantics (paper §4.8)."""

import pytest
from decimal import Decimal

from repro.errors import (
    CardinalityViolation,
    IntegrityError,
    RequiredViolation,
    UniquenessViolation,
)
from repro.types.tvl import is_null


class TestInsert:
    def test_insert_creates_all_superclass_roles(self, empty_university):
        db = empty_university
        db.execute('Insert teaching-assistant(name := "T", soc-sec-no := 1,'
                   ' employee-nbr := 1001, teaching-load := 5)')
        rows = db.query('From person Retrieve name, profession').rows
        assert ("T", "student") in rows and ("T", "instructor") in rows

    def test_assignments_distributed_to_declaring_classes(self,
                                                          empty_university):
        db = empty_university
        db.execute('Insert student(name := "S", soc-sec-no := 1,'
                   ' student-nbr := 2001)')
        row = db.query('From student Retrieve name, student-nbr').rows[0]
        assert row == ("S", 2001)

    def test_type_validation(self, empty_university):
        with pytest.raises(Exception):
            empty_university.execute(
                'Insert student(soc-sec-no := 1, student-nbr := 50000)')

    def test_required_enforced(self, empty_university):
        with pytest.raises(RequiredViolation):
            empty_university.execute('Insert person(name := "X")')

    def test_unique_enforced(self, empty_university):
        empty_university.execute('Insert person(soc-sec-no := 1)')
        with pytest.raises(UniquenessViolation):
            empty_university.execute('Insert person(soc-sec-no := 1)')

    def test_statement_is_atomic_on_failure(self, empty_university):
        db = empty_university
        # unique employee-nbr collision happens after the person role is
        # created; the whole statement must roll back.
        db.execute('Insert instructor(soc-sec-no := 1, employee-nbr := 1001)')
        with pytest.raises(UniquenessViolation):
            db.execute('Insert instructor(soc-sec-no := 2,'
                       ' employee-nbr := 1001)')
        assert len(db.query("From person Retrieve soc-sec-no")) == 1

    @pytest.mark.parametrize("path", ["auto-commit", "transaction",
                                      "session"])
    def test_duplicate_unique_key_stores_nothing(self, empty_university,
                                                 path):
        """``add_role`` probes the unique indexes before it stores the
        record: a refused Insert leaves no record behind for the
        statement's rollback to miss."""
        db = empty_university
        first = ('Insert course(course-no := 5000, title := "Kept",'
                 ' credits := 3)')
        duplicate = ('Insert course(course-no := 5000, title := "Refused",'
                     ' credits := 4)')
        db.execute(first)
        if path == "auto-commit":
            with pytest.raises(UniquenessViolation):
                db.execute(duplicate)
        elif path == "transaction":
            with db.transaction():
                # an earlier statement of the transaction must survive
                db.execute('Insert course(course-no := 5001,'
                           ' title := "Earlier", credits := 2)')
                with pytest.raises(UniquenessViolation):
                    db.execute(duplicate)
        else:
            with db.session() as session:
                session.execute('Insert course(course-no := 5001,'
                                ' title := "Earlier", credits := 2)')
                with pytest.raises(UniquenessViolation):
                    session.execute(duplicate)
        titles = ["Kept"] if path == "auto-commit" else ["Earlier", "Kept"]
        assert db.store.class_count("course") == len(titles)
        assert sorted(db.query("From course Retrieve title").column(0)) == \
            titles
        assert db.check().ok, db.check().summary()
        # the key is free again once its holder is gone
        assert db.execute('Delete course Where course-no = 5000') == 1
        db.execute(duplicate)
        assert db.query('From course Retrieve title'
                        ' Where course-no = 5000').column(0) == ["Refused"]
        assert db.check().ok

    def test_insert_from_extends_roles(self, small_university):
        db = small_university
        db.execute('Insert instructor From person Where name = "John Doe"'
                   ' (employee-nbr := 1731)')
        rows = db.query('From person Retrieve profession'
                        ' Where name = "John Doe"').rows
        assert set(r[0] for r in rows) == {"student", "instructor"}

    def test_insert_from_adds_intermediate_roles(self, small_university):
        db = small_university
        # John is a student; making him a TA must add INSTRUCTOR "as
        # needed" (paper §4.8).
        db.execute('Insert teaching-assistant From student'
                   ' Where name = "John Doe"'
                   ' (employee-nbr := 1731, teaching-load := 4)')
        rows = db.query('From teaching-assistant Retrieve name,'
                        ' teaching-load').rows
        assert rows == [("John Doe", 4)]
        assert len(db.query('From instructor Retrieve name'
                            ' Where name = "John Doe"')) == 1

    def test_insert_from_existing_role_rejected(self, small_university):
        with pytest.raises(IntegrityError):
            small_university.execute(
                'Insert student From person Where name = "John Doe"')

    def test_insert_from_non_ancestor_rejected(self, small_university):
        with pytest.raises(IntegrityError):
            small_university.execute(
                'Insert student From course Where title = "Algebra I"')

    def test_assignment_outside_inserted_classes_rejected(self,
                                                          small_university):
        # On role extension, only immediate attributes of the inserted
        # classes may be assigned.
        with pytest.raises(IntegrityError):
            small_university.execute(
                'Insert instructor From person Where name = "John Doe"'
                ' (employee-nbr := 1750, name := "New Name")')

    def test_insert_with_eva_selector(self, small_university):
        db = small_university
        db.execute('Insert student(name := "New", soc-sec-no := 777,'
                   ' advisor := instructor with (name = "Jane Roe"))')
        row = db.query('From student Retrieve name of advisor'
                       ' Where name = "New"').rows[0]
        assert row == ("Jane Roe",)

    def test_sv_eva_selector_must_match_exactly_one(self, small_university):
        with pytest.raises(IntegrityError):
            small_university.execute(
                'Insert student(soc-sec-no := 778,'
                ' advisor := instructor with (salary > 0))')

    def test_system_attribute_not_assignable(self, empty_university):
        with pytest.raises(IntegrityError):
            empty_university.execute(
                'Insert person(soc-sec-no := 1, profession := "student")')


class TestModify:
    def test_simple_assignment(self, small_university):
        db = small_university
        db.execute('Modify course(credits := 6) Where title = "Algebra I"')
        assert db.query('From course Retrieve credits'
                        ' Where title = "Algebra I"').scalar() == 6

    def test_expression_reads_own_entity(self, small_university):
        db = small_university
        db.execute('Modify instructor(salary := 1.1 * salary)'
                   ' Where name = "Joe Bloke"')
        value = db.query('From instructor Retrieve salary'
                         ' Where name = "Joe Bloke"').scalar()
        assert value == Decimal("55000.00")

    def test_inherited_attribute_modifiable(self, small_university):
        db = small_university
        db.execute('Modify student(name := "J. Doe")'
                   ' Where soc-sec-no = 456887766')
        assert len(db.query('From person Retrieve name'
                            ' Where name = "J. Doe"')) == 1

    def test_where_selects_multiple(self, small_university):
        count = small_university.execute(
            'Modify course(credits := 1) Where credits >= 3')
        assert count == 3

    def test_eva_replacement(self, small_university):
        db = small_university
        db.execute('Modify student(advisor := instructor with'
                   ' (name = "Jane Roe")) Where name = "John Doe"')
        assert db.query('From student Retrieve name of advisor'
                        ' Where name = "John Doe"').scalar() == "Jane Roe"
        # Joe no longer has John among advisees.
        assert db.query('From instructor Retrieve count(advisees) of'
                        ' instructor Where name = "Joe Bloke"').scalar() == 0

    def test_include_exclude_on_mv_eva(self, small_university):
        db = small_university
        db.execute('Modify student(courses-enrolled := include course with'
                   ' (title = "Calculus I")) Where name = "John Doe"')
        assert db.query('From student Retrieve count(courses-enrolled) of'
                        ' student Where name = "John Doe"').scalar() == 2
        db.execute('Modify student(courses-enrolled := exclude'
                   ' courses-enrolled with (title = "Algebra I"))'
                   ' Where name = "John Doe"')
        rows = db.query('From student Retrieve title of courses-enrolled'
                        ' Where name = "John Doe"').rows
        assert rows == [("Calculus I",)]

    def test_include_duplicate_is_noop(self, small_university):
        db = small_university
        db.execute('Modify student(courses-enrolled := include course with'
                   ' (title = "Algebra I")) Where name = "John Doe"')
        assert db.query('From student Retrieve count(courses-enrolled) of'
                        ' student Where name = "John Doe"').scalar() == 1

    def test_exclude_all_with_bare_eva_name(self, small_university):
        db = small_university
        db.execute('Modify student(courses-enrolled := exclude'
                   ' courses-enrolled) Where name = "John Doe"')
        assert db.query('From student Retrieve count(courses-enrolled) of'
                        ' student Where name = "John Doe"').scalar() == 0

    def test_max_cardinality_enforced(self, small_university):
        db = small_university
        # courses-taught has MAX 3.
        for title in ("Algebra I", "Calculus I", "Quantum Chromodynamics"):
            db.execute(f'Modify instructor(courses-taught := include course'
                       f' with (title = "{title}"))'
                       f' Where name = "Joe Bloke"')
        db.execute('Insert course(course-no := 301, title := "More",'
                   ' credits := 1)')
        with pytest.raises(CardinalityViolation):
            db.execute('Modify instructor(courses-taught := include course'
                       ' with (title = "More")) Where name = "Joe Bloke"')

    def test_inverse_side_max_enforced(self, empty_university):
        db = empty_university
        db.execute('Insert course(course-no := 1, title := "T", credits := 1)')
        # teachers has MAX 7 on the course side.
        for k in range(7):
            db.execute(f'Insert instructor(soc-sec-no := {k + 1},'
                       f' employee-nbr := {1001 + k},'
                       f' courses-taught := course with (title = "T"))')
        with pytest.raises(CardinalityViolation):
            db.execute('Insert instructor(soc-sec-no := 99,'
                       ' employee-nbr := 1099,'
                       ' courses-taught := course with (title = "T"))')

    def test_required_cannot_be_nulled(self, small_university):
        with pytest.raises(Exception):
            small_university.execute(
                'Modify course(title := unknown-thing)'
                ' Where course-no = 101')

    def test_sv_eva_single_valuedness_enforced(self, small_university):
        db = small_university
        # The inverse of spouse is single-valued: marrying A to B then C to
        # B must fail.
        db.execute('Insert person(name := "A", soc-sec-no := 11)')
        db.execute('Insert person(name := "B", soc-sec-no := 12)')
        db.execute('Insert person(name := "C", soc-sec-no := 13)')
        db.execute('Modify person(spouse := person with (name = "B"))'
                   ' Where name = "A"')
        with pytest.raises((CardinalityViolation, IntegrityError)):
            db.execute('Modify person(spouse := person with (name = "B"))'
                       ' Where name = "C"')


class TestDelete:
    def test_delete_subclass_role_keeps_superclass(self, small_university):
        db = small_university
        db.execute('Delete student Where name = "John Doe"')
        assert len(db.query('From student Retrieve name'
                            ' Where name = "John Doe"')) == 0
        assert len(db.query('From person Retrieve name'
                            ' Where name = "John Doe"')) == 1

    def test_delete_base_cascades_to_all_roles(self, small_university):
        db = small_university
        db.execute('Delete person Where name = "John Doe"')
        assert len(db.query('From student Retrieve name'
                            ' Where name = "John Doe"')) == 0

    def test_delete_removes_eva_instances(self, small_university):
        db = small_university
        db.execute('Delete person Where name = "Joe Bloke"')
        rows = db.query('From student Retrieve name, name of advisor'
                        ' Where name = "John Doe"').rows
        assert is_null(rows[0][1])

    def test_delete_count(self, small_university):
        assert small_university.execute("Delete course") == 3

    def test_delete_with_subclass_cascade_counts_entity_once(
            self, empty_university):
        db = empty_university
        db.execute('Insert teaching-assistant(soc-sec-no := 1,'
                   ' employee-nbr := 1001)')
        assert db.execute("Delete student") == 1
        # instructor role survives (deleted only the student branch + TA).
        assert len(db.query("From instructor Retrieve soc-sec-no")) == 1
        assert len(db.query("From teaching-assistant Retrieve soc-sec-no")) \
            == 0
