"""Golden tests for simcheck (repro.analysis): one per SIM*** rule.

Every rule is exercised with a minimal reproducer and checked for its
code, severity, span and message — plus the clean-sweep guarantees: the
UNIVERSITY schema and its canonical workload produce zero errors and
zero warnings, and the plan verifier is green for every query form.
"""

from __future__ import annotations

import os
import re

import pytest

from repro import Database
from repro.analysis import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    lint_retrieve,
    lint_schema,
    lint_update,
    verify_plan,
)
from repro.dml.parser import parse_dml
from repro.dml.query_tree import TYPE1, TYPE2, TYPE3
from repro.errors import (
    IntegrityError,
    PlanVerificationError,
    QualificationError,
    StaticAnalysisError,
    StaticTypeError,
    StaticUpdateError,
    TypeMismatchError,
)
from repro.optimizer.plan import AccessPath, Plan
from repro.workloads import UNIVERSITY_DDL
from repro.workloads.university import UNIVERSITY_QUERIES


def codes(diagnostics):
    return [d.code for d in diagnostics]


def find(diagnostics, code):
    matching = [d for d in diagnostics if d.code == code]
    assert matching, f"expected {code} in {codes(diagnostics)}"
    return matching[0]


def assert_none_of_severity(diagnostics, severity):
    offending = [d for d in diagnostics if d.severity == severity]
    assert not offending, [d.describe() for d in offending]


# -- Rule catalog ----------------------------------------------------------------


class TestCatalog:
    def test_codes_are_stable_and_well_formed(self):
        for code, rule in RULES.items():
            assert code == rule.code
            assert code.startswith("SIM") and code[3:].isdigit()
            assert rule.severity in (ERROR, WARNING, INFO)
            assert rule.title

    def test_every_code_has_one_row_in_the_reference(self):
        """docs/DIAGNOSTICS.md lists each catalogued code once, with its
        severity; a code it lists beyond the catalog is a retired one,
        kept so that it is never reused."""
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "docs", "DIAGNOSTICS.md")
        rows = {}
        with open(path) as handle:
            for line in handle:
                match = re.match(r"\| (SIM\d{3}) \| ([^|]*) \| ([^|]*) \|",
                                 line)
                if match:
                    rows.setdefault(match.group(1), []).append(
                        (match.group(2).strip(), match.group(3)))
        for code, rule in RULES.items():
            assert [severity for severity, _ in rows.get(code, [])] \
                == [rule.severity], code
        retired = {code: meaning for code, [(_, meaning)] in rows.items()
                   if code not in RULES}
        assert all("retired" in meaning for meaning in retired.values()), \
            retired

    def test_severity_defaults_from_catalog(self):
        diagnostics = lint_schema("Type unused = integer (1..2);\n"
                                  "Class a ( x: integer );")
        note = find(diagnostics, "SIM040")
        assert note.severity == INFO
        assert note.rule.title == "named type is never used"


# -- Schema lint (SIM0xx) --------------------------------------------------------


class TestSchemaLint:
    def test_sim000_ddl_syntax_error(self):
        diagnostics = lint_schema("Class a ( x integer );")
        diagnostic = find(diagnostics, "SIM000")
        assert diagnostic.severity == ERROR

    def test_sim001_unknown_superclass(self):
        diagnostics = lint_schema("Subclass b of missing ( y: integer );")
        diagnostic = find(diagnostics, "SIM001")
        assert "missing" in diagnostic.message
        assert diagnostic.span.line == 1

    def test_sim002_generalization_cycle(self):
        diagnostics = lint_schema(
            "Subclass a of b ( x: integer );\n"
            "Subclass b of a ( y: integer );")
        assert "SIM002" in codes(diagnostics)

    def test_sim003_multiple_base_ancestors(self):
        diagnostics = lint_schema(
            "Class a ( x: integer );\n"
            "Class b ( y: integer );\n"
            "Subclass c of a and b ( z: integer );")
        diagnostic = find(diagnostics, "SIM003")
        assert "'c'" in diagnostic.message

    def test_diamond_over_one_base_is_legal(self):
        # The Teaching-Assistant pattern: two superclasses, one base.
        diagnostics = lint_schema(UNIVERSITY_DDL)
        assert "SIM003" not in codes(diagnostics)

    def test_sim010_unknown_range_class(self):
        diagnostics = lint_schema(
            "Class a ( friend: missing inverse is pal );")
        diagnostic = find(diagnostics, "SIM010")
        assert "missing" in diagnostic.message

    def test_sim011_missing_inverse_is_info(self):
        diagnostics = lint_schema(
            "Class a ( friend: b );\nClass b ( x: integer );")
        diagnostic = find(diagnostics, "SIM011")
        assert diagnostic.severity == INFO
        assert diagnostic.hint

    def test_sim012_one_sided_inverse(self):
        diagnostics = lint_schema(
            "Class a ( friend: b inverse is pal );\n"
            "Class b ( x: integer );")
        diagnostic = find(diagnostics, "SIM012")
        assert diagnostic.severity == WARNING

    def test_sim013_non_mutual_inverse(self):
        diagnostics = lint_schema(
            "Class a ( f1: b inverse is g; f2: b inverse is g );\n"
            "Class b ( g: a inverse is f1 );")
        diagnostic = find(diagnostics, "SIM013")
        assert "f2" in diagnostic.message

    def test_sim014_inverse_range_disagrees(self):
        diagnostics = lint_schema(
            "Class a ( friend: b inverse is pal );\n"
            "Class b ( pal: c inverse is friend );\n"
            "Class c ( x: integer );")
        assert "SIM014" in codes(diagnostics)

    def test_sim015_inverse_is_not_an_eva(self):
        diagnostics = lint_schema(
            "Class a ( friend: b inverse is tag );\n"
            "Class b ( tag: integer );")
        diagnostic = find(diagnostics, "SIM015")
        assert "tag" in diagnostic.message

    def test_sim016_required_on_both_directions(self):
        diagnostics = lint_schema(
            "Class a ( friend: b inverse is pal required );\n"
            "Class b ( pal: a inverse is friend required );")
        matching = [d for d in diagnostics if d.code == "SIM016"]
        assert len(matching) == 1     # reported once per pair, not per side

    def test_sim016_reflexive_required(self):
        diagnostics = lint_schema(
            "Class a ( spouse: a inverse is spouse required );")
        diagnostic = find(diagnostics, "SIM016")
        assert "first entity" in diagnostic.message

    def test_sim020_attribute_shadowing(self):
        diagnostics = lint_schema(
            "Class a ( x: integer );\n"
            "Subclass b of a ( x: string[5] );")
        diagnostic = find(diagnostics, "SIM020")
        assert diagnostic.span.line == 2

    def test_sim021_subrole_value_set_mismatch(self):
        diagnostics = lint_schema(
            "Class a ( role: subrole (b, missing) );\n"
            "Subclass b of a ( y: integer );")
        assert "SIM021" in codes(diagnostics)

    def test_sim022_two_subrole_attributes(self):
        diagnostics = lint_schema(
            "Class a ( r1: subrole (b); r2: subrole (b) );\n"
            "Subclass b of a ( y: integer );")
        assert "SIM022" in codes(diagnostics)

    def test_sim030_vacuous_verify(self):
        diagnostics = lint_schema(
            "Class a ( x: integer );\n"
            'Verify v on a assert 1 < 2 else "always";')
        diagnostic = find(diagnostics, "SIM030")
        assert diagnostic.severity == WARNING

    def test_sim031_verify_undeclared_attribute(self):
        diagnostics = lint_schema(
            "Class a ( x: integer );\n"
            'Verify v on a assert nosuch > 1 else "bad";')
        assert "SIM031" in codes(diagnostics)

    def test_sim032_verify_unknown_class(self):
        diagnostics = lint_schema(
            "Class a ( x: integer );\n"
            'Verify v on missing assert x > 1 else "bad";')
        assert "SIM032" in codes(diagnostics)

    def test_sim033_verify_assertion_parse_error(self):
        diagnostics = lint_schema(
            "Class a ( x: integer );\n"
            'Verify v on a assert x > > 1 else "bad";')
        diagnostic = find(diagnostics, "SIM033")
        assert diagnostic.span.line == 2    # rebased onto the declaration

    def test_sim040_unused_type(self):
        diagnostics = lint_schema(
            "Type shade = symbolic (red, blue);\n"
            "Class a ( x: integer );")
        diagnostic = find(diagnostics, "SIM040")
        assert "shade" in diagnostic.message
        assert diagnostic.span.line == 1

    def test_accepts_resolved_schema_objects(self):
        database = Database(UNIVERSITY_DDL)
        diagnostics = lint_schema(database.schema)
        assert_none_of_severity(diagnostics, ERROR)

    def test_university_schema_lints_clean(self):
        diagnostics = lint_schema(UNIVERSITY_DDL)
        assert_none_of_severity(diagnostics, ERROR)
        assert_none_of_severity(diagnostics, WARNING)


# -- Query lint (SIM10x / SIM11x) ------------------------------------------------


@pytest.fixture(scope="module")
def db():
    return Database(UNIVERSITY_DDL, constraint_mode="off")


class TestQualificationCodes:
    """Qualification failures carry their SIM10x code on the exception."""

    def test_sim101_unknown_attribute(self, db):
        with pytest.raises(QualificationError) as exc:
            db.compile("From student Retrieve nosuch")
        assert exc.value.diagnostic_code == "SIM101"

    def test_sim102_ambiguous_shorthand(self):
        database = Database(
            "Class a ( f: b inverse is f-of; g: b inverse is g-of );\n"
            "Class b ( x: integer; f-of: a inverse is f;"
            " g-of: a inverse is g );")
        with pytest.raises(QualificationError) as exc:
            database.compile("From a Retrieve x")    # via f or via g?
        assert exc.value.diagnostic_code == "SIM102"

    def test_sim104_no_perspective_inferable(self, db):
        with pytest.raises(QualificationError) as exc:
            db.compile("Retrieve name")     # person vs department vs course
        assert exc.value.diagnostic_code == "SIM104"

    def test_sim103_as_crosses_hierarchies(self, db):
        with pytest.raises(QualificationError) as exc:
            db.compile("From student Retrieve name of spouse as department")
        assert exc.value.diagnostic_code == "SIM103"

    def test_sim104_unknown_perspective(self, db):
        with pytest.raises(QualificationError) as exc:
            db.compile("From nosuch Retrieve name")
        assert exc.value.diagnostic_code == "SIM104"


class TestTypeRules:
    def test_sim110_entity_vs_value_comparison(self, db):
        with pytest.raises(StaticTypeError) as exc:
            db.compile("From student Retrieve name Where advisor > 3")
        assert exc.value.diagnostic_code == "SIM110"
        # compatibility: existing handlers catching the runtime type error
        assert isinstance(exc.value, TypeMismatchError)

    def test_sim111_mv_attribute_in_arithmetic_warns(self):
        database = Database(
            "Class team ( name: string[10]; scores: integer mv );")
        compiled = database.compile(
            "From team Retrieve name Where scores + 1 > 3")
        diagnostic = find(compiled.diagnostics, "SIM111")
        assert diagnostic.severity == WARNING

    def test_sim112_incomparable_families(self, db):
        with pytest.raises(StaticTypeError) as exc:
            db.compile("From student Retrieve name Where name > 3")
        assert exc.value.diagnostic_code == "SIM112"

    def test_sim112_like_on_numbers(self, db):
        with pytest.raises(StaticTypeError) as exc:
            db.compile('From instructor Retrieve name '
                       'Where salary like "5%"')
        assert "LIKE" in str(exc.value)

    def test_sim113_literal_outside_domain_warns(self, db):
        compiled = db.compile(
            "From course Retrieve title Where credits = 99")
        diagnostic = find(compiled.diagnostics, "SIM113")
        assert diagnostic.severity == WARNING
        assert "never be true" in diagnostic.message

    def test_sim114_sum_over_entities(self, db):
        with pytest.raises(StaticTypeError) as exc:
            db.compile("From instructor Retrieve sum(advisees)")
        assert exc.value.diagnostic_code == "SIM114"

    def test_sim114_sum_over_strings(self, db):
        with pytest.raises(StaticTypeError) as exc:
            db.compile("From student Retrieve sum(name)")
        assert exc.value.diagnostic_code == "SIM114"

    def test_sim115_vacuous_quantifier_warns(self, db):
        compiled = db.compile(
            "From instructor Retrieve name Where salary = some(3)")
        diagnostic = find(compiled.diagnostics, "SIM115")
        assert diagnostic.severity == WARNING

    def test_sim116_aggregate_over_constant_warns(self, db):
        compiled = db.compile("From student Retrieve count(3)")
        diagnostic = find(compiled.diagnostics, "SIM116")
        assert diagnostic.severity == WARNING

    def test_sim117_non_boolean_selection(self, db):
        with pytest.raises(StaticTypeError) as exc:
            db.compile("From instructor Retrieve name Where salary")
        assert "not boolean" in str(exc.value)

    def test_error_carries_full_diagnostics_list(self, db):
        with pytest.raises(StaticAnalysisError) as exc:
            db.compile("From student Retrieve name Where advisor > 3")
        assert codes(exc.value.diagnostics) == ["SIM110"]
        assert exc.value.diagnostics[0].span.line == 1

    def test_valid_queries_produce_no_diagnostics(self, db):
        compiled = db.compile(
            "From student Retrieve name, name of advisor "
            "Where credits of courses-enrolled > 3")
        assert compiled.diagnostics == []
        assert compiled.tree is not None and compiled.plan is not None


class TestUpdateRules:
    def test_sim120_unknown_attribute(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile("Modify student(nosuch := 1) Where student-nbr = 1")
        assert exc.value.diagnostic_code == "SIM120"
        assert isinstance(exc.value, IntegrityError)

    def test_sim121_system_maintained_subrole(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile('Modify person(profession := "student") '
                       'Where name = "x"')
        assert exc.value.diagnostic_code == "SIM121"

    def test_sim121_derived_attribute(self):
        database = Database(
            "Class worker ( pay: number[9,2]; extra: number[9,2] );\n"
            "Derive compensation on worker as pay + extra;")
        with pytest.raises(StaticUpdateError) as exc:
            database.compile("Modify worker(compensation := 1) "
                             "Where pay > 0")
        assert exc.value.diagnostic_code == "SIM121"
        assert "computed" in str(exc.value)

    def test_sim122_include_on_single_valued_dva(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile("Modify instructor(salary := include 5) "
                       "Where employee-nbr = 1001")
        assert exc.value.diagnostic_code == "SIM122"

    def test_exclude_on_single_valued_eva_is_legal(self, db):
        compiled = db.compile("Modify student(advisor := exclude advisor) "
                              "Where student-nbr = 2001")
        assert_none_of_severity(compiled.diagnostics, ERROR)

    def test_sim123_eva_assigned_a_literal(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile('Modify student(advisor := 5) Where name = "x"')
        assert "WITH selector" in str(exc.value)

    def test_sim123_dva_assigned_a_selector(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile("Modify instructor"
                       "(salary := instructor with (salary > 0)) "
                       "Where employee-nbr = 1001")
        assert exc.value.diagnostic_code == "SIM123"

    def test_sim124_selector_outside_eva_range(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile("Modify student"
                       "(advisor := department with (dept-nbr = 100)) "
                       'Where name = "x"')
        assert "range class" in str(exc.value)

    def test_sim125_update_through_view(self):
        database = Database(
            "Class worker ( pay: number[9,2] );\n"
            "View earners of worker where pay > 0;")
        with pytest.raises(StaticUpdateError) as exc:
            database.compile("Modify earners(pay := 1) Where pay > 0")
        assert exc.value.diagnostic_code == "SIM125"

    def test_sim126_unknown_class(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile("Insert nosuch(x := 1)")
        assert exc.value.diagnostic_code == "SIM126"

    def test_sim126_insert_from_non_ancestor(self, db):
        with pytest.raises(StaticUpdateError) as exc:
            db.compile("Insert teaching-assistant From course "
                       'Where title = "x"')
        assert exc.value.diagnostic_code == "SIM126"

    def test_sim127_literal_outside_domain_warns(self, db):
        compiled = db.compile(
            "Modify course(credits := 99) Where course-no = 101")
        diagnostic = find(compiled.diagnostics, "SIM127")
        assert diagnostic.severity == WARNING

    def test_lint_update_direct_api(self, db):
        statement = parse_dml("Modify student(nosuch := 1) "
                              "Where student-nbr = 1")
        diagnostics = lint_update(db.schema, statement)
        assert codes(diagnostics) == ["SIM120"]
        assert diagnostics[0].span.line == 1


# -- Plan verification (SIM2xx) --------------------------------------------------


class TestPlanVerifier:
    def compiled(self, db, text):
        query = parse_dml(text)
        tree = db.qualifier.resolve_retrieve(query)
        plan = db.optimizer.choose_plan(query, tree)
        return query, tree, plan

    def test_green_across_the_canonical_workload(self, db):
        for text in UNIVERSITY_QUERIES:
            _, tree, plan = self.compiled(db, text)
            assert verify_plan(db.schema, tree, plan) == []

    def test_sim200_label_tampering_detected(self, db):
        _, tree, plan = self.compiled(
            db, "From student Retrieve name, name of advisor")
        advisor = next(n for n in tree.all_nodes() if n.kind == "eva")
        advisor.label = TYPE2
        diagnostics = verify_plan(db.schema, tree, plan)
        assert "SIM200" in codes(diagnostics)

    def test_sim201_root_order_not_a_permutation(self, db):
        _, tree, plan = self.compiled(
            db, "From student, instructor Retrieve name of student, "
                "name of instructor Where advisor of student = instructor")
        plan.root_order = ["student", "bogus"]
        diagnostics = verify_plan(db.schema, tree, plan)
        assert "SIM201" in codes(diagnostics)

    def test_sim202_type1_child_under_existential_subtree(self, db):
        _, tree, plan = self.compiled(
            db, "From course Retrieve course-no "
                'Where name of teachers of prerequisites = "X"')
        existential = next(n for n in tree.all_nodes()
                           if n.label == TYPE2 and n.children)
        child = next(iter(existential.children.values()))
        child.label = TYPE1
        diagnostics = verify_plan(db.schema, tree, plan)
        assert "SIM202" in codes(diagnostics)

    def test_sim203_type3_branch_used_in_selection(self, db):
        _, tree, plan = self.compiled(
            db, "From student Retrieve name, name of advisor")
        advisor = next(n for n in tree.all_nodes() if n.label == TYPE3)
        advisor.used_in_selection = True
        diagnostics = verify_plan(db.schema, tree, plan)
        assert "SIM203" in codes(diagnostics)

    def test_sim204_access_path_tampering(self, db):
        _, tree, plan = self.compiled(db, "From student Retrieve name")
        plan.root_access["student"] = AccessPath(
            kind="index", class_name="student", attr_name="nosuch")
        diagnostics = verify_plan(db.schema, tree, plan)
        assert "SIM204" in codes(diagnostics)

    def test_tampered_plan_fails_closed_at_execution(self, db):
        query = parse_dml("From student Retrieve name")
        tree = db.qualifier.resolve_retrieve(query)
        plan = Plan(root_order=["bogus"])
        with pytest.raises(PlanVerificationError):
            from repro.analysis import raise_for_errors
            raise_for_errors(verify_plan(db.schema, tree, plan))


# -- Front-end wiring ------------------------------------------------------------


class TestDatabaseWiring:
    def test_execute_raises_before_touching_data(self, db):
        before = db.store.class_count("student")
        with pytest.raises(StaticUpdateError):
            db.execute('Modify student(advisor := 5) Where name = "x"')
        assert db.store.class_count("student") == before

    def test_warnings_ride_on_the_result_set(self, db):
        result = db.query("From course Retrieve title Where credits = 99")
        assert "SIM113" in codes(result.diagnostics)
        assert result.rows == []

    def test_compile_does_not_execute_updates(self, db):
        before = db.store.class_count("department")
        compiled = db.compile('Insert department(dept-nbr := 999, '
                              'name := "Ghost")')
        assert compiled.diagnostics == []
        assert db.store.class_count("department") == before

    def test_iqf_prints_warnings(self, db):
        from repro.interfaces.iqf import run_script
        transcript = run_script(
            Database(UNIVERSITY_DDL, constraint_mode="off"),
            "From course Retrieve title Where credits = 99;\n")
        assert "SIM113" in transcript

    def test_iqf_lint_command(self):
        from repro.interfaces.iqf import run_script
        transcript = run_script(
            Database("Class a ( x: integer );"), ".lint\n")
        assert "schema is clean" in transcript


class TestWorkloadSweep:
    """Acceptance: the canonical UNIVERSITY workload lints clean."""

    def test_every_query_compiles_without_errors_or_warnings(self, db):
        for text in UNIVERSITY_QUERIES:
            compiled = db.compile(text)
            assert_none_of_severity(compiled.diagnostics, ERROR)
            assert_none_of_severity(compiled.diagnostics, WARNING)

    def test_lint_retrieve_direct_api(self, db):
        query = parse_dml(UNIVERSITY_QUERIES[0])
        db.qualifier.resolve_retrieve(query)
        assert lint_retrieve(db.schema, query) == []
