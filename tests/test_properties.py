"""Cross-cutting property-based tests on system invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.mapper import MapperStore
from repro.schema import parse_ddl
from repro.workloads import UNIVERSITY_DDL


SCHEMA = parse_ddl(UNIVERSITY_DDL)


def eva(name, cls="student"):
    return SCHEMA.get_class(cls).attribute(name)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4),
                          st.integers(0, 4)), min_size=1, max_size=40))
def test_eva_inverse_always_symmetric(operations):
    """Invariant (§3.2): 'an EVA and its inverse will stay synchronized at
    all times' — under arbitrary include/exclude sequences."""
    store = MapperStore(SCHEMA)
    enrolled = eva("courses-enrolled")
    students = [store.insert_entity("student", {"soc-sec-no": k})
                for k in range(5)]
    courses = [store.insert_entity(
        "course", {"course-no": k + 1, "title": f"C{k}", "credits": 1})
        for k in range(5)]
    model = set()
    for op, si, ci in operations:
        student, course = students[si], courses[ci]
        if op == 0:
            if (si, ci) not in model:
                store.eva_include(student, enrolled, course)
                model.add((si, ci))
        else:
            store.eva_exclude(student, enrolled, course)
            model.discard((si, ci))
    for si, student in enumerate(students):
        expected = {courses[ci] for s, ci in model if s == si}
        assert set(store.eva_targets(student, enrolled)) == expected
    for ci, course in enumerate(courses):
        expected = {students[si] for si, c in model if c == ci}
        assert set(store.eva_targets(course, enrolled.inverse)) == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.integers(0, 3))
def test_abort_always_restores_initial_state(role_adds, cut):
    """Invariant: aborting a transaction restores the visible state,
    whatever mix of role additions and EVA writes happened."""
    store = MapperStore(SCHEMA)
    advisor = eva("advisor")
    instructor = store.insert_entity("instructor", {"soc-sec-no": 1,
                                                    "employee-nbr": 1001})
    baseline_counts = {c.name: store.class_count(c.name)
                       for c in SCHEMA.classes()}
    transactions = store.transactions
    txn = transactions.begin_detached()
    created = []
    with transactions.activate(txn):
        for index, kind in enumerate(role_adds):
            surr = store.insert_entity("student", {"soc-sec-no": 100 + index})
            created.append(surr)
            if kind % 2 == 0:
                store.eva_include(surr, advisor, instructor)
            if kind == 3 and store.has_role(surr, "student"):
                store.remove_role(surr, "student")
        transactions.abort_detached(txn)
    for name, count in baseline_counts.items():
        assert store.class_count(name) == count
    assert store.eva_targets(instructor, advisor.inverse) == []


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0,
                max_size=8))
def test_query_results_independent_of_physical_mapping(titles):
    """The same DML must return the same answer under every EVA mapping —
    physical data independence."""
    from repro.mapper import EvaMapping, PhysicalDesign
    results = []
    for mapping in (EvaMapping.COMMON, EvaMapping.DEDICATED,
                    EvaMapping.CLUSTERED, EvaMapping.POINTER):
        schema = parse_ddl(UNIVERSITY_DDL)
        design = PhysicalDesign(schema)
        design.override_eva("student", "courses-enrolled", mapping)
        db = Database(schema, design=design.finalize(),
                      constraint_mode="off")
        for index, title in enumerate(titles):
            db.execute(f'Insert course(course-no := {index + 1},'
                       f' title := "{title}", credits := 1)')
        db.execute('Insert student(soc-sec-no := 1)')
        for title in set(titles):
            db.execute(f'Modify student(courses-enrolled := include course'
                       f' with (title = "{title}")) Where soc-sec-no = 1')
        rows = db.query("From student Retrieve title of courses-enrolled"
                        " Order By title of courses-enrolled").rows
        results.append(rows)
    assert all(r == results[0] for r in results)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=60))
def test_dml_parser_never_crashes_unexpectedly(text):
    """The parser either succeeds or raises a SIM error — never an
    arbitrary Python exception."""
    from repro import parse_dml
    from repro.errors import SimError
    try:
        parse_dml(text)
    except SimError:
        pass


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(1, 10))
def test_hierarchy_roles_consistent(depth, entities):
    """Every entity inserted at the leaf holds exactly the chain's roles."""
    from repro.workloads import hierarchy_chain_schema
    from repro.mapper import MapperStore
    schema = hierarchy_chain_schema(depth)
    store = MapperStore(schema)
    for index in range(entities):
        surr = store.insert_entity(f"level{depth - 1}", {"key0": index})
        assert store.roles_of(surr, "level0") == [
            f"level{k}" for k in range(depth)]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 8), st.integers(2, 6), st.integers(0, 10**6))
def test_every_plan_is_equivalent_to_canonical(students, instructors, seed):
    """Property: for random populations and a multi-perspective query with
    selective conjuncts, EVERY enumerated strategy (index choices and loop
    reorderings) returns exactly the canonical nested-loop result."""
    import random
    from repro import Database, parse_dml

    rng = random.Random(seed)
    db = Database(UNIVERSITY_DDL, constraint_mode="off",
                  use_optimizer=False)
    store = db.store
    for k in range(instructors):
        store.insert_entity("instructor", {
            "soc-sec-no": k + 1, "employee-nbr": 1001 + k,
            "salary": rng.randint(1, 9) * 10000})
    for k in range(students):
        store.insert_entity("student", {
            "soc-sec-no": 100 + k, "student-nbr": 2001 + k})
    target_ssn = rng.randint(1, instructors)
    text = ("From student, instructor Retrieve soc-sec-no of student,"
            " employee-nbr of instructor"
            f" Where soc-sec-no of instructor = {target_ssn}"
            " and soc-sec-no of student >= 100")
    query = parse_dml(text)
    tree = db.qualifier.resolve_retrieve(query)
    reference = db.executor.run(query, tree, None).rows
    for plan in db.optimizer.enumerate_strategies(query, tree):
        fresh = parse_dml(text)
        fresh_tree = db.qualifier.resolve_retrieve(fresh)
        assert db.executor.run(fresh, fresh_tree, plan).rows == reference
