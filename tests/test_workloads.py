"""Workload tests: UNIVERSITY population invariants (E1) and the
ADDS-scale schema (E3)."""

import pytest

from repro import Database
from repro.workloads import (
    ADDS_TARGET,
    UNIVERSITY_DDL,
    build_adds_schema,
    build_university,
    fanout_schema,
    hierarchy_chain_schema,
    populate_fanout,
    populate_hierarchy_chain,
)
from repro.workloads.generators import populate_scale, scale_schema


class TestUniversityPopulation:
    def test_requested_sizes(self, university):
        assert university.store.class_count("student") == 40
        assert university.store.class_count("instructor") >= 10  # + TAs
        assert university.store.class_count("course") == 20
        assert university.store.class_count("department") == 4

    def test_deterministic_for_seed(self):
        first = build_university(students=10, instructors=4, courses=8,
                                 seed=3)
        second = build_university(students=10, instructors=4, courses=8,
                                  seed=3)
        assert first.query("From person Retrieve name, soc-sec-no").rows == \
            second.query("From person Retrieve name, soc-sec-no").rows

    def test_advisor_limit_respected(self, university):
        rows = university.query(
            "From instructor Retrieve count(advisees) of instructor").rows
        assert all(row[0] <= 10 for row in rows)

    def test_course_load_limit_respected(self, university):
        rows = university.query(
            "From instructor Retrieve count(courses-taught) of"
            " instructor").rows
        assert all(row[0] <= 3 for row in rows)

    def test_population_satisfies_v1(self, university):
        rows = university.query(
            "From student Retrieve sum(credits of courses-enrolled) of"
            " student").rows
        assert all(row[0] >= 12 for row in rows)

    def test_population_satisfies_v2(self, university):
        rows = university.query(
            "From instructor Retrieve salary + bonus").rows
        from repro.types.tvl import is_null
        assert all(is_null(row[0]) or row[0] < 100000 for row in rows)

    def test_buildable_with_constraints_on(self):
        db = build_university(students=8, instructors=4, courses=10,
                              constraint_mode="immediate", seed=5)
        assert db.store.class_count("student") == 8

    def test_teaching_assistants_hold_all_roles(self, university):
        rows = university.query(
            "From teaching-assistant Retrieve profession").rows
        professions = {r[0] for r in rows}
        assert professions == {"student", "instructor"}

    def test_prerequisites_are_acyclic(self, university):
        # Transitive closure from any course never includes itself.
        titles = university.query("From course Retrieve title").column(0)
        for title in titles[:5]:
            closure = university.query(
                f'Retrieve title of transitive(prerequisites) of course'
                f' Where title of course = "{title}"').column(0)
            assert title not in closure

    def test_spouse_symmetry(self, university):
        rows = university.query(
            "From person Retrieve name, name of spouse").rows
        by_name = dict(rows)
        from repro.types.tvl import is_null
        for name, spouse in rows:
            if not is_null(spouse):
                assert by_name.get(spouse) == name


class TestAddsScale:
    def test_exact_published_statistics(self):
        schema = build_adds_schema()
        assert schema.statistics() == ADDS_TARGET

    def test_store_builds_at_scale(self):
        from repro.mapper import MapperStore
        store = MapperStore(build_adds_schema())
        deep = "dict-deep4"
        surrogate = store.insert_entity(deep)
        assert len(store.roles_of(surrogate, "dict-base00")) == 5

    def test_deterministic(self):
        first = build_adds_schema(seed=1988)
        second = build_adds_schema(seed=1988)
        assert first.class_names() == second.class_names()


class TestSyntheticGenerators:
    def test_fanout_population_shape(self):
        db = Database(fanout_schema(), constraint_mode="off")
        owners, members = populate_fanout(db, owners=5, fanout=7)
        assert len(owners) == 5 and len(members) == 35
        counts = db.query(
            "From owner Retrieve count(members) of owner").column(0)
        assert counts == [7] * 5

    def test_hierarchy_chain_roles(self):
        db = Database(hierarchy_chain_schema(5), constraint_mode="off")
        surrogates = populate_hierarchy_chain(db, 5, 3)
        assert db.store.roles_of(surrogates[0], "level0") == [
            f"level{k}" for k in range(5)]
        row = db.query("From level4 Retrieve data0, data4"
                       " Where key0 = 1").rows[0]
        assert "level 0" in row[0] and "level 4" in row[1]

    def test_scale_population_is_the_size_asked_for(self):
        """What E18's measured database was checked for: tiers growing
        by the fan-out down the chain, the remainder parts."""
        db = Database(scale_schema(3), constraint_mode="off")
        created = populate_scale(db, 600, chain_depth=3)
        sizes = {name: db.store.class_count(name) for name in created}
        assert sizes == {name: len(made) for name, made in created.items()}
        assert sum(sizes.values()) == 600
        assert sizes["tier0"] * 8 <= sizes["tier1"] < sizes["tier2"]
