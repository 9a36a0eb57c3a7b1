"""Mapper tests: LUC translation, physical design, and the runtime store."""

import pytest

from repro.errors import IntegrityError, SchemaError, UniquenessViolation
from repro.mapper import (
    EvaMapping,
    HierarchyMapping,
    MapperStore,
    MvDvaMapping,
    PhysicalDesign,
    translate_schema,
)
from repro.types.tvl import NULL, is_null


@pytest.fixture()
def store(university_schema):
    return MapperStore(university_schema)


class TestTranslation:
    def test_luc_per_class(self, university_schema):
        luc_schema = translate_schema(university_schema)
        names = {luc.name for luc in luc_schema.lucs() if luc.kind == "class"}
        assert names == {"person", "student", "instructor",
                         "teaching-assistant", "course", "department"}

    def test_class_luc_fields_are_immediate_single_valued(self,
                                                          university_schema):
        luc_schema = translate_schema(university_schema)
        student = luc_schema.luc("student")
        assert set(student.fields) == {"surrogate", "student-nbr"}

    def test_subclass_links(self, university_schema):
        luc_schema = translate_schema(university_schema)
        links = luc_schema.relationships("subclass")
        pairs = {(l.domain_luc, l.range_luc) for l in links}
        assert ("person", "student") in pairs
        assert ("student", "teaching-assistant") in pairs
        assert ("instructor", "teaching-assistant") in pairs
        assert all(l.multiplicity == "1:1" for l in links)

    def test_eva_relationships_one_per_pair(self, university_schema):
        luc_schema = translate_schema(university_schema)
        evas = luc_schema.relationships("eva")
        assert len(evas) == 8  # matches schema statistics

    def test_eva_lookup_from_either_side(self, university_schema):
        luc_schema = translate_schema(university_schema)
        via_advisor = luc_schema.eva_relationship_for("student", "advisor")
        via_advisees = luc_schema.eva_relationship_for("instructor",
                                                       "advisees")
        assert via_advisor is via_advisees


class TestPhysicalDesignDefaults:
    def test_one_to_one_maps_foreign_key(self, university_schema):
        design = PhysicalDesign(university_schema).finalize()
        spouse = university_schema.get_class("person").attribute("spouse")
        assert design.eva_mapping(spouse) is EvaMapping.FOREIGN_KEY

    def test_many_to_one_maps_common(self, university_schema):
        design = PhysicalDesign(university_schema).finalize()
        advisor = university_schema.get_class("student").attribute("advisor")
        assert design.eva_mapping(advisor) is EvaMapping.COMMON

    def test_distinct_many_many_maps_dedicated(self, university_schema):
        design = PhysicalDesign(university_schema).finalize()
        enrolled = university_schema.get_class("student").attribute(
            "courses-enrolled")
        assert design.eva_mapping(enrolled) is EvaMapping.DEDICATED

    def test_bounded_mv_dva_maps_array(self, university_schema):
        design = PhysicalDesign(university_schema).finalize()
        # no bounded MV DVA in the schema; check the rule via overrides API
        profession = university_schema.get_class("person").attribute(
            "profession")
        assert design.mv_dva_mapping(profession) is MvDvaMapping.SEPARATE_UNIT

    def test_multi_inheritance_class_gets_own_unit(self, university_schema):
        design = PhysicalDesign(university_schema).finalize()
        assert design.class_in_shared_unit("student")
        assert design.class_in_shared_unit("person")
        assert not design.class_in_shared_unit("teaching-assistant")

    def test_override_validation(self, university_schema):
        design = PhysicalDesign(university_schema)
        with pytest.raises(SchemaError):
            design.override_hierarchy("student",
                                      HierarchyMapping.SEPARATE_UNITS)
        with pytest.raises(SchemaError):
            design.override_eva("person", "name", EvaMapping.COMMON)
        design.finalize()
        with pytest.raises(SchemaError):
            design.override_hierarchy("person",
                                      HierarchyMapping.SEPARATE_UNITS)

    def test_describe_mentions_every_eva_pair(self, university_schema):
        design = PhysicalDesign(university_schema).finalize()
        text = design.describe()
        assert "common" in text and "foreign-key" in text


class TestRoles:
    def test_insert_entity_creates_role_chain(self, store):
        surrogate = store.insert_entity("teaching-assistant", {
            "name": "TA", "soc-sec-no": 1, "employee-nbr": 1001,
            "teaching-load": 5})
        assert store.roles_of(surrogate, "person") == [
            "person", "student", "instructor", "teaching-assistant"]

    def test_add_role_requires_superclass(self, store):
        surrogate = store.new_surrogate()
        with pytest.raises(IntegrityError):
            store.add_role(surrogate, "student")

    def test_duplicate_role_rejected(self, store):
        surrogate = store.insert_entity("person", {"soc-sec-no": 1})
        with pytest.raises(IntegrityError):
            store.add_role(surrogate, "person")

    def test_remove_role_cascades_to_subclasses(self, store):
        surrogate = store.insert_entity("teaching-assistant", {
            "soc-sec-no": 1, "employee-nbr": 1001})
        store.remove_role(surrogate, "student")
        assert store.roles_of(surrogate, "person") == ["person", "instructor"]

    def test_remove_role_drops_eva_instances(self, store, university_schema):
        advisor = university_schema.get_class("student").attribute("advisor")
        s = store.insert_entity("student", {"soc-sec-no": 1})
        i = store.insert_entity("instructor", {"soc-sec-no": 2,
                                               "employee-nbr": 1001})
        store.eva_include(s, advisor, i)
        store.remove_role(i, "instructor")
        assert store.eva_targets(s, advisor) == []

    def test_subrole_reads(self, store, university_schema):
        profession = university_schema.get_class("person").attribute(
            "profession")
        s = store.insert_entity("student", {"soc-sec-no": 1})
        assert store.read_dva(s, profession) == ["student"]
        store.add_role(s, "instructor", {"employee-nbr": 1001})
        assert store.read_dva(s, profession) == ["student", "instructor"]


class TestDvas:
    def test_read_write_single_valued(self, store, university_schema):
        name = university_schema.get_class("person").attribute("name")
        s = store.insert_entity("person", {"soc-sec-no": 1, "name": "A"})
        assert store.read_dva(s, name) == "A"
        store.write_dva(s, name, "B")
        assert store.read_dva(s, name) == "B"

    def test_unset_field_is_null(self, store, university_schema):
        birthdate = university_schema.get_class("person").attribute(
            "birthdate")
        s = store.insert_entity("person", {"soc-sec-no": 1})
        assert is_null(store.read_dva(s, birthdate))

    def test_unique_enforced_on_insert(self, store):
        store.insert_entity("person", {"soc-sec-no": 1})
        with pytest.raises(UniquenessViolation):
            store.insert_entity("person", {"soc-sec-no": 1})

    def test_unique_enforced_on_write(self, store, university_schema):
        ssn = university_schema.get_class("person").attribute("soc-sec-no")
        store.insert_entity("person", {"soc-sec-no": 1})
        other = store.insert_entity("person", {"soc-sec-no": 2})
        with pytest.raises(UniquenessViolation):
            store.write_dva(other, ssn, 1)

    def test_unique_allows_rewrite_of_same_value(self, store,
                                                 university_schema):
        ssn = university_schema.get_class("person").attribute("soc-sec-no")
        s = store.insert_entity("person", {"soc-sec-no": 1})
        store.write_dva(s, ssn, 1)
        assert store.read_dva(s, ssn) == 1

    def test_system_attributes_read_only(self, store, university_schema):
        profession = university_schema.get_class("person").attribute(
            "profession")
        s = store.insert_entity("person", {"soc-sec-no": 1})
        with pytest.raises(IntegrityError):
            store.write_dva(s, profession, ["student"])

    def test_find_by_dva_uses_index_and_restricts_class(self, store,
                                                        university_schema):
        s1 = store.insert_entity("student", {"soc-sec-no": 1})
        store.insert_entity("person", {"soc-sec-no": 2})
        assert store.find_by_dva("student", "soc-sec-no", 1) == [s1]
        assert store.find_by_dva("student", "soc-sec-no", 2) == []
        assert store.find_by_dva("person", "soc-sec-no", 2) != []


class TestEvas:
    def test_include_and_traverse_both_directions(self, store,
                                                  university_schema):
        enrolled = university_schema.get_class("student").attribute(
            "courses-enrolled")
        s = store.insert_entity("student", {"soc-sec-no": 1})
        c = store.insert_entity("course", {"course-no": 1, "title": "T",
                                           "credits": 3})
        store.eva_include(s, enrolled, c)
        assert store.eva_targets(s, enrolled) == [c]
        assert store.eva_targets(c, enrolled.inverse) == [s]

    def test_include_from_inverse_side(self, store, university_schema):
        enrolled = university_schema.get_class("student").attribute(
            "courses-enrolled")
        s = store.insert_entity("student", {"soc-sec-no": 1})
        c = store.insert_entity("course", {"course-no": 1, "title": "T",
                                           "credits": 3})
        store.eva_include(c, enrolled.inverse, s)
        assert store.eva_targets(s, enrolled) == [c]

    def test_exclude(self, store, university_schema):
        enrolled = university_schema.get_class("student").attribute(
            "courses-enrolled")
        s = store.insert_entity("student", {"soc-sec-no": 1})
        c = store.insert_entity("course", {"course-no": 1, "title": "T",
                                           "credits": 3})
        store.eva_include(s, enrolled, c)
        assert store.eva_exclude(s, enrolled, c)
        assert not store.eva_exclude(s, enrolled, c)
        assert store.eva_targets(c, enrolled.inverse) == []

    def test_member_roles_validated(self, store, university_schema):
        enrolled = university_schema.get_class("student").attribute(
            "courses-enrolled")
        p = store.insert_entity("person", {"soc-sec-no": 1})
        c = store.insert_entity("course", {"course-no": 1, "title": "T",
                                           "credits": 3})
        with pytest.raises(IntegrityError):
            store.eva_include(p, enrolled, c)  # p is not a student

    def test_reflexive_spouse(self, store, university_schema):
        spouse = university_schema.get_class("person").attribute("spouse")
        a = store.insert_entity("person", {"soc-sec-no": 1})
        b = store.insert_entity("person", {"soc-sec-no": 2})
        store.eva_include(a, spouse, b)
        assert store.eva_targets(a, spouse) == [b]
        assert store.eva_targets(b, spouse) == [a]
        store.eva_exclude(b, spouse, a)  # exclude from the other side
        assert store.eva_targets(a, spouse) == []


@pytest.mark.parametrize("mapping", [
    EvaMapping.COMMON, EvaMapping.DEDICATED, EvaMapping.CLUSTERED,
    EvaMapping.POINTER])
def test_all_eva_mappings_behave_identically(university_schema, mapping):
    """The Mapper 'assumes the responsibility of traversing a relationship,
    no matter how it is physically mapped' (§5.1)."""
    design = PhysicalDesign(university_schema)
    design.override_eva("student", "advisor", mapping)
    design.finalize()
    store = MapperStore(university_schema, design)
    advisor = university_schema.get_class("student").attribute("advisor")

    i = store.insert_entity("instructor", {"soc-sec-no": 1,
                                           "employee-nbr": 1001})
    students = [store.insert_entity("student", {"soc-sec-no": 2 + k})
                for k in range(3)]
    for s in students:
        store.eva_include(s, advisor, i)
    assert sorted(store.eva_targets(i, advisor.inverse)) == sorted(students)
    for s in students:
        assert store.eva_targets(s, advisor) == [i]
    store.eva_exclude(students[0], advisor, i)
    assert sorted(store.eva_targets(i, advisor.inverse)) == \
        sorted(students[1:])


def test_foreign_key_mapping_single_valued_side(university_schema):
    design = PhysicalDesign(university_schema)
    design.override_eva("student", "advisor", EvaMapping.FOREIGN_KEY)
    design.finalize()
    store = MapperStore(university_schema, design)
    advisor = university_schema.get_class("student").attribute("advisor")
    i = store.insert_entity("instructor", {"soc-sec-no": 1,
                                           "employee-nbr": 1001})
    s = store.insert_entity("student", {"soc-sec-no": 2})
    store.eva_include(s, advisor, i)
    assert store.eva_targets(s, advisor) == [i]
    assert store.eva_targets(i, advisor.inverse) == [s]
    # A second include on the single-valued FK side must be rejected.
    i2 = store.insert_entity("instructor", {"soc-sec-no": 3,
                                            "employee-nbr": 1002})
    with pytest.raises(IntegrityError):
        store.eva_include(s, advisor, i2)


def test_separate_units_hierarchy(university_schema):
    design = PhysicalDesign(
        university_schema,
        default_hierarchy=HierarchyMapping.SEPARATE_UNITS).finalize()
    store = MapperStore(university_schema, design)
    s = store.insert_entity("student", {"soc-sec-no": 1, "name": "A"})
    name = university_schema.get_class("person").attribute("name")
    assert store.read_dva(s, name) == "A"
    # person and student live in different files
    assert store.class_file("person") is not store.class_file("student")


def test_variable_format_hierarchy_shares_unit(university_schema):
    store = MapperStore(university_schema)
    assert store.class_file("person") is store.class_file("student")
    assert store.class_file("person") is store.class_file("instructor")
    assert store.class_file("person") is not store.class_file(
        "teaching-assistant")


def test_undo_via_transactions(university_schema):
    store = MapperStore(university_schema)
    advisor = university_schema.get_class("student").attribute("advisor")
    i = store.insert_entity("instructor", {"soc-sec-no": 1,
                                           "employee-nbr": 1001})
    transactions = store.transactions
    txn = transactions.begin_detached()
    with transactions.activate(txn):
        s = store.insert_entity("student", {"soc-sec-no": 2})
        store.eva_include(s, advisor, i)
        transactions.abort_detached(txn)
    assert not store.has_role(s, "student")
    assert store.eva_targets(i, advisor.inverse) == []


class TestCursors:
    """The paper's §5.1 cursor interface: LUC and relationship cursors."""

    def test_luc_cursor_delivers_flat_records(self, store):
        store.insert_entity("course", {"course-no": 1, "title": "A",
                                       "credits": 3})
        store.insert_entity("course", {"course-no": 2, "title": "B",
                                       "credits": 4})
        from repro.mapper import open_luc_cursor
        cursor = open_luc_cursor(store, "course")
        first = cursor.fetch()
        assert first["title"] == "A" and "surrogate" in first
        assert cursor.fetch()["title"] == "B"
        assert cursor.fetch() is None

    def test_relationship_cursor_hides_mapping(self, university_schema):
        from repro.mapper import (EvaMapping, MapperStore, PhysicalDesign,
                                  open_relationship_cursor)
        for mapping in (EvaMapping.COMMON, EvaMapping.POINTER):
            design = PhysicalDesign(university_schema)
            design.override_eva("student", "courses-enrolled", mapping)
            store = MapperStore(university_schema, design.finalize())
            student = store.insert_entity("student", {"soc-sec-no": 1})
            enrolled = university_schema.get_class("student").attribute(
                "courses-enrolled")
            for number in (1, 2):
                course = store.insert_entity(
                    "course", {"course-no": number,
                               "title": f"C{number}", "credits": 1})
                store.eva_include(student, enrolled, course)
            cursor = open_relationship_cursor(store, student, "student",
                                              "courses-enrolled")
            titles = [record["title"] for record in cursor]
            assert titles == ["C1", "C2"]

    def test_cursor_close(self, store):
        from repro.mapper import open_luc_cursor
        from repro.errors import SimError
        cursor = open_luc_cursor(store, "person")
        cursor.close()
        with pytest.raises(SimError):
            cursor.fetch()

    def test_cursor_context_manager(self, store):
        from repro.mapper import LUCCursor
        store.insert_entity("person", {"soc-sec-no": 5})
        with LUCCursor(store, "person") as cursor:
            assert cursor.fetch()["soc-sec-no"] == 5
        assert cursor.closed
