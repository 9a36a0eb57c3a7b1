"""E3 — the ADDS data-dictionary scale point (paper §6).

"ADDS ... consists of 13 base classes, 209 subclasses, 39 EVA-inverse
pairs, 530 DVAs and at its deepest, one hierarchy represents 5 levels of
generalization."

The generated schema reproduces those statistics exactly; the benchmark
measures resolving a schema of that shape, translating it to LUCs, laying
out physical storage, loading it into the queryable catalog, and running
entity operations on the 5-level hierarchy.
"""

import pytest

from repro.directory import build_catalog
from repro.mapper import MapperStore, translate_schema
from repro.workloads import ADDS_TARGET, build_adds_schema

from _harness import attach


def test_e3_statistics_match_paper(benchmark):
    schema = benchmark(build_adds_schema)
    stats = schema.statistics()
    assert stats == ADDS_TARGET
    attach(benchmark, **stats)


def test_e3_luc_translation(benchmark):
    schema = build_adds_schema()
    luc_schema = benchmark(lambda: translate_schema(schema))
    class_lucs = [l for l in luc_schema.lucs() if l.kind == "class"]
    assert len(class_lucs) == (ADDS_TARGET["base_classes"]
                               + ADDS_TARGET["subclasses"])
    assert len(luc_schema.relationships("eva")) == \
        ADDS_TARGET["eva_inverse_pairs"]
    attach(benchmark, lucs=len(luc_schema.lucs()),
           relationships=len(luc_schema.relationships()))


def test_e3_physical_layout(benchmark):
    schema = build_adds_schema()
    store = benchmark(lambda: MapperStore(schema))
    assert len(store._evas) == ADDS_TARGET["eva_inverse_pairs"]


def test_e3_deep_hierarchy_operations(benchmark):
    schema = build_adds_schema()
    store = MapperStore(schema)
    deep = f"dict-deep{ADDS_TARGET['max_hierarchy_depth'] - 1}"

    def operation():
        surrogate = store.insert_entity(deep)
        roles = store.roles_of(surrogate, "dict-base00")
        store.remove_role(surrogate, "dict-base00")
        return roles

    roles = benchmark(operation)
    assert len(roles) == ADDS_TARGET["max_hierarchy_depth"]


def test_e3_catalog_of_adds_schema(benchmark):
    """The dictionary-about-the-dictionary: load the ADDS-shaped schema
    into the SIM catalog and query it."""
    schema = build_adds_schema()
    catalog = benchmark(lambda: build_catalog(schema))
    base_count = catalog.query(
        "From db-class Retrieve Table Distinct count(db-class)"
        " Where is-base = true")
    assert len(catalog.query(
        "From db-class Retrieve name Where is-base = true")) == \
        ADDS_TARGET["base_classes"]
    deepest = catalog.query(
        "From db-class Retrieve Table Distinct level Order By level Desc"
    ).rows[0][0]
    assert deepest == ADDS_TARGET["max_hierarchy_depth"] - 1
    attach(benchmark,
           catalog_classes=catalog.store.class_count("db-class"),
           catalog_attributes=catalog.store.class_count("db-attribute"))
