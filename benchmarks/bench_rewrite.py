"""E21 — semantic rewrite phase & materialized derived relations.

Two headline cells, both verified row-identical to the legacy planner:

* **subclass pruning** — the §4 ISA query ``From person ... Where person
  isa instructor ...`` over a person hierarchy dominated by students.
  The rewrite proves the qualifying entities all lie in the instructor
  extent and enumerates that extent instead of the person perspective,
  skipping the WHERE evaluation for every non-instructor.
* **materialization hit** — the §4.7 transitive-closure query over a
  dense layered prerequisite DAG, served from a declared closure
  materialization against a cold cache (`cold_cache` drops the read
  cache but materializations stay fresh: that persistence across cache
  pressure is exactly their value proposition).  The DAG shape matters:
  direct BFS cost scales with *edges* while the served closure — and
  the title decode both sides pay — scales with *nodes*.

Wall-clock speedups gate the CI lane at >=2x (``make bench-rewrite``);
rows are asserted identical in every cell, so the gate cannot pass on a
rewrite that changes semantics.
"""

from __future__ import annotations

import time

import pytest

from repro import Database
from repro.workloads import UNIVERSITY_DDL
from repro.workloads.university import build_university

from _harness import attach, perf_delta

SUBCLASS_QUERY = ('From person Retrieve name'
                  ' Where person isa instructor and not person isa student')
CLOSURE_QUERY = ('Retrieve title of Transitive(prerequisites) of course'
                 ' Where course-no of course = 1')


def _best_of(operation, repeats: int, prepare=None) -> float:
    """Best wall time of ``repeats`` runs, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        if prepare is not None:
            prepare()
        started = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def subclass_db(students: int = 300, instructors: int = 12) -> Database:
    """A person hierarchy dominated by students: pruning to the
    instructor extent skips almost every WHERE evaluation."""
    return build_university(departments=4, instructors=instructors,
                            students=students, courses=30, seed=11)


def dag_db(width: int = 10, levels: int = 8) -> Database:
    """Course 1 sits atop a layered prerequisite DAG: ``levels`` layers
    of ``width`` courses, each fully connected to the next layer."""
    db = Database(UNIVERSITY_DDL, constraint_mode="off")
    store = db.store
    prereq = db.schema.get_class("course").attribute("prerequisites")
    counter = iter(range(1, width * levels + 2))

    def course():
        number = next(counter)
        return store.insert_entity(
            "course", {"course-no": number, "title": f"C{number}",
                       "credits": 1})

    root = course()
    layers = [[course() for _ in range(width)] for _ in range(levels)]
    for target in layers[0]:
        store.eva_include(root, prereq, target)
    for upper, lower in zip(layers, layers[1:]):
        for source in upper:
            for target in lower:
                store.eva_include(source, prereq, target)
    return db


def measure_rewrite(students: int = 300, width: int = 10, levels: int = 8,
                    repeats: int = 7) -> dict:
    """The numbers ``BENCH_rewrite.json`` records."""
    # -- Cell 1: subclass-pruned ISA query vs the legacy scan ------------
    db = subclass_db(students=students)
    db.rewrite = False
    rows_off = db.query(SUBCLASS_QUERY).rows
    off_ms = _best_of(lambda: db.query(SUBCLASS_QUERY), repeats)
    db.rewrite = True
    rows_on = db.query(SUBCLASS_QUERY).rows
    on_ms = _best_of(lambda: db.query(SUBCLASS_QUERY), repeats)
    db.plan_cache.clear()          # the rewrite runs when a plan is made
    subclass_counters = perf_delta(db, lambda: db.query(SUBCLASS_QUERY))

    # -- Cell 2: closure materialization hit vs direct BFS, cold cache --
    direct = dag_db(width=width, levels=levels)
    rows_direct = direct.query(CLOSURE_QUERY).rows
    direct_ms = _best_of(lambda: direct.query(CLOSURE_QUERY), repeats,
                         prepare=direct.cold_cache)

    materialized = dag_db(width=width, levels=levels)
    materialized.materialize("prereq-closure", "closure", "course",
                             ("prerequisites",))
    rows_mat = materialized.query(CLOSURE_QUERY).rows
    mat_ms = _best_of(lambda: materialized.query(CLOSURE_QUERY), repeats,
                      prepare=materialized.cold_cache)
    materialized.cold_cache()      # counter probe must reach the accessor
    mat_counters = perf_delta(materialized,
                              lambda: materialized.query(CLOSURE_QUERY))

    return {
        "students": students,
        "dag_width": width,
        "dag_levels": levels,
        "repeats": repeats,
        "subclass": {
            "query": SUBCLASS_QUERY,
            "legacy_ms": off_ms,
            "rewritten_ms": on_ms,
            "speedup": off_ms / on_ms if on_ms else 0.0,
            "rows": len(rows_on),
            "rows_identical": rows_on == rows_off,
            "rewrite_subclass_prunes":
                subclass_counters["rewrite_subclass_prunes"],
        },
        "closure_mat": {
            "query": CLOSURE_QUERY,
            "direct_ms": direct_ms,
            "materialized_ms": mat_ms,
            "speedup": direct_ms / mat_ms if mat_ms else 0.0,
            "rows": len(rows_mat),
            "rows_identical": rows_mat == rows_direct,
            "materialized_hits": mat_counters["materialized_hits"],
        },
        "min_speedup": 2.0,
    }


# -- pytest-benchmark smoke cells (tier-2: pytest benchmarks/) ----------------

def test_e21_subclass_pruning_rows_identical(benchmark):
    db = subclass_db(students=80)
    db.rewrite = False
    expected = db.query(SUBCLASS_QUERY).rows
    db.rewrite = True
    rows = benchmark(lambda: db.query(SUBCLASS_QUERY).rows)
    assert rows == expected
    db.plan_cache.clear()          # the rewrite runs when a plan is made
    delta = perf_delta(db, lambda: db.query(SUBCLASS_QUERY))
    assert delta["rewrite_subclass_prunes"] >= 1
    attach(benchmark, rows=len(rows),
           prunes=delta["rewrite_subclass_prunes"])


def test_e21_closure_materialization_rows_identical(benchmark):
    db = dag_db(width=4, levels=4)
    expected = db.query(CLOSURE_QUERY).rows
    db.materialize("prereq-closure", "closure", "course", ("prerequisites",))
    rows = benchmark(lambda: db.query(CLOSURE_QUERY).rows)
    assert rows == expected
    db.cold_cache()                # reach the accessor, not the read cache
    delta = perf_delta(db, lambda: db.query(CLOSURE_QUERY))
    assert delta["materialized_hits"] >= 1
    attach(benchmark, rows=len(rows), hits=delta["materialized_hits"])


def test_e21_join_materialization_rows_identical(benchmark):
    db = build_university(seed=11)
    expected = db.query("From instructor Retrieve name,"
                        " count(advisees)").rows
    db.materialize("advising", "join", "instructor", ("advisees",))
    rows = benchmark(lambda: db.query(
        "From instructor Retrieve name, count(advisees)").rows)
    assert rows == expected
    attach(benchmark, rows=len(rows))


@pytest.mark.slow
def test_e21_full_gate():
    measured = measure_rewrite()
    assert measured["subclass"]["rows_identical"]
    assert measured["closure_mat"]["rows_identical"]
    assert measured["subclass"]["speedup"] >= measured["min_speedup"]
    assert measured["closure_mat"]["speedup"] >= measured["min_speedup"]
