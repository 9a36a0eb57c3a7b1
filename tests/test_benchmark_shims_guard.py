"""Guard on the e2e benchmark's timing shims (like
``test_read_protocol_guard.py``, a structural test).

``benchmarks/e2e/tracing.py`` gets its per-layer numbers by replacing the
attributes named in ``LAYER_ENTRYPOINTS`` with wrappers
(``owner.__dict__[attribute]``), with no edit under ``src/``.  So every
name in that table must still exist on its owner — and must still be
what callers resolve *at call time*: a refactor that binds one of these
functions early (a default argument, a ``from x import f`` in a module
the table does not list) leaves the shim installed but never called, and
the layer silently reads as idle.  Found out here, in tier-1, rather
than in the benchmark.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.workloads import build_university

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(REPO_ROOT, "benchmarks", "e2e", "tracing.py")

#: the statement front end and what drives it: one cold Retrieve and one
#: cold Modify through each front door must pass through all of these
FRONT_END_SPANS = {
    "database.parse_dml", "engine.sessions.parse_dml",
    "analysis.lint_retrieve", "analysis.lint_update",
    "analysis.verify_plan", "engine.executor.verify_physical",
    "optimizer.physical_plan.lower_plan",
    "Qualifier.resolve_retrieve", "Optimizer.choose_plan",
    "QueryExecutor.run", "QueryExecutor.select_entities",
    "UpdateEngine.execute", "Session.execute", "Session.commit",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shimmed_attribute_resolves(tracing):
    for layer, owners in tracing.LAYER_ENTRYPOINTS.items():
        for owner, names in owners:
            for attribute in names:
                assert attribute in owner.__dict__, (layer, owner, attribute)
                assert callable(owner.__dict__[attribute]), (layer, attribute)


def test_front_end_shims_are_what_callers_reach(tracing):
    database = build_university(departments=2, instructors=3, students=8,
                                courses=6, seed=1)
    retrieve = ("From instructor Retrieve name, name of "
                "assigned-department Where employee-nbr = 1001")
    modify = "Modify instructor(salary := 41000) Where employee-nbr = 1001"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for run in (database.execute, database.session().execute):
            database.plan_cache.clear()
            assert len(run(retrieve).rows) == 1
            assert run(modify) == 1
        database.session().commit()
    finally:
        tracer.remove()
    seen = {span[3] for span in tracer.spans}
    assert FRONT_END_SPANS <= seen, sorted(FRONT_END_SPANS - seen)
    # ...and a warm statement reaches the parser's front door only.
    tracer = tracing.Tracer()
    tracer.install(("dml.parser", "dml.qualification", "analysis",
                    "optimizer"))
    try:
        assert len(database.execute(retrieve.replace("1001", "1002")).rows) == 1
    finally:
        tracer.remove()
    assert [span[3] for span in tracer.spans] == ["database.parse_dml"]
