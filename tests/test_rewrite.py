"""The semantic rewrite pass: soundness, plan shapes, and the off-switch.

Every rewrite must be *unobservable* in the result rows: the pass only
shrinks a root domain to a provable superset of the qualifying entities
(still running the full WHERE afterwards) or permutes work the executor
performs anyway.  The sweep below asserts row identity for the whole
UNIVERSITY workload across rewrite on/off x batch size x MVCC snapshot
reads, and the unit tests pin each rewrite kind's plan shape, the
SIM400/SIM401 verifier behaviour, and the byte-identical legacy-plan
guarantee of ``Database(rewrite=False)``.
"""

from __future__ import annotations

import pytest

from repro import parse_dml
from repro.database import Database
from repro.engine.sessions import Session
from repro.errors import PlanVerificationError
from repro.optimizer.plan import AccessPath, Plan
from repro.optimizer.rewrite import rewrite_query
from repro.optimizer.strategies import Optimizer
from repro.workloads.university import UNIVERSITY_QUERIES, build_university

#: queries that exercise each rewrite kind on the UNIVERSITY schema
SUBCLASS_QUERY = ('From person Retrieve name'
                  ' Where person isa instructor and not person isa student')
EMPTY_QUERY = ('From person Retrieve name'
               ' Where person isa student and not person isa person')
FLIP_QUERY = 'From student Retrieve name Where employee-nbr of advisor = 1001'
REORDER_QUERY = ('From student Retrieve name'
                 ' Where credits of courses-enrolled > 3'
                 ' and salary of advisor > 0')
FACTOR_QUERY = ('From student Retrieve name, sum(credits of courses-enrolled)'
                ' Where credits of courses-enrolled > 3')
FUNCTION_QUERY = ('From department Retrieve name,'
                  ' year(max(birthdate of instructors-employed))')
ORDER_QUERY = ('From department Retrieve name'
               ' Order By max(salary of instructors-employed)')

EXTRA_QUERIES = [SUBCLASS_QUERY, EMPTY_QUERY, FLIP_QUERY, REORDER_QUERY,
                 FACTOR_QUERY]
ALL_QUERIES = UNIVERSITY_QUERIES + EXTRA_QUERIES


class TestRowIdentitySweep:
    """Rewrites on must return the same rows as rewrites off, at one-row
    and full batches, also under MVCC snapshot reads."""

    @pytest.fixture(scope="class")
    def reference(self):
        database = build_university(seed=11)
        database.rewrite = False
        return {text: database.query(text).rows for text in ALL_QUERIES}

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_rewrite_on_matches_off(self, reference, batch_size):
        database = build_university(seed=11)
        database.executor.batch_size = batch_size
        assert database.rewrite is True
        for text in ALL_QUERIES:
            assert database.query(text).rows == reference[text], text

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_snapshot_reads_match(self, reference, batch_size):
        database = build_university(seed=11)
        database.executor.batch_size = batch_size
        session = Session(database, mvcc=True)
        for text in ALL_QUERIES:
            assert session.query(text).rows == reference[text], text

    def test_snapshot_reads_match_rewrite_off(self, reference):
        database = build_university(seed=11)
        database.rewrite = False
        session = Session(database, mvcc=True)
        for text in ALL_QUERIES:
            assert session.query(text).rows == reference[text], text


class TestLegacyPlansByteIdentical:
    """``rewrite=False`` must reproduce the legacy planner exactly: same
    strategies, same costs, same describe() text — compared against an
    optimizer whose rewrite stage is surgically removed."""

    def test_explain_identical(self, monkeypatch):
        off = build_university(seed=11)
        off.rewrite = False
        legacy = build_university(seed=11)
        monkeypatch.setattr(Optimizer, "_run_rewrite",
                            lambda self, query, tree: ({}, None))
        for text in ALL_QUERIES:
            assert off.explain(text) == legacy.explain(text), text

    def test_off_plans_never_mention_rewrites(self):
        database = build_university(seed=11)
        database.rewrite = False
        for text in ALL_QUERIES:
            report = database.explain(text)
            assert "rewrite:" not in report, text
            assert "subclass-prune" not in report, text
            assert "eva-flip" not in report, text

    def test_ctor_flag(self):
        assert build_university(seed=11).rewrite is True
        database = Database("Class C (n: integer);", rewrite=False)
        assert database.rewrite is False


class TestSubclassPruning:
    def test_plan_shape_and_rows(self):
        database = build_university(seed=11)
        report = database.explain(SUBCLASS_QUERY)
        assert "subclass-prune person -> instructor" in report
        assert "rewrite: subclass(person->instructor)" in report
        rows = database.query(SUBCLASS_QUERY).rows
        off = build_university(seed=11)
        off.rewrite = False
        assert rows == off.query(SUBCLASS_QUERY).rows
        assert rows  # instructors who are not students exist in the seed

    def test_counter(self):
        database = build_university(seed=11)
        before = database.perf.as_dict()["rewrite_subclass_prunes"]
        database.query(SUBCLASS_QUERY)
        assert database.perf.as_dict()["rewrite_subclass_prunes"] > before


class TestEmptyExtent:
    def test_short_circuit(self):
        database = build_university(seed=11)
        result = database.execute(EMPTY_QUERY)
        assert result.rows == []
        assert [d.code for d in result.diagnostics] == ["SIM400"]

    def test_storage_untouched(self):
        database = build_university(seed=11)
        database.reset_io_stats()
        before = database.perf.as_dict()["records_decoded"]
        database.execute(EMPTY_QUERY)
        assert database.perf.as_dict()["records_decoded"] == before

    def test_disjoint_proof(self):
        database = build_university(seed=11)
        query = ('From course Retrieve title'
                 ' Where course isa student')
        result = database.execute(query)
        assert result.rows == []
        assert [d.code for d in result.diagnostics] == ["SIM400"]


class TestEvaFlip:
    def test_plan_shape_and_rows(self):
        database = build_university(seed=11)
        report = database.explain(FLIP_QUERY)
        assert "eva-flip student via inverse(advisor)" in report
        assert "instructor.employee-nbr = 1001" in report
        off = build_university(seed=11)
        off.rewrite = False
        assert database.query(FLIP_QUERY).rows == off.query(FLIP_QUERY).rows


class TestReorderAndFactor:
    def test_reorder_tag(self):
        database = build_university(seed=11)
        assert "exists-reorder" in database.explain(REORDER_QUERY)

    def test_factor_tag_and_memo_sharing(self):
        database = build_university(seed=11)
        assert "factor(" in database.explain(FACTOR_QUERY)
        before = database.perf.as_dict()
        rows = database.query(FACTOR_QUERY).rows
        delta = {k: v - before[k] for k, v in database.perf.as_dict().items()}
        # The WHERE traversal and the aggregate traversal share one memo
        # key: the second node's enumerations are all memo hits.
        assert delta["memo_hits"] > 0
        off = build_university(seed=11)
        off.rewrite = False
        assert rows == off.query(FACTOR_QUERY).rows


class TestScopesUnderAFunctionCall:
    """The factoring pass reaches a scoped node wherever it sits: here
    an aggregate inside a function call, and one in Order By."""

    def test_scoped_nodes_get_domain_keys(self):
        database = build_university(seed=11)
        query = parse_dml(FUNCTION_QUERY)
        tree = database.qualifier.resolve_retrieve(query)
        rewrite_query(database.store, database.schema, query, tree)
        aggregate = query.targets[1].expression.args[0]
        assert aggregate.scope_nodes
        for node in aggregate.scope_nodes:
            assert getattr(node, "domain_key", None) is not None, node

    def test_rows_match_rewrite_off(self):
        database = build_university(seed=11)
        off = build_university(seed=11)
        off.rewrite = False
        for text in (FUNCTION_QUERY, ORDER_QUERY):
            rows = database.query(text).rows
            assert rows == off.query(text).rows, text
            assert rows

    def test_order_by_scopes_get_domain_keys(self):
        database = build_university(seed=11)
        query = parse_dml(ORDER_QUERY)
        tree = database.qualifier.resolve_retrieve(query)
        rewrite_query(database.store, database.schema, query, tree)
        aggregate = query.order_by[0].expression
        assert aggregate.scope_nodes
        for node in aggregate.scope_nodes:
            assert getattr(node, "domain_key", None) is not None, node


class TestVerifier:
    """verify_plan re-derives every rewrite proof independently and
    fails closed (SIM401) on any it cannot reproduce."""

    def _plan(self, database, text, access):
        query = parse_dml(text)
        tree = database.qualifier.resolve_retrieve(query)
        return query, tree, Plan(root_access={"person": access},
                                 description=access.kind,
                                 estimated_cost=access.estimated_cost)

    def test_bogus_subclass_rejected(self):
        from repro.analysis import raise_for_errors, verify_plan
        database = build_university(seed=11)
        access = AccessPath(kind="subclass", class_name="person",
                            estimated_cost=1.0, estimated_rows=1.0,
                            subclass="course")   # not in person's hierarchy
        query, tree, plan = self._plan(database, "From person Retrieve name",
                                       access)
        with pytest.raises(PlanVerificationError):
            raise_for_errors(verify_plan(database.schema, tree, plan))

    def test_vacuous_subclass_rejected(self):
        from repro.analysis import raise_for_errors, verify_plan
        database = build_university(seed=11)
        access = AccessPath(kind="subclass", class_name="student",
                            estimated_cost=1.0, estimated_rows=1.0,
                            subclass="person")   # ancestor: no pruning
        query = parse_dml("From student Retrieve name")
        tree = database.qualifier.resolve_retrieve(query)
        plan = Plan(root_access={"student": access},
                    description="subclass", estimated_cost=1.0)
        with pytest.raises(PlanVerificationError):
            raise_for_errors(verify_plan(database.schema, tree, plan))

    def test_unprovable_empty_rejected(self):
        from repro.analysis import raise_for_errors, verify_plan
        database = build_university(seed=11)
        access = AccessPath(kind="empty", class_name="person",
                            estimated_cost=0.0, estimated_rows=0.0,
                            proof=("contradiction", "instructor", "student"))
        query, tree, plan = self._plan(database, "From person Retrieve name",
                                       access)
        with pytest.raises(PlanVerificationError):
            raise_for_errors(verify_plan(database.schema, tree, plan))

    def test_provable_empty_accepted_with_info(self):
        from repro.analysis import verify_plan
        database = build_university(seed=11)
        access = AccessPath(kind="empty", class_name="person",
                            estimated_cost=0.0, estimated_rows=0.0,
                            proof=("contradiction", "student", "person"))
        query, tree, plan = self._plan(database, "From person Retrieve name",
                                       access)
        verdict = verify_plan(database.schema, tree, plan)
        assert [d.code for d in verdict] == ["SIM400"]
        assert verdict[0].severity == "info"


class TestRewritePass:
    """Direct unit coverage of rewrite_query's analysis."""

    def test_describe_none_when_nothing_applies(self):
        database = build_university(seed=11)
        query = parse_dml("From student Retrieve name")
        tree = database.qualifier.resolve_retrieve(query)
        result = rewrite_query(database.store, database.schema, query, tree)
        assert result.describe() == "none"
        assert result.hints == {}

    def test_subclass_hint_picks_smallest_extent(self):
        database = build_university(seed=11)
        query = parse_dml('From person Retrieve name'
                          ' Where person isa student'
                          ' and person isa teaching-assistant')
        tree = database.qualifier.resolve_retrieve(query)
        result = rewrite_query(database.store, database.schema, query, tree)
        hint = result.hints["person"]
        # teaching-assistant is the smaller extent of the two candidates
        assert hint.subclass == "teaching-assistant"

    def test_statement_counter(self):
        database = build_university(seed=11)
        before = database.perf.as_dict()["rewrite_statements"]
        database.query("From student Retrieve name")
        assert database.perf.as_dict()["rewrite_statements"] == before + 1


class TestIQFKnob:
    def test_set_rewrite(self):
        from repro.interfaces.iqf import run_script
        database = build_university(seed=11)
        transcript = run_script(database, ".set rewrite off\n.set\n")
        assert "rewrite off" in transcript
        assert "rewrite: off" in transcript
        assert database.rewrite is False
        run_script(database, ".set rewrite on\n")
        assert database.rewrite is True
