"""Optimizer tests (paper §5.1): query graph, strategy enumeration, cost
model ordering, plan-vs-naive equivalence, semantics preservation."""

import pytest

from repro import Database, parse_dml
from repro.optimizer import CostModel, build_query_graph
from repro.optimizer.plan import Plan
from repro.workloads import UNIVERSITY_DDL, build_university


@pytest.fixture(scope="module")
def db():
    return build_university(departments=4, instructors=10, students=60,
                            courses=20, seed=11)


class TestQueryGraph:
    def test_nodes_are_lucs(self, db):
        query = parse_dml(
            "From student Retrieve name, title of courses-enrolled")
        tree = db.qualifier.resolve_retrieve(query)
        graph = build_query_graph(tree)
        names = [node.luc_name for node in graph.nodes]
        assert names == ["student", "course"]
        assert graph.edges[0].eva_name == "courses-enrolled"

    def test_mvdva_node(self, db):
        query = parse_dml("From person Retrieve profession")
        tree = db.qualifier.resolve_retrieve(query)
        graph = build_query_graph(tree)
        kinds = {node.kind for node in graph.nodes}
        assert kinds == {"class", "mvdva"}


class TestStrategyEnumeration:
    def test_index_strategy_found_for_unique_equality(self, db):
        query = parse_dml(
            "From student Retrieve name Where soc-sec-no = 0")
        tree = db.qualifier.resolve_retrieve(query)
        plans = db.optimizer.enumerate_strategies(query, tree)
        kinds = {plan.root_access["student"].kind for plan in plans}
        assert kinds == {"scan", "index"}

    def test_no_index_strategy_for_unindexed_attribute(self, db):
        query = parse_dml('From person Retrieve name Where name = "X"')
        tree = db.qualifier.resolve_retrieve(query)
        plans = db.optimizer.enumerate_strategies(query, tree)
        assert {plan.root_access["person"].kind for plan in plans} == \
            {"scan"}

    def test_index_wins_at_scale(self, db):
        # 60 students: an index probe beats the extent scan.
        query = parse_dml(
            "From student Retrieve name Where soc-sec-no = 0")
        tree = db.qualifier.resolve_retrieve(query)
        plan = db.optimizer.choose_plan(query, tree)
        assert plan.root_access["student"].kind == "index"

    def test_or_disjunction_prevents_index(self, db):
        query = parse_dml('From student Retrieve name '
                          'Where soc-sec-no = 1 or soc-sec-no = 2')
        tree = db.qualifier.resolve_retrieve(query)
        plans = db.optimizer.enumerate_strategies(query, tree)
        assert {p.root_access["student"].kind for p in plans} == {"scan"}

    def test_multi_perspective_strategies_are_products(self, db):
        query = parse_dml(
            "From student, instructor Retrieve name of student,"
            " name of instructor Where soc-sec-no of student = 1 and"
            " employee-nbr of instructor = 1001")
        tree = db.qualifier.resolve_retrieve(query)
        plans = db.optimizer.enumerate_strategies(query, tree)
        # {scan,index} x {scan,index} access choices x 2 loop orders
        assert len(plans) == 8
        preserving = [p for p in plans if p.root_order is None]
        assert len(preserving) == 4


class TestPlanEquivalence:
    QUERIES = [
        "From student Retrieve name Where soc-sec-no = {ssn}",
        "From student Retrieve name, title of courses-enrolled "
        "Where soc-sec-no = {ssn}",
        "From student Retrieve name, name of advisor "
        "Where soc-sec-no = {ssn}",
    ]

    def test_index_plan_returns_scan_plan_results(self, db):
        ssn = db.query("From student Retrieve soc-sec-no").rows[10][0]
        for template in self.QUERIES:
            text = template.format(ssn=ssn)
            query = parse_dml(text)
            tree = db.qualifier.resolve_retrieve(query)
            with_plan = db.executor.run(query, tree,
                                        db.optimizer.choose_plan(query, tree))
            without = db.executor.run(query, tree, None)
            assert with_plan.rows == without.rows

    def test_ordering_preserved_by_index_plan(self, db):
        # Non-unique value index lookup must return entities in surrogate
        # order, the perspective-implied ordering.
        rows_scan = db.query("From student Retrieve soc-sec-no").rows
        assert rows_scan == sorted(rows_scan)


class TestCostModel:
    def test_scan_cost_tracks_blocks(self, db):
        cost_model = CostModel(db.store)
        assert cost_model.scan_cost("student") == \
            db.store.class_block_count("student")

    def test_clustered_first_instance_is_free(self, db):
        # §5.1: clustering -> 0; pointers -> 1 block access.
        from repro.mapper import EvaMapping, PhysicalDesign, MapperStore
        from repro import parse_ddl
        from repro.workloads import UNIVERSITY_DDL
        schema = parse_ddl(UNIVERSITY_DDL)
        advisor = schema.get_class("student").attribute("advisor")
        for mapping, expected_first in [(EvaMapping.CLUSTERED, 0.0),
                                        (EvaMapping.POINTER, 1.0)]:
            design = PhysicalDesign(schema)
            design.override_eva("student", "advisor", mapping)
            store = MapperStore(schema, design.finalize())
            first, _ = CostModel(store).relationship_costs(advisor)
            assert first == expected_first

    def test_sort_cost_monotone(self, db):
        cost_model = CostModel(db.store)
        assert cost_model.sort_cost(1) == 0.0
        assert cost_model.sort_cost(1000) > cost_model.sort_cost(100) > 0

    def test_explain_report(self, db):
        report = db.explain(
            "From student Retrieve name Where soc-sec-no = 0")
        assert "query graph" in report
        assert "strategies considered" in report
        assert "->" in report


class TestEstimateVsMeasure:
    def test_cheaper_estimate_is_cheaper_measured(self, db):
        """E6 core claim: for the selective query, the chosen (index) plan
        does measurably less physical I/O than the naive scan."""
        ssn = db.query("From student Retrieve soc-sec-no").rows[5][0]
        text = f"From student Retrieve name, name of advisor Where soc-sec-no = {ssn}"
        query = parse_dml(text)
        tree = db.qualifier.resolve_retrieve(query)
        plans = sorted(db.optimizer.enumerate_strategies(query, tree),
                       key=lambda p: p.estimated_cost)
        best, worst = plans[0], plans[-1]
        assert best.estimated_cost < worst.estimated_cost

        def measure(plan):
            db.cold_cache()
            db.reset_io_stats()
            db.executor.run(query, tree, plan)
            return db.io_stats.physical_reads

        assert measure(best) <= measure(worst)


class TestRootReordering:
    """§5.1's semantics-preserving transformation: loop orders other than
    the FROM order are considered and charged an output re-sort."""

    def _query(self, db):
        emp = db.query("From instructor Retrieve employee-nbr").rows[0][0]
        return ("From student, instructor Retrieve name of student,"
                " name of instructor"
                f" Where employee-nbr of instructor = {emp} and"
                " birthdate of student < birthdate of instructor")

    def test_reordered_strategies_enumerated(self, db):
        query = parse_dml(self._query(db))
        tree = db.qualifier.resolve_retrieve(query)
        plans = db.optimizer.enumerate_strategies(query, tree)
        assert any(plan.root_order is not None for plan in plans)
        assert any(plan.root_order is None for plan in plans)

    def test_all_orders_return_identical_results(self, db):
        text = self._query(db)
        reference = None
        query = parse_dml(text)
        tree = db.qualifier.resolve_retrieve(query)
        for plan in db.optimizer.enumerate_strategies(query, tree):
            fresh = parse_dml(text)
            fresh_tree = db.qualifier.resolve_retrieve(fresh)
            rows = db.executor.run(fresh, fresh_tree, plan).rows
            if reference is None:
                reference = rows
            assert rows == reference

    def test_reordered_plan_explained(self, db):
        report = db.explain(self._query(db))
        assert "reordered" in report

    def test_single_perspective_never_reordered(self, db):
        query = parse_dml("From student Retrieve name")
        tree = db.qualifier.resolve_retrieve(query)
        plans = db.optimizer.enumerate_strategies(query, tree)
        assert all(plan.root_order is None for plan in plans)

    def test_structured_output_under_reordering(self, db):
        text = self._query(db).replace("Retrieve", "Retrieve Structure", 1)
        query = parse_dml(text)
        tree = db.qualifier.resolve_retrieve(query)
        plans = db.optimizer.enumerate_strategies(query, tree)
        reordered = next(p for p in plans if p.root_order is not None)
        result = db.executor.run(query, tree, reordered)
        # student records (the first perspective) still group the output
        assert result.structured[0].format_name == "student"
