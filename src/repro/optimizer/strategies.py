"""Strategy enumeration and selection (paper §5.1).

For every perspective root the optimizer enumerates the applicable access
paths (extent scan; equality index lookups derived from top-level WHERE
conjuncts of the form ``<attr of root> = <literal>``), extends each with
the traversal cost of the query tree's EVA/MV-DVA edges (existential
TYPE 2 subtrees are costed with early-exit fanout), applies the
semantics-preservation rule (an index path breaks the surrogate ordering;
re-sorting its matches is added to its cost), and picks the cheapest
combination.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.dml.ast import Binary, Literal, Path, RetrieveQuery, conjuncts
from repro.dml.query_tree import TYPE2, QTNode, QueryTree
from repro.optimizer.cost import CostModel
from repro.optimizer.plan import AccessPath, Plan
from repro.optimizer.query_graph import build_query_graph
from repro.optimizer.rewrite import RootHint, rewrite_query
from repro.plan_cache import DRIFT_FACTOR


def _root_attribute(expression, root: QTNode) -> Optional[str]:
    """The attribute name when ``expression`` is ``<attr> of root`` with
    no traversal between; None otherwise."""
    if (isinstance(expression, Path) and expression.anchor_node is root
            and not expression.chain_nodes
            and expression.terminal_attr is not None):
        return expression.terminal_attr.name
    return None


def equality_conjuncts(where, root: QTNode) -> List[Tuple[str, Literal]]:
    """Top-level AND-ed conjuncts ``<root attr> = <literal>`` of a WHERE
    clause, as ``(attribute, Literal node)``: callers probe with the
    value *bound for their execution*.  Shared by the optimizer's
    access-path enumeration and the executor's update/VERIFY selection
    fast path."""
    found: List[Tuple[str, Literal]] = []
    for conjunct in conjuncts(where):
        if not isinstance(conjunct, Binary) or conjunct.op != "=":
            continue
        sides = [(conjunct.left, conjunct.right),
                 (conjunct.right, conjunct.left)]
        for path_side, literal_side in sides:
            attr_name = _root_attribute(path_side, root)
            if attr_name is not None and isinstance(literal_side, Literal):
                found.append((attr_name, literal_side))
    return found


#: op -> (is_lower_bound, inclusive)
_RANGE_OPS = {">": (True, False), ">=": (True, True),
              "<": (False, False), "<=": (False, True)}
#: mirror ops for ``<literal> <op> <root attr>`` conjuncts
_FLIPPED = {">": "<", ">=": "<=", "<": ">", "<=": ">="}


def range_conjuncts(where, root: QTNode
                    ) -> List[Tuple[str, object, object, bool, bool]]:
    """Top-level AND-ed range bounds on root attributes, folded per
    attribute into ``(attr, low, high, include_low, include_high)`` —
    the bounds are Literal nodes, and either may be None.  Bounds may be
    loose — the selection stage re-checks the full predicate — so only
    the first lower and first upper bound per attribute are kept."""
    bounds: Dict[str, List] = {}
    for conjunct in conjuncts(where):
        if not isinstance(conjunct, Binary) or conjunct.op not in _RANGE_OPS:
            continue
        op, value = conjunct.op, conjunct.right
        attr_name = _root_attribute(conjunct.left, root)
        if attr_name is None:
            op, value = _FLIPPED[op], conjunct.left
            attr_name = _root_attribute(conjunct.right, root)
        if attr_name is None or not isinstance(value, Literal):
            continue
        entry = bounds.setdefault(attr_name, [None, None, True, True])
        lower, inclusive = _RANGE_OPS[op]
        if lower and entry[0] is None:
            entry[0], entry[2] = value, inclusive
        elif not lower and entry[1] is None:
            entry[1], entry[3] = value, inclusive
    return [(attr_name, entry[0], entry[1], entry[2], entry[3])
            for attr_name, entry in bounds.items()]


class Optimizer:
    """Chooses an access plan for Retrieve queries."""

    def __init__(self, database):
        self.database = database
        self.store = database.store
        self.schema = database.schema
        #: collected by Database.analyze(); None = fixed-default estimates
        self.table_statistics = None
        #: (owner, attr) -> [observation count, fan-out sum]; fed by
        #: observe_execution from traced EXPLAIN ANALYZE actuals
        self._fanout_observations = {}
        #: (owner, attr) -> the learned mean cached plans were costed with
        self._planned_fanout = {}

    # -- Public API ---------------------------------------------------------------

    def choose_plan(self, query: RetrieveQuery, tree: QueryTree) -> Plan:
        trace = self.store.trace
        if trace is not None and trace.enabled:
            with trace.span("optimize", layer="optimizer") as span:
                plan = self._choose_plan(query, tree)
                span.attrs.update(plan.trace_attrs)
                return plan
        return self._choose_plan(query, tree)

    def _choose_plan(self, query: RetrieveQuery, tree: QueryTree) -> Plan:
        cost_model = self._cost_model()
        strategies = self.enumerate_strategies(query, tree, cost_model)
        plan = min(strategies, key=lambda p: p.estimated_cost)
        plan.trace_attrs = {
            "strategy": plan.description,
            "estimated_cost": round(plan.estimated_cost, 2),
            "strategies_considered": len(strategies)}
        if plan.rewrite is not None:
            plan.trace_attrs["rewrite"] = plan.rewrite
        self._annotate_estimates(tree, plan, cost_model)
        return plan

    def _cost_model(self) -> CostModel:
        return CostModel(self.store, self.table_statistics,
                         fanout_feedback=self.fanout_feedback())

    # -- Learned cardinality feedback ---------------------------------------------

    def fanout_feedback(self):
        """Mean observed fan-out per EVA direction, or None before any
        traced execution has reported actuals."""
        if not self._fanout_observations:
            return None
        return {key: total / count
                for key, (count, total) in self._fanout_observations.items()}

    def observe_execution(self, tree: QueryTree, node_stats) -> None:
        """Learn actual cardinalities from one traced execution.

        ``node_stats`` maps node id -> [domain enumerations, instances
        bound] (the executor's EXPLAIN ANALYZE counters).  Each EVA edge
        whose parent bound at least one instance contributes an observed
        mean fan-out, which future cost models prefer over the store's
        static average (paper §5.1's "statistical optimization", closed
        into a feedback loop).  A mean that is new, or moved past the
        plan cache's drift factor since cached plans were costed with it,
        moves the plan epoch."""
        if not node_stats:
            return
        drifted = False

        def visit(node):
            nonlocal drifted
            parent_stats = node_stats.get(node.id)
            for child in node.children.values():
                child_stats = node_stats.get(child.id)
                if (child.kind == "eva" and not child.transitive
                        and parent_stats is not None
                        and child_stats is not None
                        and parent_stats[1] > 0):
                    key = (child.eva.owner_name, child.eva.name)
                    count, total = self._fanout_observations.get(key, (0, 0.0))
                    fanout = child_stats[1] / parent_stats[1]
                    if child.label == TYPE2:
                        # Existential enumeration stops at the first
                        # witness; its counts under-estimate true fan-out.
                        fanout = max(fanout, 1.0) if child_stats[1] else 0.0
                    self._fanout_observations[key] = (count + 1,
                                                      total + fanout)
                    mean = (total + fanout) / (count + 1)
                    planned = self._planned_fanout.get(key)
                    if planned is None or not (
                            planned / DRIFT_FACTOR <= mean
                            <= planned * DRIFT_FACTOR):
                        self._planned_fanout[key] = mean
                        drifted = True
                visit(child)

        for root in tree.roots:
            visit(root)
        if drifted:
            self.database.plan_cache.clear()

    # -- Per-node estimates (EXPLAIN ANALYZE's "est" column) ------------------------

    def _annotate_estimates(self, tree: QueryTree, plan: Plan,
                            cost_model: CostModel) -> None:
        estimates = {}
        for root in tree.roots:
            access = plan.root_access.get(root.var_name)
            rows = (access.estimated_rows if access is not None
                    else float(cost_model.class_cardinality(root.class_name)))
            self._estimate_subtree(root, rows, cost_model, estimates)
        plan.node_estimates = estimates

    def _estimate_subtree(self, node: QTNode, rows: float,
                          cost_model: CostModel, estimates) -> None:
        estimates[node.id] = rows
        for child in node.children.values():
            existential = child.label == TYPE2
            if child.kind == "eva":
                fanout = max(cost_model.eva_fanout(child.eva), 0.0)
                child_rows = rows * (min(fanout, 1.0) if existential
                                     else fanout)
            else:
                child_rows = rows
            self._estimate_subtree(child, child_rows, cost_model, estimates)

    def explain(self, query: RetrieveQuery, tree: QueryTree) -> str:
        graph = build_query_graph(tree)
        strategies = sorted(self.enumerate_strategies(query, tree),
                            key=lambda plan: plan.estimated_cost)
        lines = [graph.describe(), ""]
        lines.append(f"{len(strategies)} strategies considered:")
        for rank, plan in enumerate(strategies):
            marker = "->" if rank == 0 else "  "
            lines.append(f"{marker} {plan.describe()}")
        return "\n".join(lines)

    # -- Strategy enumeration -------------------------------------------------------

    def enumerate_strategies(self, query: RetrieveQuery, tree: QueryTree,
                             cost_model: CostModel = None) -> List[Plan]:
        if cost_model is None:
            cost_model = self._cost_model()
        hints, rewrite_text = self._run_rewrite(query, tree)
        per_root: List[List[AccessPath]] = []
        for root in tree.roots:
            per_root.append(self._root_alternatives(
                query, root, cost_model, hints.get(root.var_name)))

        # Loop orders: the FROM order (semantics-preserving) plus, for
        # multi-perspective queries, every permutation — non-preserving
        # orders are charged the output re-sort (§5.1).
        original = list(tree.roots)
        if len(original) > 1 and len(original) <= 4:
            orders = [list(p) for p in itertools.permutations(original)]
        else:
            orders = [original]

        plans: List[Plan] = []
        for combination in itertools.product(*per_root):
            access_of = {root.var_name: access
                         for root, access in zip(tree.roots, combination)}
            for order in orders:
                plan = Plan()
                plan.root_access = dict(access_of)
                preserves = order == original
                if not preserves:
                    plan.root_order = [root.var_name for root in order]
                total = self._nested_cost(order, access_of, cost_model)
                result_rows = 1.0
                for access in combination:
                    result_rows *= max(access.estimated_rows, 1.0)
                if not preserves:
                    total += cost_model.sort_cost(result_rows)
                for access in combination:
                    if not access.preserves_order:
                        total += cost_model.sort_cost(access.estimated_rows)
                plan.estimated_cost = total
                plan.description = " x ".join(
                    access_of[root.var_name].kind for root in order)
                if not preserves:
                    plan.description += " (reordered)"
                plan.rewrite = rewrite_text
                plans.append(plan)
        return plans

    # -- Semantic rewrite phase -----------------------------------------------------

    def _run_rewrite(self, query: RetrieveQuery, tree: QueryTree):
        """Run the semantic rewrite pass when the knob allows it.

        Returns ``(hints_by_var, description)``.  With rewrites off the
        tree is untouched and every downstream plan is byte-identical to
        the legacy enumeration (description None).
        """
        if not getattr(self.database, "rewrite", True):
            return {}, None
        result = rewrite_query(self.store, self.schema, query, tree)
        perf = self.store.perf
        if perf is not None:
            perf.bump("rewrite_statements")
            for hint in result.hints.values():
                if hint.empty_proof is not None:
                    perf.bump("rewrite_empty_extents")
                elif hint.subclass is not None:
                    perf.bump("rewrite_subclass_prunes")
                if hint.flips:
                    perf.bump("rewrite_eva_flips", len(hint.flips))
            for tag in result.applied:
                if tag.startswith("exists-reorder"):
                    perf.bump("rewrite_exists_reorders")
                elif tag.startswith("factor"):
                    perf.bump("rewrite_traversal_factorings")
        return result.hints, result.describe()

    def _nested_cost(self, order, access_of, cost_model: CostModel) -> float:
        """Cost of the nested cross-product loops in the given order.

        Inner roots are re-evaluated once per outer combination; a rescan
        is free when the class's blocks fit comfortably in the buffer
        pool, else it pays its access cost again.
        """
        pool = self.store.design.pool_capacity
        total = 0.0
        multiplier = 1.0
        for root in order:
            access = access_of[root.var_name]
            blocks = cost_model.class_blocks(access.class_name)
            rescan = 0.0 if blocks <= pool // 2 else access.estimated_cost
            total += access.estimated_cost + max(multiplier - 1.0, 0.0) * rescan
            total += multiplier * self._subtree_cost(
                root, access.estimated_rows, cost_model)
            multiplier *= max(access.estimated_rows, 1.0)
        return total

    def _root_alternatives(self, query: RetrieveQuery, root: QTNode,
                           cost_model: CostModel,
                           hint: RootHint = None) -> List[AccessPath]:
        class_name = root.class_name
        if hint is not None and hint.empty_proof is not None:
            # Provably-empty short-circuit: no other alternative can beat
            # an empty domain, and the verifier re-derives the proof.
            return [AccessPath("empty", class_name,
                               estimated_cost=0.0, estimated_rows=0.0,
                               preserves_order=True,
                               proof=hint.empty_proof)]
        cardinality = cost_model.class_cardinality(class_name)
        alternatives = [AccessPath(
            "scan", class_name,
            estimated_cost=cost_model.scan_cost(class_name),
            estimated_rows=float(cardinality),
            preserves_order=True)]
        for attr_name, literal in equality_conjuncts(query.where, root):
            if not self.store.has_index_on(class_name, attr_name):
                continue
            attr = self.schema.get_class(class_name).attribute(attr_name)
            lookup_cost, matches = cost_model.index_lookup_cost(
                class_name, attr_name, attr.options.unique, literal)
            alternatives.append(AccessPath(
                "index", class_name, attr_name, literal.value,
                estimated_cost=lookup_cost,
                estimated_rows=matches,
                preserves_order=False, literal=literal))
        if hint is not None and hint.subclass is not None:
            pruned = float(cost_model.class_cardinality(hint.subclass))
            alternatives.append(AccessPath(
                "subclass", class_name,
                estimated_cost=cost_model.subclass_scan_cost(
                    class_name, hint.subclass),
                estimated_rows=pruned,
                preserves_order=False,
                subclass=hint.subclass))
        if hint is not None:
            for flip in hint.flips:
                flip_attr = self.schema.get_class(
                    flip.target_class).attribute(flip.attr_name)
                lookup_cost, matches = cost_model.index_lookup_cost(
                    flip.target_class, flip.attr_name,
                    flip_attr.options.unique, flip.literal)
                inverse = flip.eva.inverse
                back_cost = cost_model.traversal_cost(inverse, matches, False)
                fanout = max(cost_model.eva_fanout(inverse), 0.0)
                alternatives.append(AccessPath(
                    "eva_flip", class_name,
                    attr_name=flip.attr_name, value=flip.literal.value,
                    estimated_cost=lookup_cost + back_cost,
                    estimated_rows=max(matches * fanout, 1.0),
                    preserves_order=False, literal=flip.literal,
                    eva=flip.eva, flip_class=flip.target_class))
        return alternatives

    def _subtree_cost(self, node: QTNode, rows: float,
                      cost_model: CostModel) -> float:
        """Traversal cost of a root's subtree given ``rows`` source rows."""
        total = 0.0
        for child in node.children.values():
            existential = child.label == TYPE2
            if child.kind == "eva":
                total += cost_model.traversal_cost(child.eva, rows,
                                                   existential)
                fanout = max(cost_model.eva_fanout(child.eva), 0.0)
                child_rows = rows * (min(fanout, 1.0) if existential
                                     else fanout)
            else:
                # MV DVA: values come from the owner record (array) or a
                # dependent unit; charge one block per source visit.
                total += rows * 0.5
                child_rows = rows
            total += self._subtree_cost(child, child_rows, cost_model)
        return total
