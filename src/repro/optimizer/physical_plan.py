"""Lowering the labelled query tree into a physical operator DAG.

The optimizer's :class:`~repro.optimizer.plan.Plan` carries *logical*
decisions — root access paths and loop order.  This module turns those
plus the §4.5 TYPE labels into the executable pipeline of
:mod:`repro.engine.operators`:

* every TYPE 1 / TYPE 3 node of the enumeration spine (planned DF order)
  becomes a :class:`~repro.engine.operators.Scan` (roots) or a
  :class:`~repro.engine.operators.EVATraverse` /
  :class:`~repro.engine.operators.OuterTraverse` (inner nodes);
* the WHERE clause lowers to a :class:`~repro.engine.operators.Semi`
  over the main-scope TYPE 2 subtrees when they exist, to a
  :class:`~repro.engine.operators.Semi` / ``AntiSemi`` comparison
  semijoin for top-level SOME/NO quantifiers, and to a
  :class:`~repro.engine.operators.Filter` otherwise;
* aggregates, projection, the §5.1 restore sort, Order By and Distinct
  complete the chain.

The slot layout (node id -> row index) assigns one slot per spine node
in planned DF order plus one per precomputed aggregate expression.
Lowering is also where every qualified expression is compiled, once per
plan, into the column function its operator runs
(:mod:`repro.engine.expressions`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dml.ast import Aggregate as AggregateExpr
from repro.dml.ast import Binary, Literal, Path, Quantified, \
    RetrieveQuery, Unary, pin_literals, walk
from repro.dml.query_tree import TYPE2, TYPE3, QTNode, QueryTree
from repro.engine import operators as ops
from repro.engine.expressions import (
    COMPARISON_OPS,
    compile_selection,
    compile_truth,
    compile_value,
)
from repro.plan_cache import instance_copy


class PhysicalPlan:
    """A lowered operator pipeline plus the slot layout its rows use."""

    def __init__(self, root: ops.Operator, slots: Dict[int, int],
                 width: int, spine: List[QTNode],
                 exists_nodes: List[QTNode], plan=None, columns=()):
        self.root = root                  # sink operator
        self.slots = slots                # node id -> slot index
        self.width = width                # row width incl. aggregate slots
        self.spine = spine                # enumerated nodes, planned order
        self.exists_nodes = exists_nodes  # off-spine TYPE 2 probe nodes
        self.plan = plan
        self.columns = columns            # result column labels

    def fresh(self) -> "PhysicalPlan":
        """This pipeline for one execution: the same layout over a new
        operator instance chain (per-run counters never mix)."""
        clone = instance_copy(self)
        clone.root = self.root.fresh()
        return clone

    @property
    def operators(self) -> List[ops.Operator]:
        """The pipeline, innermost (leaf) first."""
        return self.root.chain()

    def operator_records(self, params=None) -> List[Dict]:
        """Per-operator EXPLAIN ANALYZE records, pipeline order."""
        estimates = getattr(self.plan, "node_estimates", None) or {}
        records = []
        for operator in self.operators:
            node = operator.node
            records.append({
                "op": operator.name,
                "detail": operator.detail(params),
                "label": (f"TYPE {node.label}"
                          if node is not None and node.label else None),
                "batches": operator.batches,
                "rows_in": operator.rows_in,
                "rows_out": operator.rows_out,
                "est_rows": (estimates.get(node.id)
                             if node is not None else None),
            })
        return records

    def describe(self) -> str:
        lines = ["physical plan:"]
        for operator in self.operators:
            lines.append(f"  {operator.describe()}")
        return "\n".join(lines)


def exists_subtrees(loop_nodes: List[QTNode]) -> List[QTNode]:
    """All TYPE 2 existential subtree nodes below the loop variables, in
    DF order — the probe set of the main-scope :class:`Semi`."""
    exists_nodes: List[QTNode] = []

    def collect(candidate: QTNode) -> None:
        exists_nodes.append(candidate)
        for child in candidate.children.values():
            collect(child)

    for node in loop_nodes:
        for child in node.children.values():
            if child.label == TYPE2:
                collect(child)
    return exists_nodes


def _quantifier_comparison(where):
    """The quantified operand when the WHERE clause is exactly a
    top-level SOME/NO quantified comparison whose scope actually
    enumerates something; None otherwise."""
    if not isinstance(where, Binary) or where.op not in COMPARISON_OPS:
        return None
    quantified = where.right
    if (isinstance(quantified, Quantified)
            and quantified.quantifier in ("some", "no")
            and quantified.scope_nodes):
        return quantified
    return None


def _pushdown_slot(where, slots):
    """The highest spine slot a plain Filter predicate reads, or None
    when the predicate must wait for the complete row.

    Conservative walk: only Path / Literal / Binary / Unary expressions
    qualify, and every path must resolve (through its value node's
    parent chain) to an enumerated spine slot.  A qualifying predicate's
    truth value depends only on slots bound at that depth, so filtering
    there prunes rows *before* the remaining fan-out without changing
    the §4.5 result (the selection is re-evaluated against the same
    bindings either way).
    """
    highest = -1
    for expression in walk(where):
        if isinstance(expression, Path):
            node = expression.value_node
            while node is not None and node.id not in slots:
                node = node.parent
            if node is None:
                return None
            highest = max(highest, slots[node.id])
        elif not isinstance(expression, (Literal, Binary, Unary)):
            return None      # quantifier, aggregate, isa, function call
    return highest if highest >= 0 else None


def _lower_selection_ops(operator, where, exists_nodes, predicate):
    """Selection stage shared by queries and the update-path selection:
    Semi for main-scope TYPE 2 subtrees, Semi/AntiSemi for top-level
    SOME/NO quantified comparisons, Filter for everything else — all
    running the one compiled ``predicate``."""
    if where is None:
        return operator
    if exists_nodes:
        return ops.Semi(exists_nodes, where, operator, predicate)
    quantified = _quantifier_comparison(where)
    if quantified is not None:
        probe = ops.Semi if quantified.quantifier == "some" else ops.AntiSemi
        return probe(quantified.scope_nodes, where, operator, predicate)
    return ops.Filter(where, operator, predicate)


def lower_plan(query: RetrieveQuery, tree: QueryTree, plan) -> PhysicalPlan:
    """Lower a resolved Retrieve into the full operator pipeline."""
    roots = list(tree.roots)
    reordered = False
    if plan is not None and getattr(plan, "root_order", None):
        by_var = {root.var_name: root for root in roots}
        planned = [by_var[name] for name in plan.root_order]
        reordered = planned != roots
        roots = planned

    loop_nodes: List[QTNode] = []
    for root in roots:
        loop_nodes.extend(tree.loop_nodes(root))
    original_nodes: List[QTNode] = []
    for root in tree.roots:
        original_nodes.extend(tree.loop_nodes(root))

    slots: Dict[int, int] = {}
    for node in loop_nodes:
        slots[node.id] = len(slots)

    # Aggregate expressions appearing directly as targets or order keys
    # evaluate once per row into dedicated extra slots.
    width = len(slots)
    agg_slots: Dict[int, int] = {}
    aggregates = []
    for item in [*query.targets, *(query.order_by or [])]:
        if isinstance(item.expression, AggregateExpr):
            agg_slots[id(item.expression)] = width
            aggregates.append((item.expression, width))
            width += 1

    exists_nodes = exists_subtrees(loop_nodes)
    pushdown = predicate = None
    if query.where is not None:
        predicate = compile_selection(query.where, exists_nodes, slots,
                                      width)
        if not exists_nodes and _quantifier_comparison(query.where) is None:
            pushdown = _pushdown_slot(query.where, slots)

    operator: Optional[ops.Operator] = None
    pushed = False
    for index, node in enumerate(loop_nodes):
        if node.kind == "root":
            access = (plan.root_access.get(node.var_name)
                      if plan is not None else None)
            operator = ops.Scan(node, plan=plan, access=access,
                                child=operator)
        elif node.label == TYPE3:
            operator = ops.OuterTraverse(node, operator)
        else:
            operator = ops.EVATraverse(node, operator)
        if pushdown == index:
            # Predicate pushdown: every slot the WHERE clause reads is
            # bound here, so prune before the remaining fan-out.
            operator = ops.Filter(query.where, operator, predicate)
            pushed = True

    operator = _lower_selection_ops(operator,
                                    None if pushed else query.where,
                                    exists_nodes, predicate)

    def column(expression):
        slot = agg_slots.get(id(expression))
        if slot is None:
            return compile_value(expression, slots, width)
        return lambda ctx, batch: batch[slot]

    if aggregates:
        operator = ops.Aggregate(
            [(expression, compile_value(expression, slots, width), slot)
             for expression, slot in aggregates], operator)

    # A label spells out its target's literals: pinned into the cache key.
    for item in query.targets:
        pin_literals(item.expression)
    columns = [item.label or item.expression.describe()
               for item in query.targets]

    structured = query.mode == "structure"
    operator = ops.Project(
        columns, [slots[node.id] for node in original_nodes], reordered,
        structured, [column(item.expression) for item in query.targets],
        [(column(order.expression), order.descending)
         for order in (query.order_by or [])], operator)
    needs_order = bool(query.order_by)
    if reordered or needs_order:
        operator = ops.Sort(reordered, needs_order, operator)
    if query.distinct:
        operator = ops.Distinct(operator)

    return PhysicalPlan(operator, slots, width, loop_nodes, exists_nodes,
                        plan, columns)


def lower_selection(tree: QueryTree, where) -> PhysicalPlan:
    """Lower a single-perspective selection (MODIFY/DELETE path): a root
    Scan — the driver narrows it to index/range candidates per execution
    — followed by the shared selection stage.  The driver reads
    surviving surrogates straight out of the root slot."""
    root = tree.roots[0]
    slots = {root.id: 0}
    operator: ops.Operator = ops.Scan(root)
    exists_nodes = exists_subtrees([root])
    if where is not None:
        operator = _lower_selection_ops(
            operator, where, exists_nodes,
            compile_selection(where, exists_nodes, slots, 1))
    return PhysicalPlan(operator, slots, 1, [root], exists_nodes, None)


def compile_predicate(tree: QueryTree, where):
    """Compile a pre-resolved single-perspective predicate (a VERIFY
    assertion) for batches holding just the entity: ``fn(ctx, batch)``
    returns the assertion's 3-valued truth per row — or, when TYPE 2
    subtrees make it existential, whether some binding satisfies it."""
    root = tree.roots[0]
    exists_nodes = exists_subtrees([root])
    if exists_nodes:
        return compile_selection(where, exists_nodes, {root.id: 0}, 1)
    return compile_truth(where, {root.id: 0}, 1)
