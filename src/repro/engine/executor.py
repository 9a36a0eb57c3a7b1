"""The Retrieve executor: a thin driver over the physical operator DAG.

The paper's nested-loop semantics program (§4.5)::

    for each X1 in domain(X1)
      for each X2 in domain(X2)
        ...
          for each Xm in domain(Xm)       -- TYPE 1 and TYPE 3, DF order
            such that
              for some Xm+1 ... Xn        -- TYPE 2, existential
                if <selection> then print <target list>

is no longer interpreted recursively here.  The labelled query tree is
lowered (:mod:`repro.optimizer.physical_plan`) into a chain of batched
Volcano-style operators (:mod:`repro.engine.operators`) — Scan,
EVATraverse/OuterTraverse, Filter/Semi/AntiSemi, Aggregate, Project,
Sort, Distinct — and this module merely verifies the DAG (SIM205-207,
fail closed), drains it, and assembles the :class:`ResultSet`.

The two §4.5 refinements live in the operators now: the domain of a
TYPE 3 variable is never empty (OuterTraverse pads with the all-null
dummy instance), and the loop nesting order *is* the output order
(Sort restores it when the plan reordered the roots, §5.1).

Access paths for the root variables come from a plan object; the default
plan scans class extents, and the optimizer can substitute index lookups
(it must then account for the ordering change, §5.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import raise_for_errors, verify_physical
from repro.dml.ast import Aggregate, Literal, Path, RetrieveQuery, walk
from repro.dml.qualification import Qualifier
from repro.dml.query_tree import QTNode, QueryTree
from repro.engine.access import EntityAccessor
from repro.engine.expressions import Batch
from repro.engine.operators import (
    DEFAULT_BATCH_SIZE,
    ExecContext,
    _Reversed,
    _instance_key,
    _sort_key,
    validate_batch_size,
)
from repro.engine.output import ResultSet, build_structured

__all__ = ["QueryExecutor", "_Reversed", "_instance_key", "_sort_key"]


class QueryExecutor:
    """Executes resolved Retrieve queries against a Mapper store."""

    #: not a knob: the end-to-end benchmark's precondition is its only reader
    parallelism = 1

    def __init__(self, store, qualifier: Optional[Qualifier] = None,
                 batch_size: int = DEFAULT_BATCH_SIZE):
        self.store = store
        self.schema = store.schema
        self.qualifier = qualifier or Qualifier(store.schema)
        self.accessor = EntityAccessor(store)
        self.batch_size = validate_batch_size(batch_size)

    # -- Public API -----------------------------------------------------------------

    def execute(self, query: RetrieveQuery, plan=None) -> ResultSet:
        tree = self.qualifier.resolve_retrieve(query)
        return self.run(query, tree, plan)

    def lower(self, query: RetrieveQuery, tree: QueryTree, plan=None):
        """Lower a resolved Retrieve to its operator DAG — a template:
        :meth:`run` executes ``fresh()`` instances of it — and verify it.
        Fail closed: a DAG that breaks the structural contract between
        the labelled tree and the operators (SIM205-207) must never run."""
        # Imported lazily: the lowering module imports the operator
        # algebra from this package, so a module-level import here would
        # be circular for entry points that load the optimizer first.
        from repro.optimizer.physical_plan import lower_plan
        physical = lower_plan(query, tree, plan)
        raise_for_errors(verify_physical(self.schema, tree, physical))
        return physical

    def run(self, query: RetrieveQuery, tree: QueryTree, plan=None,
            physical=None, params=None) -> ResultSet:
        """Execute a query whose tree is already resolved (optimizer path).

        ``physical`` is a compiled statement's lowered template (lowered
        here when absent), ``params`` the literals this execution binds.

        The run counts into a frame of its own, which — closed — is
        ``ResultSet.perf``: the events of this run, nobody else's.  With
        tracing attached and enabled, the run is also wrapped in an
        ``execute`` span carrying per-node EXPLAIN ANALYZE counters
        (§4.5 TYPE label, loop entries, instances bound) plus one record
        per physical operator — otherwise tracing adds only this None
        test.
        """
        trace = self.store.trace
        perf = self.store.perf
        frame = perf.open()
        try:
            if trace is None or not trace.enabled:
                result = self._run(query, tree, plan, physical, params,
                                   None, None)
            else:
                with trace.span("execute", layer="executor") as span:
                    result = self._run(query, tree, plan, physical, params,
                                       span, {})
        finally:
            # A run that raises still accounts the reads it made.
            perf.close(frame)
        result.perf = frame
        return result

    def _run(self, query: RetrieveQuery, tree: QueryTree, plan, physical,
             params, span, stats) -> ResultSet:
        self.accessor.begin_query()
        if physical is None:
            physical = self.lower(query, tree, plan)
        # Per-run operator counters are never shared between executions.
        physical = physical.fresh()

        ctx = ExecContext(self, physical, stats, params)
        structured_mode = query.mode == "structure"
        rows: List[tuple] = []
        snapshots = []
        for batch in physical.root.run(ctx):
            rows += [out_row.values for out_row in batch
                     if not out_row.duplicate]
            if structured_mode:
                snapshots += [(out_row.snapshot, out_row.values)
                              for out_row in batch]

        columns = list(physical.columns)
        original_nodes: List[QTNode] = []
        for root in tree.roots:
            original_nodes.extend(tree.loop_nodes(root))

        structured = None
        formats: List[str] = []
        if structured_mode:
            node_targets = self._targets_by_node(query, tree, original_nodes)
            structured = build_structured(original_nodes, node_targets,
                                          columns, snapshots)
            formats = [node.describe() for node in original_nodes]

        # The operators' own actuals (EXPLAIN ANALYZE reads them per
        # operator), summed once per run: selection pipelines share the
        # operators and are not counted.
        perf = self.store.perf
        operators = physical.operators
        perf.bump("batches_dispatched",
                  sum(operator.batches for operator in operators))
        perf.bump("batch_rows",
                  sum(operator.rows_out for operator in operators))
        result = ResultSet(columns, rows, structured, formats)
        if span is not None:
            span.attrs["output_rows"] = len(rows)
            span.attrs["nodes"] = self._node_records(tree, plan, stats)
            span.attrs["operators"] = physical.operator_records(params)
            result.node_stats = stats
        return result

    def _node_records(self, tree: QueryTree, plan, stats) -> List[Dict]:
        """Per-node EXPLAIN ANALYZE records, DF order over the whole tree
        (TYPE 2 existential nodes included)."""
        records: List[Dict] = []
        estimates = getattr(plan, "node_estimates", None) or {}
        trace = self.store.trace

        def visit(node: QTNode, depth: int) -> None:
            entry = stats.get(node.id, (0, 0))
            label = f"TYPE {node.label}" if node.label else "?"
            records.append({
                "node_id": node.id,
                "describe": node.describe(),
                "label": label,
                "depth": depth,
                "est_rows": estimates.get(node.id),
                "actual_rows": entry[1],
                "loops": entry[0],
            })
            if trace is not None and trace.enabled:
                trace.histograms.observe_rows(label, entry[1])
            for child in node.children.values():
                visit(child, depth + 1)

        for root in tree.roots:
            visit(root, 0)
        return records

    def select_entities(self, class_name: str, where, params=None
                        ) -> List[int]:
        """Entities of ``class_name`` satisfying ``where`` (update/VERIFY
        path: single perspective, existential TYPE 2 semantics).

        When the predicate carries an equality conjunct on an indexed DVA
        of the root class — or a range conjunct on an *ordered*-indexed
        DVA — the candidates come from the index instead of a full extent
        scan (sorted by surrogate, matching the optimizer's
        semantics-preservation rule for index paths).  The selection runs
        through the same operator algebra as queries: a root Scan feeding
        the shared Filter/Semi/AntiSemi stage, compiled once per ``where``
        (:meth:`prepare_selection`) and probed with this execution's
        ``params``."""
        prepared = getattr(where, "selection", None)
        if prepared is None or prepared[0] != class_name:
            prepared = self.prepare_selection(class_name, where)
        _, template, probe = prepared
        physical = template.fresh()
        if probe is not None:
            self.store.perf.bump("index_selections")
            physical.operators[0].domain_override = sorted(
                probe(self.store, params))
        ctx = ExecContext(self, physical, params=params)
        slot = physical.slots[physical.spine[0].id]
        selected: List[int] = []
        for batch in physical.root.run(ctx):
            selected += batch[slot]
        return selected

    def prepare_selection(self, class_name: str, where):
        """Resolve and lower a selection: ``(class, operator template,
        index probe or None)``, kept on the ``where`` expression its
        resolution annotates anyway.  A statement's compile calls this so
        that executions — concurrent ones too — only read the AST."""
        from repro.optimizer.physical_plan import lower_selection
        tree = self.qualifier.resolve_selection(class_name, where)
        prepared = (class_name, lower_selection(tree, where),
                    self._selection_probe(tree.roots[0], where))
        if where is not None:
            where.selection = prepared
        return prepared

    def _selection_probe(self, root: QTNode, where):
        """``probe(store, params) -> index candidates`` for a selection
        scan, or None for the full class extent: the first equality
        conjunct on an indexed DVA wins, then the first range conjunct
        on an ordered-indexed DVA."""
        if where is None:
            return None
        from repro.optimizer.strategies import (equality_conjuncts,
                                                range_conjuncts)
        class_name = root.class_name
        for attr_name, literal in equality_conjuncts(where, root):
            if self.store.has_index_on(class_name, attr_name):
                return lambda store, params: store.find_by_dva(
                    class_name, attr_name, literal.bound(params))
        for attr_name, low, high, include_low, include_high \
                in range_conjuncts(where, root):
            if self.store.has_ordered_index_on(class_name, attr_name):
                return lambda store, params: store.find_by_dva_range(
                    class_name, attr_name,
                    None if low is None else low.bound(params),
                    None if high is None else high.bound(params),
                    include_low, include_high)
        return None

    def predicate_holds(self, predicate, surrogate):
        """Evaluate a compiled single-perspective predicate
        (``physical_plan.compile_predicate``; VERIFY assertions) for one
        entity, as a one-row batch."""
        return predicate(ExecContext(self), Batch({0: [surrogate]}, 1))[0]

    # -- Output helpers ----------------------------------------------------------------

    def _targets_by_node(self, query: RetrieveQuery, tree: QueryTree,
                         loop_nodes: List[QTNode]) -> Dict[int, List[int]]:
        """Associate each target item with the loop node its value varies
        with (for structured output formats)."""
        by_node: Dict[int, List[int]] = {}
        loop_ids = {node.id for node in loop_nodes}
        first_root = tree.roots[0]
        for index, item in enumerate(query.targets):
            node = self._home_node(item.expression, first_root, loop_ids)
            by_node.setdefault(node.id, []).append(index)
        return by_node

    def _home_node(self, expression, first_root: QTNode, loop_ids) -> QTNode:
        if isinstance(expression, Path):
            node = expression.value_node
            while node is not None and node.id not in loop_ids:
                node = node.parent
            return node or first_root
        if isinstance(expression, Aggregate):
            if expression.anchor_node is not None \
                    and expression.anchor_node.id in loop_ids:
                return expression.anchor_node
            return first_root
        if isinstance(expression, Literal):
            return first_root
        # Composite expressions: attach to the deepest referenced loop
        # node; an aggregate is referenced through its outer path alone.
        deepest = first_root
        for path in walk(expression,
                         enter=lambda e: not isinstance(e, Aggregate)):
            if isinstance(path, Aggregate):
                path = path.outer_path
            if not isinstance(path, Path):
                continue
            node = path.value_node
            while node is not None and node.id not in loop_ids:
                node = node.parent
            if node is not None and node.depth >= deepest.depth:
                deepest = node
        return deepest

