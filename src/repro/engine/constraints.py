"""VERIFY constraint enforcement via trigger detection (paper §3.3).

"Based on the terms of the integrity condition, SIM will determine all
possible events that may cause this condition to be violated and will make
sure it does not happen.  Integrity constraints are handled by a trigger
detection / query enhancement mechanism."

Each VERIFY assertion is parsed once and analysed into a *term set*: the
attributes (EVAs count on both ends) and classes its truth can depend on.
A statement reports the keys it touched; only constraints whose term sets
intersect are re-checked, and only for the touched entities that are
members of the constraint's perspective class.

Checking modes:

* ``immediate`` (default) — checked at the end of every statement; a
  violation rolls the statement back;
* ``deferred`` — touches accumulate on the transaction that made them
  and are checked at its COMMIT.

A violation is raised only when the assertion evaluates to *false*; an
unknown outcome (nulls) passes, following SQL CHECK semantics (the paper
leaves the null case unspecified).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import ConstraintViolation
from repro.dml.ast import Aggregate, IsaTest, Path, Quantified, walk
from repro.dml.parser import parse_expression
from repro.dml.qualification import Qualifier
from repro.dml.query_tree import QueryTree
from repro.engine.executor import QueryExecutor
from repro.schema.klass import VerifyConstraint


class _CompiledConstraint:
    """A parsed, resolved VERIFY assertion with its trigger term set."""

    def __init__(self, constraint: VerifyConstraint, qualifier: Qualifier):
        self.constraint = constraint
        self.expression = parse_expression(constraint.assertion_text)
        self.tree: QueryTree = qualifier.resolve_selection(
            constraint.class_name, self.expression)
        # Imported lazily: the lowering module imports this package.
        from repro.optimizer.physical_plan import compile_predicate
        #: the assertion compiled once, shared by every session's executor
        self.predicate = compile_predicate(self.tree, self.expression)
        self.terms: Set[tuple] = {("class", constraint.class_name)}
        #: every traversal node of the assertion (main tree and scoped),
        #: used to propagate touched entities back to the perspective
        self.chain_nodes: list = []
        self._collect(self.expression)

    def _collect(self, expression) -> None:
        """One pass over the assertion for its trigger terms and its
        traversal nodes."""
        nodes, attrs = [], []
        for expr in walk(expression):
            if isinstance(expr, Path):
                nodes += expr.chain_nodes
                self.terms.update(("class", node.class_name)
                                  for node in expr.chain_nodes
                                  if node.kind == "eva")
                if expr.terminal_attr is not None:
                    attrs.append(expr.terminal_attr)
            elif isinstance(expr, (Aggregate, Quantified)):
                nodes += expr.scope_nodes
            elif isinstance(expr, IsaTest):
                self.terms.add(("class", expr.class_name))
        # A scoped path's nodes are also its scope's: keep each once, so
        # _propagate walks each chain back once.
        self.chain_nodes = list({id(node): node for node in nodes
                                 if node.kind != "root"}.values())
        for node in nodes:
            if node.kind == "root":
                self.terms.add(("class", node.class_name))
            elif node.kind == "eva":
                attrs += [node.eva, node.eva.inverse]
            else:
                attrs.append(node.mv_attr)
        self.terms.update(("attr", attr.owner_name, attr.name)
                          for attr in attrs)

    def triggered_by(self, keys: Set[tuple]) -> bool:
        return bool(self.terms & keys)


class ConstraintManager:
    """Compiles and enforces all VERIFY constraints of a schema."""

    def __init__(self, executor: QueryExecutor, mode: str = "immediate"):
        if mode not in ("immediate", "deferred", "off"):
            raise ValueError(f"unknown constraint mode {mode!r}")
        self.executor = executor
        self.store = executor.store
        self.mode = mode
        self.compiled: List[_CompiledConstraint] = [
            _CompiledConstraint(c, executor.qualifier)
            for c in executor.schema.constraints]

    # -- Statement / commit hooks ------------------------------------------------

    def after_statement(self, touches, executor=None) -> None:
        """Re-check constraints triggered by one statement's touches —
        or, deferred, add them to the transaction active on this thread.

        ``executor`` — the session's executor to evaluate the assertions
        on, so one session's memo state is never raced by another's
        (defaults to the manager's own).
        """
        if self.mode == "off" or not self.compiled:
            return
        if self.mode == "deferred":
            transaction = self.store.transactions.current
            transaction.deferred_keys |= touches.keys
            transaction.deferred_entities |= touches.entities
            return
        self._check(touches.keys, touches.entities, executor)

    def before_commit(self, executor=None) -> None:
        """Check what the transaction active on this thread touched
        under ``deferred``; its abort drops the touches with it."""
        if self.mode != "deferred":
            return
        transaction = self.store.transactions.current
        self._check(transaction.deferred_keys,
                    transaction.deferred_entities, executor)

    # -- Checking -------------------------------------------------------------------

    def _check(self, keys: Set[tuple], entities: Set[int],
               executor=None) -> None:
        executor = executor if executor is not None else self.executor
        perf = self.store.perf
        for compiled in self.compiled:
            if not compiled.triggered_by(keys):
                perf.bump("constraint_checks_skipped")
                continue
            perspective = compiled.constraint.class_name
            candidates = self._propagate(compiled, entities)
            for surrogate in sorted(candidates):
                if not self.store.has_role(surrogate, perspective):
                    continue
                perf.bump("constraint_checks_run")
                # Only a *false* assertion is a violation: UNKNOWN (nulls)
                # passes, as in SQL CHECK.  An existential assertion (TYPE
                # 2 subtrees) is false when no binding satisfies it.
                if executor.predicate_holds(compiled.predicate,
                                            surrogate) is False:
                    raise ConstraintViolation(
                        compiled.constraint.name,
                        compiled.constraint.else_message)

    def _propagate(self, compiled: _CompiledConstraint,
                   entities: Set[int]) -> Set[int]:
        """Touched entities, plus perspective entities reachable from them
        backwards along the assertion's qualification chains.

        Example: V1 mentions ``credits of courses-enrolled``; modifying a
        course's CREDITS must re-check every student enrolled in it, found
        by traversing the inverse EVA (students-enrolled).  A chain hanging
        off a universal (uncorrelated) root makes every member of the
        perspective a candidate — the conservative fallback the paper's
        "most general form" discussion motivates.
        """
        candidates = set(entities)
        perspective = compiled.constraint.class_name
        for node in compiled.chain_nodes:
            if node.kind != "eva":
                continue
            touched_here = {e for e in entities
                            if self.store.has_role(e, node.class_name)}
            if not touched_here:
                continue
            current = touched_here
            walker = node
            correlated = True
            while walker is not None and walker.kind == "eva":
                back = set()
                for entity in current:
                    back.update(self.store.eva_targets(entity,
                                                       walker.eva.inverse))
                current = back
                walker = walker.parent
            if (walker is not None and walker.kind == "root"
                    and walker.var_name.startswith("#all-")):
                correlated = False
            if correlated:
                candidates.update(current)
            else:
                candidates.update(self.store.scan_class(perspective))
                break
        return candidates

    def statistics(self) -> Dict[str, int]:
        return {"constraints": len(self.compiled),
                "checks_run": self.store.perf.constraint_checks_run,
                "checks_skipped": self.store.perf.constraint_checks_skipped}
