"""The semantic rewrite phase (between qualification and plan selection).

The optimizer's strategy enumeration picks *how* domains are produced;
this pass exploits what the schema's semantics prove about *which*
domains need producing at all:

* **Subclass-extent pruning** — a top-level ``root ISA S`` conjunct with
  ``S`` in the root class's generalization hierarchy narrows the root
  domain to ``S``'s extent (role-filtered back to the root class), which
  is usually a far smaller unit to scan.
* **Provably-empty extents** — contradictory ISA conjuncts (a class from
  a different hierarchy, or ``x isa S and not x isa A`` with ``A`` an
  ancestor of ``S``) prove the answer empty before touching storage
  (diagnostic SIM400).
* **EVA-inverse direction flips** — ``attr of (eva of root) = literal``
  with an index on the target class's ``attr`` is answered backwards:
  index-probe the targets, traverse the EVA's *inverse* to candidate
  roots.
* **Quantifier/semijoin reordering** — independent TYPE 2 existential
  siblings are probed cheapest-fanout-first (witness search order is
  semantics-free).
* **Common-traversal factoring** — structurally equivalent traversal
  nodes (same EVA / transitive chain, same parent-instance shape) share
  one accessor domain memo key, so the traversal is computed once per
  parent instance across the whole statement (and across statements
  while the store epoch holds).

Every rewrite is *domain-safe*: it only ever shrinks a root domain to a
provable superset of the qualifying entities (still a subset of the
root's extent) or permutes work whose order is unobservable.  The full
WHERE clause always runs afterwards, so a loose rewrite can never add or
drop rows — and the plan verifier re-derives each proof independently
(SIM401) before the plan may run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dml.ast import (
    Aggregate,
    Binary,
    IsaTest,
    Literal,
    Path,
    Quantified,
    RetrieveQuery,
    Unary,
    conjuncts,
    walk,
)
from repro.dml.query_tree import MAIN_SCOPE, TYPE2, QTNode, QueryTree


@dataclass
class FlipHint:
    """One EVA-inverse flip candidate for a root variable."""

    eva: object                 # the EVA traversed root -> target
    target_class: str           # the chain node's (possibly converted) class
    attr_name: str              # indexed DVA on the target class
    literal: Literal            # the literal compared against

    def describe(self) -> str:
        return (f"flip({self.eva.name}<-{self.target_class}."
                f"{self.attr_name})")


@dataclass
class RootHint:
    """Rewrite facts about one perspective root."""

    var_name: str
    class_name: str
    #: narrow the domain to this class's extent (role-filtered)
    subclass: Optional[str] = None
    #: emptiness proof: ("disjoint", other_class) or
    #: ("contradiction", positive_class, negated_ancestor)
    empty_proof: Optional[Tuple] = None
    flips: List[FlipHint] = field(default_factory=list)


@dataclass
class RewriteResult:
    """Everything the rewrite pass decided for one statement."""

    hints: Dict[str, RootHint] = field(default_factory=dict)
    #: human-readable tags of tree-level rewrites actually applied
    applied: List[str] = field(default_factory=list)

    def describe(self) -> str:
        tags = list(self.applied)
        for hint in self.hints.values():
            if hint.empty_proof is not None:
                kind, *rest = hint.empty_proof
                tags.append(f"empty({hint.var_name}:{kind} "
                            + " ".join(rest) + ")")
            elif hint.subclass is not None:
                tags.append(f"subclass({hint.class_name}->{hint.subclass})")
            for flip in hint.flips:
                tags.append(flip.describe())
        return ",".join(tags) if tags else "none"


def _bare_root_path(path, root: QTNode) -> bool:
    """Is ``path`` the root variable itself (no traversal, no attribute)?"""
    return (isinstance(path, Path) and path.anchor_node is root
            and not path.chain_nodes and path.terminal_attr is None)


def _isa_conjuncts(where, root: QTNode) -> Tuple[List[str], List[str]]:
    """Positive and negated top-level ``root isa C`` conjunct classes."""
    positive: List[str] = []
    negative: List[str] = []
    for conjunct in conjuncts(where):
        if (isinstance(conjunct, IsaTest)
                and _bare_root_path(conjunct.entity, root)):
            positive.append(conjunct.class_name)
        elif (isinstance(conjunct, Unary) and conjunct.op == "not"
                and isinstance(conjunct.operand, IsaTest)
                and _bare_root_path(conjunct.operand.entity, root)):
            negative.append(conjunct.operand.class_name)
    return positive, negative


def _flip_conjuncts(where, root: QTNode, store) -> List[FlipHint]:
    """Top-level ``attr of (eva of root) = literal`` conjuncts whose
    target class carries an index on ``attr``."""
    flips: List[FlipHint] = []

    def note(path, literal):
        if (not isinstance(path, Path) or path.anchor_node is not root
                or len(path.chain_nodes) != 1
                or path.terminal_attr is None):
            return
        node = path.chain_nodes[0]
        if (node.kind != "eva" or node.transitive
                or node.scope_id != MAIN_SCOPE
                or node.eva.inverse is None):
            return
        attr_name = path.terminal_attr.name
        if not store.has_index_on(node.class_name, attr_name):
            return
        flips.append(FlipHint(node.eva, node.class_name, attr_name,
                              literal))

    for conjunct in conjuncts(where):
        if isinstance(conjunct, Binary) and conjunct.op == "=":
            if isinstance(conjunct.right, Literal):
                note(conjunct.left, conjunct.right)
            elif isinstance(conjunct.left, Literal):
                note(conjunct.right, conjunct.left)
    return flips


def _root_hint(store, schema, query: RetrieveQuery, root: QTNode) -> RootHint:
    graph = schema.graph
    hint = RootHint(root.var_name, root.class_name)
    positive, negative = _isa_conjuncts(query.where, root)

    for pos in positive:
        if not graph.same_hierarchy(root.class_name, pos):
            # ``x isa C`` with C outside the root's hierarchy: no entity
            # can hold both roles (single base-class ancestor rule).
            hint.empty_proof = ("disjoint", pos)
            return hint
        for neg in negative:
            if neg == pos or graph.is_ancestor(neg, pos):
                # ``x isa S and not x isa A`` with A above S: membership
                # in S implies membership in A.
                hint.empty_proof = ("contradiction", pos, neg)
                return hint

    candidates = [pos for pos in positive
                  if pos != root.class_name
                  and not graph.is_ancestor(pos, root.class_name)]
    if candidates:
        # The smallest qualifying extent wins; the access path re-checks
        # root-class membership per candidate entity, so any same-
        # hierarchy class is sound (cross-branch classes like a TA's
        # second superclass included).
        hint.subclass = min(candidates, key=store.latest_class_count)
    hint.flips = _flip_conjuncts(query.where, root, store)
    return hint


# -- Quantifier / semijoin reordering ------------------------------------------


def _reorder_existentials(tree: QueryTree, store, applied: List[str]) -> None:
    """Probe independent TYPE 2 sibling subtrees cheapest-fanout-first.

    Only the TYPE 2 children of a node are permuted (among themselves, in
    place): the TYPE 1/TYPE 3 loop order — which the binding and
    physical-spine contracts depend on — is untouched, and existential
    witness search order is unobservable in the result.
    """

    def fanout(node: QTNode) -> float:
        if node.kind == "eva":
            return max(store.avg_fanout(node.eva), 0.0)
        return 1.0

    def visit(node: QTNode) -> None:
        items = list(node.children.items())
        t2_positions = [i for i, (_, child) in enumerate(items)
                        if child.label == TYPE2]
        if len(t2_positions) >= 2:
            existing = [items[i] for i in t2_positions]
            ranked = sorted(existing, key=lambda kv: fanout(kv[1]))
            if ranked != existing:
                for position, pair in zip(t2_positions, ranked):
                    items[position] = pair
                node.children.clear()
                node.children.update(items)
                applied.append(f"exists-reorder({node.describe()})")
        for child in node.children.values():
            visit(child)

    for root in tree.roots:
        visit(root)


# -- Common-traversal factoring ------------------------------------------------


def _domain_signature(node: QTNode) -> Optional[tuple]:
    """A key such that equal-signature nodes have equal domains for equal
    parent instances.  ``None`` for nodes whose domain is not shareable.

    The accessor's domain enumeration depends only on (the EVA or MV DVA
    traversed, the transitive hop chain, and whether the parent's
    instances need unwrapping from (value, level) pairs) — never on the
    node identity, the AS conversion, or the TYPE label.
    """
    parent = node.parent
    unwraps = bool(parent is not None and parent.kind == "eva"
                   and parent.transitive)
    if node.kind == "eva":
        if node.transitive:
            chain = tuple(id(e) for e in (node.transitive_evas or [node.eva]))
            return ("tc", chain, unwraps)
        return ("eva", id(node.eva), unwraps)
    if node.kind == "mvdva":
        return ("mv", id(node.mv_attr), unwraps)
    return None


def _collect_nodes(query: RetrieveQuery, tree: QueryTree) -> List[QTNode]:
    """Main-scope nodes plus every scoped (aggregate/quantifier) subtree."""
    nodes: List[QTNode] = []
    seen = set()

    def add_subtree(node: QTNode) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        nodes.append(node)
        for child in node.children.values():
            add_subtree(child)

    for root in tree.roots:
        add_subtree(root)
    expressions = [query.where, *(item.expression for item in query.targets),
                   *(item.expression for item in query.order_by)]
    for expression in expressions:
        for scoped in walk(expression):
            if isinstance(scoped, (Aggregate, Quantified)):
                for node in scoped.scope_nodes:
                    add_subtree(node)
    return nodes


def _factor_traversals(query: RetrieveQuery, tree: QueryTree,
                       applied: List[str]) -> None:
    """Give equivalent traversal nodes a shared ``domain_key``.

    The accessor memoizes MV-DVA and transitive domains (only) by
    ``(domain_key, parent instance)`` (falling back to the per-query
    node id), so equal keys make repeated qualification paths enumerate
    once; a plain EVA node shares its hop through the EVA's own memo.
    Signatures are built from schema-object identities, which are
    stable for the life of the database, so the sharing also spans
    statements while the store epoch holds.
    """
    groups: Dict[tuple, List[QTNode]] = {}
    for node in _collect_nodes(query, tree):
        signature = _domain_signature(node)
        if signature is not None:
            groups.setdefault(signature, []).append(node)
    shared = 0
    for signature, members in groups.items():
        key = ("dk",) + signature
        for node in members:
            node.domain_key = key
        if len(members) > 1:
            shared += 1
    if shared:
        applied.append(f"factor({shared})")


# -- The pass ------------------------------------------------------------------


def rewrite_query(store, schema, query: RetrieveQuery,
                  tree: QueryTree) -> RewriteResult:
    """Run every rewrite over one qualified statement.

    Mutates the tree in place (existential reordering, domain keys) and
    returns per-root hints for the strategy enumerator.  Idempotent: a
    second pass over the same tree changes nothing.
    """
    result = RewriteResult()
    for root in tree.roots:
        hint = _root_hint(store, schema, query, root)
        if (hint.subclass is not None or hint.empty_proof is not None
                or hint.flips):
            result.hints[root.var_name] = hint
    _reorder_existentials(tree, store, result.applied)
    _factor_traversals(query, tree, result.applied)
    return result
