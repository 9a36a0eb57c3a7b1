"""Plan verification: the post-optimization structural contract (SIM2xx).

The optimizer may only choose *how* domains are produced (scan vs index)
and *in which order* the perspective roots are enumerated; it must never
change what the labelled query tree means.  :func:`verify_plan` re-derives
the TYPE 1/2/3 labels from the usage flags and checks the chosen plan
against them, failing closed before execution:

* every main-scope range variable is bound exactly once (the root order is
  a permutation of the perspective variables; no loop node appears twice);
* TYPE 2 existential subtrees stay off the enumeration spine (they are
  checked by EXISTS probes, not enumerated);
* TYPE 3 target-only branches keep their outer-join direction (they may
  not feed the selection expression — that is what makes the dummy-entity
  semantics of §4.5 sound);
* access paths reference real roots, attributes and index keys.

:func:`verify_physical` extends the contract to the lowered operator DAG
(:mod:`repro.optimizer.physical_plan`): the enumeration spine must bind
every TYPE 1/TYPE 3 loop node exactly once, parents before children
(SIM205); TYPE 2 existential nodes may only appear behind Semi/AntiSemi
probes, never on the spine (SIM206); each traversal operator's kind
must agree with its node's TYPE label — OuterTraverse exactly for TYPE 3,
EVATraverse for inner TYPE 1, Scan for roots (SIM207).
"""

from __future__ import annotations

from typing import List

from repro.analysis.diagnostics import Diagnostic, DiagnosticSink
from repro.dml.query_tree import MAIN_SCOPE, TYPE1, TYPE2, TYPE3, QueryTree
from repro.schema.schema import Schema


def verify_plan(schema: Schema, tree: QueryTree,
                plan=None) -> List[Diagnostic]:
    """Check a labelled query tree (and the optimizer's plan, when one was
    chosen) against the structural contract.  Returns diagnostics; any
    error means the plan must not run."""
    sink = DiagnosticSink(source="plan")
    _verify_labels(tree, sink)
    _verify_binding(tree, plan, sink)
    _verify_type2_off_spine(tree, sink)
    _verify_type3_direction(tree, sink)
    if plan is not None:
        _verify_access_paths(schema, tree, plan, sink)
    return sink.sorted()


#: operator names that bind a spine node to a slot
_SPINE_OPS = ("Scan", "EVATraverse", "OuterTraverse")
#: operator names that probe existential subtrees
_PROBE_OPS = ("Semi", "AntiSemi")


def verify_physical(schema: Schema, tree: QueryTree,
                    physical) -> List[Diagnostic]:
    """Check a lowered physical operator DAG against the labelled tree
    (SIM205-SIM207).  Returns diagnostics; any error means the DAG must
    not run."""
    sink = DiagnosticSink(source="plan")
    operators = physical.root.chain()
    spine_ops = [op for op in operators
                 if op.name in _SPINE_OPS and op.node is not None]

    expected = {}
    for root in tree.roots:
        for node in tree.loop_nodes(root):
            expected[node.id] = node

    bound: List[int] = []
    for operator in spine_ops:
        node = operator.node
        if node.id in bound:
            sink.emit("SIM205",
                      f"node {node.describe()} is bound by more than one "
                      f"spine operator")
        elif node.id not in expected:
            if node.label == TYPE2:
                sink.emit("SIM206",
                          f"TYPE 2 node {node.describe()} is enumerated by "
                          f"{operator.describe()}",
                          hint="existential subtrees are evaluated by "
                               "Semi/AntiSemi probes, never enumerated")
            else:
                sink.emit("SIM205",
                          f"spine operator {operator.describe()} binds "
                          f"{node.describe()}, which is not a loop node")
        elif node.kind != "root" and node.parent.id not in bound:
            sink.emit("SIM205",
                      f"node {node.describe()} is enumerated before its "
                      f"parent {node.parent.describe()}")
        bound.append(node.id)
        if operator.name == "Scan" and node.kind != "root":
            sink.emit("SIM207",
                      f"Scan may only enumerate perspective roots, not "
                      f"{node.describe()}")
        elif operator.name == "OuterTraverse" and node.label != TYPE3:
            sink.emit("SIM207",
                      f"OuterTraverse on {node.describe()} "
                      f"(TYPE{node.label}); the dummy-entity padding is "
                      f"only sound for TYPE 3 branches")
        elif operator.name == "EVATraverse" and node.label == TYPE3:
            sink.emit("SIM207",
                      f"TYPE 3 node {node.describe()} lowered to an inner "
                      f"EVATraverse; its dummy-entity padding is lost")

    for node_id, node in expected.items():
        if node_id not in bound:
            sink.emit("SIM205",
                      f"loop node {node.describe()} is never bound by the "
                      f"physical spine")

    for operator in operators:
        if operator.name not in _PROBE_OPS:
            continue
        for node in operator.nodes:
            if node.label != TYPE2 and node.scope_id == MAIN_SCOPE:
                sink.emit("SIM206",
                          f"{operator.name} probe enumerates main-scope "
                          f"node {node.describe()} (TYPE{node.label})")

    return sink.sorted()


def _verify_labels(tree: QueryTree, sink: DiagnosticSink) -> None:
    """SIM200: stored labels must match a recomputation from usage flags."""
    expected = {}

    def compute(node, is_root):
        target = node.used_in_target
        selection = node.used_in_selection
        for child in node.children.values():
            child_target, child_selection = compute(child, False)
            target = target or child_target
            selection = selection or child_selection
        if is_root:
            expected[id(node)] = TYPE1
        elif target and not selection:
            expected[id(node)] = TYPE3
        elif selection and not target:
            expected[id(node)] = TYPE2
        else:
            expected[id(node)] = TYPE1
        return target, selection

    for root in tree.roots:
        compute(root, True)
    for node in tree.all_nodes():
        want = expected.get(id(node))
        if node.label is None:
            sink.emit("SIM200",
                      f"node {node.describe()} was never labelled")
        elif node.label != want:
            sink.emit("SIM200",
                      f"node {node.describe()} is labelled TYPE{node.label} "
                      f"but its usage implies TYPE{want}",
                      hint="labels must be recomputed after any tree "
                           "rewrite")


def _verify_binding(tree: QueryTree, plan,
                    sink: DiagnosticSink) -> None:
    """SIM201: each range variable bound exactly once."""
    root_vars = [root.var_name for root in tree.roots]
    if plan is not None and plan.root_order is not None:
        if sorted(plan.root_order) != sorted(root_vars):
            sink.emit("SIM201",
                      f"plan root order {plan.root_order} is not a "
                      f"permutation of the perspective variables "
                      f"{root_vars}")
    seen = set()
    for root in tree.roots:
        for node in tree.loop_nodes(root):
            if node.id in seen:
                sink.emit("SIM201",
                          f"range variable {node.describe()} appears more "
                          f"than once on the enumeration spine")
            seen.add(node.id)
            if node.scope_id != MAIN_SCOPE:
                sink.emit("SIM201",
                          f"scoped node {node.describe()} (scope "
                          f"{node.scope_id}) leaked onto the main "
                          f"enumeration spine")


def _verify_type2_off_spine(tree: QueryTree, sink: DiagnosticSink) -> None:
    """SIM202: existential subtrees must not be enumerated."""
    for root in tree.roots:
        spine = {node.id for node in tree.loop_nodes(root)}
        for node in _subtree(root):
            if node.label == TYPE2 and node.id in spine:
                sink.emit("SIM202",
                          f"TYPE 2 node {node.describe()} was flattened "
                          f"into the enumeration spine",
                          hint="existential subtrees are evaluated by "
                               "EXISTS probes, never enumerated")
            if node.label == TYPE2:
                # Everything below an existential root must stay TYPE 2.
                for child in node.children.values():
                    if child.label in (TYPE1, TYPE3):
                        sink.emit("SIM202",
                                  f"node {child.describe()} under the "
                                  f"TYPE 2 subtree of {node.describe()} is "
                                  f"labelled TYPE{child.label}")


def _verify_type3_direction(tree: QueryTree, sink: DiagnosticSink) -> None:
    """SIM203: target-only branches must not feed the selection."""
    for root in tree.roots:
        for node in _subtree(root):
            if node.label != TYPE3:
                continue
            for member in _subtree(node):
                if member.used_in_selection:
                    sink.emit("SIM203",
                              f"TYPE 3 node {member.describe()} is used in "
                              f"the selection expression; the outer-join "
                              f"(dummy entity) direction would be broken")


def _verify_access_paths(schema: Schema, tree: QueryTree, plan,
                         sink: DiagnosticSink) -> None:
    """SIM204: access paths must reference real roots and attributes."""
    roots = {root.var_name: root for root in tree.roots}
    for var_name, access in plan.root_access.items():
        root = roots.get(var_name)
        if root is None:
            sink.emit("SIM204",
                      f"plan access path targets unknown root variable "
                      f"{var_name!r}")
            continue
        if not schema.has_class(access.class_name):
            sink.emit("SIM204",
                      f"access path for {var_name!r} scans unknown class "
                      f"{access.class_name!r}")
            continue
        if access.kind == "index":
            sim_class = schema.get_class(access.class_name)
            if (access.attr_name is None
                    or not sim_class.has_attribute(access.attr_name)):
                sink.emit("SIM204",
                          f"index access for {var_name!r} uses unknown "
                          f"attribute {access.attr_name!r} of "
                          f"{access.class_name!r}")
        elif access.kind == "subclass":
            _verify_subclass_path(schema, var_name, access, sink)
        elif access.kind == "empty":
            _verify_empty_path(schema, var_name, access, sink)
        elif access.kind == "eva_flip":
            _verify_flip_path(schema, var_name, access, sink)
        elif access.kind != "scan":
            sink.emit("SIM204",
                      f"access path for {var_name!r} has unknown kind "
                      f"{access.kind!r}")


def _verify_subclass_path(schema: Schema, var_name, access,
                          sink: DiagnosticSink) -> None:
    """SIM401: a pruned extent must be a class of the root's hierarchy
    whose entities can actually hold the root role."""
    if access.subclass is None or not schema.has_class(access.subclass):
        sink.emit("SIM401",
                  f"subclass-pruned access for {var_name!r} names unknown "
                  f"class {access.subclass!r}")
        return
    graph = schema.graph
    if not graph.same_hierarchy(access.class_name, access.subclass):
        sink.emit("SIM401",
                  f"subclass-pruned access for {var_name!r} scans "
                  f"{access.subclass!r}, which shares no hierarchy with "
                  f"{access.class_name!r}",
                  hint="pruning is only sound inside one generalization "
                       "hierarchy (single base-class ancestor rule)")
    elif graph.is_ancestor(access.subclass, access.class_name):
        sink.emit("SIM401",
                  f"subclass-pruned access for {var_name!r} scans "
                  f"{access.subclass!r}, an ancestor of "
                  f"{access.class_name!r} — the pruning is vacuous and "
                  f"the extent may be larger than the root's")


def _verify_empty_path(schema: Schema, var_name, access,
                       sink: DiagnosticSink) -> None:
    """Re-derive the emptiness proof from the generalization DAG:
    SIM400 (info) when it holds, SIM401 when the schema contradicts it."""
    graph = schema.graph
    proof = access.proof or ()
    holds = False
    if len(proof) == 2 and proof[0] == "disjoint":
        other = proof[1]
        holds = (schema.has_class(other)
                 and not graph.same_hierarchy(access.class_name, other))
    elif len(proof) == 3 and proof[0] == "contradiction":
        positive, negated = proof[1], proof[2]
        holds = (schema.has_class(positive) and schema.has_class(negated)
                 and (negated == positive
                      or graph.is_ancestor(negated, positive)))
    if holds:
        sink.emit("SIM400",
                  f"domain of {var_name!r} is provably empty "
                  f"({' '.join(str(p) for p in proof)}); storage untouched")
    else:
        sink.emit("SIM401",
                  f"empty-extent access for {var_name!r} claims proof "
                  f"{proof!r}, which the generalization DAG does not "
                  f"support")


def _verify_flip_path(schema: Schema, var_name, access,
                      sink: DiagnosticSink) -> None:
    """SIM401: an EVA-inverse flip needs a real EVA with an inverse and a
    real attribute on the far-side class."""
    if access.eva is None or getattr(access.eva, "inverse", None) is None:
        sink.emit("SIM401",
                  f"eva-flip access for {var_name!r} traverses an EVA "
                  f"without a resolved inverse")
        return
    if access.flip_class is None or not schema.has_class(access.flip_class):
        sink.emit("SIM401",
                  f"eva-flip access for {var_name!r} probes unknown class "
                  f"{access.flip_class!r}")
        return
    far_class = schema.get_class(access.flip_class)
    if (access.attr_name is None
            or not far_class.has_attribute(access.attr_name)):
        sink.emit("SIM401",
                  f"eva-flip access for {var_name!r} probes unknown "
                  f"attribute {access.attr_name!r} of "
                  f"{access.flip_class!r}")


def _subtree(node):
    yield node
    for child in node.children.values():
        yield from _subtree(child)
