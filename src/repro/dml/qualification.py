"""Qualification: connecting every attribute to a perspective (paper §4.2).

The :class:`Qualifier` resolves a parsed statement against the schema:

* determines the perspective classes (explicit FROM list, or inferred from
  the outermost qualification names, as in the paper's examples without a
  FROM clause);
* resolves every qualification chain, walking the written steps from the
  perspective inward, applying AS role conversions and INVERSE();
* completes shorthand qualifications ("Qualification can be cut short at
  any stage where the context is sufficient for the system Parser to
  complete it unambiguously"): a breadth-first search over EVA chains from
  each perspective finds the unique shortest completion, and ambiguity is
  an error;
* applies the binding rules (§4.4) by getting-or-creating query-tree nodes
  keyed by their full qualification, with fresh scopes inside aggregates,
  quantifiers and transitive closure;
* marks target/selection usage so the tree can be TYPE-labelled.

The resolver leaves annotations on the AST nodes themselves:
``Path.anchor_node``, ``Path.chain_nodes``, ``Path.terminal_attr``;
``Aggregate.anchor_node``/``scope_nodes``; ``Quantified`` likewise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import QualificationError
from repro.naming import canon
from repro.dml.parser import parse_expression
from repro.dml.ast import (
    Aggregate,
    Binary,
    FunctionCall,
    IsaTest,
    Literal,
    Path,
    PathStep,
    PerspectiveRef,
    Quantified,
    RetrieveQuery,
    Unary,
    walk,
)
from repro.dml.query_tree import MAIN_SCOPE, QTNode, QueryTree
from repro.schema.schema import Schema

#: search depth bound for shorthand completion
_MAX_COMPLETION_DEPTH = 4


def _conjoin(expressions):
    """AND together the non-None expressions (None when all are None)."""
    present = [e for e in expressions if e is not None]
    if not present:
        return None
    combined = present[0]
    for expression in present[1:]:
        combined = Binary("and", combined, expression)
    return combined


class _ScopeContext:
    """Resolution context: the anchors visible to a (sub)expression."""

    def __init__(self, qualifier: "Qualifier", tree: QueryTree,
                 scope_id: int, parent: Optional["_ScopeContext"] = None):
        self.qualifier = qualifier
        self.tree = tree
        self.scope_id = scope_id
        self.parent = parent
        # scoped node sharing: (parent node id, step_key) -> QTNode
        self._scoped_children: Dict[Tuple[int, tuple], QTNode] = {}
        # nodes created in this scope, in creation order
        self.nodes: List[QTNode] = []
        # universal roots created in this scope: class name -> node
        self._universal_roots: Dict[str, QTNode] = {}

    @property
    def is_main(self) -> bool:
        return self.scope_id == MAIN_SCOPE

    def anchors(self) -> List[QTNode]:
        """The roots a path may anchor at (main perspectives)."""
        context = self
        while context.parent is not None:
            context = context.parent
        return list(context.tree.roots)

    def get_or_create_child(self, parent: QTNode, step_key: tuple,
                            factory) -> QTNode:
        if self.is_main and parent.scope_id == MAIN_SCOPE:
            node = parent.child(step_key)
            if node is None:
                node = factory()
                parent.add_child(node)
            return node
        key = (parent.id, step_key)
        node = self._scoped_children.get(key)
        if node is None:
            node = factory()
            self._scoped_children[key] = node
            self.nodes.append(node)
        return node

    def universal_root(self, class_name: str) -> QTNode:
        node = self._universal_roots.get(class_name)
        if node is None:
            node = QTNode("root", self.scope_id,
                          var_name=f"#all-{class_name}-{self.scope_id}",
                          class_name=class_name)
            self._universal_roots[class_name] = node
            self.nodes.append(node)
        return node


class Qualifier:
    """Resolves DML statements against a resolved schema."""

    def __init__(self, schema: Schema):
        self.schema = schema

    # -- Entry points -----------------------------------------------------------

    def resolve_retrieve(self, query: RetrieveQuery) -> QueryTree:
        perspectives = query.perspectives or self._infer_perspectives(query)
        query.perspectives = perspectives
        view_predicates = self._rewrite_view_perspectives(query)
        for ref in perspectives:
            if not self.schema.has_class(ref.class_name):
                raise QualificationError(
                    f"unknown perspective class {ref.class_name!r}"
                ).with_code("SIM104")
        tree = QueryTree()
        for ref in query.perspectives:
            tree.add_root(ref.effective_var, ref.class_name)
        context = _ScopeContext(self, tree, MAIN_SCOPE)
        for item in query.targets:
            self._resolve_expression(item.expression, context, in_target=True)
        if query.where is not None:
            self._resolve_expression(query.where, context, in_target=False)
        for predicate in view_predicates:
            self._resolve_expression(predicate, context, in_target=False)
        for order in query.order_by:
            self._resolve_expression(order.expression, context, in_target=True)
        if view_predicates:
            query.where = _conjoin([*view_predicates, query.where])
        tree.label_nodes()
        return tree

    def _rewrite_view_perspectives(self, query: RetrieveQuery):
        """Views as perspectives (paper §6): a view name in the FROM list
        denotes its class filtered by the view predicate.  The root keeps
        the view's name as its range variable, so qualifications written
        against the view name still anchor; the predicate is conjoined
        into the selection expression.  Views are read-only: update
        statements must name real classes."""
        if getattr(query, "_views_rewritten", False):
            return []
        predicates = []
        for ref in query.perspectives:
            view = self.schema.view(ref.class_name)
            if view is None:
                continue
            if ref.var_name is None:
                ref.var_name = ref.class_name  # keep the view name usable
            ref.class_name = view.class_name
            if view.where_text:
                predicates.append(parse_expression(view.where_text))
        query._views_rewritten = True
        return predicates

    def resolve_selection(self, class_name: str, expression) -> QueryTree:
        """Resolve a bare selection expression with one perspective class
        (used for WHERE clauses of updates and VERIFY assertions)."""
        tree = QueryTree()
        tree.add_root(canon(class_name), canon(class_name))
        context = _ScopeContext(self, tree, MAIN_SCOPE)
        if expression is not None:
            self._resolve_expression(expression, context, in_target=False)
        tree.label_nodes()
        return tree

    def resolve_anchored(self, tree: QueryTree, anchor: QTNode,
                         expression) -> List[QTNode]:
        """Resolve an auxiliary expression (update-assignment RHS, WITH
        selector body) in a fresh scope anchored at ``anchor``.

        Returns the scoped nodes the expression introduced, in
        parent-before-child order, for scope enumeration.
        """
        scope_id = tree.new_scope()
        context = _ScopeContext(self, tree, scope_id)
        context.forced_anchor = anchor
        self._resolve_expression(expression, context, in_target=False)
        return list(context.nodes)

    def _infer_perspectives(self, query: RetrieveQuery) -> List[PerspectiveRef]:
        """Without a FROM clause, the perspectives are the classes named as
        the outermost qualification of the query's paths."""
        found: List[str] = []
        expressions = [item.expression for item in query.targets]
        if query.where is not None:
            expressions.append(query.where)
        expressions += [order.expression for order in query.order_by]
        for expression in expressions:
            # An aggregate's outer qualification names its class; its
            # argument is a scope of its own.
            for node in walk(expression, enter=lambda e: not (
                    isinstance(e, Aggregate) and e.outer)):
                if isinstance(node, Aggregate) and node.outer:
                    outer = node.outer[-1]
                elif (isinstance(node, Path)
                        and not node.steps[-1].transitive
                        and not node.steps[-1].inverse_of):
                    outer = node.steps[-1]
                else:
                    continue
                if (self.schema.has_class(outer.name)
                        and outer.name not in found):
                    found.append(outer.name)
        if not found:
            raise QualificationError(
                "cannot infer a perspective class; add a FROM clause"
            ).with_code("SIM104")
        return [PerspectiveRef(name) for name in found]

    # -- Expression walk -----------------------------------------------------------

    def _resolve_expression(self, expression, context: _ScopeContext,
                            in_target: bool) -> None:
        if isinstance(expression, Literal):
            return
        if isinstance(expression, Path):
            self._resolve_path(expression, context, in_target)
            return
        if isinstance(expression, Binary):
            self._resolve_expression(expression.left, context, in_target)
            self._resolve_expression(expression.right, context, in_target)
            return
        if isinstance(expression, Unary):
            self._resolve_expression(expression.operand, context, in_target)
            return
        if isinstance(expression, IsaTest):
            self._resolve_path(expression.entity, context, in_target,
                               require_entity=True)
            if not self.schema.has_class(expression.class_name):
                raise QualificationError(
                    f"unknown class {expression.class_name!r} in ISA"
                ).with_code("SIM101")
            return
        if isinstance(expression, FunctionCall):
            for arg in expression.args:
                self._resolve_expression(arg, context, in_target)
            return
        if isinstance(expression, Aggregate):
            self._resolve_aggregate(expression, context, in_target)
            return
        if isinstance(expression, Quantified):
            self._resolve_quantified(expression, context, in_target)
            return
        raise QualificationError(
            f"cannot resolve expression {expression!r}")

    def _resolve_aggregate(self, aggregate: Aggregate,
                           context: _ScopeContext, in_target: bool) -> None:
        """Aggregates delimit scope (§4.6): the outer qualification resolves
        in the enclosing scope; the argument resolves in a fresh scope."""
        anchor_node = None
        if aggregate.outer:
            outer_path = Path(list(aggregate.outer))
            self._resolve_path(outer_path, context, in_target,
                               require_entity=True)
            aggregate.outer_path = outer_path
            anchor_node = outer_path.value_node
        scope_id = context.tree.new_scope()
        scope = _ScopeContext(self, context.tree, scope_id, parent=context)
        scope.forced_anchor = anchor_node
        self._resolve_expression(aggregate.argument, scope, in_target=None)
        aggregate.scope_id = scope_id
        aggregate.anchor_node = anchor_node
        aggregate.scope_nodes = list(scope.nodes)
        # The aggregate's value contributes wherever the aggregate appears.
        self._mark_anchor_usage(aggregate, in_target)

    def _resolve_quantified(self, quantified: Quantified,
                            context: _ScopeContext, in_target: bool) -> None:
        scope_id = context.tree.new_scope()
        scope = _ScopeContext(self, context.tree, scope_id, parent=context)
        scope.forced_anchor = getattr(context, "forced_anchor", None)
        self._resolve_expression(quantified.argument, scope, in_target=None)
        quantified.scope_id = scope_id
        quantified.scope_nodes = list(scope.nodes)
        self._mark_anchor_usage(quantified, in_target)

    def _mark_anchor_usage(self, scoped_expr, in_target: bool) -> None:
        """Mark the main-scope anchors a scoped expression hangs from, so
        the TYPE labelling sees that the anchor feeds the target list or
        the selection expression through the scoped construct."""
        for path in walk(scoped_expr):
            if not isinstance(path, Path):
                continue
            for node in [path.anchor_node] + path.chain_nodes:
                if node is not None and node.scope_id == MAIN_SCOPE:
                    if in_target:
                        node.used_in_target = True
                    else:
                        node.used_in_selection = True

    # -- Path resolution ----------------------------------------------------------

    def _resolve_path(self, path: Path, context: _ScopeContext,
                      in_target: bool, require_entity: bool = False) -> None:
        """Resolve one qualification chain and annotate the Path."""
        anchor, remaining = self._find_anchor(path, context)
        chain_nodes, terminal_attr, terminal_view, derived = \
            self._walk_steps(anchor, remaining, context,
                             start_class=getattr(path, "anchor_view", None))
        if derived is not None:
            expression, scope_nodes = self._last_derived_resolution
            path.derived = derived
            path.derived_expr = expression
            path.derived_scope_nodes = scope_nodes
        else:
            path.derived = None
        path.anchor_node = anchor
        path.chain_nodes = chain_nodes
        path.terminal_attr = terminal_attr
        path.terminal_view = terminal_view
        if require_entity and (terminal_attr is not None
                               or getattr(path, "derived", None) is not None):
            raise QualificationError(
                f"{path.describe()!r} must end at an entity, not a value"
            ).with_code("SIM110")
        # Usage marking (binding labels) applies to main-scope nodes only;
        # in_target=None means "scoped resolution, do not mark" — the
        # enclosing construct marks its anchors itself.
        if in_target is not None:
            for node in [anchor] + chain_nodes:
                if node.scope_id == MAIN_SCOPE:
                    if in_target:
                        node.used_in_target = True
                    else:
                        node.used_in_selection = True

    def _find_anchor(self, path: Path, context: _ScopeContext
                     ) -> Tuple[QTNode, List[PathStep]]:
        """Anchor a written chain: explicit perspective name, a class name
        (universal root inside scopes), or shorthand completion."""
        steps = list(path.steps)
        outer = steps[-1]

        if not outer.transitive and not outer.inverse_of:
            if context.is_main:
                # Explicit anchor at a perspective variable or class name.
                for root in context.anchors():
                    if outer.name in (root.var_name, root.class_name):
                        if outer.as_class is not None:
                            self._check_role_conversion(
                                root.class_name, outer.as_class)
                        path.anchor_view = outer.as_class
                        return root, steps[:-1]
            else:
                # Binding is broken inside aggregate/quantifier scopes
                # (§4.4): an explicit range-variable alias still correlates,
                # but a bare class name denotes a fresh variable over the
                # whole class ("AVG(Salary of Instructor) gives the average
                # salary of all instructors in the database").  A forced
                # anchor (aggregate outer path, update statement entity) is
                # addressable by its own name.
                forced = getattr(context, "forced_anchor", None)
                if forced is not None and outer.name in (
                        forced.var_name, forced.class_name):
                    if outer.as_class is not None:
                        self._check_role_conversion(
                            forced.class_name, outer.as_class)
                    path.anchor_view = outer.as_class
                    return forced, steps[:-1]
                for root in context.anchors():
                    if root.var_name != root.class_name \
                            and outer.name == root.var_name:
                        path.anchor_view = outer.as_class
                        return root, steps[:-1]
                if self.schema.has_class(outer.name):
                    anchor = context.universal_root(outer.name)
                    if outer.as_class is not None:
                        self._check_role_conversion(outer.name, outer.as_class)
                    path.anchor_view = outer.as_class
                    return anchor, steps[:-1]

        # Shorthand: complete the chain from some anchor.
        path.anchor_view = None
        return self._complete_shorthand(path, steps, context)

    def _complete_shorthand(self, path: Path, steps: List[PathStep],
                            context: _ScopeContext
                            ) -> Tuple[QTNode, List[PathStep]]:
        """Breadth-first search for the unique shortest completion.

        Candidate anchors: inside aggregate/quantifier scopes with a forced
        anchor, only that anchor; otherwise every perspective root.
        """
        forced = getattr(context, "forced_anchor", None)
        anchors = [forced] if forced is not None else context.anchors()
        outer_name = steps[-1].name

        candidates: List[Tuple[QTNode, List[PathStep]]] = []
        for depth in range(_MAX_COMPLETION_DEPTH + 1):
            for anchor in anchors:
                for prefix in self._eva_chains(anchor.class_name, depth):
                    start_class = (prefix[-1].range_class_name
                                   if prefix else anchor.class_name)
                    if self._step_resolvable(start_class, steps[-1]):
                        # Written order is innermost-first, so the chain
                        # from the anchor is appended reversed.
                        completed = steps + [
                            PathStep(eva.name) for eva in reversed(prefix)]
                        candidates.append((anchor, completed))
            if candidates:
                break
        if not candidates:
            raise QualificationError(
                f"cannot qualify {path.describe()!r} to any perspective"
            ).with_code("SIM101")
        unique = {(a.id, tuple(s.name for s in c)) for a, c in candidates}
        if len(unique) > 1:
            descriptions = sorted(
                f"{a.var_name}: {' of '.join(s.name for s in reversed(c))}"
                for a, c in candidates)
            raise QualificationError(
                f"ambiguous qualification {path.describe()!r}; candidates: "
                + "; ".join(descriptions)).with_code("SIM102")
        anchor, completed = candidates[0]
        return anchor, completed

    def _eva_chains(self, class_name: str, depth: int):
        """All EVA chains of exactly ``depth`` hops starting at a class."""
        if depth == 0:
            yield []
            return
        sim_class = self.schema.get_class(class_name)
        for attr in sim_class.evas():
            for rest in self._eva_chains(attr.range_class_name, depth - 1):
                yield [attr] + rest

    def _step_resolvable(self, class_name: str, step: PathStep) -> bool:
        sim_class = self.schema.get_class(class_name)
        if step.transitive:
            return self._transitive_resolvable(class_name, step)
        if step.inverse_of:
            return self._find_inverse(sim_class, step.name) is not None
        return (sim_class.has_attribute(step.name)
                or self.schema.find_derived(class_name, step.name)
                is not None)

    def _transitive_resolvable(self, class_name: str,
                               step: PathStep) -> bool:
        """True when the step's EVA chain composes from ``class_name`` back
        into its own hierarchy (a legal §4.7 cyclic chain)."""
        graph = self.schema.graph
        hop_class = class_name
        for name in reversed(step.transitive_chain or (step.name,)):
            sim_class = self.schema.get_class(hop_class)
            if not sim_class.has_attribute(name):
                return False
            attr = sim_class.attribute(name)
            if not attr.is_eva:
                return False
            hop_class = attr.range_class_name
        return (graph.is_ancestor(hop_class, class_name)
                or graph.is_ancestor(class_name, hop_class))

    def _find_inverse(self, sim_class, eva_name: str):
        """INVERSE(<eva>): the attribute of ``sim_class`` whose inverse is
        named ``eva_name`` (paper §3.2)."""
        for attr in sim_class.evas():
            if attr.inverse is not None and attr.inverse.name == eva_name:
                return attr
        return None

    def _check_role_conversion(self, from_class: str, to_class: str) -> None:
        if not self.schema.has_class(to_class):
            raise QualificationError(
                f"unknown class {to_class!r} in AS").with_code("SIM103")
        if not self.schema.graph.same_hierarchy(from_class, to_class):
            raise QualificationError(
                f"AS conversion from {from_class!r} to {to_class!r} crosses "
                f"generalization hierarchies").with_code("SIM103")

    def _walk_steps(self, anchor: QTNode, remaining: List[PathStep],
                    context: _ScopeContext,
                    start_class: Optional[str] = None):
        """Walk written steps (outermost already consumed) inward, creating
        or sharing query-tree nodes.  Returns (chain nodes, terminal DVA or
        None, terminal role view)."""
        current_class = start_class or anchor.class_name
        current_node = anchor
        chain_nodes: List[QTNode] = []
        terminal_attr = None
        terminal_view = None

        derived_hit = None
        steps = list(reversed(remaining))  # traverse from perspective inward
        for position, step in enumerate(steps):
            is_last = position == len(steps) - 1
            sim_class = self.schema.get_class(current_class)
            if step.transitive:
                current_node, current_class = self._transitive_node(
                    step, current_node, current_class, context)
                chain_nodes.append(current_node)
                continue
            if step.inverse_of:
                attr = self._find_inverse(sim_class, step.name)
                if attr is None:
                    raise QualificationError(
                        f"no EVA with inverse {step.name!r} on "
                        f"{current_class!r}").with_code("SIM101")
            else:
                if not sim_class.has_attribute(step.name):
                    derived = self.schema.find_derived(current_class,
                                                       step.name)
                    if derived is not None and is_last:
                        self._attach_derived(current_node, derived, context)
                        return chain_nodes, None, None, derived
                    raise QualificationError(
                        f"class {current_class!r} has no attribute "
                        f"{step.name!r}").with_code("SIM101")
                attr = sim_class.attribute(step.name)

            if attr.is_eva:
                step_key = ("eva", attr.owner_name, attr.name, step.as_class,
                            False)
                range_class = attr.range_class_name
                if step.as_class is not None:
                    self._check_role_conversion(range_class, step.as_class)
                    range_class = step.as_class

                def factory(attr=attr, step=step, range_class=range_class,
                            parent=current_node, step_key=step_key):
                    return QTNode(
                        "eva", context.scope_id, parent=parent,
                        class_name=range_class, eva=attr,
                        as_class=step.as_class, transitive=False,
                        step_key=step_key)
                current_node = context.get_or_create_child(
                    current_node, step_key, factory)
                chain_nodes.append(current_node)
                current_class = range_class
            else:
                # A DVA: multi-valued ones get their own range variable;
                # single-valued ones terminate the chain.
                if not is_last:
                    raise QualificationError(
                        f"{step.name!r} is not an EVA; it cannot be "
                        f"qualified through").with_code("SIM101")
                if attr.multi_valued:
                    step_key = ("mvdva", attr.owner_name, attr.name)

                    def factory(attr=attr, parent=current_node,
                                step_key=step_key):
                        return QTNode("mvdva", context.scope_id,
                                      parent=parent, mv_attr=attr,
                                      step_key=step_key)
                    current_node = context.get_or_create_child(
                        current_node, step_key, factory)
                    chain_nodes.append(current_node)
                else:
                    terminal_attr = attr
                    terminal_view = step.as_class
        return chain_nodes, terminal_attr, terminal_view, None

    def _transitive_node(self, step, current_node, current_class: str,
                         context: _ScopeContext):
        """Resolve TRANSITIVE(<eva> {of <eva>}) — §4.7's cyclic EVA chain.

        The chain is written qualification-style (innermost attribute
        first), so the hops apply in reverse written order; the composite
        hop must lead back into the starting class's hierarchy so it can
        repeat.
        """
        graph = self.schema.graph
        chain_names = step.transitive_chain or (step.name,)
        hop_evas = []
        hop_class = current_class
        for name in reversed(chain_names):
            sim_class = self.schema.get_class(hop_class)
            if not sim_class.has_attribute(name):
                raise QualificationError(
                    f"class {hop_class!r} has no attribute {name!r} in "
                    f"transitive chain").with_code("SIM101")
            attr = sim_class.attribute(name)
            if not attr.is_eva:
                raise QualificationError(
                    f"TRANSITIVE needs EVAs, got {name!r}").with_code("SIM101")
            hop_evas.append(attr)
            hop_class = attr.range_class_name
        if not (graph.is_ancestor(hop_class, current_class)
                or graph.is_ancestor(current_class, hop_class)):
            raise QualificationError(
                f"transitive({' of '.join(chain_names)}) is not cyclic "
                f"from {current_class!r}").with_code("SIM101")
        step_key = ("transitive", chain_names, step.as_class)
        range_class = hop_class
        if step.as_class is not None:
            self._check_role_conversion(range_class, step.as_class)
            range_class = step.as_class

        def factory(parent=current_node, step_key=step_key,
                    range_class=range_class):
            node = QTNode("eva", context.scope_id, parent=parent,
                          class_name=range_class, eva=hop_evas[-1],
                          as_class=step.as_class, transitive=True,
                          step_key=step_key)
            node.transitive_evas = list(hop_evas)
            return node
        node = context.get_or_create_child(current_node, step_key, factory)
        return node, range_class

    def _attach_derived(self, anchor_node, derived, context: _ScopeContext):
        """Resolve a derived attribute's expression in a fresh scope
        anchored at the node it is read from (paper §6)."""
        expression = parse_expression(derived.expression_text)
        scope_id = context.tree.new_scope()
        scope = _ScopeContext(self, context.tree, scope_id,
                              parent=context)
        scope.forced_anchor = anchor_node
        self._resolve_expression(expression, scope, in_target=None)
        derived_resolution = (expression, list(scope.nodes))
        self._last_derived_resolution = derived_resolution
        return derived_resolution
