"""The query tree QT: range variables, binding, TYPE 1/2/3 labels.

Paper §4.4–§4.5: all occurrences of a perspective class name bind to one
range (loop) variable; all occurrences of an identically qualified EVA or
multi-valued DVA bind to one range variable too.  The variables form a
tree whose root(s) are the perspective variables and whose edges are EVAs
or MV DVAs.  Each node is labelled:

* TYPE 3 — it and all its descendants appear only in the target list;
* TYPE 2 — it and all its descendants appear only in the selection
  expression;
* TYPE 1 — otherwise (the root is always TYPE 1).

Binding is broken inside aggregate functions, quantifiers and transitive
closure (§4.4); such constructs get their own *scope*, so their nodes are
never shared with identically-qualified nodes outside.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import BindingError

MAIN_SCOPE = 0

TYPE1 = 1
TYPE2 = 2
TYPE3 = 3


class QTNode:
    """One range variable of the query tree."""

    _counter = 0

    def __init__(self, kind: str, scope_id: int,
                 parent: Optional["QTNode"] = None,
                 var_name: Optional[str] = None,
                 class_name: Optional[str] = None,
                 eva=None, mv_attr=None,
                 as_class: Optional[str] = None,
                 transitive: bool = False,
                 step_key: Optional[tuple] = None):
        if kind not in ("root", "eva", "mvdva"):
            raise BindingError(f"unknown QT node kind {kind!r}")
        QTNode._counter += 1
        self.id = QTNode._counter
        self.kind = kind
        self.scope_id = scope_id
        self.parent = parent
        #: for roots: the range-variable name (perspective name or alias)
        self.var_name = var_name
        #: the class the node's entities belong to, after role conversion
        #: (None for mvdva nodes, whose instances are values)
        self.class_name = class_name
        #: for eva nodes: the schema EVA traversed
        self.eva = eva
        #: for mvdva nodes: the MV DVA attribute
        self.mv_attr = mv_attr
        self.as_class = as_class
        self.transitive = transitive
        #: for transitive closure: the EVA hop chain in application order
        #: (a single-element list for the plain reflexive case)
        self.transitive_evas = [eva] if transitive and eva is not None \
            else None
        self.step_key = step_key
        self.children: Dict[tuple, "QTNode"] = {}
        self.used_in_target = False
        self.used_in_selection = False
        self.label: Optional[int] = None

    @property
    def depth(self) -> int:
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def child(self, step_key: tuple) -> Optional["QTNode"]:
        return self.children.get(step_key)

    def add_child(self, node: "QTNode") -> "QTNode":
        self.children[node.step_key] = node
        return node

    def describe(self) -> str:
        if self.kind == "root":
            return f"{self.var_name}({self.class_name})"
        name = self.eva.name if self.kind == "eva" else self.mv_attr.name
        if self.transitive:
            name = f"transitive({name})"
        if self.as_class:
            name = f"{name} as {self.as_class}"
        return f"{self.parent.describe()}.{name}"

    def __repr__(self):
        label = f" TYPE{self.label}" if self.label else ""
        return f"<QTNode #{self.id} {self.describe()}{label}>"


class QueryTree:
    """The full tree: one root per perspective plus scoped subtrees."""

    def __init__(self):
        self.roots: List[QTNode] = []
        self._roots_by_var: Dict[str, QTNode] = {}
        self._scope_counter = MAIN_SCOPE

    def new_scope(self) -> int:
        """Allocate a scope id for an aggregate/quantifier/transitive body."""
        self._scope_counter += 1
        return self._scope_counter

    def add_root(self, var_name: str, class_name: str,
                 scope_id: int = MAIN_SCOPE) -> QTNode:
        node = QTNode("root", scope_id, var_name=var_name,
                      class_name=class_name)
        if scope_id == MAIN_SCOPE:
            if var_name in self._roots_by_var:
                raise BindingError(
                    f"duplicate perspective variable {var_name!r}")
            self.roots.append(node)
            self._roots_by_var[var_name] = node
        return node

    # -- Labelling ---------------------------------------------------------------

    def label_nodes(self) -> None:
        """Compute TYPE 1/2/3 labels for all main-scope nodes."""
        for root in self.roots:
            self._label(root, is_root=True)

    def _label(self, node: QTNode, is_root: bool = False) -> Tuple[bool, bool]:
        """Returns (subtree_uses_target, subtree_uses_selection)."""
        target = node.used_in_target
        selection = node.used_in_selection
        for child in node.children.values():
            child_target, child_selection = self._label(child)
            target = target or child_target
            selection = selection or child_selection
        if is_root:
            node.label = TYPE1
        elif target and not selection:
            node.label = TYPE3
        elif selection and not target:
            node.label = TYPE2
        else:
            node.label = TYPE1
        return target, selection

    # -- Enumeration helpers -------------------------------------------------------

    def loop_nodes(self, root: QTNode) -> List[QTNode]:
        """TYPE 1 and TYPE 3 nodes of a root's subtree in depth-first order
        (the X1..Xm of the paper's semantics program)."""
        result: List[QTNode] = []

        def visit(node: QTNode):
            if node.label in (TYPE1, TYPE3):
                result.append(node)
                for child in node.children.values():
                    visit(child)
        visit(root)
        return result

    def all_nodes(self) -> List[QTNode]:
        result = []

        def visit(node):
            result.append(node)
            for child in node.children.values():
                visit(child)
        for root in self.roots:
            visit(root)
        return result

    def describe(self) -> str:
        lines = []

        def visit(node, indent):
            label = f"TYPE{node.label}" if node.label else "scoped"
            if node.kind == "root":
                text = f"{node.var_name} ({node.class_name})"
            elif node.kind == "eva":
                text = node.eva.name + (" [transitive]" if node.transitive else "")
            else:
                text = node.mv_attr.name
            lines.append("  " * indent + f"{text}: {label}")
            for child in node.children.values():
                visit(child, indent + 1)
        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)


def build_query_tree(perspectives) -> QueryTree:
    """Create a QueryTree with one main-scope root per perspective."""
    tree = QueryTree()
    for ref in perspectives:
        tree.add_root(ref.effective_var, ref.class_name)
    return tree
