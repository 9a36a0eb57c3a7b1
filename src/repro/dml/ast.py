"""AST for SIM DML statements and expressions.

Nodes keep the *written* form (e.g. a qualification chain exactly as the
user ordered it); semantic resolution annotates them in place (the
``resolved`` fields) rather than rewriting, so error messages and the
catalog can always refer back to the source shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lexer import Span
from repro.naming import canon


# --------------------------------------------------------------------- paths

@dataclass
class PathStep:
    """One step of a qualification chain, as written.

    ``Title of Courses-Enrolled of Student`` has steps
    ``[title, courses-enrolled, student]`` (written order: attribute first,
    perspective last).

    ``as_class`` carries an ``AS`` role conversion;
    ``transitive`` marks ``TRANSITIVE(<eva>)``;
    ``inverse_of`` marks ``INVERSE(<eva>)`` (the step name is then the EVA
    whose inverse is meant).
    """

    name: str
    as_class: Optional[str] = None
    transitive: bool = False
    inverse_of: bool = False
    #: for TRANSITIVE(<eva> of <eva> ...): the chain as written (innermost
    #: attribute first); None for plain steps, (name,) for single-EVA
    #: closures
    transitive_chain: Optional[tuple] = None
    #: source position of the step's name token (1-based; 0 = unknown)
    line: int = 0
    column: int = 0

    def __post_init__(self):
        self.name = canon(self.name)
        if self.as_class is not None:
            self.as_class = canon(self.as_class)
        if self.transitive and self.transitive_chain is None:
            self.transitive_chain = (self.name,)
        if self.transitive_chain is not None:
            self.transitive_chain = tuple(canon(n)
                                          for n in self.transitive_chain)

    def describe(self) -> str:
        text = self.name
        if self.inverse_of:
            text = f"inverse({text})"
        if self.transitive:
            chain = " of ".join(self.transitive_chain or (self.name,))
            text = f"transitive({chain})"
        if self.as_class:
            text += f" as {self.as_class}"
        return text


class Expression:
    """Base class for expressions; purely a marker."""


@dataclass
class Path(Expression):
    """A qualification chain (possibly shorthand; resolution completes it).

    After resolution (see :mod:`repro.dml.qualification`):

    * ``resolved_steps`` — the complete chain from the anchor outward
      (anchor first), each a ``(kind, payload)`` tuple produced by the
      qualifier;
    * ``anchor_var`` — the perspective/range-variable name the chain is
      rooted at.
    """

    steps: List[PathStep]

    def __post_init__(self):
        # Filled in by the qualifier:
        self.anchor_node = None            # QTNode the chain is rooted at
        self.anchor_view: Optional[str] = None  # AS conversion on the anchor
        self.chain_nodes: List = []        # traversal QTNodes, anchor-out
        self.terminal_attr = None          # terminal single-valued DVA
        self.terminal_view: Optional[str] = None

    @property
    def value_node(self):
        """The node whose instance carries this path's value (the deepest
        traversal node, or the anchor when the chain has no traversals)."""
        return self.chain_nodes[-1] if self.chain_nodes else self.anchor_node

    def describe(self, params=None) -> str:
        return " of ".join(step.describe() for step in self.steps)


class Lifted:
    """The literals of one statement, lifted to plan-cache parameters:
    its compiled artefacts read literal ``slot`` of the *running*
    execution from ``ctx.params[slot]``, not from the AST, so statements
    differing only in literal values share them (:mod:`repro.plan_cache`).
    Compile stages record here what still depends on a value: ``pinned``
    slots (a stage read the value, so it joins the cache key; a slot is
    pinned until a Literal claims it), ``checks`` — ``(slot, rule(value)
    -> (code, message) | None)``, value-dependent lint re-run against
    every binding — and ``conversions`` — ``(slot, convert)``, parse-once
    preparations (dates, ``like`` patterns) whose results extend
    ``params`` at binding time, so a malformed literal still fails
    before the first row."""

    def __init__(self, slots: int):
        self.slots = slots          # how many literals it has
        self.pinned = set(range(slots))
        self.checks: List[tuple] = []
        self.conversions: List[tuple] = []

    def bind(self, values) -> list:
        """The ``params`` of one execution from its literal values."""
        params = list(values)
        for slot, convert in self.conversions:
            params.append(convert(params[slot]))
        return params


@dataclass
class Literal(Expression):
    value: object
    #: source position of the literal token (1-based; 0 = unknown)
    line: int = 0
    column: int = 0

    def __post_init__(self):
        #: set by the parser on a plan-cache miss (:meth:`lift`); None
        #: means an inline constant, read from the AST
        self.lifted: Optional[Lifted] = None
        self.slot: Optional[int] = None

    def lift(self, lifted: Lifted, slot: int) -> None:
        self.lifted, self.slot = lifted, slot
        lifted.pinned.discard(slot)

    def pin(self) -> None:
        """A compile stage read this value: it joins the cache key."""
        if self.lifted is not None:
            self.lifted.pinned.add(self.slot)

    def bound(self, params):
        """The value for the execution binding ``params`` (as written
        when the literal is inline or the statement runs unbound)."""
        if params is None or self.lifted is None:
            return self.value
        return params[self.slot]

    def reader(self, convert=None):
        """``fn(ctx) -> value`` for compiled columns, through ``convert``
        when given — applied once: here for an inline literal, at each
        binding for a lifted one."""
        lifted = self.lifted
        if lifted is None:
            value = self.value if convert is None else convert(self.value)
            return lambda ctx: value
        index = self.slot
        if convert is not None:
            index = lifted.slots + len(lifted.conversions)
            lifted.conversions.append((self.slot, convert))

        return lambda ctx: ctx.params[index]

    def check(self, rule, sink) -> None:
        """Apply a value-dependent lint ``rule(value) -> (code, message)
        | None``: now for an inline literal, against every binding for a
        lifted one; a finding is emitted at this literal's position."""
        if self.lifted is None:
            finding = rule(self.value)
            if finding is not None:
                sink.emit(*finding, Span(self.line, self.column))
        else:
            self.lifted.checks.append((self.slot, rule))

    def describe(self, params=None) -> str:
        value = self.bound(params)
        if isinstance(value, str):
            return f'"{value}"'
        return str(value)


@dataclass
class Binary(Expression):
    """Binary operator: arithmetic (+,-,*,/), comparison (=, <, <=, >, >=,
    neq), logical (and, or), or pattern match (like)."""

    op: str
    left: Expression
    right: Expression

    def describe(self, params=None) -> str:
        return (f"({self.left.describe(params)} {self.op} "
                f"{self.right.describe(params)})")


@dataclass
class Unary(Expression):
    """Unary operator: '-' or 'not'."""

    op: str
    operand: Expression

    def describe(self, params=None) -> str:
        return f"({self.op} {self.operand.describe(params)})"


@dataclass
class Aggregate(Expression):
    """An aggregate with delimited scope (paper §4.6).

    ``AVG(Salary of Instructors-Employed) of Department``:
    ``func='avg'``, ``argument`` is the inner path (binding broken inside),
    ``outer`` is the qualification applied outside the scope
    (``of Department``), possibly empty.
    """

    func: str
    argument: Expression
    outer: List[PathStep] = field(default_factory=list)
    distinct: bool = False

    def __post_init__(self):
        self.func = self.func.lower()
        # Filled by resolution:
        self.outer_path: Optional[Path] = None
        self.anchor_node = None
        self.scope_id: Optional[int] = None
        self.scope_nodes: List = []

    def describe(self, params=None) -> str:
        inner = self.argument.describe(params)
        distinct = "distinct " if self.distinct else ""
        text = f"{self.func}({distinct}{inner})"
        if self.outer:
            text += " of " + " of ".join(s.describe() for s in self.outer)
        return text


@dataclass
class Quantified(Expression):
    """A quantified operand: SOME/ALL/NO over a path (paper §4.6, §4.9).

    Used as one side of a comparison: ``assigned-department neq
    some(major-department of advisees)``.  Binding is broken inside.
    """

    quantifier: str
    argument: Expression

    def __post_init__(self):
        self.quantifier = self.quantifier.lower()
        self.scope_id: Optional[int] = None
        self.scope_nodes: List = []

    def describe(self, params=None) -> str:
        return f"{self.quantifier}({self.argument.describe(params)})"


@dataclass
class IsaTest(Expression):
    """Role membership test: ``<path> ISA <class>`` (paper example 7)."""

    entity: Path
    class_name: str

    def __post_init__(self):
        self.class_name = canon(self.class_name)

    def describe(self, params=None) -> str:
        return f"({self.entity.describe()} isa {self.class_name})"


@dataclass
class FunctionCall(Expression):
    """A primitive scalar function (§4.9 "an array of operators and
    primitive functions")."""

    name: str
    args: List[Expression]

    def __post_init__(self):
        self.name = self.name.lower()

    def describe(self, params=None) -> str:
        inner = ", ".join(a.describe(params) for a in self.args)
        return f"{self.name}({inner})"


def children(expression) -> list:
    """The direct sub-expressions of ``expression``, left to right (an
    aggregate's resolved ``outer_path`` last).  The one place a node's
    shape is spelled out: every traversal is a loop over this."""
    if isinstance(expression, Binary):
        return [expression.left, expression.right]
    if isinstance(expression, Unary):
        return [expression.operand]
    if isinstance(expression, Aggregate):
        if expression.outer_path is None:
            return [expression.argument]
        return [expression.argument, expression.outer_path]
    if isinstance(expression, Quantified):
        return [expression.argument]
    if isinstance(expression, IsaTest):
        return [expression.entity]
    if isinstance(expression, FunctionCall):
        return list(expression.args)
    return []


def walk(expression, enter=None):
    """Every node of ``expression``, pre-order, left to right; the
    children of a node for which ``enter(node)`` is false are skipped."""
    stack = [expression]
    while stack:
        node = stack.pop()
        yield node
        if enter is None or enter(node):
            stack.extend(reversed(children(node)))


def conjuncts(where) -> list:
    """The top-level AND-ed conjuncts of ``where``, left to right (none
    for a missing WHERE clause)."""
    if where is None:
        return []
    if isinstance(where, Binary) and where.op == "and":
        return conjuncts(where.left) + conjuncts(where.right)
    return [where]


def pin_literals(expression) -> None:
    """Pin every literal inside ``expression``: a compile stage is about
    to spell their values out (a column label, a diagnostic)."""
    for node in walk(expression):
        if isinstance(node, Literal):
            node.pin()


# ---------------------------------------------------------------- statements

@dataclass
class PerspectiveRef:
    """One entry of the FROM list: a class with an optional range variable."""

    class_name: str
    var_name: Optional[str] = None

    def __post_init__(self):
        self.class_name = canon(self.class_name)
        if self.var_name is not None:
            self.var_name = canon(self.var_name)

    @property
    def effective_var(self) -> str:
        return self.var_name or self.class_name


@dataclass
class TargetItem:
    expression: Expression
    label: Optional[str] = None

    def describe(self) -> str:
        return self.expression.describe()


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class RetrieveQuery:
    """A Retrieve statement (paper §4.3)."""

    perspectives: List[PerspectiveRef]
    targets: List[TargetItem]
    where: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    mode: str = "table"          # "table" | "structure"
    distinct: bool = False

    kind = "retrieve"


@dataclass
class EntitySelector:
    """``<object name> WITH (<boolean expn>)`` in update statements.

    ``name`` is a class name (single-valued EVA assignment, MV inclusion)
    or the EVA's own name (exclusion); ``where`` may be None, meaning all
    members.
    """

    name: str
    where: Optional[Expression] = None

    def __post_init__(self):
        self.name = canon(self.name)


@dataclass
class Assignment:
    """``attr := value``, ``attr := include <sel>``, ``attr := exclude <sel>``.

    ``op`` ∈ {"set", "include", "exclude"}; ``value`` is an Expression (DVA
    assignment) or an :class:`EntitySelector` (EVA assignment / MV ops).
    """

    attribute: str
    op: str
    value: object
    #: source position of the attribute name token (1-based; 0 = unknown)
    line: int = 0
    column: int = 0

    def __post_init__(self):
        self.attribute = canon(self.attribute)
        self.op = self.op.lower()


@dataclass
class InsertStatement:
    """INSERT <class> [FROM <class> WHERE <expr>] (<assignments>)."""

    class_name: str
    assignments: List[Assignment] = field(default_factory=list)
    from_class: Optional[str] = None
    from_where: Optional[Expression] = None

    kind = "insert"

    def __post_init__(self):
        self.class_name = canon(self.class_name)
        if self.from_class is not None:
            self.from_class = canon(self.from_class)


@dataclass
class ModifyStatement:
    """MODIFY <class> (<assignments>) WHERE <expr>."""

    class_name: str
    assignments: List[Assignment]
    where: Optional[Expression] = None

    kind = "modify"

    def __post_init__(self):
        self.class_name = canon(self.class_name)


@dataclass
class DeleteStatement:
    """DELETE <class> WHERE <expr>."""

    class_name: str
    where: Optional[Expression] = None

    kind = "delete"

    def __post_init__(self):
        self.class_name = canon(self.class_name)


Statement = (RetrieveQuery, InsertStatement, ModifyStatement, DeleteStatement)
