"""Query and update lint: static type checks over the DML AST (SIM1xx).

:func:`lint_retrieve` runs *after* qualification, so paths carry their
resolution annotations (terminal attribute, chain nodes) and the type of
every subexpression can be inferred from the catalog.  :func:`lint_update`
runs before the update engine touches any data and mirrors its static
preconditions (assignable attributes, value kinds, selector ranges).

Severity policy: a rule is an error only when the statement can never
succeed; anything data-dependent is at most a warning, so warnings never
change runtime behaviour.
"""

from __future__ import annotations

from decimal import Decimal
from typing import List, Optional, Union

from repro.errors import TypeMismatchError
from repro.lexer import Span
from repro.analysis.diagnostics import Diagnostic, DiagnosticSink
from repro.dml.ast import (
    Aggregate,
    Binary,
    DeleteStatement,
    EntitySelector,
    FunctionCall,
    InsertStatement,
    IsaTest,
    Literal,
    ModifyStatement,
    Path,
    Quantified,
    RetrieveQuery,
    Unary,
    pin_literals,
    walk,
)
from repro.schema.schema import Schema

_NUMERIC = frozenset(("integer", "number", "real", "surrogate"))
_TEXT = frozenset(("string", "symbolic", "subrole"))
_ARITHMETIC = frozenset(("+", "-", "*", "/"))
_COMPARISONS = frozenset(("=", "neq", "<", "<=", ">", ">="))


class _Type:
    """Inferred static type of a subexpression."""

    __slots__ = ("kind", "family", "data_type", "label")

    def __init__(self, kind: str, family: Optional[str] = None,
                 data_type=None, label: str = "expression"):
        self.kind = kind          # "value" | "entity" | "boolean" | "unknown"
        self.family = family      # value family, when known
        self.data_type = data_type
        self.label = label        # how to name it in messages

    def describe(self) -> str:
        if self.kind == "entity":
            return f"entity-valued {self.label}"
        if self.family:
            return f"{self.family} {self.label}"
        return self.label


_UNKNOWN = _Type("unknown")
_BOOLEAN = _Type("boolean", "boolean")


def _span_of(expression) -> Span:
    """Best source anchor for an expression (lexer token positions)."""
    if isinstance(expression, Path) and expression.steps:
        step = expression.steps[0]
        return Span(step.line, step.column)
    if isinstance(expression, Literal):
        return Span(expression.line, expression.column)
    if isinstance(expression, Binary):
        span = _span_of(expression.left)
        return span if span else _span_of(expression.right)
    if isinstance(expression, Unary):
        return _span_of(expression.operand)
    if isinstance(expression, (Aggregate, Quantified)):
        return _span_of(expression.argument)
    if isinstance(expression, IsaTest):
        return _span_of(expression.entity)
    if isinstance(expression, FunctionCall) and expression.args:
        return _span_of(expression.args[0])
    return Span()


def _families_comparable(left: str, right: str) -> bool:
    if left == right:
        return True
    if left in _NUMERIC and right in _NUMERIC:
        return True
    if left in _TEXT and right in _TEXT:
        return True
    # Dates and times coerce from strings (DateType/TimeType.validate).
    if {left, right} <= (_TEXT | {"date"}) or {left, right} <= (_TEXT | {"time"}):
        return True
    return False


class _QueryLinter:
    def __init__(self, schema: Schema):
        self.schema = schema
        self.sink = DiagnosticSink(source="query")

    # -- Entry points -------------------------------------------------------

    def lint_retrieve(self, query: RetrieveQuery) -> List[Diagnostic]:
        for item in query.targets:
            self._infer(item.expression)
        if query.where is not None:
            self._require_boolean(query.where)
        for order in query.order_by:
            self._infer(order.expression)
        return self.sink.sorted()

    # -- Inference ----------------------------------------------------------

    def _infer(self, expression) -> _Type:
        if isinstance(expression, Literal):
            return self._literal_type(expression)
        if isinstance(expression, Path):
            return self._path_type(expression)
        if isinstance(expression, Binary):
            return self._binary_type(expression)
        if isinstance(expression, Unary):
            if expression.op == "not":
                self._require_boolean(expression.operand)
                return _BOOLEAN
            return self._require_numeric(expression.operand, "unary '-'")
        if isinstance(expression, IsaTest):
            return _BOOLEAN
        if isinstance(expression, Aggregate):
            return self._aggregate_type(expression)
        if isinstance(expression, Quantified):
            return self._quantified_type(expression)
        if isinstance(expression, FunctionCall):
            return self._function_type(expression)
        return _UNKNOWN

    def _literal_type(self, literal: Literal) -> _Type:
        value = literal.value
        if isinstance(value, bool):
            return _Type("boolean", "boolean", label="literal")
        if isinstance(value, int):
            return _Type("value", "integer", label="literal")
        if isinstance(value, (Decimal, float)):
            return _Type("value", "number", label="literal")
        if isinstance(value, str):
            return _Type("value", "string", label="literal")
        return _UNKNOWN

    def _path_type(self, path: Path) -> _Type:
        label = f"{path.describe()!r}"
        if getattr(path, "derived", None) is not None:
            return _Type("unknown", label=label)
        attr = path.terminal_attr
        if attr is None and path.chain_nodes:
            last = path.chain_nodes[-1]
            if last.kind == "mvdva":
                attr = last.mv_attr
        if attr is not None:
            family = attr.data_type.family
            kind = "boolean" if family == "boolean" else "value"
            return _Type(kind, family, attr.data_type, label=label)
        if path.anchor_node is not None:
            return _Type("entity", label=label)
        return _Type("unknown", label=label)

    def _binary_type(self, binary: Binary) -> _Type:
        op = binary.op
        if op in ("and", "or"):
            self._require_boolean(binary.left)
            self._require_boolean(binary.right)
            return _BOOLEAN
        if op == "like":
            left = self._infer(binary.left)
            right = self._infer(binary.right)
            for side in (left, right):
                if (side.kind == "entity"
                        or (side.kind in ("value", "boolean")
                            and side.family is not None
                            and side.family not in _TEXT)):
                    self.sink.emit(
                        "SIM112",
                        f"LIKE needs string operands; {side.describe()} "
                        f"is not a string", _span_of(binary),
                        hint="LIKE applies to string-valued attributes")
            return _BOOLEAN
        if op in _COMPARISONS:
            self._check_comparison(binary)
            return _BOOLEAN
        if op in _ARITHMETIC:
            self._require_numeric(binary.left, f"operator {op!r}")
            self._require_numeric(binary.right, f"operator {op!r}")
            return _Type("value", "number", label="arithmetic result")
        return _UNKNOWN

    def _check_comparison(self, binary: Binary) -> None:
        left_expr, right_expr = binary.left, binary.right
        # Quantified operands compare against each element of their scope.
        if isinstance(right_expr, Quantified):
            self._quantified_type(right_expr)
            right_expr = right_expr.argument
        if isinstance(left_expr, Quantified):
            self._quantified_type(left_expr)
            left_expr = left_expr.argument
        left = self._infer(left_expr)
        right = self._infer(right_expr)

        for entity_side, value_side, value_expr in (
                (left, right, right_expr), (right, left, left_expr)):
            if entity_side.kind == "entity" and value_side.kind in (
                    "value", "boolean"):
                self.sink.emit(
                    "SIM110",
                    f"cannot compare {entity_side.describe()} with "
                    f"{value_side.describe()}; an EVA denotes entities, "
                    f"not data values", _span_of(binary),
                    hint="compare entities with entities, or qualify "
                         "through to a data-valued attribute")
                return
        if (left.kind in ("value", "boolean")
                and right.kind in ("value", "boolean")
                and left.family is not None and right.family is not None
                and not _families_comparable(left.family, right.family)):
            self.sink.emit(
                "SIM112",
                f"cannot compare {left.describe()} with "
                f"{right.describe()}; the value families are "
                f"incomparable", _span_of(binary))
            return
        # Domain check: a literal compared against a typed attribute that
        # can never hold it makes the comparison statically false/UNKNOWN.
        for attr_side, literal_expr in ((left, right_expr),
                                        (right, left_expr)):
            if (attr_side.data_type is not None
                    and isinstance(literal_expr, Literal)
                    and not isinstance(literal_expr.value, bool)):
                literal_expr.check(_outside_domain(
                    "SIM113", attr_side.data_type,
                    f"{attr_side.describe()}; the comparison can never "
                    f"be true"), self.sink)

    def _require_boolean(self, expression) -> None:
        inferred = self._infer(expression)
        if inferred.kind == "boolean" or inferred.kind == "unknown":
            return
        if inferred.kind == "value" and inferred.family is None:
            return
        described = (expression.describe()
                     if hasattr(expression, "describe") else repr(expression))
        self.sink.emit(
            "SIM117",
            f"expression {described!r} is not boolean "
            f"({inferred.describe()})", _span_of(expression),
            hint="selection expressions must be predicates")

    def _require_numeric(self, expression, where: str) -> _Type:
        inferred = self._infer(expression)
        if inferred.kind == "entity":
            self.sink.emit(
                "SIM110",
                f"{inferred.describe()} cannot be used with {where}; "
                f"entities are not numbers", _span_of(expression))
        elif (inferred.kind in ("value", "boolean")
              and inferred.family is not None
              and inferred.family not in _NUMERIC):
            self.sink.emit(
                "SIM112",
                f"{where} needs numeric operands, not "
                f"{inferred.describe()}", _span_of(expression))
        if self._is_mv_terminal(expression):
            self.sink.emit(
                "SIM111",
                f"multi-valued attribute in scalar arithmetic "
                f"({inferred.describe()}); each value is combined "
                f"independently", _span_of(expression))
        return _Type("value", "number", label="arithmetic result")

    def _is_mv_terminal(self, expression) -> bool:
        return (isinstance(expression, Path)
                and expression.terminal_attr is None
                and bool(expression.chain_nodes)
                and expression.chain_nodes[-1].kind == "mvdva")

    def _aggregate_type(self, aggregate: Aggregate) -> _Type:
        argument = self._infer(aggregate.argument)
        if not aggregate.scope_nodes and not _varies(aggregate.argument):
            pin_literals(aggregate.argument)
            self.sink.emit(
                "SIM116",
                f"aggregate {aggregate.func}({aggregate.argument.describe()})"
                f" ranges over a constant", _span_of(aggregate),
                hint="the aggregate's argument never varies")
        if aggregate.func in ("sum", "avg"):
            if argument.kind == "entity":
                self.sink.emit(
                    "SIM114",
                    f"{aggregate.func} needs a data-valued argument, not "
                    f"{argument.describe()}", _span_of(aggregate),
                    hint="use COUNT to count entities")
            elif (argument.kind in ("value", "boolean")
                  and argument.family is not None
                  and argument.family not in _NUMERIC):
                self.sink.emit(
                    "SIM114",
                    f"{aggregate.func} needs numeric values, not "
                    f"{argument.describe()}", _span_of(aggregate))
            return _Type("value", "number", label=f"{aggregate.func}(...)")
        if aggregate.func in ("min", "max"):
            if argument.kind == "entity":
                self.sink.emit(
                    "SIM114",
                    f"{aggregate.func} needs a data-valued argument, not "
                    f"{argument.describe()}", _span_of(aggregate),
                    hint="use COUNT to count entities")
            return _Type("value", argument.family, argument.data_type,
                         label=f"{aggregate.func}(...)")
        # count
        return _Type("value", "integer", label="count(...)")

    def _quantified_type(self, quantified: Quantified) -> _Type:
        inferred = self._infer(quantified.argument)
        if not quantified.scope_nodes and not _varies(quantified.argument):
            pin_literals(quantified.argument)
            self.sink.emit(
                "SIM115",
                f"quantifier {quantified.quantifier}"
                f"({quantified.argument.describe()}) ranges over a single "
                f"constant value; the quantification is vacuous",
                _span_of(quantified),
                hint="quantify over a multi-valued qualification")
        return inferred

    def _function_type(self, call: FunctionCall) -> _Type:
        for arg in call.args:
            inferred = self._infer(arg)
            if inferred.kind == "entity":
                self.sink.emit(
                    "SIM110",
                    f"function {call.name} cannot be applied to "
                    f"{inferred.describe()}", _span_of(call))
            elif inferred.family is not None:
                if (call.name in ("length", "upper", "lower")
                        and inferred.family not in _TEXT):
                    self.sink.emit(
                        "SIM112",
                        f"function {call.name} needs a string argument, not "
                        f"{inferred.describe()}", _span_of(call))
                elif (call.name in ("year", "month", "day")
                      and inferred.family not in ("date", "string")):
                    self.sink.emit(
                        "SIM112",
                        f"function {call.name} needs a date argument, not "
                        f"{inferred.describe()}", _span_of(call))
                elif call.name == "abs" and inferred.family not in _NUMERIC:
                    self.sink.emit(
                        "SIM112",
                        f"function {call.name} needs a numeric argument, "
                        f"not {inferred.describe()}", _span_of(call))
        if call.name in ("length", "year", "month", "day"):
            return _Type("value", "integer", label=f"{call.name}(...)")
        if call.name in ("upper", "lower"):
            return _Type("value", "string", label=f"{call.name}(...)")
        return _Type("value", "number", label=f"{call.name}(...)")


def _outside_domain(code: str, data_type, of_what: str,
                    with_reason: bool = False):
    """A value-dependent rule for :meth:`Literal.check`: ``(code,
    message)`` when the literal's value is outside ``data_type``'s
    declared domain, else None — the same statement shape is clean for
    one literal and flagged for the next, so it runs against each one."""
    def rule(value):
        try:
            data_type.validate(value)
        except TypeMismatchError as exc:
            reason = f": {exc}" if with_reason else ""
            return code, (f"literal {Literal(value).describe()} is "
                          f"outside the declared domain of {of_what}"
                          f"{reason}")
        return None
    return rule


def _varies(expression) -> bool:
    """Does the expression reference anything that varies per entity?"""
    return not all(isinstance(node, (Literal, Binary, Unary))
                   for node in walk(expression))


def lint_retrieve(schema: Schema,
                  query: RetrieveQuery) -> List[Diagnostic]:
    """Type-check a *resolved* Retrieve statement (annotated by the
    qualifier).  Returns diagnostics; error severity means the query can
    never evaluate."""
    return _QueryLinter(schema).lint_retrieve(query)


# -- Update statements --------------------------------------------------------

_Update = Union[InsertStatement, ModifyStatement, DeleteStatement]


def lint_update(schema: Schema, statement: _Update) -> List[Diagnostic]:
    """Static preconditions for INSERT/MODIFY/DELETE (rules SIM12x)."""
    sink = DiagnosticSink(source="query")
    class_name = statement.class_name
    if schema.view(class_name) is not None:
        sink.emit("SIM125",
                  f"cannot {statement.kind} through view {class_name!r}; "
                  f"views are read-only",
                  hint="run the update against the view's class")
        return sink.sorted()
    if not schema.has_class(class_name):
        sink.emit("SIM126",
                  f"unknown class {class_name!r} in {statement.kind} "
                  f"statement")
        return sink.sorted()
    sim_class = schema.get_class(class_name)
    if (isinstance(statement, InsertStatement)
            and statement.from_class is not None
            and schema.has_class(statement.from_class)
            and not schema.graph.is_ancestor(statement.from_class,
                                             class_name)):
        sink.emit("SIM126",
                  f"{statement.from_class!r} is not an ancestor of "
                  f"{class_name!r}; INSERT ... FROM extends an existing "
                  f"entity's roles downward")
    for assignment in getattr(statement, "assignments", []):
        _lint_assignment(schema, sim_class, assignment, sink)
    return sink.sorted()


def _lint_assignment(schema: Schema, sim_class, assignment, sink) -> None:
    span = Span(assignment.line, assignment.column)
    name = assignment.attribute
    if not sim_class.has_attribute(name):
        derived = schema.find_derived(sim_class.name, name)
        if derived is not None:
            sink.emit("SIM121",
                      f"derived attribute {name!r} is computed, never "
                      f"assigned", span)
        else:
            sink.emit("SIM120",
                      f"attribute {name!r} is not an attribute of "
                      f"{sim_class.name!r} or its superclasses", span,
                      hint="check the spelling against the class "
                           "declaration")
        return
    attr = sim_class.attribute(name)
    if attr.system_maintained:
        sink.emit("SIM121",
                  f"attribute {attr.name!r} is system-maintained and "
                  f"cannot be assigned", span,
                  hint="subrole, surrogate and inverse maintenance is "
                       "automatic")
        return
    if (assignment.op in ("include", "exclude") and not attr.multi_valued
            and not attr.is_eva):
        # Single-valued EVAs accept both: EXCLUDE clears the reference and
        # INCLUDE is checked against the cardinality bound at runtime.
        sink.emit("SIM122",
                  f"INCLUDE/EXCLUDE need a multi-valued attribute, not "
                  f"{attr.name!r}", span)
    value = assignment.value
    if attr.is_eva:
        if isinstance(value, EntitySelector):
            _check_selector_range(schema, attr, value, span, sink)
        elif isinstance(value, Literal):
            sink.emit("SIM123",
                      f"EVA {attr.name!r} assignment needs a WITH selector, "
                      f"not the literal {value.describe()}", span,
                      hint=f"write {attr.name} := "
                           f"{attr.range_class_name} with (<predicate>)")
    else:
        if isinstance(value, EntitySelector):
            sink.emit("SIM123",
                      f"{attr.name!r} is data-valued; WITH selectors apply "
                      f"to EVAs", span)
        elif (isinstance(value, Literal) and assignment.op == "set"
              and getattr(attr, "data_type", None) is not None
              and not isinstance(value.value, bool)):
            value.check(_outside_domain(
                "SIM127", attr.data_type, f"{sim_class.name}.{attr.name}",
                with_reason=True), sink)


def _check_selector_range(schema: Schema, eva, selector, span, sink) -> None:
    name = selector.name
    if name == eva.name:
        return                        # EXCLUDE from the EVA's own targets
    if not schema.has_class(name):
        if schema.view(name) is not None:
            return                    # views-as-selectors resolve at runtime
        sink.emit("SIM124",
                  f"selector class {name!r} is not the range class of EVA "
                  f"{eva.name!r} ({eva.range_class_name!r})", span)
        return
    if not schema.graph.same_hierarchy(name, eva.range_class_name):
        sink.emit("SIM124",
                  f"selector class {name!r} is not the range class of EVA "
                  f"{eva.name!r} ({eva.range_class_name!r}); the classes "
                  f"share no hierarchy", span,
                  hint=f"select from {eva.range_class_name!r} or one of its "
                       f"subclasses")
