"""Test-only oracle: the tuple-at-a-time expression interpreter.

This is the per-row interpreter that ``repro.engine.expressions`` used to
be — one binding at a time through an ``isinstance`` ladder over a node
environment (query-tree node id -> instance), recursive scope
enumeration, early-exit existential probes — kept verbatim as the slow
path the compiled, set-at-a-time evaluator is differential-tested
against (``tests/test_expression_compile.py``).  It shares no evaluation
code with the engine: only the AST, the accessor's scalar reads and the
value types.

:func:`reference_rows` drives it through the paper's §4.5 nested-loop
semantics program for one Retrieve (no Order By / Distinct).
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Dict, Iterable, List

from repro import parse_dml
from repro.dml.ast import (
    Aggregate,
    Binary,
    FunctionCall,
    IsaTest,
    Literal,
    Path,
    Quantified,
    Unary,
)
from repro.dml.query_tree import TYPE2, TYPE3
from repro.engine.access import DUMMY, EntityAccessor
from repro.errors import ExecutionError, TypeMismatchError
from repro.types.dates import SimDate, SimTime
from repro.types.tvl import NULL, UNKNOWN, is_null, tvl_and, tvl_not, tvl_or


class ExpressionEvaluator:
    """Evaluates resolved DML expressions in a node environment."""

    def __init__(self, accessor: EntityAccessor):
        self.accessor = accessor

    # -- Scope enumeration ---------------------------------------------------------

    def enumerate_scope(self, nodes, env: Dict) -> Iterable[Dict]:
        """Enumerate assignments of the scoped ``nodes`` (parents first),
        yielding the shared mutated ``env``.  Consumers must finish with
        the env before advancing the generator."""
        if not nodes:
            yield env
            return

        def recurse(index: int):
            if index == len(nodes):
                yield env
                return
            node = nodes[index]
            if node.kind == "root":
                domain = self.accessor.root_domain(node)
            else:
                domain = self.accessor.node_domain(node, env)
            for instance in domain:
                env[node.id] = instance
                yield from recurse(index + 1)
            env.pop(node.id, None)

        yield from recurse(0)

    # -- Evaluation --------------------------------------------------------------------

    def value(self, expression, env: Dict):
        """Evaluate an expression to a value (which may be NULL/UNKNOWN)."""
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, Path):
            return self._path_value(expression, env)
        if isinstance(expression, Unary):
            return self._unary(expression, env)
        if isinstance(expression, Binary):
            return self._binary(expression, env)
        if isinstance(expression, IsaTest):
            return self._isa(expression, env)
        if isinstance(expression, Aggregate):
            return self._aggregate(expression, env)
        if isinstance(expression, FunctionCall):
            return self._function(expression, env)
        if isinstance(expression, Quantified):
            raise ExecutionError(
                "a quantifier may only appear as a comparison operand")
        raise ExecutionError(f"cannot evaluate {expression!r}")

    def truth(self, expression, env: Dict):
        """Evaluate an expression as a 3-valued truth value."""
        result = self.value(expression, env)
        if result is UNKNOWN or is_null(result):
            return UNKNOWN
        if isinstance(result, bool):
            return result
        described = (expression.describe()
                     if hasattr(expression, "describe") else repr(expression))
        raise TypeMismatchError(f"expression {described!r} is not boolean")

    def is_true(self, expression, env: Dict) -> bool:
        return self.truth(expression, env) is True

    # -- Paths ------------------------------------------------------------------------

    def _path_value(self, path: Path, env: Dict):
        node = path.value_node
        if node.id not in env:
            raise ExecutionError(
                f"range variable for {path.describe()!r} is not bound")
        instance = env[node.id]
        if node.kind == "eva" and node.transitive \
                and isinstance(instance, tuple):
            instance = instance[0]
        if getattr(path, "derived", None) is not None:
            return self._derived_value(path, instance, env)
        if path.terminal_attr is None:
            # Entity-ended (or MV-DVA value) path.
            if instance is DUMMY:
                return NULL
            return instance
        return self.accessor.dva(instance, path.terminal_attr)

    def _derived_value(self, path: Path, instance, env: Dict):
        """Evaluate a derived attribute (paper §6) for one entity.

        The derived expression was resolved in a scope anchored at the
        path's value node; its value must be functionally determined by
        the entity (multiple distinct instances are an error)."""
        if instance is DUMMY or is_null(instance):
            return NULL
        values = []
        for _ in self.enumerate_scope(path.derived_scope_nodes, env):
            values.append(self.value(path.derived_expr, env))
        if not values:
            return NULL
        first = values[0]
        for other in values[1:]:
            if other != first:
                raise ExecutionError(
                    f"derived attribute {path.derived.name!r} is not "
                    f"single-valued for entity {instance}")
        return NULL if first is UNKNOWN else first

    def _isa(self, test: IsaTest, env: Dict):
        entity = self._path_value(test.entity, env)
        if is_null(entity):
            return UNKNOWN
        result = self.accessor.has_role(entity, test.class_name)
        return UNKNOWN if result is None else result

    # -- Operators ---------------------------------------------------------------------

    def _unary(self, expression: Unary, env: Dict):
        if expression.op == "not":
            return tvl_not(self.truth(expression.operand, env))
        operand = self.value(expression.operand, env)
        if is_null(operand):
            return NULL
        return -operand

    def _binary(self, expression: Binary, env: Dict):
        op = expression.op
        if op == "and":
            return tvl_and(self.truth(expression.left, env),
                           self.truth(expression.right, env))
        if op == "or":
            return tvl_or(self.truth(expression.left, env),
                          self.truth(expression.right, env))

        if isinstance(expression.right, Quantified):
            return self._quantified_comparison(expression, env)

        left = self.value(expression.left, env)
        right = self.value(expression.right, env)
        if op in ("+", "-", "*", "/"):
            return self._arithmetic(op, left, right)
        return _compare(op, left, right)

    def _arithmetic(self, op: str, left, right):
        if is_null(left) or is_null(right) or left is UNKNOWN or right is UNKNOWN:
            return NULL
        left, right = _numeric_pair(left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return NULL
            if isinstance(left, int) and isinstance(right, int):
                return left / right if left % right else left // right
            return left / right
        raise ExecutionError(f"unknown arithmetic operator {op!r}")

    def _quantified_comparison(self, expression: Binary, env: Dict):
        """``x <op> some/all/no(inner)`` — fold the comparison over the
        quantified operand's scope (Kleene semantics; empty set: SOME is
        false, ALL and NO are true)."""
        quantified: Quantified = expression.right
        left = self.value(expression.left, env)
        op = expression.op
        exists = False
        result_some = False
        result_all = True
        for _ in self.enumerate_scope(quantified.scope_nodes, env):
            exists = True
            right = self.value(quantified.argument, env)
            outcome = _compare(op, left, right)
            result_some = tvl_or(result_some, outcome)
            result_all = tvl_and(result_all, outcome)
            if quantified.quantifier == "some" and result_some is True:
                break
            if quantified.quantifier == "all" and result_all is False:
                break
            if quantified.quantifier == "no" and result_some is True:
                break
        if quantified.quantifier == "some":
            return result_some if exists else False
        if quantified.quantifier == "all":
            return result_all if exists else True
        if quantified.quantifier == "no":
            return tvl_not(result_some) if exists else True
        raise ExecutionError(
            f"unknown quantifier {quantified.quantifier!r}")

    # -- Aggregates --------------------------------------------------------------------

    def _aggregate(self, aggregate: Aggregate, env: Dict):
        """Aggregate over the construct's own scope (paper §4.6).

        Nulls are skipped; COUNT of an empty scope is 0, the others are
        NULL.  DISTINCT reduces the multiset to a set first.
        """
        values: List = []
        for _ in self.enumerate_scope(aggregate.scope_nodes, env):
            value = self.value(aggregate.argument, env)
            if not is_null(value) and value is not UNKNOWN:
                values.append(value)
        if aggregate.distinct:
            seen = set()
            unique = []
            for value in values:
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            values = unique
        func = aggregate.func
        if func == "count":
            return len(values)
        if func == "sum":
            # SUM of an empty scope is 0, not null: the paper's V1
            # ("sum(credits of courses-enrolled) >= 12") must fail for a
            # student with no courses at all.
            return _sum(values) if values else 0
        if not values:
            return NULL
        if func == "avg":
            total = _sum(values)
            count = len(values)
            if isinstance(total, int):
                return total / count if total % count else total // count
            return total / count
        if func == "min":
            return min(values)
        if func == "max":
            return max(values)
        raise ExecutionError(f"unknown aggregate {func!r}")

    # -- Functions ---------------------------------------------------------------------

    def _function(self, call: FunctionCall, env: Dict):
        args = [self.value(a, env) for a in call.args]
        if any(is_null(a) or a is UNKNOWN for a in args):
            return NULL
        name = call.name
        if name == "abs":
            return abs(args[0])
        if name == "length":
            return len(args[0])
        if name == "upper":
            return str(args[0]).upper()
        if name == "lower":
            return str(args[0]).lower()
        if name in ("year", "month", "day"):
            date = args[0]
            if not isinstance(date, SimDate):
                raise TypeMismatchError(f"{name}() needs a date")
            return getattr(date, name)
        raise ExecutionError(f"unknown function {name!r}")


# ---------------------------------------------------------------- comparisons

_TYPE_ORDER = {bool: 0, int: 1, float: 1, Decimal: 1, str: 2,
               SimDate: 3, SimTime: 4}


def _numeric_pair(left, right):
    """Coerce a numeric operand pair to a common representation."""
    if isinstance(left, bool) or isinstance(right, bool):
        raise TypeMismatchError("booleans do not support arithmetic")
    if isinstance(left, float) and isinstance(right, Decimal):
        return left, float(right)
    if isinstance(left, Decimal) and isinstance(right, float):
        return float(left), right
    return left, right


def _compare(op: str, left, right):
    """3-valued comparison; NULL/UNKNOWN operands yield UNKNOWN."""
    if is_null(left) or is_null(right) or left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if op == "like":
        return _like(left, right)
    left, right = _comparable_pair(left, right)
    if op == "=":
        return left == right
    if op == "neq":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}") from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _comparable_pair(left, right):
    if isinstance(left, Decimal) and isinstance(right, float):
        return float(left), right
    if isinstance(left, float) and isinstance(right, Decimal):
        return left, float(right)
    # Date/time literals are written as strings in DML; coerce on compare.
    if isinstance(left, SimDate) and isinstance(right, str):
        return left, SimDate.parse(right)
    if isinstance(left, str) and isinstance(right, SimDate):
        return SimDate.parse(left), right
    if isinstance(left, SimTime) and isinstance(right, str):
        return left, SimTime.parse(right)
    if isinstance(left, str) and isinstance(right, SimTime):
        return SimTime.parse(left), right
    if isinstance(left, str) and isinstance(right, str):
        # SIM identifiers and symbolic values compare case-insensitively;
        # string data compares exactly.  We follow string-data semantics.
        return left, right
    return left, right


def _like(value, pattern):
    """SQL-flavoured pattern match: % = any run, _ = one character."""
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise TypeMismatchError("LIKE needs string operands")
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, re.DOTALL) is not None


def _sum(values):
    total = values[0]
    for value in values[1:]:
        left, right = _numeric_pair(total, value)
        total = left + right
    return total


# ------------------------------------------------------------ probe helpers

def exists_probe(evaluator, accessor, nodes, index, where, env) -> bool:
    """Existential enumeration of TYPE 2 subtree nodes, earliest exit on
    the first witness."""
    if index == len(nodes):
        return evaluator.is_true(where, env)
    node = nodes[index]
    for instance in accessor.node_domain(node, env):
        env[node.id] = instance
        if exists_probe(evaluator, accessor, nodes, index + 1, where, env):
            env.pop(node.id, None)
            return True
    env.pop(node.id, None)
    return False


def selection_holds(evaluator, accessor, where, exists_nodes, env) -> bool:
    """The "such that for some Xm+1..Xn" clause for one binding."""
    if where is None:
        return True
    if not exists_nodes:
        return evaluator.is_true(where, env)
    return exists_probe(evaluator, accessor, exists_nodes, 0, where, env)


def exists_subtrees(loop_nodes):
    """All TYPE 2 subtree nodes below the loop variables, DF order."""
    found = []

    def collect(node):
        found.append(node)
        for child in node.children.values():
            collect(child)

    for node in loop_nodes:
        for child in node.children.values():
            if child.label == TYPE2:
                collect(child)
    return found


# ------------------------------------------------------------------- driver

def reference_bindings(database, query):
    """Resolve ``query`` and enumerate the §4.5 semantics program's
    bindings in nested-loop order: yields ``(tree, loop nodes, evaluator,
    env, selected)`` per TYPE 1/TYPE 3 binding (``env`` is shared and
    mutated)."""
    tree = database.qualifier.resolve_retrieve(query)
    accessor = EntityAccessor(database.store)
    evaluator = ExpressionEvaluator(accessor)
    loop_nodes = [node for root in tree.roots
                  for node in tree.loop_nodes(root)]
    exists_nodes = exists_subtrees(loop_nodes)
    env: Dict = {}

    def recurse(index):
        if index == len(loop_nodes):
            yield (loop_nodes, evaluator, env,
                   selection_holds(evaluator, accessor, query.where,
                                   exists_nodes, env))
            return
        node = loop_nodes[index]
        if node.kind == "root":
            domain = list(accessor.root_domain(node))
        else:
            domain = accessor.node_domain(node, env)
            if not domain and node.label == TYPE3:
                domain = (DUMMY,)
        for instance in domain:
            env[node.id] = instance
            yield from recurse(index + 1)
        env.pop(node.id, None)

    return recurse(0)


def reference_rows(database, text: str) -> List[tuple]:
    """The rows of a Retrieve (no Order By / Distinct) as the per-row
    interpreter computes them, in perspective order."""
    query = parse_dml(text)
    rows = []
    for _, evaluator, env, selected in reference_bindings(database, query):
        if selected:
            values = (evaluator.value(item.expression, env)
                      for item in query.targets)
            rows.append(tuple(NULL if value is UNKNOWN else value
                              for value in values))
    return rows
