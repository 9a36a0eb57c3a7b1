"""Set-at-a-time expression evaluation with 3-valued logic (paper §4.9).

A resolved DML expression is compiled *once per plan* into a column
function ``fn(ctx, rows) -> list`` — one value per slot row — by plain
closure composition: operator dispatch, literal coercion (``like``
patterns, date/time literals) and the decision whether an operand can be
NULL/UNKNOWN all happen here, at compile time, never per row.  Values are
Python scalars, :data:`NULL`, or entity surrogates (for entity-ended
paths); truth values are True/False/UNKNOWN.  Compiled functions capture
no accessor: they read through ``ctx``, so morsel workers share them.

Aggregates, quantifiers, derived attributes and the main-scope TYPE 2
subtrees enumerate their own scoped nodes (binding broken, §4.4) by
*scope expansion*: a batch of parent rows is flattened, a bounded chunk
at a time, into rows extended with ``[owner index, instance...]``; the
argument evaluates as a column over the chunk and is segment-reduced by
owner.
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal

from repro.errors import ExecutionError, TypeMismatchError
from repro.dml.ast import (
    Aggregate,
    Binary,
    FunctionCall,
    IsaTest,
    Literal,
    Path,
    Quantified,
    Unary,
    pin_literals,
)
from repro.engine.access import DUMMY
from repro.types.dates import SimDate, SimTime
from repro.types.domain import DateType, TimeType
from repro.types.tvl import NULL, UNKNOWN

#: a scope expands at most this many bindings per ``batch_size`` row
#: before the chunk is evaluated and reduced
CHUNK_FACTOR = 16

_COMPARATORS = {"=": operator.eq, "neq": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_MIRRORED = {"=": "=", "neq": "neq", "<": ">", "<=": ">=", ">": "<",
             ">=": "<="}
COMPARISON_OPS = tuple(_COMPARATORS) + ("like",)


# ------------------------------------------------------------------ compiler

def compile_value(expression, slots, width):
    """Compile a resolved expression to ``fn(ctx, rows) -> values``.

    ``slots`` maps the ids of the bound query-tree nodes to row indices
    and ``width`` is the length of the rows the function will be given
    (scope expansion appends its own slots past it).
    """
    if isinstance(expression, Literal):
        read = expression.reader()
        return lambda ctx, rows: [read(ctx)] * len(rows)
    if isinstance(expression, Path):
        if getattr(expression, "derived", None) is not None:
            return _compile_derived(expression, slots, width)
        return path_column(expression, slots)
    if isinstance(expression, Unary):
        return _compile_unary(expression, slots, width)
    if isinstance(expression, Binary):
        return _compile_binary(expression, slots, width)
    if isinstance(expression, IsaTest):
        return _compile_isa(expression, slots)
    if isinstance(expression, Aggregate):
        return _compile_aggregate(expression, slots, width)
    if isinstance(expression, FunctionCall):
        return _compile_function(expression, slots, width)
    if isinstance(expression, Quantified):
        raise ExecutionError(
            "a quantifier may only appear as a comparison operand")
    raise ExecutionError(f"cannot evaluate {expression!r}")


def compile_truth(expression, slots, width):
    """Compile an expression to a column of 3-valued truth values."""
    values = compile_value(expression, slots, width)
    if _is_boolean(expression):
        return values
    described = (expression.describe() if hasattr(expression, "describe")
                 else repr(expression))
    pin_literals(expression)    # the error message spells them out

    def truth(ctx, rows):
        out = []
        for value in values(ctx, rows):
            if value is UNKNOWN or value is NULL or value is None:
                value = UNKNOWN
            elif not isinstance(value, bool):
                raise TypeMismatchError(
                    f"expression {described!r} is not boolean")
            out.append(value)
        return out
    return truth


def compile_selection(where, exists_nodes, slots, width):
    """Compile the "such that for some Xm+1..Xn" clause (§4.5) to
    ``fn(ctx, rows) -> keep flags``: a row is kept iff the selection is
    *true* for some binding of the TYPE 2 ``exists_nodes`` (for the row
    itself when there are none).  Per-node EXPLAIN ANALYZE counts go to
    ``ctx.stats``."""
    if not exists_nodes:
        truth = compile_truth(where, slots, width)
        return lambda ctx, rows: [value is True
                                  for value in truth(ctx, rows)]
    expand, inner, inner_width = _compile_scope(exists_nodes, slots, width)
    truth = compile_truth(where, inner, inner_width)

    def selection(ctx, rows):
        keep = [False] * len(rows)
        for chunk in expand(ctx, rows, keep, ctx.stats):
            for row, value in zip(chunk, truth(ctx, chunk)):
                if value is True:
                    keep[row[width]] = True
        return keep
    return selection


def compile_single_valued(expression, scope_nodes, slots, width, conflict):
    """Compile an expression that must be functionally determined by the
    row (derived attributes, assignment values): NULL over an empty
    scope, ``raise conflict(row)`` when the bindings disagree."""
    groups = _compile_groups(expression, scope_nodes, slots, width, False)

    def single(ctx, rows):
        out = []
        for row, values in zip(rows, groups(ctx, rows)):
            first = values[0] if values else NULL
            for other in values:
                if other != first:
                    raise conflict(row)
            out.append(NULL if first is UNKNOWN else first)
        return out
    return single


def _is_boolean(expression) -> bool:
    """True when the compiled column can only hold True/False/UNKNOWN."""
    if isinstance(expression, Binary):
        return expression.op in COMPARISON_OPS + ("and", "or")
    if isinstance(expression, Unary):
        return expression.op == "not"
    return isinstance(expression, IsaTest)


# --------------------------------------------------------------------- paths

def _bound_slot(path, slots) -> int:
    node = path.value_node
    if node is None or node.id not in slots:
        raise ExecutionError(
            f"range variable for {path.describe()!r} is not bound")
    return slots[node.id]


def path_column(path, slots):
    """Batched reader for a plain Path over a bound slot: one value per
    row, DVA columns read through the accessor's batched path."""
    slot = _bound_slot(path, slots)
    attr = path.terminal_attr
    node = path.value_node
    if node.kind == "eva" and node.transitive:
        def instances_of(rows):
            return [row[slot][0] if isinstance(row[slot], tuple)
                    else row[slot] for row in rows]
    else:
        def instances_of(rows):
            return [row[slot] for row in rows]
    if attr is None:
        # Entity-ended (or MV-DVA value) path.
        return lambda ctx, rows: [NULL if instance is DUMMY else instance
                                  for instance in instances_of(rows)]
    return lambda ctx, rows: ctx.accessor.dva_batch(attr, instances_of(rows))


def _compile_derived(path, slots, width):
    """A derived attribute (paper §6): its expression was resolved in a
    scope anchored at the path's value node and must be functionally
    determined by the entity."""
    slot = _bound_slot(path, slots)

    def conflict(row):
        entity = row[slot][0] if isinstance(row[slot], tuple) else row[slot]
        return ExecutionError(
            f"derived attribute {path.derived.name!r} is not "
            f"single-valued for entity {entity}")
    single = compile_single_valued(path.derived_expr,
                                   path.derived_scope_nodes, slots, width,
                                   conflict)

    def derived(ctx, rows):
        absent = [row[slot] is DUMMY or row[slot] is NULL
                  or row[slot] is None for row in rows]
        values = iter(single(ctx, [row for row, gone in zip(rows, absent)
                                   if not gone]))
        return [NULL if gone else next(values) for gone in absent]
    return derived


def _compile_isa(test, slots):
    entities = path_column(test.entity, slots)
    class_name = test.class_name

    def isa(ctx, rows):
        has_role = ctx.store.has_role
        return [UNKNOWN if entity is NULL or entity is None
                else has_role(entity, class_name)
                for entity in entities(ctx, rows)]
    return isa


# ----------------------------------------------------------------- operators

def _compile_unary(expression, slots, width):
    if expression.op == "not":
        truth = compile_truth(expression.operand, slots, width)
        return lambda ctx, rows: [UNKNOWN if value is UNKNOWN else not value
                                  for value in truth(ctx, rows)]
    operand = compile_value(expression.operand, slots, width)
    return lambda ctx, rows: [NULL if value is NULL or value is None
                              else -value for value in operand(ctx, rows)]


def _compile_binary(expression, slots, width):
    op = expression.op
    if op in ("and", "or"):
        left = compile_truth(expression.left, slots, width)
        right = compile_truth(expression.right, slots, width)
        connective = _kleene_and if op == "and" else _kleene_or
        return lambda ctx, rows: connective(left(ctx, rows),
                                            right(ctx, rows))
    if isinstance(expression.right, Quantified):
        return _compile_quantified(expression, slots, width)
    left = compile_value(expression.left, slots, width)
    right = compile_value(expression.right, slots, width)
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]

        def arithmetic(ctx, rows):
            return [_arithmetic(apply, a, b)
                    for a, b in zip(left(ctx, rows), right(ctx, rows))]
        return arithmetic
    kernel = _comparison_kernel(op, expression.left, expression.right)
    return lambda ctx, rows: kernel(ctx, left(ctx, rows), right(ctx, rows))


def _kleene_and(lefts, rights):
    return [False if a is False or b is False
            else UNKNOWN if a is UNKNOWN or b is UNKNOWN else True
            for a, b in zip(lefts, rights)]


def _kleene_or(lefts, rights):
    return [True if a is True or b is True
            else UNKNOWN if a is UNKNOWN or b is UNKNOWN else False
            for a, b in zip(lefts, rights)]


def _divide(left, right):
    if right == 0:
        return NULL
    if isinstance(left, int) and isinstance(right, int):
        return left / right if left % right else left // right
    return left / right


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": _divide}


def _arithmetic(apply, left, right):
    if (left is NULL or left is None or left is UNKNOWN
            or right is NULL or right is None or right is UNKNOWN):
        return NULL
    if type(left) is not int or type(right) is not int:
        left, right = _numeric_pair(left, right)
    return apply(left, right)


def _numeric_pair(left, right):
    """Coerce a numeric operand pair to a common representation."""
    if isinstance(left, bool) or isinstance(right, bool):
        raise TypeMismatchError("booleans do not support arithmetic")
    if isinstance(left, float) and isinstance(right, Decimal):
        return left, float(right)
    if isinstance(left, Decimal) and isinstance(right, float):
        return float(left), right
    return left, right


_FUNCTIONS = {
    "abs": abs,
    "length": len,
    "upper": lambda value: str(value).upper(),
    "lower": lambda value: str(value).lower(),
}


def _compile_function(call, slots, width):
    name = call.name
    if name in ("year", "month", "day"):
        def apply(date):
            if not isinstance(date, SimDate):
                raise TypeMismatchError(f"{name}() needs a date")
            return getattr(date, name)
    elif name in _FUNCTIONS:
        apply = _FUNCTIONS[name]
    else:
        raise ExecutionError(f"unknown function {name!r}")
    columns = [compile_value(arg, slots, width) for arg in call.args]

    def function(ctx, rows):
        out = []
        for args in zip(*(column(ctx, rows) for column in columns)):
            if any(arg is NULL or arg is None or arg is UNKNOWN
                   for arg in args):
                out.append(NULL)
            else:
                out.append(apply(args[0]))
        return out
    return function


# --------------------------------------------------------------- comparisons

def _compare(op: str, left, right):
    """3-valued comparison of one pair; NULL/UNKNOWN operands yield
    UNKNOWN."""
    if (left is NULL or left is None or left is UNKNOWN
            or right is NULL or right is None or right is UNKNOWN):
        return UNKNOWN
    if op == "like":
        if not isinstance(left, str) or not isinstance(right, str):
            raise TypeMismatchError("LIKE needs string operands")
        return re.fullmatch(_like_regex(right), left, re.DOTALL) is not None
    if type(left) is not type(right):
        left, right = _comparable_pair(left, right)
    try:
        return _COMPARATORS[op](left, right)
    except TypeError as exc:
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}") from exc


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
    return left, right


def _like_regex(pattern: str) -> str:
    """SQL-flavoured pattern: % = any run, _ = one character."""
    return re.escape(pattern).replace("%", ".*").replace("_", ".")


def _constant(literal, other):
    """A reader (``fn(ctx) -> value``) of a literal comparison operand
    when the comparison can run without per-pair coercion, else None.
    A string literal facing a date/time attribute is parsed once per
    execution, before its first row (a malformed one raises there)."""
    value = literal.value
    attr = other.terminal_attr if (
        isinstance(other, Path)
        and getattr(other, "derived", None) is None) else None
    if type(value) is str:
        if attr is None:
            return None             # the column's type is not known here
        if isinstance(attr.data_type, DateType):
            return literal.reader(SimDate.parse)
        if isinstance(attr.data_type, TimeType):
            return literal.reader(SimTime.parse)
        return literal.reader()
    if type(value) in (int, bool) and not _is_boolean(other):
        return literal.reader()
    return None


def _comparison_kernel(op, left, right):
    """``kernel(ctx, lefts, rights) -> outcomes`` for ``left <op>
    right``, specialised on the operator and on a literal operand (only
    on its type: the value is read per execution)."""
    if op not in COMPARISON_OPS:
        raise ExecutionError(f"unknown comparison operator {op!r}")

    def general(ctx, lefts, rights):
        return [_compare(op, a, b) for a, b in zip(lefts, rights)]

    if op == "like":
        if not (isinstance(right, Literal) and type(right.value) is str):
            return general
        matcher = right.reader(lambda pattern: re.compile(
            _like_regex(pattern), re.DOTALL).fullmatch)

        def like(ctx, lefts, rights):
            match = matcher(ctx)
            out = []
            for value in lefts:
                if value is NULL or value is None or value is UNKNOWN:
                    out.append(UNKNOWN)
                elif not isinstance(value, str):
                    raise TypeMismatchError("LIKE needs string operands")
                else:
                    out.append(match(value) is not None)
            return out
        return like

    if isinstance(right, Literal):
        read, mirrored = _constant(right, left), False
    elif isinstance(left, Literal):
        read, mirrored = _constant(left, right), True
    else:
        return general
    if read is None:
        return general
    apply = _COMPARATORS[_MIRRORED[op] if mirrored else op]

    def against_constant(ctx, lefts, rights):
        constant = read(ctx)
        try:
            return [UNKNOWN if value is NULL or value is None
                    else apply(value, constant)
                    for value in (rights if mirrored else lefts)]
        except TypeError:
            return general(ctx, lefts, rights)    # raises the typed error
    return against_constant


# ----------------------------------------------------------- scope expansion

def _compile_scope(nodes, slots, width):
    """Scope expansion over ``nodes`` (parents first).

    Returns ``(expand, inner slots, inner width)``.  ``expand(ctx, rows,
    decided=None, stats=None)`` yields chunks of bindings: each a row
    extended with its owner's index in ``rows`` (at ``width``) and one
    instance per scope node.  A chunk holds at most ``CHUNK_FACTOR *
    ctx.batch_size`` bindings; a domain larger than that is sliced.
    Owners flagged in ``decided`` by the consumer are not expanded any
    further; ``stats`` collects per-node [rows entered, instances bound].
    """
    inner = dict(slots)
    steps = []
    for node in nodes:
        parent_slot = None
        if node.kind != "root":
            parent_slot = inner.get(node.parent.id)
            if parent_slot is None:
                raise ExecutionError(
                    f"range variable {node.parent.describe()!r} of "
                    f"{node.describe()!r} is not bound")
        inner[node.id] = width + 1 + len(steps)
        steps.append((node, parent_slot))

    def walk(ctx, rows, level, decided, stats):
        if decided is not None:
            rows = [row for row in rows if not decided[row[width]]]
        if not rows:
            return
        if level == len(steps):
            yield rows
            return
        node, parent_slot = steps[level]
        if parent_slot is None:
            domains = [tuple(ctx.accessor.root_domain(node))] * len(rows)
        else:
            domains = ctx.accessor.node_domains_batch(
                node, [row[parent_slot] for row in rows])
        entry = [0, 0] if stats is None else stats.setdefault(node.id,
                                                              [0, 0])
        entry[0] += len(rows)
        limit = ctx.batch_size * CHUNK_FACTOR
        if sum(map(len, domains)) <= limit:
            out = [row + [instance] for row, domain in zip(rows, domains)
                   for instance in domain]
            entry[1] += len(out)
            yield from walk(ctx, out, level + 1, decided, stats)
            return
        out = []
        for row, domain in zip(rows, domains):
            for start in range(0, len(domain), limit):
                piece = domain[start:start + limit]
                if out and len(out) + len(piece) > limit:
                    yield from walk(ctx, out, level + 1, decided, stats)
                    out = []
                if decided is not None and decided[row[width]]:
                    break
                entry[1] += len(piece)
                out.extend([row + [instance] for instance in piece])
        yield from walk(ctx, out, level + 1, decided, stats)

    def expand(ctx, rows, decided=None, stats=None):
        owned = [row + [index] for index, row in enumerate(rows)]
        return walk(ctx, owned, 0, decided, stats)

    return expand, inner, width + 1 + len(steps)


def _compile_groups(argument, scope_nodes, slots, width, skip_nulls):
    """``fn(ctx, rows) -> [values per row]``: the argument evaluated over
    every binding of the scope, grouped by owning row."""
    expand, inner, inner_width = _compile_scope(scope_nodes, slots, width)
    values = compile_value(argument, inner, inner_width)

    def groups(ctx, rows):
        grouped = [[] for _ in rows]
        for chunk in expand(ctx, rows):
            for row, value in zip(chunk, values(ctx, chunk)):
                if skip_nulls and (value is NULL or value is None
                                   or value is UNKNOWN):
                    continue
                grouped[row[width]].append(value)
        return grouped
    return groups


def _compile_quantified(expression, slots, width):
    """``x <op> some/all/no(inner)`` — fold the comparison over the
    quantified operand's scope (Kleene semantics; empty set: SOME is
    false, ALL and NO are true).  The left operand evaluates once per
    row; an owner stops expanding once its outcome is decided."""
    quantified = expression.right
    quantifier = quantified.quantifier
    if quantifier not in ("some", "all", "no"):
        raise ExecutionError(f"unknown quantifier {quantifier!r}")
    left = compile_value(expression.left, slots, width)
    expand, inner, inner_width = _compile_scope(quantified.scope_nodes,
                                                slots, width)
    argument = compile_value(quantified.argument, inner, inner_width)
    kernel = _comparison_kernel(expression.op, expression.left,
                                quantified.argument)
    # SOME is true (and NO false) on the first true outcome; ALL is false
    # on the first false one.  Short of that, any UNKNOWN outcome makes
    # the fold UNKNOWN, and the rest is the empty-scope answer.
    decisive = quantifier != "all"
    verdict, default = (True, False) if quantifier == "some" \
        else (False, True)

    def quantified_comparison(ctx, rows):
        lefts = left(ctx, rows)
        decided = [False] * len(rows)
        unknown = [False] * len(rows)
        for chunk in expand(ctx, rows, decided):
            outcomes = kernel(ctx, [lefts[row[width]] for row in chunk],
                              argument(ctx, chunk))
            for row, outcome in zip(chunk, outcomes):
                if outcome is decisive:
                    decided[row[width]] = True
                elif outcome is UNKNOWN:
                    unknown[row[width]] = True
        return [verdict if hit else UNKNOWN if maybe else default
                for hit, maybe in zip(decided, unknown)]
    return quantified_comparison


# ---------------------------------------------------------------- aggregates

def _sum(values):
    values = iter(values)
    total = next(values)
    for value in values:
        if type(total) is int and type(value) is int:
            total += value
        else:
            left, right = _numeric_pair(total, value)
            total = left + right
    return total


def _avg(values):
    total = _sum(values)
    count = len(values)
    if isinstance(total, int):
        return total / count if total % count else total // count
    return total / count


#: reducers over the non-null values of a non-empty scope
_AGGREGATES = {"count": len, "sum": _sum, "avg": _avg, "min": min,
               "max": max}


def _compile_aggregate(aggregate, slots, width):
    """Aggregate over the construct's own scope (paper §4.6).

    Nulls are skipped; COUNT of an empty scope is 0 and so is SUM (the
    paper's V1, "sum(credits of courses-enrolled) >= 12", must fail for a
    student with no courses at all), the others are NULL.  DISTINCT
    reduces the multiset to a set first.
    """
    func = aggregate.func
    if func not in _AGGREGATES:
        raise ExecutionError(f"unknown aggregate {func!r}")
    reduce = _AGGREGATES[func]
    empty = 0 if func in ("count", "sum") else NULL
    distinct = aggregate.distinct
    groups = _compile_groups(aggregate.argument, aggregate.scope_nodes,
                             slots, width, True)

    def aggregated(ctx, rows):
        out = []
        for values in groups(ctx, rows):
            if distinct:
                values = list(dict.fromkeys(values))
            out.append(reduce(values) if values else empty)
        return out
    return aggregated
