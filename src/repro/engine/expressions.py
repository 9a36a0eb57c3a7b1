"""Set-at-a-time expression evaluation with 3-valued logic (paper §4.9).

A resolved DML expression is compiled *once per plan* into a column
function ``fn(ctx, batch) -> list`` — one value per binding of a
:class:`Batch` — by plain closure composition: operator dispatch,
literal coercion (``like`` patterns, date/time literals) and the
decision whether an operand can be NULL/UNKNOWN all happen here, at
compile time, never per row.  A batch is a set of columns, one per bound
slot, so a compiled path reads its slot's column as it is.  Values are
Python scalars, :data:`NULL`, or entity surrogates (for entity-ended
paths); truth values are True/False/UNKNOWN.  Compiled functions capture
no accessor: they read through ``ctx``, so concurrent executions of one
cached plan share them.

Aggregates, quantifiers, derived attributes and the main-scope TYPE 2
subtrees enumerate their own scoped nodes (binding broken, §4.4) by
*scope expansion*: a batch's rows are expanded, a bounded chunk at a
time, into scope chunks — an owner column (each binding's row in the
batch) plus one instance column per scope node; an outer slot is
gathered through the owner column only when the argument reads it.  The
argument evaluates as a column over the chunk and is reduced per owner:
aggregates slice each owner's contiguous run, while ``exists``, ``some``,
``no`` and ``all`` expand each undecided owner in rounds of 1, 2, 4, …
bindings and stop at the round that decides it (§4.5: a TYPE 2 subtree
needs one witness).
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from decimal import Decimal
from functools import partial
from itertools import chain, compress

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


class Batch(dict):
    """A batch of bindings, column by column: ``slot -> column``, each
    column a list with one value per binding.  Columns are shared
    between batches and never changed in place.

    A scope chunk also has ``owner``, the row of ``outer`` each binding
    belongs to: a slot of ``outer`` is gathered through it on its first
    read, so a chunk copies only the outer columns its argument reads."""

    __slots__ = ("size", "owner", "outer")

    def __init__(self, columns, size, owner=None, outer=None):
        super().__init__(columns)
        self.size = size
        self.owner = owner
        self.outer = outer

    def __len__(self):
        return self.size

    def __missing__(self, slot):
        if self.outer is None:
            raise KeyError(slot)
        column = self.outer[slot]
        column = self[slot] = [column[index] for index in self.owner]
        return column

    def take(self, indices) -> "Batch":
        """The bindings at ``indices``, in that order."""
        owner = self.owner
        return Batch({slot: [column[index] for index in indices]
                      for slot, column in self.items()}, len(indices),
                     None if owner is None else [owner[i] for i in indices],
                     self.outer)


_COMPARATORS = {"=": operator.eq, "neq": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_MIRRORED = {"=": "=", "neq": "neq", "<": ">", "<=": ">=", ">": "<",
             ">=": "<="}
COMPARISON_OPS = tuple(_COMPARATORS) + ("like",)


# ------------------------------------------------------------------ compiler

def compile_value(expression, slots, width):
    """Compile a resolved expression to ``fn(ctx, batch) -> values``.

    ``slots`` maps the ids of the bound query-tree nodes to batch slots
    and ``width`` is the first slot no bound node uses (scope expansion
    numbers its own slots from there).
    """
    if isinstance(expression, Literal):
        read = expression.reader()
        return lambda ctx, batch: [read(ctx)] * len(batch)
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

    def truth(ctx, batch):
        out = []
        for value in values(ctx, batch):
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
    ``fn(ctx, batch) -> keep flags``: a row is kept iff the selection is
    *true* for some binding of the TYPE 2 ``exists_nodes`` (for the row
    itself when there are none) — its first witness ends its expansion.
    Per-node EXPLAIN ANALYZE counts go to ``ctx.stats``."""
    if not exists_nodes:
        truth = compile_truth(where, slots, width)
        return lambda ctx, batch: [value is True
                                   for value in truth(ctx, batch)]
    expand, inner, inner_width = _compile_scope(exists_nodes, slots, width)
    truth = compile_truth(where, inner, inner_width)

    def selection(ctx, batch):
        witnessed = set()
        for chunk in expand(ctx, batch, witnessed, ctx.stats):
            witnessed.update(compress(chunk.owner, [
                value is True for value in truth(ctx, chunk)]))
        return [index in witnessed for index in range(len(batch))]
    return selection


def compile_single_valued(expression, scope_nodes, slots, width, conflict):
    """Compile an expression that must be functionally determined by the
    row (derived attributes, assignment values): NULL over an empty
    scope, ``raise conflict(batch, index)`` when the bindings of the row
    at ``index`` disagree."""
    groups = _compile_groups(expression, scope_nodes, slots, width, False)

    def single(ctx, batch):
        out = []
        for index, values in enumerate(groups(ctx, batch)):
            first = values[0] if values else NULL
            for other in values:
                if other != first:
                    raise conflict(batch, index)
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
    binding, DVA columns read through the accessor's batched path."""
    slot = _bound_slot(path, slots)
    attr = path.terminal_attr
    node = path.value_node
    if node.kind == "eva" and node.transitive:
        def instances_of(batch):
            return [instance[0] if isinstance(instance, tuple)
                    else instance for instance in batch[slot]]
    else:
        def instances_of(batch):
            return batch[slot]
    if attr is None:
        # Entity-ended (or MV-DVA value) path.
        return lambda ctx, batch: [NULL if instance is DUMMY else instance
                                   for instance in instances_of(batch)]
    return lambda ctx, batch: ctx.accessor.dva_batch(attr,
                                                     instances_of(batch))


def _compile_derived(path, slots, width):
    """A derived attribute (paper §6): its expression was resolved in a
    scope anchored at the path's value node and must be functionally
    determined by the entity."""
    slot = _bound_slot(path, slots)

    def conflict(batch, index):
        entity = batch[slot][index]
        if isinstance(entity, tuple):
            entity = entity[0]
        return ExecutionError(
            f"derived attribute {path.derived.name!r} is not "
            f"single-valued for entity {entity}")
    single = compile_single_valued(path.derived_expr,
                                   path.derived_scope_nodes, slots, width,
                                   conflict)

    def derived(ctx, batch):
        absent = [entity is DUMMY or entity is NULL or entity is None
                  for entity in batch[slot]]
        values = iter(single(ctx, batch.take(
            [index for index, gone in enumerate(absent) if not gone])))
        return [NULL if gone else next(values) for gone in absent]
    return derived


def _compile_isa(test, slots):
    entities = path_column(test.entity, slots)
    class_name = test.class_name

    def isa(ctx, batch):
        has_role = ctx.store.has_role
        return [UNKNOWN if entity is NULL or entity is None
                else has_role(entity, class_name)
                for entity in entities(ctx, batch)]
    return isa


# ----------------------------------------------------------------- operators

def _compile_unary(expression, slots, width):
    if expression.op == "not":
        truth = compile_truth(expression.operand, slots, width)
        return lambda ctx, batch: [UNKNOWN if value is UNKNOWN else not value
                                   for value in truth(ctx, batch)]
    operand = compile_value(expression.operand, slots, width)
    return lambda ctx, batch: [NULL if value is NULL or value is None
                               else -value for value in operand(ctx, batch)]


def _compile_binary(expression, slots, width):
    op = expression.op
    if op in ("and", "or"):
        left = compile_truth(expression.left, slots, width)
        right = compile_truth(expression.right, slots, width)
        connective = _kleene_and if op == "and" else _kleene_or
        return lambda ctx, batch: connective(left(ctx, batch),
                                             right(ctx, batch))
    if isinstance(expression.right, Quantified):
        return _compile_quantified(expression, slots, width)
    left = compile_value(expression.left, slots, width)
    right = compile_value(expression.right, slots, width)
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]

        def arithmetic(ctx, batch):
            return [_arithmetic(apply, a, b)
                    for a, b in zip(left(ctx, batch), right(ctx, batch))]
        return arithmetic
    kernel = _comparison_kernel(op, expression.left, expression.right)
    return lambda ctx, batch: kernel(ctx, left(ctx, batch),
                                     right(ctx, batch))


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

    def function(ctx, batch):
        out = []
        for args in zip(*(column(ctx, batch) for column in columns)):
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

    Returns ``(expand, inner slots, inner width)``.  ``expand(ctx, batch,
    decided=None, stats=None)`` yields scope chunks: :class:`Batch` es
    whose ``owner`` column holds each binding's row in ``batch`` (their
    ``outer``), with one instance column per scope node.  A chunk holds
    at most ``CHUNK_FACTOR * ctx.batch_size`` bindings; a domain larger
    than that is sliced.  Without ``decided`` every binding is expanded,
    each owner's in nested-loop order, contiguous within a chunk.  With
    it — a set the consumer adds an owner's row to once the owner's
    outcome is known — each level expands an undecided row in rounds of
    1, 2, 4, … instances (each round to the end before the next) and
    expands a decided owner no further.  ``stats`` collects per-node
    [rows entered, instances bound].
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
        inner[node.id] = width + len(steps)
        steps.append((node, parent_slot))

    def walk(ctx, part, level, decided, stats):
        # ``part`` holds undecided owners only: each round below builds
        # its chunks from the rows still undecided and walks them at once.
        owner = part.owner
        if level == len(steps):
            yield part
            return
        node, parent_slot = steps[level]
        if parent_slot is None:
            domains = [tuple(ctx.accessor.root_domain(node))] * len(owner)
        else:
            domains = ctx.accessor.node_domains_batch(node,
                                                      part[parent_slot])
        entry = [0, 0] if stats is None else stats.setdefault(node.id,
                                                              [0, 0])
        entry[0] += len(owner)
        limit = ctx.batch_size * CHUNK_FACTOR
        carried = [(slot, part[slot]) for slot in range(width, width + level)]

        def chunk(taken, bound):
            columns = {slot: [column[index] for index in taken]
                       for slot, column in carried}
            columns[width + level] = bound
            # Level 0 expands the batch's own rows: ``taken`` is the owner.
            return Batch(columns, len(bound), [owner[index] for index
                                               in taken] if level else taken,
                         part.outer)

        # One round without ``decided``: every instance of every row.
        rows, pieces = range(len(owner)), domains
        start, step = 0, (None if decided is None else 1)
        while True:
            if step is not None:
                stop = start + step
                rows = [index for index in rows
                        if len(domains[index]) > start
                        and owner[index] not in decided]
                if not rows:
                    return
                pieces = [domains[index][start:stop] for index in rows]
            if sum(map(len, pieces)) <= limit:
                taken = [index for index, piece in zip(rows, pieces)
                         for _ in piece]
                entry[1] += len(taken)
                yield from walk(ctx, chunk(
                    taken, list(chain.from_iterable(pieces))),
                    level + 1, decided, stats)
            else:
                # Chunks of whole pieces, a piece longer than ``limit``
                # cut; an owner decided meanwhile stops.
                taken, bound = [], []
                for index, piece in zip(rows, pieces):
                    for low in range(0, len(piece), limit):
                        cut = piece[low:low + limit]
                        if bound and len(bound) + len(cut) > limit:
                            yield from walk(ctx, chunk(taken, bound),
                                            level + 1, decided, stats)
                            taken, bound = [], []
                        if decided and owner[index] in decided:
                            break
                        taken += [index] * len(cut)
                        bound += cut
                        entry[1] += len(cut)
                if bound:
                    yield from walk(ctx, chunk(taken, bound), level + 1,
                                    decided, stats)
            if step is None:
                return
            start, step = stop, min(step * 2, limit)

    def expand(ctx, batch, decided=None, stats=None):
        return walk(ctx, Batch({}, len(batch), list(range(len(batch))),
                               batch), 0, decided, stats)

    return expand, inner, width + len(steps)


def _compile_groups(argument, scope_nodes, slots, width, skip_nulls):
    """``fn(ctx, batch) -> [values per row]``: the argument evaluated
    over every binding of the scope, in nested-loop order per row.  An
    owner's bindings are contiguous in a chunk, so each row takes its
    run as one slice."""
    expand, inner, inner_width = _compile_scope(scope_nodes, slots, width)
    values = compile_value(argument, inner, inner_width)

    def groups(ctx, batch):
        grouped = [[] for _ in range(len(batch))]
        for chunk in expand(ctx, batch):
            column, owner = values(ctx, chunk), chunk.owner
            if skip_nulls and _has_nulls(column):
                present = [not (value is NULL or value is None
                                or value is UNKNOWN) for value in column]
                column = list(compress(column, present))
                owner = list(compress(owner, present))
            start, size = 0, len(owner)
            while start < size:
                row = owner[start]
                stop = bisect_right(owner, row, start)
                grouped[row] += column[start:stop]
                start = stop
        return grouped
    return groups


_NULLS = frozenset({NULL, None, UNKNOWN})


def _has_nulls(column) -> bool:
    try:
        return not _NULLS.isdisjoint(column)
    except TypeError:       # an unhashable value: a subrole's list
        return True


def _compile_quantified(expression, slots, width):
    """``x <op> some/all/no(inner)`` — fold the comparison over the
    quantified operand's scope (Kleene semantics; empty set: SOME is
    false, ALL and NO are true).  The left operand evaluates once per
    row and is gathered through the chunk's owner column; an owner stops
    expanding at the round that decides its outcome."""
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

    def quantified_comparison(ctx, batch):
        lefts = left(ctx, batch)
        decided, unknown = set(), set()
        for chunk in expand(ctx, batch, decided):
            owner = chunk.owner
            for row, outcome in zip(owner, kernel(
                    ctx, [lefts[row] for row in owner],
                    argument(ctx, chunk))):
                if outcome is decisive:
                    decided.add(row)
                elif outcome is UNKNOWN:
                    unknown.add(row)
        return [verdict if row in decided else UNKNOWN if row in unknown
                else default for row in range(len(batch))]
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


def _avg(values, add=_sum):
    total = add(values)
    count = len(values)
    if isinstance(total, int):
        return total / count if total % count else total // count
    return total / count


#: reducers over the non-null values of a non-empty scope
_AGGREGATES = {"count": len, "sum": _sum, "avg": _avg, "min": min,
               "max": max}
#: the builtin ``sum`` in place of ``_sum``, for a batch whose values
#: are all ``int``
_INT_AGGREGATES = {"sum": sum, "avg": partial(_avg, add=sum)}
_INT = frozenset({int})


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
    reduce, int_reduce = _AGGREGATES[func], _INT_AGGREGATES.get(func)
    empty = 0 if func in ("count", "sum") else NULL
    distinct = aggregate.distinct
    groups = _compile_groups(aggregate.argument, aggregate.scope_nodes,
                             slots, width, True)

    def aggregated(ctx, batch):
        grouped = groups(ctx, batch)
        if distinct:
            grouped = [list(dict.fromkeys(values)) for values in grouped]
        use = reduce
        if int_reduce is not None \
                and {*map(type, chain.from_iterable(grouped))} <= _INT:
            use = int_reduce
        return [use(values) if values else empty for values in grouped]
    return aggregated
