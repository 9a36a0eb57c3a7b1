"""Volcano-style batched operator algebra for the Retrieve path (§4.5).

The paper's nested-loop semantics program::

    for each X1 in domain(X1)
      ...
        for each Xm in domain(Xm)       -- TYPE 1 and TYPE 3, DF order
          such that
            for some Xm+1 ... Xn        -- TYPE 2, existential
              if <selection> then print <target list>

is realized here as a chain of physical operators, each pulling *batches*
of bindings from its child instead of single tuples:

* :class:`Scan` — root enumeration (extent or index access path);
* :class:`EVATraverse` — TYPE 1 inner-join fan-out across an EVA or MV
  DVA, one batched accessor call per input batch;
* :class:`OuterTraverse` — TYPE 3 directed outer join: an empty domain
  yields the all-null dummy instance instead of dropping the row;
* :class:`Filter` — 3VL predicate over a batch;
* :class:`Semi` / :class:`AntiSemi` — TYPE 2 SOME/NO existential
  subtrees as semijoins on the current binding, their scopes expanded
  in rounds of 1, 2, 4, … bindings per row until one decides it;
* :class:`Aggregate`, :class:`Project`, :class:`Sort`,
  :class:`Distinct` — target evaluation and result shaping.

Up to :class:`Project` a batch is a :class:`~repro.engine.expressions.
Batch`: one column per bound slot — a slot per enumeration-spine node
(in planned DF order) plus one per precomputed aggregate — so an
operator binds a slot by adding its column and keeps or fans out rows by
gathering the others.  Every expression an operator evaluates arrives
already compiled (:mod:`repro.engine.expressions`) as a column function
over such a batch.  From :class:`Project` on, a batch is a list of
:class:`OutRow`.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import chain, compress
from typing import List, Optional

from repro.engine.access import DUMMY
from repro.engine.expressions import Batch
from repro.errors import SimError
from repro.plan_cache import instance_copy
from repro.types.dates import SimDate, SimTime
from repro.types.tvl import NULL, UNKNOWN, is_null


MIN_BATCH_SIZE = 1
MAX_BATCH_SIZE = 65536
DEFAULT_BATCH_SIZE = 64


def validate_batch_size(value) -> int:
    """Bounds-checked batch size (the ``Database`` / IQF ``.set`` knob)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimError(f"batch_size must be an integer, got {value!r}")
    if not MIN_BATCH_SIZE <= value <= MAX_BATCH_SIZE:
        raise SimError(f"batch_size must be between {MIN_BATCH_SIZE} and "
                       f"{MAX_BATCH_SIZE}, got {value}")
    return value


class ExecContext:
    """Per-execution state shared by every operator of one physical DAG
    and read by the compiled expressions it runs.  Without a physical
    plan (one-row evaluation of a compiled predicate or assignment
    value) there is no slot layout to carry.  ``params``: the literals
    this execution binds to a cached statement's slots (None: as written)."""

    def __init__(self, executor, physical=None, stats=None, params=None):
        self.executor = executor
        self.accessor = executor.accessor
        self.store = executor.store
        self.stats = stats
        self.params = params
        self.batch_size = executor.batch_size
        self.slots = physical.slots if physical is not None else {}


class OutRow:
    """One projected result row plus its sort/output bookkeeping."""

    __slots__ = ("values", "order_key", "restore_key", "snapshot",
                 "duplicate")

    def __init__(self, values, order_key=None, restore_key=None,
                 snapshot=None):
        self.values = values
        self.order_key = order_key
        self.restore_key = restore_key
        self.snapshot = snapshot
        self.duplicate = False


class Operator:
    """Base batched iterator.  ``run(ctx)`` yields batches; per-operator
    batch/row counters feed EXPLAIN ANALYZE."""

    name = "operator"

    def __init__(self, child: Optional["Operator"] = None):
        self.child = child
        self.node = None
        self.batches = 0
        self.rows_in = 0
        self.rows_out = 0

    def run(self, ctx: ExecContext):
        raise NotImplementedError

    def fresh(self) -> "Operator":
        """A new instance chain of this pipeline: the copies share the
        immutable pieces (nodes, compiled columns) and own their
        counters, so executions of one cached template never count into
        each other."""
        clone = instance_copy(self)
        if self.child is not None:
            clone.child = self.child.fresh()
        clone.batches = clone.rows_in = clone.rows_out = 0
        return clone

    def detail(self, params=None) -> str:
        """What the operator works on (lifted literals as ``params``
        bound them)."""
        return ""

    def describe(self) -> str:
        detail = self.detail()
        return f"{self.name}({detail})" if detail else self.name

    def _emit(self, batch):
        self.batches += 1
        self.rows_out += len(batch)
        return batch

    def chain(self) -> List["Operator"]:
        """The operator pipeline, innermost (leaf) first."""
        ops: List[Operator] = []
        cursor = self
        while cursor is not None:
            ops.append(cursor)
            cursor = cursor.child
        ops.reverse()
        return ops


class Scan(Operator):
    """Root-variable enumeration: class extent or index access path.

    With no child this is the outermost loop.  With a child it re-opens
    per input row — the nested cross product of multi-perspective
    queries — over a domain materialized once per execution.
    """

    name = "Scan"

    def __init__(self, node, plan=None, access=None, child=None,
                 domain=None):
        super().__init__(child)
        self.node = node
        self.plan = plan
        self.access = access
        self.domain_override = domain

    def detail(self, params=None) -> str:
        if self.domain_override is not None:
            return f"{self.node.describe()}, candidates"
        if self.access is not None and self.access.kind != "scan":
            return f"{self.node.describe()}, {self.access.kind}"
        return f"{self.node.describe()}, extent"

    def _open(self, ctx: ExecContext) -> list:
        if self.domain_override is not None:
            return self.domain_override
        if self.plan is not None:
            domain = self.plan.root_domain(self.node, ctx)
            if domain is not None:
                return domain
        return ctx.accessor.root_domain(self.node)

    def run(self, ctx: ExecContext):
        slot = ctx.slots[self.node.id]
        size = ctx.batch_size
        stats = ctx.stats
        if self.child is None:
            domain = self._open(ctx)
            if stats is not None:
                entry = stats.setdefault(self.node.id, [0, 0])
                entry[0] += 1
                entry[1] += len(domain)
            for start in range(0, len(domain), size):
                column = domain[start:start + size]
                yield self._emit(Batch({slot: column}, len(column)))
            return
        domain = None
        for batch in self.child.run(ctx):
            self.rows_in += len(batch)
            if domain is None:
                domain = self._open(ctx)
            fan = len(domain)
            if stats is not None:
                entry = stats.setdefault(self.node.id, [0, 0])
                entry[0] += len(batch)
                entry[1] += len(batch) * fan
            # The cross product, cut into batches as it is built.
            for start in range(0, len(batch) * fan, size):
                product = range(start, min(start + size,
                                           len(batch) * fan))
                out = batch.take([index // fan for index in product])
                out[slot] = [domain[index % fan] for index in product]
                yield self._emit(out)


class EVATraverse(Operator):
    """TYPE 1 inner-join fan-out across an EVA (or MV DVA): the domains
    of a whole batch of parent instances resolve in one accessor call."""

    name = "EVATraverse"
    outer = False

    def __init__(self, node, child):
        super().__init__(child)
        self.node = node

    def detail(self, params=None) -> str:
        return self.node.describe()

    def run(self, ctx: ExecContext):
        node = self.node
        slot = ctx.slots[node.id]
        parent_slot = ctx.slots[node.parent.id]
        size = ctx.batch_size
        stats = ctx.stats
        outer = self.outer
        for batch in self.child.run(ctx):
            self.rows_in += len(batch)
            domains = ctx.accessor.node_domains_batch(node,
                                                      batch[parent_slot])
            if stats is not None:
                entry = stats.setdefault(node.id, [0, 0])
                entry[0] += len(batch)
                entry[1] += sum(map(len, domains))
            if outer:
                # §4.5: "the domain of TYPE 3 variables will never be
                # empty (when empty, adding a dummy instance all of whose
                # attributes are null will achieve this)".
                domains = [domain or _PADDED for domain in domains]
            rows = [row for row, domain in enumerate(domains)
                    for _ in domain]
            instances = list(chain.from_iterable(domains))
            # The fan-out, cut into batches as it is gathered.
            for start in range(0, len(rows), size):
                out = batch.take(rows[start:start + size])
                out[slot] = instances[start:start + size]
                yield self._emit(out)


_PADDED = (DUMMY,)


class OuterTraverse(EVATraverse):
    """TYPE 3 directed outer join (§4.5): target-only branches pad with
    the all-null dummy instance instead of dropping the parent row."""

    name = "OuterTraverse"
    outer = True


class Filter(Operator):
    """3VL predicate over a batch: keeps the rows whose compiled
    selection (``fn(ctx, batch) -> keep flags``) holds."""

    name = "Filter"

    def __init__(self, where, child, predicate):
        super().__init__(child)
        self.where = where
        self.predicate = predicate

    def detail(self, params=None) -> str:
        return self.where.describe(params)

    def run(self, ctx: ExecContext):
        predicate = self.predicate
        for batch in self.child.run(ctx):
            self.rows_in += len(batch)
            kept = list(compress(range(len(batch)), predicate(ctx, batch)))
            if len(kept) == len(batch):
                yield self._emit(batch)
            elif kept:
                yield self._emit(batch.take(kept))


class Semi(Filter):
    """TYPE 2 existential semijoin: a row survives iff some binding of
    the off-spine ``nodes`` satisfies the test (§4.5 "such that for some
    Xm+1 ... Xn").

    Two shapes share the operator: main-scope TYPE 2 subtrees, where the
    whole WHERE clause is evaluated per binding, and a top-level
    ``<left> <op> some(<argument>)`` folded over the quantifier's own
    scope.  Either way the predicate expands the scope in rounds of 1,
    2, 4, … bindings per row and stops at the round with a witness.
    """

    name = "Semi"

    def __init__(self, nodes, where, child, predicate):
        super().__init__(where, child, predicate)
        self.nodes = list(nodes)

    def detail(self, params=None) -> str:
        return ", ".join(node.describe() for node in self.nodes)


class AntiSemi(Semi):
    """NO-quantifier comparison as an anti-semijoin: a row survives iff
    *no* scope binding compares true — and none compares UNKNOWN (3VL:
    ``no`` negates ``some``, so an UNKNOWN witness makes the whole test
    UNKNOWN, which is not true).  An empty scope keeps the row."""

    name = "AntiSemi"


class Aggregate(Operator):
    """Evaluates aggregate target/order expressions once per batch into
    dedicated extra slots, ahead of projection (the §4.6 scope expansion
    happens inside the compiled column)."""

    name = "Aggregate"

    def __init__(self, items, child):
        super().__init__(child)
        self.items = list(items)        # [(Aggregate expr, column, slot)]

    def detail(self, params=None) -> str:
        return ", ".join(expr.describe(params) for expr, _, _ in self.items)

    def run(self, ctx: ExecContext):
        items = self.items
        for batch in self.child.run(ctx):
            self.rows_in += len(batch)
            for _, column, slot in items:
                batch[slot] = column(ctx, batch)
            yield self._emit(batch)


class Project(Operator):
    """Target-list evaluation into :class:`OutRow` batches.

    ``targets`` and ``order`` are compiled columns (aggregate targets
    read their precomputed slot).  Order keys, the §5.1 restore key and
    structured-output snapshots are attached here so the downstream
    operators never look at the columns.
    """

    name = "Project"

    def __init__(self, columns, original_slots, reordered, structured,
                 targets, order, child):
        super().__init__(child)
        self.columns = columns          # result column labels
        self.reordered = reordered
        self.structured = structured
        self.original_slots = original_slots
        self.targets = targets          # [column]
        self.order = order              # [(column, descending)]

    def detail(self, params=None) -> str:
        return ", ".join(self.columns)

    def run(self, ctx: ExecContext):
        for batch in self.child.run(ctx):
            self.rows_in += len(batch)
            out = list(map(OutRow, zip(*[_render(column(ctx, batch))
                                         for column in self.targets])))
            if self.order:
                keys = [[_sort_key(value, descending)
                         for value in _render(column(ctx, batch))]
                        for column, descending in self.order]
                for out_row, key in zip(out, zip(*keys)):
                    out_row.order_key = key
            if self.reordered or self.structured:
                picked = zip(*[batch[slot] for slot in self.original_slots])
                for out_row, instances in zip(out, picked):
                    if self.reordered:
                        out_row.restore_key = tuple(
                            _instance_key(instance)
                            for instance in instances)
                    if self.structured:
                        out_row.snapshot = instances
            yield self._emit(out)


class Sort(Operator):
    """Blocking sort: the §5.1 semantics-preservation (restore) sort when
    the plan reordered the roots, then the user's Order By — both stable,
    in that sequence, exactly as the output contract requires."""

    name = "Sort"

    def __init__(self, restore, order, child):
        super().__init__(child)
        self.restore = restore
        self.order = order

    def detail(self, params=None) -> str:
        parts = []
        if self.restore:
            parts.append("restore perspective order")
        if self.order:
            parts.append("order by")
        return ", ".join(parts)

    def run(self, ctx: ExecContext):
        rows: List[OutRow] = []
        for batch in self.child.run(ctx):
            self.rows_in += len(batch)
            rows.extend(batch)
        if self.restore:
            rows.sort(key=lambda out_row: out_row.restore_key)
        if self.order:
            rows.sort(key=lambda out_row: out_row.order_key)
        size = ctx.batch_size
        for start in range(0, len(rows), size):
            yield self._emit(rows[start:start + size])


class Distinct(Operator):
    """Duplicate elimination on the projected values.  Duplicates are
    *marked*, not dropped: structured output still lists every binding
    (the row list deduplicates, the instance snapshots do not)."""

    name = "Distinct"

    def __init__(self, child):
        super().__init__(child)

    def run(self, ctx: ExecContext):
        seen = set()
        kept_values: List[tuple] = []
        for batch in self.child.run(ctx):
            self.rows_in += len(batch)
            emitted = 0
            for out_row in batch:
                values = out_row.values
                try:
                    if values in seen:
                        out_row.duplicate = True
                        continue
                    seen.add(values)
                except TypeError:
                    if values in kept_values:
                        out_row.duplicate = True
                        continue
                kept_values.append(values)
                emitted += 1
            self.batches += 1
            self.rows_out += emitted
            yield batch


# ------------------------------------------------------------- row rendering

def _render(column):
    """Row values: transitive instances arrive unwrapped; UNKNOWN
    renders as NULL."""
    return [NULL if value is UNKNOWN else value for value in column]


_TYPE_RANK = {bool: 0, int: 1, float: 1, Decimal: 1, str: 2,
              SimDate: 3, SimTime: 4, tuple: 5}


class _Reversed:
    """Wrapper inverting sort order for DESC keys."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


def _instance_key(instance):
    """Total order over loop-node instances for the restore sort."""
    if instance is None:
        return (0, 0)
    if isinstance(instance, tuple):      # transitive (value, level)
        instance = instance[0]
    if isinstance(instance, int):
        return (1, instance)
    return (2, str(instance))


def _sort_key(value, descending: bool):
    """Total order over mixed-type values; NULL/UNKNOWN sorts last in
    both directions (deterministic NULLS LAST, ascending or DESC)."""
    if is_null(value) or value is UNKNOWN:
        return (1, 0)
    rank = _TYPE_RANK.get(type(value), 9)
    if isinstance(value, Decimal):
        value = float(value)
    key = (rank, value)
    return (0, _Reversed(key)) if descending else (0, key)
