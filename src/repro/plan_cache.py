"""The plan cache: compile a statement once per *shape*, run it many times.

Parse → qualify → lint → plan → verify → lower depends on the statement
and the schema, not on the literal in ``Where employee-nbr = 1017``
(paper Figure 1, §5.1).  The key is the text's literal skeleton — its
literal-free segments and literal kinds, one regex pass and no tokens
(:func:`repro.lexer.skeleton`) — plus the knobs that shape a plan; the
value is a :class:`CompiledStatement` every later statement of the
shape *binds* its own literals to.
docs/INTERNALS.md ("Plan cache") gives the rules that keep a hit exact
and why nothing here takes a lock: the tables are dicts touched by
single atomic operations, a fill stores into the tables it looked up in
(a concurrent ``clear`` rebinds them, dropping it), and an entry is
never edited once stored.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.diagnostics import DiagnosticSink
from repro.lexer import span_at

#: entries kept; the oldest are dropped past it
CAPACITY = 512
#: a hit whose root classes (or a learned fan-out) grew or shrank by
#: more than this factor since its plan was costed moves the plan epoch
DRIFT_FACTOR = 2.0


def instance_copy(obj):
    """A shallow copy of a plain instance without the copy protocol's
    ``__reduce_ex__`` round trip: templates are copied per execution."""
    clone = object.__new__(type(obj))
    clone.__dict__ = obj.__dict__.copy()
    return clone


@dataclass
class CompiledStatement:
    """A statement taken through the static pipeline — the plan cache's
    entry, and what :meth:`Database.compile` returns.

    ``diagnostics`` holds what the analyzers reported (error severity
    raises instead); ``tree``, ``plan`` and ``physical`` — the lowered
    operator DAG, a template each execution runs a ``fresh()`` instance
    of — are set for Retrieve only.  A *bound* copy (:meth:`bind`)
    carries one execution's ``params``, that statement's own diagnostics
    and ``cache``: ``hit``, ``pinned``, ``miss`` or ``uncacheable``.
    """

    statement: object
    tree: object = None
    plan: object = None
    diagnostics: List = field(default_factory=list)
    physical: object = None
    #: classes a 2PL session locks (S for a Retrieve, X for an update),
    #: and whether a qualified update may lock single entities instead
    lock_classes: tuple = ()
    entity_lockable: bool = False
    #: ``(class, entity count)`` pairs the plan was costed against
    cardinalities: tuple = ()
    #: the fill's :class:`~repro.dml.ast.Lifted` literals
    lifted: object = None
    #: per diagnostic, where its span sits in the fill's text: ``(slot,
    #: characters before that literal)`` — the text's end past the
    #: last — or None for no span
    anchors: tuple = ()
    params: Optional[list] = None
    cache: str = "uncacheable"

    def bind(self, values, offsets, text,
             cache: str) -> "CompiledStatement":
        """This entry for one execution of a statement of its shape:
        conversions and value-dependent lint run against *this* text's
        literals (``offsets[slot]`` is where one starts), spans point
        into *this* text."""
        bound = instance_copy(self)
        bound.cache = cache
        diagnostics = self.diagnostics
        lifted = self.lifted
        if lifted is not None:
            bound.params = lifted.bind(values)
            if diagnostics and cache != "miss":
                diagnostics = self._rebased(text, offsets)
            if lifted.checks:
                sink = DiagnosticSink()
                for slot, rule in lifted.checks:
                    finding = rule(values[slot])
                    if finding is not None:
                        sink.emit(*finding, span_at(text, offsets[slot]))
                if sink:
                    # Lint's findings sort among themselves; what survives
                    # of the verifiers' verdict is INFO and stays last.
                    sink.extend(diagnostics)
                    diagnostics = sink.sorted()
        bound.diagnostics = list(diagnostics)
        return bound

    def _rebased(self, text, offsets) -> List:
        """The fill's diagnostics moved to another text of its key: the
        segments between literals are the same characters, so a span
        keeps its distance to the next literal."""
        rebased = []
        for diagnostic, anchor in zip(self.diagnostics, self.anchors):
            if anchor is not None:
                slot, before = anchor
                end = offsets[slot] if slot < len(offsets) else len(text)
                diagnostic = dataclasses.replace(
                    diagnostic, span=span_at(text, end - before))
            rebased.append(diagnostic)
        return rebased


def _anchors(diagnostics, text, offsets) -> tuple:
    """:attr:`CompiledStatement.anchors` of ``diagnostics`` reported on
    ``text``, whose literals start at ``offsets``."""
    line_starts = [0]
    line_starts += (at + 1 for at, char in enumerate(text) if char == "\n")
    found = []
    for diagnostic in diagnostics:
        span = diagnostic.span
        if not span or span.line > len(line_starts):
            found.append(None)
            continue
        at = line_starts[span.line - 1] + span.column - 1
        slot = bisect_left(offsets, at)
        end = offsets[slot] if slot < len(offsets) else len(text)
        found.append((slot, end - at))
    return tuple(found)


class PlanCache:
    """One database's bounded statement-shape → plan map."""

    def __init__(self, database):
        self.database = database
        #: bumped by every :meth:`clear`
        self.epoch = 0
        #: (entries: (key, *pinned values) -> entry, oldest first;
        #:  pins: key -> the pinned slots of that shape), rebound as one
        self._tables = ({}, {})

    def __len__(self) -> int:
        return len(self._tables[0])

    def clear(self) -> None:
        """Move the plan epoch: every statement compiles, and is
        verified, afresh."""
        self.epoch += 1
        self._tables = ({}, {})
        perf = self.database.store.perf
        perf.bump("plan_cache_invalidations")
        perf.set_gauge("plan_cache_entries", 0)

    def bind(self, shape, values, offsets, text,
             parse) -> CompiledStatement:
        """The compiled statement for one submitted text, bound to its
        literals — ``parse_dml(text, cache)`` ends here.  ``parse()``
        yields ``(statement, lifted)`` and runs on a miss only; a
        statement that raises while compiling or binding is not stored,
        nor one whose ``lifted`` is None (its tokens and its skeleton
        disagree)."""
        database = self.database
        perf = database.store.perf
        key = (shape, database.use_optimizer, database.rewrite,
               database.executor.batch_size)
        entries, pins = self._tables
        pinned = pins.get(key)
        if pinned is not None:
            entry = entries.get((key, *[values[slot] for slot in pinned]))
            if entry is not None:
                if not self._drifted(entry):
                    perf.bump("plan_cache_hits")
                    return entry.bind(values, offsets, text,
                                      "pinned" if pinned else "hit")
                self.clear()
                entries, pins = self._tables
        perf.bump("plan_cache_misses")
        statement, lifted = parse()
        entry = database._compile_statement(statement)
        if lifted is None:
            return entry.bind(None, None, None, "uncacheable")
        entry.lifted = lifted
        entry.anchors = _anchors(entry.diagnostics, text, offsets)
        bound = entry.bind(values, offsets, text, "miss")
        pins[key] = pinned = tuple(sorted(lifted.pinned))
        entries[(key, *[values[slot] for slot in pinned])] = entry
        # list() and pop() are single atomic operations; iterating the
        # dict itself could meet another thread's store.
        for stale in list(entries)[:-CAPACITY]:
            entries.pop(stale, None)
            pins.pop(stale[0], None)
        perf.set_gauge("plan_cache_entries", len(entries))
        return bound

    def _drifted(self, entry: CompiledStatement) -> bool:
        """Has a class the plan was costed against grown or shrunk past
        :data:`DRIFT_FACTOR`?  Latest O(1) index counts: a staleness
        test needs no snapshot-exact answer."""
        count_of = self.database.store.latest_class_count
        for class_name, then in entry.cardinalities:
            now = count_of(class_name)
            if now > DRIFT_FACTOR * max(then, 1) or now * DRIFT_FACTOR < then:
                return True
        return False
