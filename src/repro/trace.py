"""Hierarchical span/event tracing across the Figure-1 layers.

A query's journey — Query Driver → Parser/Optimizer → Directory Manager →
LUC Mapper → DMSII substrate — is recorded as a tree of :class:`Span`
objects, one tree per statement.  Each span carries wall-clock timing,
free-form attributes, rare discrete *events* (fault retries, WAL forces,
cache invalidations) and cheap aggregated *counts* (records decoded,
cache hits, physical I/O): what the statement counted
(:mod:`repro.perf`) while the span was the innermost one open.  An open
span is a :class:`~repro.perf.Frame` on its thread's stack, so threads
trace side by side and no layer names an event a second time for the
trace's sake.

The recorder is built to cost nothing when tracing is off:

* the layers that record spans, events or counts no totals field has
  hold a ``trace`` attribute that is ``None`` by default, so the
  hot-path guard is a single ``is not None`` test with no allocation;
* when a :class:`TraceRecorder` is attached but ``enabled`` is False,
  every entry point returns before allocating anything.

Three surfaces consume the recording (see ISSUE/PR 4):

* ``Span.render()`` — the EXPLAIN ANALYZE view: the annotated query tree
  with per-node TYPE labels, estimated vs. actual cardinalities and
  per-layer timings (``ResultSet.trace`` / IQF ``.trace``);
* ``TraceRecorder.to_jsonl()`` — one JSON span tree per statement
  (``Database.trace_jsonl()`` / ``python -m repro trace``);
* :class:`~repro.perf.TraceHistograms` — per-layer latency and
  rows-per-node histograms fed as spans close.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.perf import SPAN_NAMES, PerfCounters, TraceHistograms

#: spans deeper than this are recorded but rendered flat (defensive cap)
_RENDER_DEPTH_CAP = 24


class Span:
    """One timed region of one statement's journey through the layers."""

    __slots__ = ("name", "layer", "start", "end", "attrs", "counts",
                 "events", "children", "error")

    def __init__(self, name: str, layer: str, **attrs):
        self.name = name
        self.layer = layer
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = attrs
        self.counts: Dict[str, int] = {}
        self.events: List[Dict[str, object]] = []
        self.children: List["Span"] = []
        self.error: Optional[str] = None

    # -- Introspection -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration_ms(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    def find(self, name: str) -> Optional["Span"]:
        """First descendant span (depth-first) with the given name."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    # -- Serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "layer": self.layer,
            "duration_ms": round(self.duration_ms, 4),
        }
        if self.attrs:
            out["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if self.counts:
            out["counts"] = dict(self.counts)
        if self.events:
            out["events"] = [
                {k: _jsonable(v) for k, v in event.items()}
                for event in self.events]
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    # -- EXPLAIN ANALYZE rendering -------------------------------------------------

    def render(self) -> str:
        """The annotated-tree view of this span (EXPLAIN ANALYZE)."""
        lines: List[str] = []
        self._render_into(lines, 0)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], depth: int) -> None:
        indent = "  " * min(depth, _RENDER_DEPTH_CAP)
        header = f"{indent}{self.name} [{self.layer}]"
        header += f"  {self.duration_ms:.3f} ms"
        decor = []
        for key, value in self.attrs.items():
            if key in ("nodes", "operators"):
                continue
            decor.append(f"{key}={_short(value)}")
        if self.error is not None:
            decor.append(f"error={self.error!r}")
        if decor:
            header += "  " + " ".join(decor)
        lines.append(header)
        for key in sorted(self.counts):
            lines.append(f"{indent}  · {key}: {self.counts[key]}")
        for event in self.events:
            inner = " ".join(f"{k}={_short(v)}" for k, v in event.items()
                             if k != "event")
            lines.append(f"{indent}  ! {event.get('event', '?')} {inner}")
        nodes = self.attrs.get("nodes")
        if isinstance(nodes, list):
            for record in nodes:
                lines.append(indent + "  " + _render_node(record))
        operators = self.attrs.get("operators")
        if isinstance(operators, list):
            for record in operators:
                lines.append(indent + "  " + _render_operator(record))
        for child in self.children:
            child._render_into(lines, depth + 1)

    def __repr__(self):
        state = f"{self.duration_ms:.3f} ms" if self.closed else "open"
        return f"<Span {self.name} [{self.layer}] {state}>"


def _render_node(record: Dict[str, object]) -> str:
    depth = int(record.get("depth", 0))
    est = record.get("est_rows")
    est_text = "est=?" if est is None else f"est={float(est):.1f}"
    return ("{pad}node {describe} [{label}]  {est} actual={actual} "
            "loops={loops}".format(
                pad="  " * depth,
                describe=record.get("describe", "?"),
                label=record.get("label", "?"),
                est=est_text,
                actual=record.get("actual_rows", 0),
                loops=record.get("loops", 0)))


def _render_operator(record: Dict[str, object]) -> str:
    """One line per physical operator (batched Volcano pipeline order)."""
    label = record.get("label")
    label_text = f" [{label}]" if label else ""
    est = record.get("est_rows")
    est_text = "" if est is None else f" est={float(est):.1f}"
    return ("op {op}({detail}){label}  batches={batches} in={rows_in} "
            "out={rows_out}{est}".format(
                op=record.get("op", "?"),
                detail=_short(record.get("detail", "")),
                label=label_text,
                batches=record.get("batches", 0),
                rows_in=record.get("rows_in", 0),
                rows_out=record.get("rows_out", 0),
                est=est_text))


def _short(value, limit: int = 60) -> str:
    text = str(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class TraceRecorder:
    """Collects statement span trees; bounded, with per-layer histograms.

    The recorder keeps at most ``capacity`` completed statement roots
    (oldest dropped).  The open spans are not its own state: each is a
    :class:`~repro.perf.Frame` on the opening thread's stack, so every
    session thread — and every server connection — grows its own tree.
    All entry points short-circuit when ``enabled`` is False, so an
    attached but disabled recorder costs one attribute load and one
    truth test.
    """

    def __init__(self, capacity: int = 256, enabled: bool = True):
        self.enabled = enabled
        self.capacity = capacity
        self.statements: deque = deque(maxlen=capacity)
        self.histograms = TraceHistograms()
        #: the counters whose per-thread frames hold the open spans: the
        #: recorder's own until attach_tracing points it at a store's
        self.perf = PerfCounters()

    # -- Statement lifecycle -----------------------------------------------------

    def begin_statement(self, text: str) -> Optional[Span]:
        """Open a statement root span.  A statement this thread still
        has open is force-closed first (a defensive guarantee: no span
        leaks across statements, however the previous one ended)."""
        if not self.enabled:
            return None
        if self.current() is not None:
            self.end_statement(error="superseded by next statement")
        root = Span("statement", "driver", text=text)
        self.perf.open(root)
        return root

    def end_statement(self, error: Optional[str] = None) -> Optional[Span]:
        """Close this thread's statement root (and, defensively, every
        frame still open under it, inner-out so durations stay nested),
        record it, feed the histograms."""
        perf = self.perf
        frame = perf.frame()
        if frame is None or frame.span is None:
            return None
        now = time.perf_counter()
        while True:
            span, outer = frame.span, frame.parent
            if frame.owns_span:
                if error is not None and span.error is None:
                    span.error = error
                self._finish(span, frame, now)
            perf.close(frame)
            if outer is None or outer.span is None:
                break
            frame = outer
        self.statements.append(span)
        return span

    def _finish(self, span: Span, frame, now: float) -> None:
        """Stamp a closing span: its end, its layer's latency, and what
        its frame counted while it was the innermost open span.  Counts
        with no totals field (``trace.count``) leave the frame here."""
        span.end = now
        self.histograms.observe_latency(span.layer,
                                        (now - span.start) * 1000.0)
        counts = frame._counts
        for name in list(counts):
            shown = SPAN_NAMES.get(name)
            amount = counts[name] if shown else counts.pop(name)
            span.counts[shown or name] = \
                span.counts.get(shown or name, 0) + amount

    # -- Spans and events ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Open a child span under the current one.  With no statement
        open, an implicit root is created (and closed with the span) so
        direct engine use — sessions, update internals — still nests."""
        if not self.enabled:
            yield None
            return
        parent = self.current()
        implicit_root = parent is None
        if implicit_root:
            parent = self.begin_statement(f"<{name}>")
        span = Span(name, layer, **attrs)
        parent.children.append(span)
        perf = self.perf
        frame = perf.open(span)
        try:
            yield span
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if perf.frame() is frame:
                self._finish(span, frame, time.perf_counter())
                perf.close(frame)
            if implicit_root:
                self.end_statement(error=span.error)

    def event(self, name: str, **attrs) -> None:
        """A discrete occurrence on the current span (fault retry, WAL
        force, invalidation).  Dropped when no span is open."""
        span = self.current() if self.enabled else None
        if span is not None:
            span.events.append({"event": name, **attrs})

    def count(self, name: str, amount: int = 1) -> None:
        """Count an event that has no totals field — the per-unit names
        ``mapper.decoded[<class>]`` and ``storage.mutated[<unit>]`` —
        on the current span.  Dropped when no span is open."""
        frame = self.perf.frame() if self.enabled else None
        if frame is not None and frame.span is not None:
            counts = frame._counts
            counts[name] = counts.get(name, 0) + amount

    # -- Introspection -----------------------------------------------------------

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span."""
        frame = self.perf.frame()
        return frame.span if frame is not None else None

    def open_spans(self) -> int:
        """Spans the calling thread still has open — 0 between
        statements, always."""
        frame, spans = self.perf.frame(), 0
        while frame is not None:
            spans += frame.owns_span
            frame = frame.parent
        return spans

    def last(self) -> Optional[Span]:
        return self.statements[-1] if self.statements else None

    def clear(self) -> None:
        self.statements.clear()
        self.histograms.reset()

    # -- Export --------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per recorded statement, newline-delimited."""
        return "\n".join(
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self.statements)

    def __repr__(self):
        state = "on" if self.enabled else "off"
        return (f"<TraceRecorder {state} statements={len(self.statements)} "
                f"open={self.open_spans()}>")


def attach_tracing(store, recorder: Optional[TraceRecorder] = None,
                   capacity: int = 256) -> TraceRecorder:
    """Wire a recorder into every layer of one Mapper store: the store
    itself (decodes per class), its read cache, buffer pool (mutations
    per unit) and retry policy (fault events).  Idempotent per store."""
    if recorder is None:
        recorder = TraceRecorder(capacity=capacity)
    recorder.perf = store.perf
    store.trace = recorder
    store.read_cache.trace = recorder
    store.pool.trace = recorder
    store.retry.trace = recorder
    return recorder


def detach_tracing(store) -> None:
    """Remove the recorder from every layer (back to zero overhead)."""
    store.trace = None
    store.read_cache.trace = None
    store.pool.trace = None
    store.retry.trace = None
