"""Event counters and trace histograms.

One :class:`PerfCounters` instance lives on each
:class:`~repro.mapper.store.MapperStore` and is the one counter table of
every layer, from the buffer pool's block I/O (the §5.1 cost unit), the
WAL, transactions and locks up to the Mapper's caches
(:mod:`repro.mapper.read_cache`) and the engine's memoization
(:mod:`repro.engine.access`); ``db.io_stats``, ``statistics()``,
``ResultSet.perf`` and a span's ``counts`` all read it.  The counters
make speedups *attributable*: a benchmark that claims a cache win can
report the hit rate that produced it, and the optimizer's cost model
reads the observed hit rate to discount cached-access costs (its
"learned" §5.1 parameter).

The statement is the unit of accounting.  Every layer counts an event
with one call, :meth:`PerfCounters.bump`, and the call decides whom the
event is charged to: the innermost :class:`Frame` open on the calling
thread — a statement, a Retrieve's run inside it, a trace span —
which takes no lock, because no other thread counts into it.  A
closing frame hands what it counted up to the frame that encloses it;
the outermost one folds into the store's totals, in one lock
acquisition per statement, and that is when a statement's events
become visible in ``db.perf``.  A count is kept once, where it arises,
and inherited upward: ``ResultSet.perf`` *is* the run's closed frame,
and a trace span's ``counts`` are what was counted while it was the
innermost open span.  With no frame open (a direct Mapper call, a
commit) ``bump`` adds to the totals under the lock: the 2PL lock
manager (:mod:`repro.engine.sessions`) lets statements from several
sessions interleave, and a bare read-modify-write of a shared counter
would lose updates.

:class:`TraceHistograms` aggregates the tracing subsystem's distribution
metrics — latency per Figure-1 layer and rows per query-tree node — in
power-of-two buckets (see :mod:`repro.trace`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

#: every counter in reporting order, with the layer it arises in
_COUNTERS = (
    ("mapper", "record_cache_hits"),      # decoded-record cache
    ("mapper", "record_cache_misses"),
    ("mapper", "role_cache_hits"),        # has_role / surrogate-rid cache
    ("mapper", "role_cache_misses"),
    ("mapper", "fanout_cache_hits"),      # EVA fan-out cache
    ("mapper", "fanout_cache_misses"),
    ("engine", "memo_hits"),              # query-scoped memoization
    ("engine", "memo_misses"),
    ("mapper", "records_decoded"),        # records decoded into dicts
    ("engine", "domain_enumerations"),    # MV-DVA / transitive domains built
    ("engine", "index_selections"),       # selections served by an index
    ("mapper", "invalidations"),          # cache invalidations (incl. undo)
    ("storage", "transient_retries"),     # I/O faults absorbed by retry
    ("storage", "transient_giveups"),     # faults that exhausted the policy
    ("engine", "batches_dispatched"),     # batches passed between operators
    ("engine", "batch_rows"),             # rows carried by those batches
    ("optimizer", "rewrite_statements"),  # statements through the rewriter
    ("optimizer", "rewrite_subclass_prunes"),  # subclass-extent prunings
    ("optimizer", "rewrite_empty_extents"),  # provably empty (SIM400)
    ("optimizer", "rewrite_eva_flips"),   # EVA-inverse direction flips offered
    ("optimizer", "rewrite_exists_reorders"),  # TYPE 2 sibling reorderings
    ("optimizer", "rewrite_traversal_factorings"),  # shared-domain-key groups
    ("mapper", "materialized_hits"),      # traversals a materialization served
    ("mapper", "materialized_misses"),    # probes that found it stale/uncovered
    ("driver", "plan_cache_hits"),        # statements run from a cached plan
    ("driver", "plan_cache_misses"),      # statements compiled afresh
    ("driver", "plan_cache_invalidations"),  # plan-epoch moves (cache cleared)
    ("driver", "plan_cache_entries"),     # gauge: statement shapes held now
    ("mapper", "snapshot_find_overlays"),  # index probe + changed records
    ("mapper", "snapshot_find_scans"),    # scanned despite an index
    ("mapper", "snapshots_opened"),       # MVCC read views pinned
    ("storage", "logical_reads"),         # buffer-pool block requests
    ("storage", "physical_reads"),        # of those, read off the disk
    ("storage", "physical_writes"),       # data blocks written back
    ("storage", "wal_records"),           # log records appended
    ("storage", "wal_forces"),            # non-empty log forces
    ("storage", "wal_records_forced"),    # log records those made durable
    ("storage", "wal_checkpoints"),       # log compactions, recovery's too
    ("storage", "record_mutations"),      # slot writes (WAL-logged)
    ("storage", "commits"),
    ("storage", "aborts"),
    ("engine", "lock_waits"),             # lock requests that had to wait
    ("engine", "lock_timeouts"),
    ("engine", "deadlocks"),              # cycles found (one victim each)
    ("engine", "deadlock_retries"),       # victim statements replayed
    ("engine", "constraint_checks_run"),  # VERIFY evaluations per entity
    ("engine", "constraint_checks_skipped"),  # constraints not triggered
)
COUNTER_FIELDS = tuple(name for _, name in _COUNTERS)
#: the block-I/O rows: ``statistics()["io"]`` and IQF ``.io``
IO_FIELDS = ("logical_reads", "physical_reads", "physical_writes")
#: set, never counted: a reset keeps them and no frame ever holds one
GAUGE_FIELDS = ("plan_cache_entries",)
#: the name a trace span shows a counter under: ``<layer>.<counter>``
SPAN_NAMES = {name: f"{layer}.{name}" for layer, name in _COUNTERS}


def _add(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for name, amount in counts.items():
        into[name] = into.get(name, 0) + amount


class Tally:
    """Event counts by :data:`COUNTER_FIELDS` name (a field never
    counted reads 0): the read side of what one statement counted
    (``ResultSet.perf``) and of a store's totals."""

    __slots__ = ("_counts",)

    def __init__(self, **initial: int):
        self._counts: Dict[str, int] = initial

    def __getattr__(self, name: str) -> int:
        if name in SPAN_NAMES:
            return self._counts.get(name, 0)
        raise AttributeError(name)

    def as_dict(self) -> Dict[str, int]:
        counts = self._counts
        return {name: counts.get(name, 0) for name in COUNTER_FIELDS}

    # -- Derived rates ----------------------------------------------------------

    def read_hit_rate(self) -> float:
        """Fraction of Mapper-level cached reads (records + fan-out)
        served from cache; 0.0 before any lookups."""
        counts = self.as_dict()
        hits = counts["record_cache_hits"] + counts["fanout_cache_hits"]
        total = (hits + counts["record_cache_misses"]
                 + counts["fanout_cache_misses"])
        return hits / total if total else 0.0

    def overall_hit_rate(self) -> float:
        """Hit rate across every cache layer, memoization included."""
        counts = self.as_dict()
        hits = (counts["record_cache_hits"] + counts["role_cache_hits"]
                + counts["fanout_cache_hits"] + counts["memo_hits"])
        total = hits + (counts["record_cache_misses"]
                        + counts["role_cache_misses"]
                        + counts["fanout_cache_misses"]
                        + counts["memo_misses"])
        return hits / total if total else 0.0

    def describe(self) -> str:
        counts = self.as_dict()
        lines = [f"  {name}: {counts[name]}" for name in COUNTER_FIELDS]
        lines.append(f"  read_hit_rate: {self.read_hit_rate():.3f}")
        lines.append(f"  overall_hit_rate: {self.overall_hit_rate():.3f}")
        return "\n".join(lines)

    def __repr__(self):
        counts = self.as_dict()
        inner = ", ".join(f"{name}={counts[name]}"
                          for name in COUNTER_FIELDS if counts[name])
        return f"{type(self).__name__}({inner})"


class Frame(Tally):
    """One open accounting scope on one thread.  ``_counts`` holds what
    was counted while this frame was the innermost one *of its span*,
    ``inherited`` what the spans closed beneath it handed up — kept
    apart so a span's counts stay its own.  Once closed, ``_counts`` is
    the frame's whole total.  A frame opened without a span works under
    its parent's (``span``: where events go and child spans attach)."""

    __slots__ = ("inherited", "parent", "span", "owns_span")

    def __init__(self, parent: Optional["Frame"] = None, span=None):
        self._counts = {}
        self.inherited: Dict[str, int] = {}
        self.parent = parent
        self.owns_span = span is not None
        self.span = span if span is not None or parent is None \
            else parent.span


class _Innermost(threading.local):
    """Per thread: the innermost open frame, None outside a statement."""
    frame: Optional[Frame] = None


class PerfCounters(Tally):
    """One store's totals, and the per-thread frames that feed them.
    Count via :meth:`bump`; totals are read and written under the lock,
    so concurrently driven sessions cannot lose updates."""

    __slots__ = ("_lock", "_thread")

    def __init__(self, **initial: int):
        super().__init__(**initial)
        self._lock = threading.Lock()
        self._thread = _Innermost()

    def bump(self, name: str, amount: int = 1) -> None:
        """Count ``amount`` events: into the calling thread's innermost
        frame (no lock), or with none open into the totals."""
        frame = self._thread.frame
        if frame is not None:
            counts = frame._counts
            counts[name] = counts.get(name, 0) + amount
        else:
            with self._lock:
                counts = self._counts
                counts[name] = counts.get(name, 0) + amount

    def set_gauge(self, name: str, value: int) -> None:
        with self._lock:
            self._counts[name] = value

    # -- Frames -----------------------------------------------------------------

    def frame(self) -> Optional[Frame]:
        """The calling thread's innermost open frame."""
        return self._thread.frame

    def open(self, span=None) -> Frame:
        """Open a frame inside the calling thread's innermost one."""
        thread = self._thread
        frame = thread.frame = Frame(thread.frame, span)
        return frame

    def close(self, frame: Frame) -> None:
        """Close the calling thread's innermost frame and hand its
        counts up: a span's to its parent's ``inherited``, a plain
        frame's to the counts of the span it worked under, the outermost
        frame's to the totals, the statement's one lock acquisition."""
        counts, inherited = frame._counts, frame.inherited
        parent = self._thread.frame = frame.parent
        if parent is None:
            with self._lock:
                _add(self._counts, counts)
                _add(self._counts, inherited)
        else:
            _add(parent.inherited if frame.owns_span else parent._counts,
                 counts)
            _add(parent.inherited, inherited)
        _add(counts, inherited)     # closed: _counts is the whole total

    def reset(self) -> None:
        with self._lock:
            counts = self._counts
            kept = {name: counts[name] for name in GAUGE_FIELDS
                    if name in counts}
            counts.clear()
            counts.update(kept)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return super().as_dict()


class PowerOfTwoHistogram:
    """A sparse histogram over non-negative values with power-of-two
    bucket boundaries: bucket ``i`` holds values in ``[2**(i-1), 2**i)``
    (bucket 0 holds values < 1)."""

    __slots__ = ("buckets", "count", "total")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        bucket = int(value).bit_length() if value >= 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def items(self) -> Iterable[Tuple[int, int]]:
        return sorted(self.buckets.items())

    def as_dict(self) -> Dict[str, object]:
        return {"count": self.count,
                "mean": round(self.mean, 4),
                "buckets": {str(2 ** b if b else 0): n
                            for b, n in self.items()}}

    def __repr__(self):
        return f"<PowerOfTwoHistogram n={self.count} mean={self.mean:.2f}>"


class TraceHistograms:
    """Distribution metrics the tracing subsystem aggregates:

    * ``latency`` — per-layer span latency in microseconds, keyed by the
      Figure-1 layer name (``parser``, ``qualifier``, ``optimizer``,
      ``executor``, ``engine``, ``driver``...);
    * ``rows`` — rows produced per query-tree node, keyed by the node's
      §4.5 TYPE label.
    """

    __slots__ = ("latency", "rows", "_lock")

    def __init__(self):
        self.latency: Dict[str, PowerOfTwoHistogram] = {}
        self.rows: Dict[str, PowerOfTwoHistogram] = {}
        # Spans close on every session's thread.
        self._lock = threading.Lock()

    def observe_latency(self, layer: str, milliseconds: float) -> None:
        with self._lock:
            histogram = self.latency.get(layer)
            if histogram is None:
                histogram = self.latency[layer] = PowerOfTwoHistogram()
            histogram.observe(milliseconds * 1000.0)   # microsecond buckets

    def observe_rows(self, label: str, rows: int) -> None:
        with self._lock:
            histogram = self.rows.get(label)
            if histogram is None:
                histogram = self.rows[label] = PowerOfTwoHistogram()
            histogram.observe(rows)

    def reset(self) -> None:
        self.latency.clear()
        self.rows.clear()

    def as_dict(self) -> Dict[str, object]:
        return {
            "latency_us": {layer: h.as_dict()
                           for layer, h in sorted(self.latency.items())},
            "rows_per_node": {label: h.as_dict()
                              for label, h in sorted(self.rows.items())},
        }

    def describe(self) -> str:
        lines = ["  latency per layer (µs):"]
        for layer, histogram in sorted(self.latency.items()):
            lines.append(f"    {layer:<12} n={histogram.count:<6} "
                         f"mean={histogram.mean:.1f}")
        lines.append("  rows per node:")
        for label, histogram in sorted(self.rows.items()):
            lines.append(f"    {label:<12} n={histogram.count:<6} "
                         f"mean={histogram.mean:.1f}")
        return "\n".join(lines)
