"""Read-path performance counters and trace histograms.

One :class:`PerfCounters` instance lives on each
:class:`~repro.mapper.store.MapperStore` and is shared by every layer of
the read path: the Mapper's decoded-record / role / EVA fan-out caches
(:mod:`repro.mapper.read_cache`), the engine's query-scoped memoization
(:mod:`repro.engine.access`), and the executor's existential-loop
hoisting.  The counters make speedups *attributable*: a benchmark that
claims a cache win can report the hit rate that produced it, and the
optimizer's cost model reads the observed hit rate to discount
cached-access costs (its "learned" §5.1 parameter).

Increments go through :meth:`PerfCounters.bump`, which holds a lock: the
2PL lock manager (:mod:`repro.engine.sessions`) allows statements from
several sessions to interleave, and nothing stops a host program from
driving those sessions from threads — a bare read-modify-write of a
counter attribute would lose updates.  ``snapshot``/``delta`` (taken
under the same lock) support per-query accounting: the executor attaches
a delta to every ``ResultSet``.

:class:`TraceHistograms` aggregates the tracing subsystem's distribution
metrics — latency per Figure-1 layer and rows per query-tree node — in
power-of-two buckets (see :mod:`repro.trace`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Tuple

#: every counter, in reporting order
COUNTER_FIELDS = (
    "record_cache_hits",      # decoded-record cache
    "record_cache_misses",
    "role_cache_hits",        # has_role / surrogate-rid cache
    "role_cache_misses",
    "fanout_cache_hits",      # EVA fan-out cache
    "fanout_cache_misses",
    "memo_hits",              # engine-level query-scoped memoization
    "memo_misses",
    "records_decoded",        # physical records decoded into dicts
    "domain_enumerations",    # node domains actually enumerated
    "index_selections",       # update/VERIFY selections served by an index
    "invalidations",          # cache invalidation events (incl. undo paths)
    "transient_retries",      # transient I/O faults absorbed by retry
    "transient_giveups",      # transient faults that exhausted the policy
    "batches_dispatched",     # operator batches that flowed between operators
    "batch_rows",             # slot rows carried by those batches
    "rewrite_statements",     # statements run through the semantic rewriter
    "rewrite_subclass_prunes",  # subclass-extent prunings offered
    "rewrite_empty_extents",  # provably-empty short-circuits (SIM400)
    "rewrite_eva_flips",      # EVA-inverse direction flips offered
    "rewrite_exists_reorders",  # TYPE 2 sibling reorderings applied
    "rewrite_traversal_factorings",  # shared-domain-key groups assigned
    "materialized_hits",      # traversals served from a materialization
    "materialized_misses",    # probes that found a stale/uncovered mat
    "plan_cache_hits",        # statements run from a cached compiled plan
    "plan_cache_misses",      # statements compiled (and verified) afresh
    "plan_cache_invalidations",  # plan-epoch moves (cache cleared)
    "plan_cache_entries",     # gauge: compiled statement shapes held now
    "snapshot_find_overlays",  # snapshot finds: index probe + changed records
    "snapshot_find_scans",    # snapshot finds that scanned despite an index
)


class PerfCounters:
    """Counters for one store's read path.  Increment via :meth:`bump`;
    all reads and writes of the counter set are lock-protected so
    concurrently driven sessions cannot lose updates."""

    __slots__ = COUNTER_FIELDS + ("_lock",)

    def __init__(self, **initial: int):
        self._lock = threading.Lock()
        for name in COUNTER_FIELDS:
            setattr(self, name, initial.get(name, 0))

    def bump(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to one counter."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    # -- Arithmetic -------------------------------------------------------------

    def snapshot(self) -> "PerfCounters":
        return PerfCounters(**self.as_dict())

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        mine = self.as_dict()
        theirs = earlier.as_dict()
        return PerfCounters(**{
            name: mine[name] - theirs[name] for name in COUNTER_FIELDS})

    def reset(self) -> None:
        with self._lock:
            for name in COUNTER_FIELDS:
                setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in COUNTER_FIELDS}

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
        return f"PerfCounters({inner})"


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

    __slots__ = ("latency", "rows")

    def __init__(self):
        self.latency: Dict[str, PowerOfTwoHistogram] = {}
        self.rows: Dict[str, PowerOfTwoHistogram] = {}

    def observe_latency(self, layer: str, milliseconds: float) -> None:
        histogram = self.latency.get(layer)
        if histogram is None:
            histogram = self.latency[layer] = PowerOfTwoHistogram()
        histogram.observe(milliseconds * 1000.0)   # microsecond buckets

    def observe_rows(self, label: str, rows: int) -> None:
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
