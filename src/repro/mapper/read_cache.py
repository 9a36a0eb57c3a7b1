"""Read-path caches above the physical mapping.

The paper's nested-loop semantics program (§4.5) re-reads every DVA and
re-traverses every EVA once per enumerated tuple, and §5.1 concedes that
statistical optimization "is not fully implemented yet" — so the read
path dominates every workload.  This module keeps LRU caches of the
*decoded* conceptual-level reads, keyed by surrogate, one level above the
block substrate:

* ``records`` — decoded role records, ``(class, surrogate) -> (rid,
  record)``; a hit skips the role probe *and* the buffer-pool probe.
  ``record`` is the slot's own immutable tuple, shared, not a copy.
* ``roles`` — role membership, ``(class, surrogate) -> rid or None``
  (``None`` is a cached negative: the entity does not hold the role).
* ``fanout`` — EVA traversal results, ``(rel_id, side, surrogate) ->
  targets tuple``, covering every physical mapping uniformly.

Correctness rests on strict invalidation: every Mapper mutation drops the
affected entries, and so does every transaction-undo closure — abort must
invalidate, not just commit.  Each invalidation bumps ``epoch`` inside
the critical section that drops the entries, and every fill is
*validated*: the reader captures ``epoch`` before its physical read and
``put_*`` discards the entry when the epoch has moved since.  Together
they keep one invariant — the cache only ever holds what a physical read
would return right now — without knowing which locks the reader holds.
The engine's query-scoped memoization validates against the same epoch,
so one integer compare decides whether memoized values are still current.

A lookup takes no lock (one ``get``) and counts without one (inside a
statement ``perf.bump`` adds to the calling thread's own frame).  A hit
only marks its key referenced — one byte stored into the LRU's fixed
mark array, at the key's hash slot — and the eviction a fill makes under
the lock gives a marked oldest entry a second chance (unmarked and
re-queued) and evicts the first unmarked one, so readers never wait
here.  Fills, evictions and invalidations hold the lock, as the
invariant needs; an invalidation or ``clear`` drops a mark with its
entry.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Dict

from repro.storage.latch import ranked_lock

#: sentinel distinguishing "not cached" from a cached ``None`` rid
MISSING = object()


class _LRU(OrderedDict):
    """One of the cache's three keyed LRUs: the entries, their bound,
    the counters a lookup counts and the marks of the keys hit since
    they last came round the eviction order."""

    def __init__(self, capacity: int, hits: str, misses: str):
        super().__init__()
        self.capacity = capacity
        self.hits = hits
        self.misses = misses
        #: ``marks[hash(key) & mask]`` is set by a hit, without the lock.
        #: Fixed, eight slots an entry: keys that share a slot share a
        #: mark, which costs an eviction precision, never correctness.
        self.marks = bytearray(1 << (8 * capacity - 1).bit_length())
        self.mask = len(self.marks) - 1

    def pop(self, key, default=None):
        self.marks[hash(key) & self.mask] = 0
        return super().pop(key, default)

    def clear(self) -> None:
        self.marks[:] = bytes(len(self.marks))
        super().clear()

    def evict(self) -> None:
        """Make room: drop the oldest entry not hit since it last came
        round; each marked one passed over loses its mark and goes to
        the back.  Caller holds the cache's lock."""
        marks, mask = self.marks, self.mask
        for _ in range(len(self)):
            key, entry = self.popitem(last=False)
            slot = hash(key) & mask
            if not marks[slot]:
                return
            marks[slot] = 0
            self[key] = entry
        self.popitem(last=False)    # a full round unmarked them all


class ReadCache:
    """Decoded-record, role-membership and EVA fan-out caches."""

    def __init__(self, perf, record_capacity: int = 4096,
                 role_capacity: int = 16384,
                 fanout_capacity: int = 8192):
        self.perf = perf
        self.enabled = True
        #: optional trace recorder (repro.trace.attach_tracing): events
        self.trace = None
        #: bumped on every invalidation; validates engine-level memos
        self.epoch = 0
        #: ``(class, surrogate) -> (rid, record)``
        self._records = _LRU(record_capacity, "record_cache_hits",
                             "record_cache_misses")
        #: ``(class, surrogate) -> rid or None`` (a cached negative)
        self._roles = _LRU(role_capacity, "role_cache_hits",
                           "role_cache_misses")
        #: ``(rel_id, side, surrogate) -> targets tuple``
        self._fanout = _LRU(fanout_capacity, "fanout_cache_hits",
                            "fanout_cache_misses")
        # One lock over every change to the LRUs (a popitem racing
        # another corrupts the linked order); a hit takes none, so
        # readers never meet on it (docs/INTERNALS.md §11).  Re-entrant
        # because invalidation paths may nest through clear().
        # Rank 20 in the declared hierarchy (analysis/lock_order.py).
        self._lock = ranked_lock("mapper.read_cache")

    record_capacity = property(lambda self: self._records.capacity)
    role_capacity = property(lambda self: self._roles.capacity)
    fanout_capacity = property(lambda self: self._fanout.capacity)

    # ------------------------------------------------- the one keyed LRU, thrice

    def _lookup_many(self, lru: _LRU, prefix: tuple, surrogates):
        """Batched lookup of the keys ``prefix + (surrogate,)``:
        ``(found, missing)`` where ``found`` maps surrogate -> entry and
        ``missing`` lists the rest in input order.  Counter totals match
        per-surrogate lookups exactly, aggregated into two bumps."""
        found: Dict[int, object] = {}
        if not self.enabled:
            return found, list(surrogates)
        missing = []
        marks, mask = lru.marks, lru.mask
        for surrogate in surrogates:
            key = prefix + (surrogate,)
            entry = lru.get(key, MISSING)
            if entry is MISSING:
                missing.append(surrogate)
            else:
                found[surrogate] = entry
                marks[hash(key) & mask] = 1
        if found:
            self.perf.bump(lru.hits, len(found))
        if missing:
            self.perf.bump(lru.misses, len(missing))
        return found, missing

    def _fill(self, lru: _LRU, prefix: tuple, entries: Dict[int, object],
              epoch: int) -> None:
        """Cache what was read since ``epoch`` was captured —
        ``entries`` maps surrogate -> entry, cached under ``prefix +
        (surrogate,)`` in its order — under one lock and one epoch
        check; dropped when anything was invalidated in between."""
        if not self.enabled or not entries:
            return
        with self._lock:
            if epoch != self.epoch:
                return
            capacity = lru.capacity
            for surrogate, entry in entries.items():
                key = prefix + (surrogate,)
                if len(lru) >= capacity and key not in lru:
                    lru.evict()
                lru[key] = entry

    def get_record_batch(self, class_name: str, surrogates):
        """Cached ``surrogate -> (rid, record)`` and the misses.
        ``record`` is the slot's tuple — immutable, so sharing it needs
        no copy; every write path replaces the slot and invalidates the
        entry."""
        return self._lookup_many(self._records, (class_name,), surrogates)

    def put_record_batch(self, class_name: str, entries: Dict[int, tuple],
                         epoch: int) -> None:
        """Cache ``surrogate -> (rid, record)`` for a batch."""
        self._fill(self._records, (class_name,), entries, epoch)

    def get_role_batch(self, class_name: str, surrogates):
        """Cached ``surrogate -> rid`` (``None`` = cached negative) and
        the misses."""
        return self._lookup_many(self._roles, (class_name,), surrogates)

    def put_role_batch(self, class_name: str, rids: Dict[int, object],
                       epoch: int) -> None:
        """Cache ``surrogate -> rid or None`` for a batch."""
        self._fill(self._roles, (class_name,), rids, epoch)

    def get_fanout_batch(self, rel_id: int, side: bool, surrogates):
        """Cached ``surrogate -> targets tuple`` (an empty result caches
        as ``()``) and the misses."""
        return self._lookup_many(self._fanout, (rel_id, side), surrogates)

    def put_fanout_batch(self, rel_id: int, side: bool,
                         targets: Dict[int, tuple], epoch: int) -> None:
        """Cache ``surrogate -> targets tuple`` for a batch."""
        self._fill(self._fanout, (rel_id, side), targets, epoch)

    # ------------------------------------------------------------- invalidation

    # Every invalidation bumps the epoch in the same critical section
    # that drops the entries: a fill that read before the drop can then
    # never land after it (put_* compares epochs under the same lock).

    def note_write(self) -> None:
        """Record a mutation that has no cached representation here (e.g.
        a separate-unit MV DVA write) so engine memos still expire."""
        with self._lock:
            self.epoch += 1
        self.perf.bump("invalidations")

    def invalidate_record(self, class_name: str, surrogate: int) -> None:
        with self._lock:
            self._records.pop((class_name, surrogate), None)
            self.epoch += 1
        self.perf.bump("invalidations")

    def invalidate_role(self, class_name: str, surrogate: int) -> None:
        """A role appeared or disappeared: drop membership and record."""
        with self._lock:
            self._roles.pop((class_name, surrogate), None)
            self._records.pop((class_name, surrogate), None)
            self.epoch += 1
        self.perf.bump("invalidations")

    def invalidate_eva(self, rel_id: int, *surrogates: int) -> None:
        """A relationship instance changed: drop both traversal directions
        for every involved endpoint (covers self-inverse EVAs)."""
        with self._lock:
            for surrogate in surrogates:
                self._fanout.pop((rel_id, True, surrogate), None)
                self._fanout.pop((rel_id, False, surrogate), None)
            self.epoch += 1
        self.perf.bump("invalidations")

    def clear(self) -> None:
        """Drop everything (cold-cache benchmarks, crash recovery, and
        the transaction manager's rollback hook)."""
        with self._lock:
            self._records.clear()
            self._roles.clear()
            self._fanout.clear()
            self.epoch += 1
        self.perf.bump("invalidations")
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.event("cache_clear", epoch=self.epoch)

    @contextlib.contextmanager
    def disabled(self):
        """Bypass the caches for the duration of the block.

        The consistency checker runs under this: its verdicts must come
        from the physical state, never from cached decodes that could
        mask (or themselves be) the corruption, and its sweep must not
        pollute the caches with its own traffic.  Entries present before
        the block are dropped — a checker is usually run when cached
        state is exactly what's in doubt."""
        self.clear()
        with self._lock:
            previous = self.enabled
            self.enabled = False
        try:
            yield self
        finally:
            with self._lock:
                self.enabled = previous

    # ------------------------------------------------------------------- stats

    @property
    def sizes(self) -> Dict[str, int]:
        return {"records": len(self._records),
                "roles": len(self._roles),
                "fanout": len(self._fanout)}

    def __repr__(self):
        sizes = self.sizes
        return (f"<ReadCache records={sizes['records']} "
                f"roles={sizes['roles']} fanout={sizes['fanout']} "
                f"epoch={self.epoch}>")
