"""The declared lock-rank hierarchy and lint site tables.

This is the single source of truth for lock discipline across the
engine, shared by two consumers:

* the **static layer** (:mod:`repro.analysis.concurrency`) reads the
  tables below to flag SIM3xx violations lexically, and
* the **dynamic layer** (:mod:`repro.engine.lockdep`) reads
  :data:`LOCK_RANKS` at runtime to validate actual acquisition order.

The hierarchy (low rank = innermost / leaf, high rank = outermost)::

    storage.wal           ( 6)   WriteAheadLog._mutex
      < storage.buffer    (10)   BufferPool._lock
      < mapper.read_cache (20)   ReadCache._lock
      < mapper.materialized (22)  MaterializationManager._lock
      < mapper.versions   (30)   VersionManager._mutex
      < store.commit_latch (36)  MapperStore.commit_latch
      < store.surrogates  (38)   MapperStore._surrogate_mutex
      < store.unit_latch  (42)   RecordFile.latch (one per storage unit)
      < sessions.class_locks (50)  LockManager._mutex/_cond
      < storage.transactions (60)  TransactionManager._mutex
      < server.connections (70)  SimServer._conn_lock/_drained
      < server.gate        (75)  _AdmissionGate._mutex
      < server.client      (80)  SimClient._lock

The rule enforced at runtime is **descending acquisition**: a thread
holding a ranked lock may only acquire locks of *strictly lower* rank
(re-entrant re-acquisition of the same lock object is exempt).  Notes
that keep the runtime edge set acyclic:

* ``Session._execute_locked`` finishes all class/entity-lock traffic
  (rank 50, condition released between grants) *before* any store
  mutation acquires a unit latch (rank 42), so 50 is never held across
  42's acquisition;
* unit latches are **leaf-per-operation**: a store mutator latches the
  single storage unit it writes and releases before the next mutator
  runs, so two unit latches (same rank 42) are never nested — equal
  rank would trip lockdep, which is exactly the guard we want;
* the commit latch (36) is only taken by ``Session.commit`` with no
  unit latch held; inside it the commit path reaches versions (30),
  the pool (10) and the WAL (6) — all strictly descending;
* ``TransactionManager`` only takes its mutex (rank 60) with an empty
  stack, in ``begin_detached`` — the one way a transaction opens, a
  ``Database`` statement's included; commit bodies are serialized
  by ``store.commit_latch`` and abort/undo replay by the session's
  exclusive locks plus per-unit latches.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# -- The declared hierarchy ----------------------------------------------------

#: lock-class name -> rank.  A thread holding rank R may only acquire
#: locks of rank strictly below R (descending acquisition).
LOCK_RANKS: Dict[str, int] = {
    "storage.wal": 6,
    "storage.buffer": 10,
    "mapper.read_cache": 20,
    "mapper.materialized": 22,
    "mapper.versions": 30,
    "store.commit_latch": 36,
    "store.surrogates": 38,
    "store.unit_latch": 42,
    "sessions.class_locks": 50,
    "storage.transactions": 60,
    "server.connections": 70,
    "server.gate": 75,
    "server.client": 80,
}


# -- Static-lint site tables ---------------------------------------------------

#: module basename -> {attribute expression suffix -> lock-class name}.
#: The static linter resolves ``with self._lock:`` in buffer.py to the
#: ``storage.buffer`` rank via this table; attribute expressions are
#: matched on their dotted suffix (``self._lock``, ``store.commit_latch``).
LOCK_SITES: Dict[str, Dict[str, str]] = {
    "wal.py": {"self._mutex": "storage.wal"},
    "buffer.py": {"self._lock": "storage.buffer"},
    "read_cache.py": {"self._lock": "mapper.read_cache"},
    "materialized.py": {"self._lock": "mapper.materialized"},
    "versions.py": {"self._mutex": "mapper.versions"},
    "store.py": {"self.commit_latch": "store.commit_latch",
                 "self._surrogate_mutex": "store.surrogates"},
    "sessions.py": {"self._mutex": "sessions.class_locks",
                    "self._cond": "sessions.class_locks"},
    "transactions.py": {"self._mutex": "storage.transactions"},
    "server.py": {"self._conn_lock": "server.connections",
                  "self._drained": "server.connections",
                  "self._mutex": "server.gate",
                  "self._lock": "server.client"},
}

#: attribute suffixes that resolve to a lock class from ANY module
#: (cross-module references like ``with store.commit_latch:`` or a
#: record file's ``with unit.latch:``).
GLOBAL_LOCK_SITES: Dict[str, str] = {
    "commit_latch": "store.commit_latch",
    "latch": "store.unit_latch",
}

#: classes whose instances are mutated from multiple threads: SIM303
#: flags writes to their instance state outside a guarding ``with`` on a
#: lock (``__init__`` is exempt — instances are published after
#: construction).  TransactionManager and Disk are deliberately absent:
#: their mutation paths are serialized by the commit latch / exclusive
#: session locks / ``BufferPool._lock`` above them rather than by their
#: own mutexes.
THREADED_CLASSES = frozenset({
    "LockManager",
    "BufferPool",
    "ReadCache",
    "MaterializationManager",
    "VersionManager",
    "SimServer",
    "_AdmissionGate",
})

#: module basenames whose module-level ``global`` writes SIM303 checks.
THREADED_MODULES = frozenset({
    "sessions.py", "buffer.py", "read_cache.py", "materialized.py",
    "versions.py", "server.py", "transactions.py", "store.py", "wal.py",
})

#: blocking-call table for SIM302: method name -> substrings that mark a
#: receiver as the blocking kind (socket I/O, futures, WAL force).  A
#: call ``recv.<method>(...)`` lexically inside a ``with <lock>:`` body
#: is flagged when any hint appears in the receiver's dotted name.
BLOCKING_CALLS: Dict[str, Tuple[str, ...]] = {
    "force": ("wal",),
    "result": ("future", "fut"),
    "sendall": ("sock", "client", "conn"),
    "recv": ("sock", "conn"),
    "accept": ("sock", "server"),
    "connect": ("sock",),
    "readline": ("reader", "sock", "rfile"),
    "makefile": ("sock",),
}

#: attribute suffixes treated as condition variables for SIM302/SIM304
#: (a ``.wait()`` with no timeout on one of these blocks indefinitely
#: while holding the underlying lock).
CONDITION_HINTS: Tuple[str, ...] = ("cond", "_drained")

#: name endings treated as lock-like for SIM300/SIM301/SIM303 scoping.
LOCK_NAME_SUFFIXES: Tuple[str, ...] = (
    "lock", "mutex", "cond", "latch", "_drained",
)

#: lock-like-looking names that are NOT locks (semaphores, internals).
LOCK_NAME_EXCLUDE: Tuple[str, ...] = ("_slots", "_raw", "deadlock")


def is_lock_name(dotted: str) -> bool:
    """Heuristic: does a dotted attribute expression name a lock?"""
    leaf = dotted.rsplit(".", 1)[-1]
    low = leaf.lower()
    if any(low.endswith(bad) or bad in low for bad in LOCK_NAME_EXCLUDE):
        return False
    return any(low.endswith(suffix) for suffix in LOCK_NAME_SUFFIXES)


def site_rank(module_basename: str, dotted: str) -> Optional[str]:
    """Resolve a ``with``-target attribute expression to a lock-class
    name using the per-module table, then the global table."""
    sites = LOCK_SITES.get(module_basename, {})
    for suffix, lock_class in sites.items():
        if dotted == suffix or dotted.endswith("." + suffix):
            return lock_class
    leaf = dotted.rsplit(".", 1)[-1]
    return GLOBAL_LOCK_SITES.get(leaf)


def describe_hierarchy() -> str:
    """Human-readable one-line-per-rank rendering (used by docs/CLI)."""
    lines = []
    for name, rank in sorted(LOCK_RANKS.items(), key=lambda kv: kv[1]):
        lines.append(f"{rank:>3}  {name}")
    return "\n".join(lines)
