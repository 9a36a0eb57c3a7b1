"""Runtime lock-order validation (lockdep).

Linux-kernel-style lock dependency checking for the engine's own
mutexes.  Every :class:`RankedLock` belongs to a named *lock class*
(``"storage.buffer"``, ``"store.commit_latch"``, …) whose rank comes from
the declared hierarchy in :mod:`repro.analysis.lock_order`.  On each
acquisition the checker consults the per-thread stack of held locks and

* raises :class:`LockOrderViolation` when the new lock's rank is not
  strictly below every held rank (descending-acquisition rule), and
* records a ``held-class -> new-class`` edge into a global
  acquisition-order graph, raising when a new edge closes a cycle
  (the would-deadlock case two rank-less locks can still produce).

Violations are raised *before* the lock is taken, so a buggy ordering
fails loudly instead of deadlocking some test run years later.  Each
offending edge is reported once; all reports are also retained for
:func:`violations` so the test suite can assert a clean run.

Checking is **off** in production and **on** when any of these hold:

* the environment sets ``REPRO_LOCKDEP=1`` (``0`` forces off),
* :func:`enable` was called (``disable`` reverses it), or
* pytest is loaded (``"pytest" in sys.modules``) — the whole test suite
  runs instrumented by default.

The enabled state is captured when a lock is *constructed*:
:func:`repro.storage.latch.ranked_lock`, which every lock of the engine
is made by, returns a plain ``threading.RLock`` when lockdep is off, so
an unchecked acquisition runs no Python frame at all, and a
:class:`RankedLock` always checks.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "LockOrderViolation", "RankedLock", "RankedCondition",
    "enable", "disable", "enabled", "reset",
    "violations", "edges",
]


class LockOrderViolation(RuntimeError):
    """A lock acquisition violated the declared rank order or closed a
    cycle in the observed acquisition-order graph.

    Deliberately *not* a :class:`repro.errors.SimError`: engine-level
    ``except SimError`` recovery paths must never swallow a lock-
    discipline bug.
    """


# -- Global checker state ------------------------------------------------------

_STATE_LOCK = threading.Lock()
#: observed edges (held_class, acquired_class), for warn-once dedup
_EDGES: Set[Tuple[str, str]] = set()
#: adjacency: lock class -> set of lock classes acquired while held
_GRAPH: Dict[str, Set[str]] = {}
#: retained violation messages (capped), for end-of-suite assertions
_VIOLATIONS: List[str] = []
_MAX_VIOLATIONS = 100
#: validated (held-chain..., acquired) name tuples — ranks are static
#: and the edge graph only grows, so a chain that passed once passes
#: forever (until reset); repeat acquisitions skip checking entirely.
#: The same dep-chain cache kernel lockdep uses on its hot path.
_CHAIN_CACHE: Set[Tuple[str, ...]] = set()

_override: Optional[bool] = None

_tls = threading.local()


def enabled() -> bool:
    """Effective default for locks constructed *now*."""
    if _override is not None:
        return _override
    env = os.environ.get("REPRO_LOCKDEP")
    if env is not None:
        return env not in ("", "0", "false", "no")
    return "pytest" in sys.modules


def enable() -> None:
    """Turn checking on for locks constructed after this call."""
    global _override
    _override = True


def disable() -> None:
    """Turn checking off for locks constructed after this call."""
    global _override
    _override = False


def reset() -> None:
    """Clear the acquisition graph and retained violations (tests)."""
    with _STATE_LOCK:
        _EDGES.clear()
        _GRAPH.clear()
        _CHAIN_CACHE.clear()
        del _VIOLATIONS[:]


def violations() -> List[str]:
    """Messages for every violation observed since the last reset."""
    with _STATE_LOCK:
        return list(_VIOLATIONS)


def edges() -> Set[Tuple[str, str]]:
    """The observed acquisition-order edge set (lock-class names)."""
    with _STATE_LOCK:
        return set(_EDGES)


def _rank_table() -> Dict[str, int]:
    # Lazy: importing repro.analysis pulls in the optimizer/plan-verify
    # chain, which must not happen as a side effect of creating a lock
    # during package import.
    from repro.analysis.lock_order import LOCK_RANKS
    return LOCK_RANKS


def _reaches(start: str, target: str) -> bool:
    """DFS: is ``target`` reachable from ``start`` in the edge graph?
    Caller holds ``_STATE_LOCK``."""
    seen = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(_GRAPH.get(node, ()))
    return False


def _record_violation(message: str) -> None:
    # Caller holds _STATE_LOCK.
    if len(_VIOLATIONS) < _MAX_VIOLATIONS:
        _VIOLATIONS.append(message)


class RankedLock:
    """A named re-entrant lock participating in lockdep checking.

    Drop-in for ``threading.RLock()`` (``acquire``/``release``/context
    manager).  ``name`` is the lock *class*: every instance created with
    the same name shares rank and graph identity, so an ordering bug
    between two different buffer pools is still caught.
    """

    __slots__ = ("name", "rank", "_raw")

    def __init__(self, name: str):
        self.name = name
        self._raw = threading.RLock()
        self.rank = _rank_table().get(name)

    # -- checking ------------------------------------------------------

    def _before_acquire(self, stack: List["RankedLock"]) -> None:
        # list.__contains__ compares by identity first (no __eq__ here),
        # so this is a C-speed re-entrancy scan.
        if self in stack:
            return  # re-entrant re-acquisition: always legal
        chain = tuple([held.name for held in stack]) + (self.name,)
        if chain in _CHAIN_CACHE:
            return  # this exact chain already validated clean
        # Rank rule: only strictly-descending acquisition is legal.
        # A *different* instance of the same class is not re-entrancy —
        # equal rank trips the check, which is the point.
        if self.rank is not None:
            for held in stack:
                if held.rank is not None and self.rank >= held.rank:
                    message = (
                        f"lock order violation: acquiring "
                        f"{self.name!r} (rank {self.rank}) while holding "
                        f"{held.name!r} (rank {held.rank}) in thread "
                        f"{threading.current_thread().name!r}; held chain: "
                        f"{[h.name for h in stack]}")
                    with _STATE_LOCK:
                        edge = (held.name, self.name)
                        if edge in _EDGES:
                            return  # warn once per edge
                        _EDGES.add(edge)
                        _GRAPH.setdefault(held.name, set()).add(self.name)
                        _record_violation(message)
                    raise LockOrderViolation(message)
        # Graph rule: a new edge that closes a cycle would deadlock.
        # Same-class edges are skipped — the graph is keyed by class
        # name, so a self-edge carries no ordering information.  The
        # membership pre-check runs WITHOUT the state lock: the edge set
        # only grows between resets, so a stale read merely sends us
        # into the locked slow path, which re-checks.  In steady state
        # (every edge already seen) nested acquisitions never touch the
        # global lock — the same dep-chain-cache trick kernel lockdep
        # uses to stay affordable on hot paths.
        name = self.name
        new_names = None
        for held in stack:
            held_name = held.name
            if held_name != name and (held_name, name) not in _EDGES:
                if new_names is None:
                    new_names = {held_name}
                else:
                    new_names.add(held_name)
        if not new_names:
            _CHAIN_CACHE.add(chain)
            return
        with _STATE_LOCK:
            for held_name in new_names:
                edge = (held_name, self.name)
                if edge in _EDGES:
                    continue
                if _reaches(self.name, held_name):
                    message = (
                        f"lock order violation: edge {held_name!r} -> "
                        f"{self.name!r} closes a cycle in the observed "
                        f"acquisition graph (thread "
                        f"{threading.current_thread().name!r}; held chain: "
                        f"{[h.name for h in stack]})")
                    _EDGES.add(edge)
                    _GRAPH.setdefault(held_name, set()).add(self.name)
                    _record_violation(message)
                    raise LockOrderViolation(message)
                _EDGES.add(edge)
                _GRAPH.setdefault(held_name, set()).add(self.name)
        _CHAIN_CACHE.add(chain)

    # -- lock protocol -------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # Inlined _held_stack(): this is the per-acquisition hot path.
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        elif stack:
            self._before_acquire(stack)
        got = self._raw.acquire(blocking, timeout)
        if got:
            stack.append(self)
        return got

    def release(self) -> None:
        stack = getattr(_tls, "stack", None)
        if stack:
            if stack[-1] is self:  # LIFO release: the common case
                stack.pop()
            else:
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is self:
                        del stack[i]
                        break
        self._raw.release()

    def __enter__(self) -> "RankedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        rank = f" rank={self.rank}" if self.rank is not None else ""
        return f"<RankedLock {self.name!r}{rank}>"


class RankedCondition:
    """A condition variable over a :class:`RankedLock`, or over the
    plain ``RLock`` :func:`~repro.storage.latch.ranked_lock` makes when
    lockdep is off.

    Over a ranked lock the condition wraps its *raw* RLock, so
    ``wait()`` releases the real lock while the lockdep stack keeps the
    entry for the blocked thread (which holds it again before
    returning).  Use :meth:`wait_for` — a bare ``wait`` outside a
    predicate loop is exactly what SIM304 exists to catch.
    """

    __slots__ = ("lock", "_cond")

    def __init__(self, lock):
        self.lock = lock
        self._cond = threading.Condition(
            lock._raw if isinstance(lock, RankedLock) else lock)

    def __enter__(self) -> "RankedCondition":
        self.lock.acquire()  # noqa: SIM300 — implements the with protocol
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.lock.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._cond.wait(timeout)  # noqa: SIM304 — pass-through

    def wait_for(self, predicate, timeout: Optional[float] = None) -> bool:
        return self._cond.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __repr__(self) -> str:
        return f"<RankedCondition over {self.lock!r}>"
