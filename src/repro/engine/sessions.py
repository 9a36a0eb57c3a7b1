"""Multi-session concurrency control.

The paper's SIM leans on DMSII for concurrent transactions (§1: SIM is
"capable of supporting commercial application systems ... that require
very high transaction processing rates").  This module supplies the
substrate's equivalent: multiple *sessions* over one database — now from
concurrent threads — isolated by strict two-phase locking with
**multi-granularity** (class + entity) locks, plus MVCC snapshot
isolation for Retrieves:

* a Modify/Delete whose qualification names specific entities takes an
  *intention-exclusive* (IX) lock on the class and exclusive (X) locks
  on just those entities, keyed ``(class, surrogate)`` — so two
  sessions updating **disjoint entities of one class** no longer
  serialize.  Inserts, cascading deletes, unqualified updates and EVA
  assignments fall back to a class-level X lock, which the IX locks
  make mutually exclusive with every entity-granular writer;
* all locks are held until COMMIT/ABORT (strict 2PL); a conflicting
  request *blocks* on a condition variable until the holder releases,
  the configurable timeout expires (:class:`LockTimeout`), or
  waits-for-graph cycle detection picks a deadlock victim
  (:class:`DeadlockError` — the youngest session in the cycle,
  deterministically);
* a session aborted as a deadlock victim while opening a fresh
  transaction is retried automatically with bounded, seeded backoff
  (the shape of :class:`repro.storage.faults.RetryPolicy`);
* a Retrieve on an MVCC session takes NO locks at all: it pins a commit
  epoch and reads pre-image version chains
  (:mod:`repro.mapper.versions`), so readers never block writers and
  writers never block readers.  ``Session(db, mvcc=False)`` restores
  shared-lock Retrieves (which take no store latch, so two shared-lock
  readers overlap), and ``lock_timeout=0`` restores the legacy
  fail-fast behavior (immediate :class:`LockConflict`).

Statement execution no longer funnels through a store-wide write mutex:
each store mutator takes the short per-unit latch of the single storage
unit it writes (``RecordFile.latch``), and only the commit point — the
MVCC epoch bump plus the WAL commit record — runs under the store's
``commit_latch``.  Two entity-granular writers to one class therefore
interleave between record operations; their lock sets guarantee the
operations themselves touch different records.

Entity-granular qualification is resolved *before* the locks are taken
(a latch-free read), so the resolved set is only a hint: execution
re-runs the qualification under the locks and restricts the statement
to the intersection.  An entity that started matching after resolution
is skipped (it was never locked); one that stopped matching is simply
not touched.

Example::

    alice, bob = Session(db), Session(db)
    alice.execute('Modify course(credits := 5) Where course-no = 1')
    bob.query('From course Retrieve title')     # snapshot: sees credits=3
    alice.commit()
    bob.query('From course Retrieve title')     # now sees credits=5
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.dml.ast import (
    DeleteStatement,
    InsertStatement,
    ModifyStatement,
    RetrieveQuery,
)
from repro.dml.parser import parse_dml
from repro.engine.executor import QueryExecutor
from repro.engine.updates import UpdateEngine
from repro.errors import SimError, TransactionError
from repro.perf import PerfCounters
from repro.storage.latch import ranked_condition, ranked_lock


class LockConflict(SimError):
    """A lock request conflicts with another session's holding."""


class LockTimeout(LockConflict):
    """A lock wait exceeded its timeout (the holder may just be slow —
    the statement failed but the transaction is still open)."""


class DeadlockError(LockConflict):
    """This session was chosen as a deadlock victim; its transaction has
    been (or must be) aborted to break the cycle."""


#: upper bound on one condition wait, so a doomed victim notices quickly
#: even if a notify is lost to timing
_WAIT_SLICE = 0.1

#: held mode -> requested modes it already satisfies
_COVERS: Dict[str, frozenset] = {
    "IS": frozenset({"IS"}),
    "IX": frozenset({"IS", "IX"}),
    "S": frozenset({"IS", "S"}),
    "SIX": frozenset({"IS", "IX", "S", "SIX"}),
    "X": frozenset({"IS", "IX", "S", "SIX", "X"}),
}

#: requested mode -> held modes (of OTHER sessions) compatible with it —
#: the classic multi-granularity compatibility matrix (Gray et al.)
_COMPAT: Dict[str, frozenset] = {
    "IS": frozenset({"IS", "IX", "S", "SIX"}),
    "IX": frozenset({"IS", "IX"}),
    "S": frozenset({"IS", "S"}),
    "SIX": frozenset({"IS"}),
    "X": frozenset(),
}

#: internal mode -> introspection name
_MODE_NAMES: Dict[str, str] = {
    "IS": "intention-shared",
    "IX": "intention-exclusive",
    "S": "shared",
    "SIX": "shared-intention-exclusive",
    "X": "exclusive",
}


def _combine(held: str, requested: str) -> str:
    """Least mode at least as strong as both (the upgrade lattice)."""
    if held == requested:
        return held
    pair = {held, requested}
    if "X" in pair:
        return "X"
    if "SIX" in pair or pair == {"IX", "S"}:
        return "SIX"
    if pair == {"IS", "IX"}:
        return "IX"
    return "S"      # {IS, S}


def _key_label(key) -> str:
    if isinstance(key, tuple):
        return f"entity {key[1]} of class {key[0]!r}"
    return f"class {key!r}"


class LockManager:
    """Blocking multi-granularity locks: classes and single entities.

    Lock keys are either a class name (``str``) or an entity key
    ``(class_name, surrogate)``; each key maps to the sessions holding
    it and their modes.  One mutex + condition covers all keys: lock
    traffic is a few acquisitions per statement, so a global condition
    with ``notify_all`` on every release is simpler than per-key queues
    and plenty fast.  Deadlocks are resolved by detection, not timeout:
    every time a session is about to wait, it searches the waits-for
    graph for a cycle through itself and dooms the *youngest* session
    in the cycle (largest session id — deterministic under a fixed
    arrival order, and the youngest has the least work to redo).

    Compatibility is checked per key only: the multi-granularity
    protocol (take IX on the class before X on one of its entities)
    is what makes a class-level X block entity-level writers and vice
    versa.
    """

    def __init__(self, default_timeout: float = 10.0):
        # Rank 50: class/entity-lock traffic completes (and the
        # condition is released) before a statement's store mutations
        # take any per-unit latch (rank 42).
        self._mutex = ranked_lock("sessions.class_locks")
        self._cond = ranked_condition(self._mutex)
        #: lock key -> {session id -> held mode}; entries are pruned as
        #: soon as their last holder releases, so the map stays bounded
        #: by the *live* lock population, not by every key ever touched
        self._holders: Dict[object, Dict[int, str]] = {}
        #: sessions currently blocked: sid -> (key, mode)
        self._waits: Dict[int, Tuple[object, str]] = {}
        #: deadlock victims that must abort at their next wakeup
        self._doomed: Set[int] = set()
        self.default_timeout = default_timeout
        #: counts waits, deadlocks, timeouts (the Database wires its own)
        self.perf = PerfCounters()

    # -- Acquisition -------------------------------------------------------------

    def acquire_shared(self, session_id: int, class_name: str,
                       timeout: Optional[float] = None) -> str:
        """Take (or keep) a class-level shared lock; returns the grant
        kind — ``"held"`` (already sufficient), ``"new"``, or
        ``"upgraded"`` — for :meth:`rollback` bookkeeping."""
        return self.acquire(session_id, class_name, "S", timeout)[0]

    def acquire_exclusive(self, session_id: int, class_name: str,
                          timeout: Optional[float] = None) -> str:
        """Take (or upgrade to) a class-level exclusive lock; returns
        the grant kind as in :meth:`acquire_shared`."""
        return self.acquire(session_id, class_name, "X", timeout)[0]

    def acquire(self, session_id: int, key, mode: str,
                timeout: Optional[float] = None
                ) -> Tuple[str, Optional[str]]:
        """Take (or strengthen to) ``mode`` on ``key``; returns
        ``(grant, previous_mode)`` — the pair :meth:`rollback` needs to
        undo a partial statement exactly."""
        if mode not in _COMPAT:
            raise SimError(f"unknown lock mode {mode!r}")
        if timeout is None:
            timeout = self.default_timeout
        deadline = time.monotonic() + timeout if timeout > 0 else None
        waited = False
        with self._cond:
            try:
                while True:
                    # A doomed victim aborts before taking anything new —
                    # its locks are what the cycle is waiting for.
                    if session_id in self._doomed:
                        self._doomed.discard(session_id)
                        raise DeadlockError(
                            f"session {session_id} chosen as deadlock "
                            f"victim while locking {_key_label(key)}")
                    blockers = self._blockers(session_id, key, mode)
                    if not blockers:
                        return self._grant(session_id, key, mode)
                    if timeout == 0:
                        # Legacy fail-fast mode: no waiting, no wait-graph.
                        raise LockConflict(
                            self._conflict_message(key, blockers))
                    if not waited:
                        waited = True
                        self.perf.bump("lock_waits")
                    self._waits[session_id] = (key, mode)
                    victim = self._find_victim(session_id)
                    if victim is not None:
                        self.perf.bump("deadlocks")
                        if victim == session_id:
                            raise DeadlockError(
                                f"session {session_id} chosen as deadlock "
                                f"victim while locking {_key_label(key)}")
                        self._doomed.add(victim)
                        self._cond.notify_all()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.perf.bump("lock_timeouts")
                        raise LockTimeout(
                            f"session {session_id} timed out after "
                            f"{timeout:.3g}s waiting for "
                            f"{_key_label(key)} "
                            f"({self._conflict_message(key, blockers)})")
                    # Predicate-loop wait (SIM304): a spurious wakeup —
                    # or a notify_all meant for another key — must not
                    # fall through to the grant check with stale state;
                    # wait_for re-evaluates under the lock until the
                    # session is doomed, unblocked, or the slice expires.
                    self._cond.wait_for(
                        lambda: session_id in self._doomed
                        or not self._blockers(session_id, key, mode),
                        timeout=min(remaining, _WAIT_SLICE))
            finally:
                self._waits.pop(session_id, None)

    def _blockers(self, session_id: int, key, mode: str) -> Set[int]:
        """Sessions whose holdings on ``key`` are incompatible."""
        holders = self._holders.get(key)
        if not holders:
            return set()
        compatible = _COMPAT[mode]
        return {sid for sid, held in holders.items()
                if sid != session_id and held not in compatible}

    def _grant(self, session_id: int, key, mode: str
               ) -> Tuple[str, Optional[str]]:
        holders = self._holders.setdefault(key, {})
        previous = holders.get(session_id)
        if previous is not None and mode in _COVERS[previous]:
            return "held", previous
        holders[session_id] = _combine(previous, mode) \
            if previous is not None else mode
        return ("upgraded" if previous is not None else "new"), previous

    def _conflict_message(self, key, blockers: Set[int]) -> str:
        holders = self._holders.get(key, {})
        label = _key_label(key)
        writer = next((sid for sid in sorted(blockers)
                       if holders.get(sid) == "X"), None)
        if writer is not None:
            return f"{label} is write-locked by session {writer}"
        if all(holders.get(sid) in ("S", "IS") for sid in blockers):
            return f"{label} is read-locked by sessions {sorted(blockers)}"
        modes = ", ".join(
            f"{sid}:{_MODE_NAMES.get(holders.get(sid), '?')}"
            for sid in sorted(blockers))
        return f"{label} is locked by sessions [{modes}]"

    # -- Deadlock detection ------------------------------------------------------

    def _find_victim(self, start: int) -> Optional[int]:
        """DFS the waits-for graph for a cycle through ``start``; return
        the youngest session on the cycle, or None.  Doomed sessions are
        excluded — they are already aborting, so a cycle through them is
        already broken (and would otherwise be re-counted every wait
        slice)."""
        graph: Dict[int, List[int]] = {}
        for sid, (key, mode) in self._waits.items():
            if sid in self._doomed:
                continue
            blockers = self._blockers(sid, key, mode) - self._doomed
            if blockers:
                graph[sid] = sorted(blockers)
        path = [start]
        on_path = {start}

        def dfs(node: int) -> bool:
            for nxt in graph.get(node, ()):
                if nxt == start:
                    return True
                if nxt in on_path or nxt not in graph:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                if dfs(nxt):
                    return True
                path.pop()
                on_path.discard(nxt)
            return False

        if dfs(start):
            return max(path)
        return None

    # -- Release -----------------------------------------------------------------

    def release_all(self, session_id: int) -> None:
        with self._cond:
            for key in [k for k, holders in self._holders.items()
                        if session_id in holders]:
                holders = self._holders[key]
                del holders[session_id]
                if not holders:
                    # Prune, or the map grows one empty entry per key
                    # ever locked (entity keys would make that unbounded).
                    del self._holders[key]
            self._doomed.discard(session_id)
            self._cond.notify_all()

    def rollback(self, session_id: int, acquisitions: List[tuple]) -> None:
        """Undo a statement's partial lock acquisition after a mid-
        statement error: new locks are dropped, upgrades are demoted
        back to the mode held before, pre-held locks are untouched.

        Takes the ``(key, grant, previous_mode)`` 3-tuples built from
        what :meth:`acquire` hands back."""
        with self._cond:
            for key, grant, previous in reversed(acquisitions):
                if grant == "held":
                    continue
                holders = self._holders.get(key)
                if holders is None or session_id not in holders:
                    continue
                if grant == "new":
                    del holders[session_id]
                    if not holders:
                        del self._holders[key]
                else:       # upgraded
                    holders[session_id] = previous
            self._cond.notify_all()

    # -- Introspection -----------------------------------------------------------

    def holdings(self, session_id: int) -> Dict[str, str]:
        """Class-level holdings, mode names spelled out (``"exclusive"``,
        ``"intention-exclusive"``, …)."""
        with self._mutex:
            return {key: _MODE_NAMES[holders[session_id]]
                    for key, holders in self._holders.items()
                    if not isinstance(key, tuple)
                    and session_id in holders}

    def entity_holdings(self, session_id: int
                        ) -> Dict[Tuple[str, int], str]:
        """Entity-level holdings: ``(class, surrogate) -> mode name``."""
        with self._mutex:
            return {key: _MODE_NAMES[holders[session_id]]
                    for key, holders in self._holders.items()
                    if isinstance(key, tuple) and session_id in holders}

    def statistics(self) -> Dict[str, int]:
        with self._mutex:
            class_entries = [(key, holders)
                             for key, holders in self._holders.items()
                             if not isinstance(key, tuple)]
            return {
                "deadlocks": self.perf.deadlocks,
                "timeouts": self.perf.lock_timeouts,
                "waits": self.perf.lock_waits,
                "waiting_now": len(self._waits),
                "exclusive_held": sum(
                    1 for _, h in class_entries if "X" in h.values()),
                "shared_held": sum(
                    1 for _, h in class_entries
                    if any(m in ("S", "SIX") for m in h.values())),
                "intention_held": sum(
                    1 for _, h in class_entries
                    if any(m in ("IS", "IX", "SIX") for m in h.values())),
                "entity_exclusive_held": sum(
                    1 for key, h in self._holders.items()
                    if isinstance(key, tuple) and "X" in h.values()),
                "tracked_keys": len(self._holders),
            }


def lock_footprint(schema, statement) -> Tuple[tuple, bool]:
    """What an update statement must lock, from its AST alone — computed
    once per compiled statement.  Returns ``(classes, entity_lockable)``:
    the classes to lock exclusively, sorted, and whether a qualified
    Modify/Delete may instead take IX on its class and X on just the
    entities its qualification names."""
    def partners(class_name, assignments) -> set:
        """Range classes of the EVAs an assignment list writes."""
        sim_class = schema.get_class(class_name)
        return {sim_class.attribute(a.attribute).range_class_name
                for a in assignments
                if sim_class.has_attribute(a.attribute)
                and sim_class.attribute(a.attribute).is_eva}

    class_name = statement.class_name
    entity_lockable = False
    if isinstance(statement, InsertStatement):
        # Inserts create entities the qualification cannot name yet
        # (a phantom by construction): always class-exclusive.
        base = schema.get_class(class_name).base_class_name
        touched = {base, class_name,
                   *schema.graph.insertion_path(base, class_name)}
        touched |= partners(class_name, statement.assignments)
    elif isinstance(statement, ModifyStatement):
        written = partners(class_name, statement.assignments)
        entity_lockable = statement.where is not None and not written
        touched = {class_name} | written
    elif isinstance(statement, DeleteStatement):
        # Deletion cascades to subclass roles and drops every EVA
        # instance of the removed roles: entity granularity is only
        # safe when there is nothing to cascade into.
        descendants = schema.graph.descendants(class_name)
        entity_lockable = (
            statement.where is not None and not descendants
            and not schema.get_class(class_name).immediate_evas())
        touched = {class_name, *descendants}
        for cascaded in list(touched):
            for eva in schema.get_class(cascaded).immediate_evas():
                touched.add(eva.range_class_name)
    else:
        raise SimError(f"cannot lock for {statement!r}")
    return tuple(sorted(touched)), entity_lockable


class Session:
    """One client's transactional view of a shared database.

    Each session owns a transaction that opens lazily at its first
    update statement (or at :meth:`begin`) and closes at :meth:`commit`
    / :meth:`abort`, and one executor — with its memo — for its life.
    Sessions are safe to drive from concurrent threads (one thread per
    session): updates isolate via class/entity locks, store mutations
    via short per-unit latches; MVCC Retrieves run lock-free against a
    pinned snapshot.

    A ``Database`` runs its own statements on a default session
    (``Database.execute`` and the rest), which auto-commits: each
    statement is a transaction of its own unless :meth:`begin` opened
    one.  Its Retrieves never wait: they read the latest state under
    shared class locks when no other session holds a conflicting one,
    and the last committed state through a snapshot when one does.

    Parameters
    ----------
    mvcc:
        snapshot-isolated Retrieves (default).  ``False`` restores
        shared-lock reads.
    lock_timeout:
        per-session lock-wait timeout in seconds; ``None`` uses the
        lock manager's default, ``0`` means fail-fast.
    entity_locks:
        lock qualified Modify/Delete statements at entity granularity
        (default).  ``False`` restores class-granularity exclusive
        locks for every update — the legacy contention shape.
    """

    #: automatic replays of a single statement aborted as a deadlock
    #: victim (only when that statement opened the transaction — an
    #: older victim transaction cannot be replayed and the error
    #: propagates to the caller)
    MAX_DEADLOCK_RETRIES = 3

    def __init__(self, database, mvcc: bool = True,
                 lock_timeout: Optional[float] = None,
                 entity_locks: bool = True, *, _default: bool = False):
        # The default session draws no id: 0 is older than every
        # session that does, and it shares the database's executor.
        self.session_id = 0 if _default else next(database._session_ids)
        self.executor = database.executor if _default else QueryExecutor(
            database.store, database.qualifier,
            batch_size=database.executor.batch_size)
        self.updates = UpdateEngine(self.executor, database.constraints)
        self.autocommit = _default
        self.database = database
        self.locks: LockManager = database._lock_manager
        self.mvcc = mvcc
        self.lock_timeout = lock_timeout
        self.entity_locks = entity_locks
        self._transaction = None
        self._retry_rng = random.Random(self.session_id * 7919)
        database._sessions.add(self)

    # -- Statements -------------------------------------------------------------

    def execute(self, text, timeout: Optional[float] = None):
        """Run one DML statement.  ``timeout`` bounds this statement's
        lock waits (overriding the session's ``lock_timeout``)."""
        return self._execute(text, parse_dml, timeout)

    def query(self, text, timeout: Optional[float] = None):
        return self.execute(text, timeout)

    def _execute(self, statement, parse, timeout: Optional[float] = None,
                 retrieve_only: bool = False):
        """One statement through this session; ``parse`` is the front
        door's own ``parse_dml`` (see ``Database._compile``)."""
        database = self.database
        database.store.transactions.ensure_running()
        with database._statement_scope(statement) as root:
            # The compile (lint included) comes before any lock: a
            # statement that is going to be rejected must never wait.
            compiled = database._compile(statement, parse)
            if not isinstance(compiled.statement, RetrieveQuery):
                if retrieve_only:
                    raise SimError("query() takes a Retrieve statement")
                if self.autocommit and not self.in_transaction():
                    with self:      # a transaction of its own
                        return self._locked_statement(compiled, timeout)
                return self._locked_statement(compiled, timeout)
            if self.autocommit:
                result = self._unwaited_retrieve(compiled)
            elif self.mvcc:
                result = self._snapshot_retrieve(compiled)
            else:
                result = self._locked_statement(compiled, timeout)
            if root is not None:
                result.trace = root
            return result

    def _unwaited_retrieve(self, compiled):
        """The default session's Retrieve: shared class locks taken
        without waiting and the latest state read under them — the
        session's own uncommitted writes included — or, when another
        session holds a conflicting lock, the last committed state
        through a snapshot.  Auto-committed, it keeps no lock."""
        acquired: List[tuple] = []
        try:
            self._lock_for(compiled, acquired, 0)
        except LockConflict:
            self.locks.rollback(self.session_id, acquired)
            return self._snapshot_retrieve(compiled)
        try:
            return self.database._run_retrieve(compiled,
                                               executor=self.executor)
        finally:
            if not self.in_transaction():
                self.locks.release_all(self.session_id)

    def _snapshot_retrieve(self, compiled):
        """Lock-free Retrieve at a pinned commit epoch, on the session's
        executor: its memo is keyed by the view it read, so rows read
        at one snapshot's epoch are never served to another."""
        database = self.database
        store = database.store
        snap = store.begin_snapshot(self._transaction.transaction_id
                                    if self.in_transaction() else None)
        try:
            with store.snapshot_scope(snap):
                return database._run_retrieve(compiled,
                                              executor=self.executor)
        finally:
            store.end_snapshot(snap)

    def _locked_statement(self, compiled, timeout: Optional[float]):
        attempt = 0
        while True:
            try:
                return self._execute_locked(compiled, timeout)
            except DeadlockError as exc:
                if not getattr(exc, "retryable", False) \
                        or attempt >= self.MAX_DEADLOCK_RETRIES:
                    raise
                attempt += 1
                self.database.store.perf.bump("deadlock_retries")
                time.sleep(self._backoff(attempt))

    def _backoff(self, attempt: int) -> float:
        """Bounded exponential backoff with seeded jitter (the
        ``RetryPolicy`` shape, scaled for lock contention)."""
        base = min(0.002 * (2 ** (attempt - 1)), 0.05)
        return base * (0.5 + self._retry_rng.random())

    def _execute_locked(self, compiled, timeout: Optional[float]):
        if timeout is None:
            timeout = self.lock_timeout
        # "Fresh" = this statement would open the transaction, so a
        # deadlock abort loses no prior work and the statement can be
        # replayed automatically.
        fresh = not self.in_transaction()
        acquired: List[tuple] = []
        try:
            restrict = self._lock_for(compiled, acquired, timeout)
        except DeadlockError as exc:
            # Victim protocol: abort the WHOLE transaction — the cycle
            # is waiting for locks this session already holds.
            self.abort()
            exc.retryable = fresh
            raise
        except BaseException:
            # Mid-statement acquisition failure (timeout, qualification
            # error, …): drop only what this statement took; the
            # transaction and its earlier locks survive.
            self.locks.rollback(self.session_id, acquired)
            raise
        database = self.database
        txn = self._ensure_transaction()
        # No statement-scope serialization at all: store mutators latch
        # the one unit they write.
        with database.store.transactions.activate(txn):
            if isinstance(compiled.statement, RetrieveQuery):
                result = database._run_retrieve(compiled,
                                                executor=self.executor)
            else:
                result = database._spanned(
                    "update", "engine", self.updates.execute,
                    compiled.statement, restrict_to=restrict,
                    params=compiled.params)
        return result

    # -- Transaction boundaries --------------------------------------------------

    def in_transaction(self) -> bool:
        txn = self._transaction
        return txn is not None and txn.active

    def begin(self) -> None:
        """Open the transaction now (a default session's statements
        then run in it until :meth:`commit` or :meth:`abort`)."""
        self.database.store.transactions.ensure_running()
        if self.in_transaction():
            raise TransactionError("a transaction is already active")
        self._ensure_transaction()

    def commit(self) -> None:
        """Commit the open transaction, if any (deferred VERIFY checks
        first: a violation aborts it and raises)."""
        txn = self._transaction
        database = self.database
        store = database.store
        try:
            store.transactions.ensure_running()
            if txn is not None and txn.active:
                with store.transactions.activate(txn):
                    try:
                        database.constraints.before_commit(
                            executor=self.executor)
                    except BaseException:
                        # A failed deferred-constraint check must not
                        # leave the transaction open holding locks.
                        store.transactions.abort_detached(txn)
                        raise
                    # The commit critical section: the MVCC epoch bump,
                    # the data-page flush and the WAL commit record move
                    # as one atomic unit relative to other committers.
                    with store.commit_latch:
                        store.transactions.commit_detached(txn)
        finally:
            self._release()

    def abort(self) -> None:
        """Roll the open transaction back, if any.  On a failed store it
        only lets the transaction go: recovery undoes it from the log."""
        txn = self._transaction
        store = self.database.store
        try:
            if (txn is not None and txn.active
                    and store.transactions.failure is None):
                # No store-wide section: undo replay goes through the
                # normal mutators, each latching the unit it restores,
                # and this session's exclusive locks still cover every
                # record the transaction touched.
                with store.transactions.activate(txn):
                    store.transactions.abort_detached(txn)
        finally:
            self._release()

    def _release(self) -> None:
        """Forget the transaction and free its locks — after it ends,
        and after a crash has dropped it."""
        self._transaction = None
        self.locks.release_all(self.session_id)

    def holdings(self) -> Dict[str, str]:
        return self.locks.holdings(self.session_id)

    def entity_holdings(self) -> Dict[Tuple[str, int], str]:
        return self.locks.entity_holdings(self.session_id)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.commit()
            return False
        try:
            self.abort()
        except Exception:
            # The block's own error is the diagnosis; the abort's
            # failure stays reachable as its context.
            raise exc
        return False

    # -- Internals ---------------------------------------------------------------

    def _ensure_transaction(self):
        if not self.in_transaction():
            self._transaction = \
                self.database.store.transactions.begin_detached()
        return self._transaction

    def _lock_for(self, compiled, acquired: List[tuple],
                  timeout: Optional[float]) -> Optional[List[int]]:
        """Acquire this statement's locks — its compiled footprint
        (:func:`lock_footprint`); appends ``(key, grant, previous_mode)``
        records to ``acquired`` for partial rollback.

        Returns the list of entity-locked surrogates when the statement
        locked at entity granularity (execution must restrict itself to
        them), else None (class-level locks).
        """
        statement = compiled.statement
        mode = "S" if isinstance(statement, RetrieveQuery) else "X"
        if mode == "X" and self.entity_locks and compiled.entity_lockable:
            return self._lock_entities(compiled, acquired, timeout)
        for class_name in compiled.lock_classes:
            acquired.append(
                (class_name,) + self.locks.acquire(
                    self.session_id, class_name, mode, timeout))
        return None

    def _lock_entities(self, compiled, acquired: List[tuple],
                       timeout: Optional[float]) -> List[int]:
        """IX on the class, X on each entity the qualification names.

        Resolution runs latch-free *before* any lock is taken, so it is
        a hint; the caller re-selects under the locks and intersects.
        Surrogates are locked in sorted order, so two sessions after
        overlapping entity sets collide in a deterministic order."""
        statement = compiled.statement
        class_name = statement.class_name
        # The read takes no latch (record slots are replaced
        # copy-on-write, never mutated in place).
        targets = sorted(self.executor.select_entities(
            class_name, statement.where, compiled.params))
        acquired.append(
            (class_name,) + self.locks.acquire(
                self.session_id, class_name, "IX", timeout))
        for surrogate in targets:
            key = (class_name, surrogate)
            acquired.append(
                (key,) + self.locks.acquire(
                    self.session_id, key, "X", timeout))
        return targets

    def __repr__(self):
        state = "open" if self.in_transaction() else "idle"
        mode = "mvcc" if self.mvcc else "2pl-read"
        return f"<Session #{self.session_id} {state} {mode}>"
