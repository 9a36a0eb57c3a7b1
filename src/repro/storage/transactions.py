"""Undo-log transactions with savepoints.

The paper relies on DMSII for transaction management (§1).  Our substrate
provides it as one layer under the Mapper, whoever the caller is: every
transaction belongs to a session (:mod:`repro.engine.sessions`; a
``Database`` statement runs on the database's own session), every
mutating operation registers an undo closure in the transaction active
on its thread; ABORT replays undos in reverse; COMMIT discards them.
Either then flushes the buffer pool and ends with a forced log record;
if that cannot finish, the manager fails the store (:meth:`TransactionManager.
ensure_running`) until recovery replaces it.
Savepoints support partial rollback, which the update engine uses to
make each DML statement atomic with respect to integrity failures (a
failed VERIFY rolls back only that statement).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, List, Optional, Set

from repro.errors import StoreFailedError, TransactionError
from repro.perf import PerfCounters
from repro.storage.latch import ranked_lock
from repro.storage.wal import ABORT, COMMIT


class Transaction:
    """One open transaction: a stack of undo closures.

    Ids are allocated by the owning :class:`TransactionManager`, not a
    process-wide counter, so transaction ids (and the WAL's loser
    detection) cannot interleave across independent ``Database``
    instances in one process, and seeded runs stay reproducible."""

    def __init__(self, manager: "TransactionManager", transaction_id: int):
        self.transaction_id = transaction_id
        self._manager = manager
        self._undo_log: List[Callable[[], None]] = []
        self.active = True
        self._rolling_back = False
        #: the VERIFY touches a deferred check owes at this
        #: transaction's commit (``ConstraintManager.after_statement``)
        self.deferred_keys: Set[tuple] = set()
        self.deferred_entities: Set[int] = set()

    def record_undo(self, undo: Callable[[], None]) -> None:
        if not self.active:
            raise TransactionError("transaction is not active")
        if self._rolling_back:
            # Undo actions run through the same mutators that normally
            # register undos; recording those would keep the log from ever
            # draining.  Compensation during rollback is not undoable.
            return
        self._undo_log.append(undo)

    def savepoint(self) -> int:
        """Return a mark usable with :meth:`rollback_to`."""
        if not self.active:
            raise TransactionError("transaction is not active")
        return len(self._undo_log)

    def rollback_to(self, mark: int) -> None:
        """Undo everything recorded after ``mark`` (statement-level abort)."""
        if not self.active:
            raise TransactionError("transaction is not active")
        if mark > len(self._undo_log):
            raise TransactionError(f"invalid savepoint {mark}")
        self._rolling_back = True
        try:
            while len(self._undo_log) > mark:
                self._undo_log.pop()()
        finally:
            self._rolling_back = False
        self._manager._fire_invalidation_hooks()

    def _commit(self) -> None:
        self._undo_log.clear()
        self.active = False

    def _abort(self) -> None:
        self._rolling_back = True
        try:
            while self._undo_log:
                self._undo_log.pop()()
        finally:
            self._rolling_back = False
        self.active = False

    def __repr__(self):
        state = "active" if self.active else "closed"
        return f"<Transaction #{self.transaction_id} {state}, " \
               f"{len(self._undo_log)} undo entries>"


class _ActiveTransaction(threading.local):
    """This thread's activated Transaction.  With a class-level default
    the auto-commit probe is a plain attribute load, not a caught
    AttributeError (``MapperStore`` asks it before every staged write)."""

    txn: Optional[Transaction] = None


class TransactionManager:
    """Hands out transactions; one protocol for every caller.

    ``begin_detached()`` mints a transaction its session owns;
    ``activate(txn)`` installs it as *this thread's* current transaction
    while the session runs a statement, a deferred check or an abort;
    ``commit_detached`` / ``abort_detached`` end it.  There is no global
    current transaction: ``current`` is thread-local, so code deep in
    the Mapper (``record_undo``, ``txn_context``) sees the transaction
    of the statement running on its thread, and a write with nothing
    activated is auto-committed.  Id allocation is mutex-protected so
    concurrent sessions cannot mint duplicate ids.

    When a buffer pool is attached, commit and abort flush dirty blocks
    before their end record, so what they leave is on the simulated disk.
    """

    def __init__(self, pool=None, wal=None, start_after: int = 0):
        self._pool = pool
        self._wal = wal
        #: per-manager id counter; ``start_after`` seeds it past ids a
        #: recovered log may still mention
        self._next_txn_id = start_after
        # Rank 60: only taken with no other lock held, in
        # begin_detached(); commit bodies are serialized by
        # store.commit_latch and abort/undo replay by the aborting
        # session's exclusive locks plus per-unit latches (see
        # analysis/lock_order.py).
        self._mutex = ranked_lock("storage.transactions")
        self._tls = _ActiveTransaction()
        #: counts commits and aborts (the store wires its own)
        self.perf = PerfCounters()
        #: callbacks fired after any rollback (full abort or partial
        #: rollback_to) — the Mapper registers its read-cache clear here,
        #: because undo surgery must invalidate caches, not just commits
        self.invalidation_hooks: List[Callable[[], None]] = []
        #: callbacks fired with the txn id when a transaction commits
        #: (after its undo log is discarded, before the pool flush) /
        #: aborts — the version manager promotes or drops pre-images here
        self.commit_hooks: List[Callable[[int], None]] = []
        self.abort_hooks: List[Callable[[int], None]] = []
        #: the error that stopped a commit past its in-memory commit
        #: point, or an abort, or None.  Set once, never cleared: the
        #: recovery pass builds a fresh manager.
        self.failure: Optional[BaseException] = None

    @property
    def current(self) -> Optional[Transaction]:
        """The transaction activated on this thread, or None."""
        return self._tls.txn

    def begin_detached(self) -> Transaction:
        """Mint a transaction WITHOUT installing it as current.

        Sessions each own one of these and scope it to their statements
        via :meth:`activate`; the mutex guarantees unique ids across
        threads."""
        with self._mutex:
            self._next_txn_id += 1
            return Transaction(self, self._next_txn_id)

    @contextmanager
    def activate(self, txn: Optional[Transaction]):
        """Install ``txn`` as this thread's current transaction for the
        duration of the block (nestable; restores the previous value)."""
        previous = self._tls.txn
        self._tls.txn = txn
        try:
            yield txn
        finally:
            self._tls.txn = previous

    def commit_detached(self, transaction: Transaction) -> None:
        """Commit a session-owned transaction (caller holds the store's
        commit latch; see ``MapperStore.commit_latch``)."""
        if not transaction.active:
            raise TransactionError("no active transaction")
        transaction._commit()
        # Commit hooks run at the in-memory commit point: the undo log is
        # gone, so even if the flush below faults mid-way, the version
        # manager must already treat the transaction as committed.
        for hook in self.commit_hooks:
            hook(transaction.transaction_id)
        with self._fail_stop():
            self._end(transaction, COMMIT)
        self.perf.bump("commits")

    def abort_detached(self, transaction: Transaction) -> None:
        """Abort a session-owned transaction.  The undo replay mutates
        through the normal mapper paths (each of which takes its unit's
        latch), so the caller must have the transaction activated on
        this thread and still hold the session's exclusive locks over
        everything the transaction touched."""
        if not transaction.active:
            raise TransactionError("no active transaction")
        with self._fail_stop():
            transaction._abort()
            self.perf.bump("aborts")
            for hook in self.abort_hooks:
                hook(transaction.transaction_id)
            self._fire_invalidation_hooks()
            self._end(transaction, ABORT)

    @contextmanager
    def _fail_stop(self):
        """Fail the store if the block raises.  Past the in-memory commit
        point (or once an abort has begun) there is no way back: the
        transaction's writes are visible, or half undone, yet no end
        record says so, and recovery will undo it as a loser.  A later
        commit over those writes would be undone with it, so nothing
        runs until recovery does."""
        try:
            yield
        except BaseException as exc:
            self.failure = exc
            raise

    def ensure_running(self) -> None:
        """Raise :class:`StoreFailedError` once the store has failed."""
        if self.failure is not None:
            raise StoreFailedError(
                f"the store stopped when a transaction could not end "
                f"({type(self.failure).__name__}: {self.failure}); "
                f"recover it first") from self.failure

    def _end(self, transaction: Transaction, kind: str) -> None:
        """Make a commit or an abort durable, in crash-safe order: data
        pages reach disk FIRST (flush itself forces the log before
        writing, per the WAL rule), and only then is the end record
        appended and forced.  The durable end record is the point past
        which recovery leaves the transaction alone: a crash anywhere
        before it leaves a loser whose flushed pages recovery undoes
        from before-images; a crash after it loses nothing, because
        everything the transaction wrote — its updates on commit, their
        compensations on abort — is already on disk.  The reverse order
        (end record first) would lose a commit's unflushed pages, or keep
        an abort's uncompensated stolen page, with no redo pass to repair
        either.  An abort takes no latch here: it publishes nothing other
        sessions read, and the flush and the append each lock what they
        touch."""
        if self._pool is not None:
            self._pool.flush()
        if self._wal is not None:
            self._wal.log_end(transaction.transaction_id, kind)

    def _fire_invalidation_hooks(self) -> None:
        for hook in self.invalidation_hooks:
            hook()

    def record_undo(self, undo: Callable[[], None]) -> None:
        """Record an undo in the active transaction, if any.

        Outside a transaction the operation is auto-committed: there is
        nothing to undo to, so the closure is dropped.
        """
        current = self.current
        if current is not None and current.active:
            current.record_undo(undo)

    def txn_context(self):
        """(txn id, rolling-back?) of the active transaction, for the WAL
        hooks (compensations during rollback become CLRs)."""
        current = self.current
        if current is not None and current.active:
            return (current.transaction_id, current._rolling_back)
        return (None, False)
