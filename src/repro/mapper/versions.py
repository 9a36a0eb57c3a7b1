"""Logical pre-image version chains: MVCC snapshot reads for the Mapper.

The paper leans on DMSII for concurrency control (§1); this module is
the substrate's reader half of it.  Writers keep strict 2PL exclusive
locks (:mod:`repro.engine.sessions`) and mutate records in place, but
*before* every first mutation of a logical read unit they stage its
pre-image here.  A Retrieve then runs against a :class:`Snapshot`
pinned to a commit epoch: commits with a later epoch, and other
transactions' uncommitted writes, are invisible — readers never take
class locks and never block writers.

Version granularity is the Mapper's logical read unit, not the physical
page.  Three key shapes cover every read path:

* ``("rec", class, surrogate)`` — an entity's role record: the
  pre-image ``(rid, field dict)``, or :data:`ABSENT` when the role did
  not exist (so records inserted after the snapshot disappear);
* ``("mv", class, attr, surrogate)`` — a separate-unit MV DVA's value
  tuple;
* ``("fan", rel_id, side, surrogate)`` — one side of an EVA fan-out.

Class membership, like every index, derives from the ``rec`` chains:
an entity holds a role exactly when it has a record in the class's
unit, and a role that did not exist is staged as :data:`ABSENT`.
Unique, value and ordered DVA index entries derive from role records
too, and are only ever maintained inside a record write that staged
that record's pre-image first — so the ``rec`` chains are already the
membership- and index-delta log, and all a scan, a count or an
index-served read needs is to find them *by class*: :meth:`changed` is
the set of surrogates whose record in a class differs, or may differ,
from what a snapshot sees — all that ONE physical state of an extent or
an index gets wrong, so the reader corrects the latest state by
re-reading exactly those through the versioned read (``MapperStore.
scan_class``, ``class_count``, ``_find``).  Writers pay one append per
staged record for it.

Visibility rule: a reader at epoch ``S`` takes the pre-image of the
*earliest* committed change with epoch ``> S`` (the value as it stood at
``S``); failing that, the pre-image of another transaction's pending
write; failing that, the physical state.  The reader's own uncommitted
writes read physical (read-your-own-writes).

Writers stage BEFORE mutating, so a lock-free reader can double-check:
probe the version map, read physical on a miss, then re-probe — a
concurrent mutation is caught by the second probe — unless it was
*aborted* in between, which leaves nothing to find: an abort counts
itself (``aborts``) before its first pre-image goes, and a reader whose
probes both missed reads again when the count moved.  The probe's miss —
the answer for every key no writer has touched — takes no mutex either
(:meth:`VersionManager.lookup`, :meth:`VersionManager.changed`): a key
is looked for among the pending entries first and the committed ones
second, and a commit chains it before it unpends it, so a staged key is
never in neither.  Readers probe some fifty times per statement; two
threads meeting on a mutex that often hand it back and forth through
the operating system until one of them blocks on I/O.

Chains are pruned to the oldest active snapshot's epoch: a reader at
``S`` only ever selects entries with epoch ``> S``, so once no snapshot
is older than an entry it is unreachable and dropped; with no snapshots
open at all the chains empty out entirely.

Unless the chains are *retained* (``retain``, the paper's §6 "temporal
data"): then nothing is pruned, the commit epoch is the database's one
clock, and the state as of any retained epoch is an ordinary read under
:meth:`VersionManager.pin`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SimError
from repro.perf import PerfCounters
from repro.storage.latch import ranked_lock


class _Absent:
    """Sentinel pre-image: the role/record did not exist at staging."""

    __slots__ = ()

    def __repr__(self):
        return "<ABSENT>"


ABSENT = _Absent()


class Snapshot:
    """A pinned read view: commits with epoch <= ``epoch`` are visible;
    later commits and other transactions' pending writes are not.
    ``txn_id`` marks the reader's own transaction (if any) so the
    snapshot reads its own uncommitted writes physically."""

    __slots__ = ("epoch", "txn_id", "active")

    def __init__(self, epoch: int, txn_id: Optional[int] = None):
        self.epoch = epoch
        self.txn_id = txn_id
        self.active = True

    def __repr__(self):
        return f"<Snapshot epoch={self.epoch} txn={self.txn_id}>"


class VersionManager:
    """Pending pre-images + committed version chains, under one mutex
    — which a reader takes only for a key or class a writer has touched
    (module docstring).

    Every write inside a transaction stages.  An auto-committed
    Mapper-level write (transaction id None: population) stages only
    when somebody could read its pre-image (:meth:`unwatched_commit`).
    """

    def __init__(self):
        self._mutex = ranked_lock("mapper.versions")
        #: keep every committed version (``MapperStore.enable_history``)
        self.retain = False
        #: commit counter; bumped once per committed transaction that
        #: staged anything
        self.epoch = 0
        #: aborted transactions that had staged anything (module doc)
        self.aborts = 0
        # pending (uncommitted) pre-images: key -> (txn_id, pre)
        self._pending: Dict[tuple, Tuple[Optional[int], object]] = {}
        self._txn_keys: Dict[Optional[int], List[tuple]] = {}
        # committed chains: key -> [(epoch, pre_image)] ascending
        self._chains: Dict[tuple, List[Tuple[int, object]]] = {}
        # the ``rec`` keys again, by class (``changed``): pending
        # class -> {surrogate: txn}; committed class -> [(epoch,
        # surrogate)] ascending, pruned with the chains
        self._rec_pending: Dict[str, Dict[int, Optional[int]]] = {}
        self._rec_changes: Dict[str, List[Tuple[int, int]]] = {}
        # active snapshots by pinned epoch (for chain GC)
        self._active: Dict[int, int] = {}
        self._pruned_to = 0
        #: counts snapshots opened (the store wires its own)
        self.perf = PerfCounters()

    # -- Snapshot lifecycle ------------------------------------------------------

    def begin_snapshot(self, txn_id: Optional[int] = None) -> Snapshot:
        with self._mutex:
            snap = Snapshot(self.epoch, txn_id)
            self._active[snap.epoch] = self._active.get(snap.epoch, 0) + 1
        self.perf.bump("snapshots_opened")
        return snap

    def end_snapshot(self, snap: Snapshot) -> None:
        with self._mutex:
            if not snap.active:
                return
            snap.active = False
            count = self._active.get(snap.epoch, 0) - 1
            if count <= 0:
                self._active.pop(snap.epoch, None)
            else:
                self._active[snap.epoch] = count
            self._prune()

    def pin(self, epoch: int) -> Snapshot:
        """An as-of view of retained history.  Retention, not
        ``_active``, keeps its versions alive: it is neither registered
        nor counted, and there is nothing to end."""
        if epoch < self._pruned_to:
            raise SimError(
                f"epoch {epoch} is older than the retained history, which "
                f"starts at {self._pruned_to} (pruned, or lost in a crash)")
        return Snapshot(epoch)

    # -- Writer side: staging ----------------------------------------------------

    def is_staged(self, key: tuple) -> bool:
        """True when a pending pre-image exists for ``key`` (the
        writer's exclusive class or entity locks guarantee it can only
        be this transaction's), so the store can skip recomputing the
        pre-image."""
        return key in self._pending

    def unwatched_commit(self) -> bool:
        """For an auto-committed Mapper-level write: True (and the
        epoch stepped) when no snapshot is pinned and history is not
        retained — nobody can ask for its pre-image, so none is read.
        Decided under the mutex: a snapshot beginning at the same moment
        is either counted here (the write stages) or pins after it."""
        with self._mutex:
            if self._active or self.retain:
                return False
            self.epoch += 1
            return True

    def stage(self, txn_id: Optional[int], key: tuple, pre_image) -> None:
        """Record ``key``'s pre-image before its first mutation by
        ``txn_id`` (first write wins).  A ``txn_id`` of None is an
        auto-committed Mapper-level mutation: it becomes a committed
        chain entry immediately."""
        with self._mutex:
            if txn_id is None:
                self.epoch += 1
                self._chain(key, self.epoch, pre_image)
                self._prune()
                return
            if key in self._pending:
                return
            self._pending[key] = (txn_id, pre_image)
            self._txn_keys.setdefault(txn_id, []).append(key)
            if key[0] == "rec":
                self._rec_pending.setdefault(key[1], {})[key[2]] = txn_id

    def _chain(self, key: tuple, epoch: int, pre_image) -> None:
        self._chains.setdefault(key, []).append((epoch, pre_image))
        if key[0] == "rec":
            self._rec_changes.setdefault(key[1], []).append((epoch, key[2]))

    # -- Writer side: transaction outcome ----------------------------------------

    def commit(self, txn_id: int) -> None:
        """Promote the transaction's pending pre-images to committed
        chain entries under one new epoch (the visibility flip: new
        snapshots now see the transaction's writes physically; open
        snapshots keep reading the chained pre-images)."""
        with self._mutex:
            keys = self._txn_keys.pop(txn_id, None)
            if not keys:
                return
            self.epoch += 1
            for key in keys:
                # chained, THEN unpended: the lock-free miss looks at
                # the pending entries first
                self._chain(key, self.epoch, self._pending[key][1])
                self._unpend(key)
            self._prune()

    def abort(self, txn_id: int) -> None:
        """Drop the transaction's pending pre-images (the undo log has
        restored the physical state they described)."""
        with self._mutex:
            keys = self._txn_keys.pop(txn_id, ())
            if keys:
                self.aborts += 1    # counted first (module doc)
            for key in keys:
                self._unpend(key)

    def _unpend(self, key: tuple) -> None:
        if key[0] == "rec":
            del self._rec_pending[key[1]][key[2]]
        del self._pending[key]

    # -- Reader side -------------------------------------------------------------

    def lookup(self, snap: Snapshot, key: tuple) -> Tuple[bool, object]:
        """``(hit, pre_image)`` for one key under ``snap``.

        A miss means the physical state IS the snapshot state for this
        key (no commit after the snapshot's epoch, no foreign pending
        write) — or that the reader owns the pending write and should
        read its own mutation physically.
        """
        if key not in self._pending and key not in self._chains:
            return (False, None)        # untouched: no mutex (module doc)
        with self._mutex:
            pending = self._pending.get(key)
            if (pending is not None and snap.txn_id is not None
                    and pending[0] == snap.txn_id):
                return (False, None)
            chain = self._chains.get(key)
            if chain is not None:
                # Epochs ascend, and a 1-tuple sorts before every entry
                # with the same epoch without comparing pre-images: the
                # first entry with epoch > S, in O(log history).
                at = bisect_left(chain, (snap.epoch + 1,))
                if at < len(chain):
                    return (True, chain[at][1])
            if pending is not None:
                return (True, pending[1])
            return (False, None)

    def changed(self, snap: Optional[Snapshot], class_names) -> Set[int]:
        """The surrogates whose role record in any of these classes has
        another transaction's pending pre-image or a chain entry newer
        than ``snap`` — everything the latest state of the class (its
        indexes included) may show differently from the snapshot.
        Empty (as it is with nothing pinned): physical index paths over
        the classes are exact."""
        found: Set[int] = set()
        if snap is None:
            return found
        for class_name in class_names:
            if self._rec_pending.get(class_name):
                break
            newest = self._rec_changes.get(class_name, ())[-1:]
            if newest and newest[0][0] > snap.epoch:
                break
        else:
            return found                # no writer in sight: no mutex
        with self._mutex:
            for class_name in class_names:
                pending = self._rec_pending.get(class_name)
                if pending:
                    found.update(surrogate for surrogate, txn_id
                                 in pending.items() if txn_id != snap.txn_id)
                changes = self._rec_changes.get(class_name)
                if changes and changes[-1][0] > snap.epoch:
                    at = bisect_left(changes, (snap.epoch + 1,))
                    found.update(s for _, s in changes[at:])
        return found

    def change_epochs(self, keys) -> List[int]:
        """The commit epochs, ascending, at which any of ``keys``
        changed, as far back as the chains reach."""
        with self._mutex:
            return sorted({epoch for key in keys
                           for epoch, _ in self._chains.get(key, ())})

    # -- Maintenance -------------------------------------------------------------

    def _prune(self) -> None:  # noqa: SIM303 — every caller holds _mutex
        """Drop chain entries no active snapshot can reach (epoch <= the
        oldest pinned epoch; a reader at S only selects entries > S)."""
        if self.retain:
            return
        floor = min(self._active) if self._active else self.epoch
        if floor <= self._pruned_to:
            return
        self._pruned_to = floor
        for key in list(self._chains):
            chain = [e for e in self._chains[key] if e[0] > floor]
            if chain:
                self._chains[key] = chain
            else:
                del self._chains[key]
        for changes in self._rec_changes.values():
            del changes[:bisect_left(changes, (floor + 1,))]

    def reset(self) -> None:
        """Crash path: all snapshots and versions are volatile state.
        The epoch stays monotonic so a stale Snapshot object can never
        see a fresh epoch as 'old'."""
        with self._mutex:
            self._pending.clear()
            self._txn_keys.clear()
            self._chains.clear()
            self._rec_pending.clear()
            self._rec_changes.clear()
            self._active.clear()
            self._pruned_to = self.epoch

    def statistics(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "epoch": self.epoch,
                "snapshots_opened": self.perf.snapshots_opened,
                "active_snapshots": sum(self._active.values()),
                "chained_keys": len(self._chains),
                "pending_keys": len(self._pending),
            }

    def __repr__(self):
        return (f"<VersionManager epoch={self.epoch} "
                f"chains={len(self._chains)} pending={len(self._pending)}>")
