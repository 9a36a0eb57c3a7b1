"""Write-ahead logging and crash recovery.

The paper delegates "transaction ... management" to DMSII (§1); a
credible substrate therefore needs durability, not just in-memory undo.
This module adds physical, slot-level write-ahead logging:

* every record mutation appends an UPDATE log record carrying before- and
  after-images of the slot;
* the log tail is *forced* to the simulated disk before any data block is
  written (the WAL rule — hooked into buffer-pool eviction and flush);
* COMMIT flushes the data pages (which forces the log first), then
  appends a commit record and forces it: a force policy, so committed
  work needs no redo, and the durable commit record is the commit point;
* ABORT undoes the transaction in memory, logging each compensation as a
  CLR (compensation log record, which recovery never undoes), then
  flushes those compensations and ends with an ABORT record the same way.

Recovery (after :meth:`repro.mapper.store.MapperStore.simulate_crash`)
replays the *disk-resident* log backwards, restoring the before-image of
every non-CLR update belonging to a transaction without a durable end
(COMMIT or ABORT) record — exactly the steal/force discipline's undo pass.

So the log is held while recovery can read it, and no longer: once a
transaction's end record is durable, or for a write no transaction owns
(auto-committed), undo never reads its records again.  The log compacts
itself down to the open transactions' records whenever it outgrows a
threshold (:meth:`WriteAheadLog.append`), which bounds it by what is in
flight rather than by what was ever written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.perf import PerfCounters
from repro.storage.latch import ranked_lock

UPDATE = "update"
COMMIT = "commit"
ABORT = "abort"
CLR = "clr"
#: the kinds that end a transaction
ENDS = (COMMIT, ABORT)


@dataclass(frozen=True)
class LogRecord:
    """One log entry.  ``payload`` for UPDATE/CLR is
    (file_id, block_no, slot, before_entry, after_entry); entries are
    ``None`` (empty slot) or the slot itself, ``(format_id, record)`` —
    immutable, so the log shares it with the block (:class:`~repro.
    storage.buffer.Block`) instead of copying it."""

    lsn: int
    txn_id: Optional[int]
    kind: str
    payload: Optional[tuple] = None


class WriteAheadLog:
    """An append-only log with an explicitly forced (durable) prefix,
    holding only the records of transactions still open."""

    #: the log compacts when it holds this many records, or twice what
    #: the last compaction kept if that is more (so a long transaction
    #: costs amortized O(1) per append, not a rescan per record)
    COMPACT_AT = 4096

    def __init__(self):
        self._records: List[LogRecord] = []
        self._durable_upto = 0       # count of records safely "on disk"
        self._next_lsn = 1
        self._compact_at = self.COMPACT_AT
        #: transactions with a record and no durable end record: the only
        #: ones whose records recovery can still read.  ``_ending`` are
        #: those whose end record is appended but not yet forced — a
        #: crash before the force leaves them losers, so they stay open
        #: until it lands.
        self._open: Set[int] = set()
        self._ending: List[int] = []
        #: the highest transaction id ever logged: a recovered manager
        #: mints ids above it, so no id names two transactions even
        #: after the records naming the first are compacted away
        self.txn_watermark = 0
        # Rank 6, the hierarchy's innermost lock: appends arrive from
        # concurrent sessions' statements (under unit latches, rank 42)
        # and force() runs under the buffer pool's lock (rank 10) during
        # eviction, so the log's own mutex must sit below both.
        self._mutex = ranked_lock("storage.wal")
        self.last_checkpoint_lsn = 0
        #: optional fault injector / retry policy applied to forces —
        #: a force is the log device's write, so it can fail too — and
        #: the injector to appends, where it can only crash the machine
        self.faults = None
        self.retry = None
        #: counts appends, forces and compactions (the store wires its own)
        self.perf = PerfCounters()

    # -- Writing -----------------------------------------------------------------

    def append(self, txn_id: Optional[int], kind: str,
               payload: Optional[tuple] = None) -> int:
        with self._mutex:
            lsn = self._next_lsn
            self._next_lsn += 1
            self._records.append(LogRecord(lsn, txn_id, kind, payload))
            if txn_id is not None:
                if txn_id > self.txn_watermark:
                    self.txn_watermark = txn_id
                if kind in ENDS:
                    self._ending.append(txn_id)
                else:
                    self._open.add(txn_id)
            compacted = len(self._records) >= self._compact_at
            if compacted:
                self._compact()
        self.perf.bump("wal_records")
        if compacted:
            self.perf.bump("wal_checkpoints")
        if self.faults is not None:
            self.faults.on_append()
        return lsn

    def log_update(self, txn_id: Optional[int], file_id: int, block_no: int,
                   slot: int, before, after, compensation: bool) -> int:
        kind = CLR if compensation else UPDATE
        return self.append(txn_id, kind,
                           (file_id, block_no, slot, before, after))

    def log_end(self, txn_id: int, kind: str) -> int:
        """Append a COMMIT or ABORT record and force it: once durable,
        the transaction is over for recovery too."""
        lsn = self.append(txn_id, kind)
        self.force()
        return lsn

    def force(self) -> None:
        """Make the whole tail durable (the WAL rule's flush).

        The force is itself a device write: an injected fault here leaves
        the tail volatile (the caller's data-page write must not proceed),
        and transient faults are absorbed by the attached retry policy.
        """
        with self._mutex:
            forced = len(self._records) - self._durable_upto
            if forced:
                if self.faults is not None:
                    if self.retry is not None:
                        self.retry.call(self.faults.on_force)
                    else:
                        self.faults.on_force()
                self._durable_upto = len(self._records)
            if self._ending:
                self._open.difference_update(self._ending)
                self._ending.clear()
        if forced:
            self.perf.bump("wal_forces")
            self.perf.bump("wal_records_forced", forced)

    def _compact(self) -> None:
        """Drop every record recovery can no longer read: keep the open
        transactions' records, in order, durable ones still first.
        Auto-committed records (``txn_id`` None) and those of ended
        transactions go; undo never reads either, so nothing needs to
        reach the disk first.  Caller holds the mutex."""
        open_txns, durable = self._open, self._durable_upto
        kept = [r for r in self._records[:durable] if r.txn_id in open_txns]
        self._durable_upto = len(kept)
        kept += [r for r in self._records[durable:] if r.txn_id in open_txns]
        self._records = kept
        self._compact_at = max(self.COMPACT_AT, 2 * len(kept))
        self.last_checkpoint_lsn = self._next_lsn - 1

    # -- Crash / recovery ------------------------------------------------------------

    def crash(self) -> None:
        """Drop the volatile tail, keeping only the forced prefix.  LSNs
        are never reused: the next one stays past every LSN handed out,
        compacted or lost."""
        with self._mutex:
            self._records = self._records[:self._durable_upto]
            self._ending.clear()

    def durable_records(self) -> List[LogRecord]:
        return list(self._records[:self._durable_upto])

    def ended_transactions(self) -> Set[int]:
        return {r.txn_id for r in self.durable_records() if r.kind in ENDS}

    def loser_updates(self) -> List[LogRecord]:
        """Durable non-CLR updates of transactions without a durable end
        record, newest first (the undo pass's work list).

        Records with ``txn_id`` None are auto-committed (Mapper-level
        operations outside any transaction) and are never undone.
        """
        ended = self.ended_transactions()
        losers = [r for r in self.durable_records()
                  if r.kind == UPDATE and r.txn_id is not None
                  and r.txn_id not in ended]
        return list(reversed(losers))

    def checkpoint(self) -> int:
        """Post-recovery checkpoint: undo has restored every loser, so no
        transaction is open any more and the compaction keeps nothing.
        LSNs stay monotonic; returns the watermark LSN.  Idempotent — a
        second checkpoint with nothing appended leaves the watermark."""
        with self._mutex:
            self._open.clear()
            self._ending.clear()
            self._compact()
        self.perf.bump("wal_checkpoints")
        return self.last_checkpoint_lsn

    # -- Saving -----------------------------------------------------------------

    def durable_image(self) -> dict:
        """What survives a restart: the durable records and the counters
        that must stay monotonic past them (``persistence`` saves it)."""
        return {"records": self.durable_records(),
                "next_lsn": self._next_lsn,
                "txn_watermark": self.txn_watermark,
                "last_checkpoint_lsn": self.last_checkpoint_lsn}

    def restore(self, image: dict) -> None:
        """Reload a :meth:`durable_image` into an empty log (then run
        recovery: the records are all durable, the open set is not)."""
        records = self._records = list(image["records"])
        self._durable_upto = len(records)
        self._next_lsn = image.get("next_lsn",
                                   records[-1].lsn + 1 if records else 1)
        self.txn_watermark = image.get("txn_watermark", 0)
        self.last_checkpoint_lsn = image.get("last_checkpoint_lsn", 0)

    def __len__(self):
        return len(self._records)


def undo_losers(wal: WriteAheadLog, disk, formats_by_file=None,
                retry=None) -> int:
    """Apply before-images of loser updates to the disk, newest first.

    Returns the number of slot restorations performed.  Operates directly
    on disk block images (the buffer pool is gone after a crash).

    The pass is **idempotent and re-runnable**: each restoration writes an
    absolute before-image, independent of the block's current content, in
    a fixed (newest-first) order derived solely from the durable log — so
    a crash *during* recovery followed by a fresh run converges to the
    same disk image as an uninterrupted run.  Nothing here appends to the
    log, which is what keeps re-runs working from the same work list.

    ``formats_by_file`` maps ``file_id -> {format_id: RecordFormat}`` (the
    owning files' registries) so the block's used-space header is restored
    to the true occupied *width*; without it a slot-count estimate is used
    and the free-space map is only honest again after
    ``rebuild_metadata``.  ``retry`` (a RetryPolicy) absorbs transient
    device faults during the undo pass itself.
    """
    if retry is not None:
        read = lambda f, b: retry.call(disk.read, f, b)
        write = lambda f, b, blk: retry.call(disk.write, f, b, blk)
    else:
        read, write = disk.read, disk.write
    restored = 0
    for record in wal.loser_updates():
        file_id, block_no, slot, before, _after = record.payload
        block = read(file_id, block_no)
        while len(block.slots) <= slot:
            block.slots.append(None)
        block.slots[slot] = before
        _fix_used(block, (formats_by_file or {}).get(file_id))
        write(file_id, block_no, block)
        restored += 1
    return restored


def _fix_used(block, formats=None) -> None:
    """Recompute the block's used-space counter after slot surgery.

    With the owning file's format registry the true occupied width is
    computed, so the free-space map is honest even between undo surgery
    and ``rebuild_metadata``.  Without formats only a slot-count estimate
    is possible (kept as a fallback for bare-log callers)."""
    if formats:
        block.used = sum(formats[entry[0]].width
                         for entry in block.slots if entry is not None)
    else:
        block.used = sum(1 for entry in block.slots if entry is not None)
