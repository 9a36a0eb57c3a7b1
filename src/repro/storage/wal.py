"""Write-ahead logging and crash recovery.

The paper delegates "transaction ... management" to DMSII (§1); a
credible substrate therefore needs durability, not just in-memory undo.
This module adds physical, slot-level write-ahead logging:

* every record mutation appends an UPDATE log record carrying before- and
  after-images of the slot;
* the log tail is *forced* to the simulated disk before any data block is
  written (the WAL rule — hooked into buffer-pool eviction and flush);
* COMMIT appends a commit record, forces the log, then flushes data pages
  (a force policy, so committed work needs no redo);
* compensations performed while rolling back are logged as CLRs
  (compensation log records), which recovery never undoes.

Recovery (after :meth:`repro.mapper.store.MapperStore.simulate_crash`)
replays the *disk-resident* log backwards, restoring the before-image of
every non-CLR update belonging to a transaction without a commit record —
exactly the steal/force discipline's undo pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.perf import PerfCounters
from repro.storage.latch import ranked_lock

UPDATE = "update"
COMMIT = "commit"
CLR = "clr"
CHECKPOINT = "checkpoint"


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
    """An append-only log with an explicitly forced (durable) prefix."""

    def __init__(self):
        self._records: List[LogRecord] = []
        self._durable_upto = 0       # count of records safely "on disk"
        self._next_lsn = 1
        # Rank 6, the hierarchy's innermost lock: appends arrive from
        # concurrent sessions' statements (under unit latches, rank 42)
        # and force() runs under the buffer pool's lock (rank 10) during
        # eviction, so the log's own mutex must sit below both.
        self._mutex = ranked_lock("storage.wal")
        self.last_checkpoint_lsn = 0
        #: optional fault injector / retry policy applied to forces —
        #: a force is the log device's write, so it can fail too
        self.faults = None
        self.retry = None
        #: counts forces and checkpoints (the store wires its own)
        self.perf = PerfCounters()

    # -- Writing -----------------------------------------------------------------

    def append(self, txn_id: Optional[int], kind: str,
               payload: Optional[tuple] = None) -> int:
        with self._mutex:
            lsn = self._next_lsn
            self._next_lsn += 1
            self._records.append(LogRecord(lsn, txn_id, kind, payload))
            return lsn

    def log_update(self, txn_id: Optional[int], file_id: int, block_no: int,
                   slot: int, before, after, compensation: bool) -> int:
        kind = CLR if compensation else UPDATE
        return self.append(txn_id, kind,
                           (file_id, block_no, slot, before, after))

    def log_commit(self, txn_id: int) -> int:
        lsn = self.append(txn_id, COMMIT)
        self.force()
        return lsn

    def force(self) -> None:
        """Make the whole tail durable (the WAL rule's flush).

        The force is itself a device write: an injected fault here leaves
        the tail volatile (the caller's data-page write must not proceed),
        and transient faults are absorbed by the attached retry policy.
        """
        with self._mutex:
            if self._durable_upto >= len(self._records):
                return
            forced = len(self._records) - self._durable_upto
            if self.faults is not None:
                if self.retry is not None:
                    self.retry.call(self.faults.on_force)
                else:
                    self.faults.on_force()
            self._durable_upto = len(self._records)
        self.perf.bump("wal_forces")
        self.perf.bump("wal_records_forced", forced)

    # -- Crash / recovery ------------------------------------------------------------

    def crash(self) -> None:
        """Drop the volatile tail, keeping only the forced prefix."""
        with self._mutex:
            self._records = self._records[:self._durable_upto]
            self._next_lsn = (self._records[-1].lsn + 1
                              if self._records else 1)

    def durable_records(self) -> List[LogRecord]:
        return list(self._records[:self._durable_upto])

    def committed_transactions(self) -> Set[int]:
        return {r.txn_id for r in self.durable_records()
                if r.kind == COMMIT}

    def loser_updates(self) -> List[LogRecord]:
        """Durable non-CLR updates of transactions without a durable
        commit record, newest first (the undo pass's work list).

        Records with ``txn_id`` None are auto-committed (Mapper-level
        operations outside any transaction) and are never undone.
        """
        winners = self.committed_transactions()
        losers = [r for r in self.durable_records()
                  if r.kind == UPDATE and r.txn_id is not None
                  and r.txn_id not in winners]
        return list(reversed(losers))

    def truncate(self) -> None:
        """Discard the log after a successful recovery (checkpoint)."""
        with self._mutex:
            self._records.clear()
            self._durable_upto = 0

    def checkpoint(self) -> int:
        """Post-recovery checkpoint: the disk image now holds exactly the
        committed state, so the log restarts empty.  LSNs stay monotonic
        across the checkpoint; returns the watermark LSN.  Idempotent —
        checkpointing an empty log is a no-op on the watermark."""
        if self._records:
            self.last_checkpoint_lsn = self._next_lsn - 1
        self.truncate()
        self.perf.bump("wal_checkpoints")
        return self.last_checkpoint_lsn

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
