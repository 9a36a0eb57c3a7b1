"""Record files: slotted blocks of fixed-width, variable-format records.

A :class:`RecordFile` corresponds to one "storage unit" of §5.2.  It may
mix several record formats in one file (variable-format records), tracks
free space per block, and supports *clustered* insertion (place a record
in the same block as a related record when it fits) — the mapping option
whose first-instance access cost the paper quotes as 0 I/O.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.latch import ranked_lock
from repro.storage.records import RecordFormat, RID


class RecordFile:
    """One storage unit: an extendable sequence of slotted blocks.

    Records are addressed by :class:`RID` and never move once inserted
    (no compaction), so RIDs are stable and can serve as "absolute
    addresses" (§5.2 pointer mapping) and "direct keys" (record numbers).
    """

    def __init__(self, file_id: int, name: str, pool: BufferPool,
                 block_size: int = 1024):
        if block_size < 64:
            raise StorageError(f"block size {block_size} too small")
        self.file_id = file_id
        self.name = name
        self.pool = pool
        self.block_size = block_size
        #: fraction of each block held back from ordinary inserts so that
        #: clustered (near=...) inserts still find room next to their
        #: anchor record (0.0 = no reservation)
        self.cluster_reserve = 0.0
        #: optional write-ahead log and transaction-context provider
        #: (callable returning (txn_id, rolling_back)); wired by the Mapper
        self.wal = None
        self.txn_context = None
        #: per-unit write latch (rank 42, ``store.unit_latch``): every
        #: Mapper mutator takes the latch of the single unit it writes
        #: for just that operation, so same-class writers to *different*
        #: entities interleave between operations instead of serializing
        #: per statement.  Latches are leaf-per-operation by design —
        #: two unit latches are never held at once (equal rank would
        #: trip lockdep, which is the enforcement).
        self.latch = ranked_lock("store.unit_latch")
        self.formats: Dict[int, RecordFormat] = {}
        # In-memory extent metadata (a real system keeps this in a file
        # header block; we charge no I/O for it).
        self._block_count = 0
        self._free_space: List[int] = []   # free bytes per block
        self._record_count = 0
        # Upper bound on the largest free-space value any non-tail block
        # can hold (the tail is probed directly).  The first-fit scan in
        # _choose_block is skipped entirely while the bound proves no
        # block can fit — without it, bulk loads at 10^5+ records pay an
        # O(blocks) scan per insert once the tail fills (O(n^2) total).
        # Deletes/undeletes raise the bound; a failed scan tightens it to
        # the exact maximum; placement is bit-identical to the plain scan.
        self._free_hint = 0

    # -- Format registry ----------------------------------------------------------

    def register_format(self, record_format: RecordFormat) -> RecordFormat:
        if record_format.format_id in self.formats:
            raise StorageError(
                f"format #{record_format.format_id} already registered in "
                f"{self.name!r}")
        if record_format.width > self.block_size:
            raise StorageError(
                f"record format {record_format.name!r} (width "
                f"{record_format.width}) exceeds block size {self.block_size}")
        self.formats[record_format.format_id] = record_format
        return record_format

    def blocking_factor(self, format_id: int) -> int:
        """Records of this format per block, if stored homogeneously."""
        return max(1, self.block_size // self.formats[format_id].width)

    # -- Insert / read / update / delete -------------------------------------------

    def insert(self, format_id: int, record: tuple,
               near: Optional[RID] = None) -> RID:
        """Insert a record — a tuple of values in the format's field
        order; with ``near``, try to cluster next to that RID."""
        record_format = self._format(format_id)
        if (type(record) is not tuple
                or len(record) != len(record_format.positions)):
            raise StorageError(
                f"format {record_format.name!r} stores a tuple of "
                f"{len(record_format.positions)} values, not {record!r}")
        width = record_format.width
        block_no = self._choose_block(width, near)
        block = self.pool.get(self.file_id, block_no)
        entry = (format_id, record)
        block.slots.append(entry)
        block.used += width
        self._free_space[block_no] = self.block_size - block.used
        self.pool.mark_dirty(self.file_id, block_no, block)
        self._record_count += 1
        rid = RID(block_no, len(block.slots) - 1)
        self._log(rid, None, entry)
        return rid

    def _choose_block(self, width: int, near: Optional[RID]) -> int:
        if near is not None and near.block < self._block_count:
            # Clustered inserts may dip into the reserved space.
            if self._free_space[near.block] >= width:
                return near.block
        # Ordinary inserts respect the cluster reservation.
        reserve = int(self.block_size * self.cluster_reserve)
        need = width + reserve
        # First fit over existing blocks, preferring the tail for locality.
        if self._block_count and self._free_space[self._block_count - 1] >= need:
            return self._block_count - 1
        if self._free_hint >= need:
            max_free = 0
            for block_no in range(self._block_count):
                free = self._free_space[block_no]
                if free >= need:
                    return block_no
                if free > max_free:
                    max_free = free
            self._free_hint = max_free
        if self._block_count:
            # The old tail joins the scannable region; fold its leftover
            # into the bound so mixed-width loads still first-fit into it.
            tail_free = self._free_space[self._block_count - 1]
            if tail_free > self._free_hint:
                self._free_hint = tail_free
        self._block_count += 1
        self._free_space.append(self.block_size)
        return self._block_count - 1

    def read(self, rid: RID) -> Tuple[int, tuple]:
        """Read one record: ``(format_id, record)``, the slot itself."""
        return self._entry(self._block_of(rid), rid)

    def read_many(self, rids: List[RID]) -> List[Tuple[int, tuple]]:
        """Read records a block at a time: the slots at ``rids``, in
        ``rids`` order.  The RIDs are grouped by block and the blocks
        visited in ascending order, one :meth:`BufferPool.get` per
        distinct block; a block's records are taken while it is in
        hand, and no block is held across the next ``get``."""
        by_block: Dict[int, List[int]] = {}
        for at, rid in enumerate(rids):
            group = by_block.get(rid.block)
            if group is None:
                by_block[rid.block] = [at]
            else:
                group.append(at)
        slots: List[Tuple[int, tuple]] = [None] * len(rids)
        for block_no in sorted(by_block):
            group = by_block[block_no]
            block = self._block_of(rids[group[0]])
            for at in group:
                slots[at] = self._entry(block, rids[at])
        return slots

    def update(self, rid: RID, values: Mapping[str, object]) -> None:
        """Overwrite the named fields of a record.

        The slot is replaced by a new tuple built from the old one, so a
        concurrent reader (MVCC double-check, another class's writer
        flushing this block) holds either the old record or the new one,
        never a half-written one."""
        block = self._block_of(rid)
        before = self._entry(block, rid)
        format_id, record = before
        record_format = self._format(format_id)
        positions, stored = record_format.positions, list(record)
        for name, value in values.items():
            if name not in positions:
                raise StorageError(
                    f"format {record_format.name!r} has no field {name!r}")
            stored[positions[name]] = value
        after = (format_id, tuple(stored))
        block.slots[rid.slot] = after
        self.pool.mark_dirty(self.file_id, rid.block, block)
        self._log(rid, before, after)

    def delete(self, rid: RID) -> tuple:
        """Tombstone a record; returns it (for undo)."""
        block = self._block_of(rid)
        before = self._entry(block, rid)
        format_id, record = before
        block.slots[rid.slot] = None
        width = self._format(format_id).width
        block.used -= width
        freed = self.block_size - block.used
        self._free_space[rid.block] = freed
        if freed > self._free_hint:
            self._free_hint = freed
        self.pool.mark_dirty(self.file_id, rid.block, block)
        self._record_count -= 1
        self._log(rid, before, None)
        return record

    def undelete(self, rid: RID, format_id: int, record: tuple) -> None:
        """Restore a tombstoned record — the tuple :meth:`delete`
        returned — at its RID (transaction undo path)."""
        block = self._block_of(rid)
        if rid.slot >= len(block.slots) or block.slots[rid.slot] is not None:
            raise StorageError(f"cannot undelete occupied slot {rid}")
        after = (format_id, record)
        block.slots[rid.slot] = after
        width = self._format(format_id).width
        block.used += width
        self._free_space[rid.block] = self.block_size - block.used
        self.pool.mark_dirty(self.file_id, rid.block, block)
        self._record_count += 1
        self._log(rid, None, after)

    def exists(self, rid: RID) -> bool:
        if rid.block >= self._block_count:
            return False
        block = self.pool.get(self.file_id, rid.block)
        return (rid.slot < len(block.slots)
                and block.slots[rid.slot] is not None)

    def _log(self, rid: RID, before, after) -> None:
        """Write-ahead log hook for one slot mutation."""
        self.pool.perf.bump("record_mutations")
        trace = self.pool.trace
        if trace is not None and trace.enabled:
            trace.count(f"storage.mutated[{self.name}]")
        if self.wal is None:
            return
        txn_id, rolling_back = (self.txn_context()
                                if self.txn_context else (None, False))
        self.wal.log_update(txn_id, self.file_id, rid.block, rid.slot,
                            before, after, compensation=rolling_back)

    # -- Rebuild after crash -------------------------------------------------------

    def rebuild_metadata(self, disk, retry=None) -> None:
        """Recompute block count, per-block used space and the free-space
        map from the disk image (after crash recovery's undo surgery).

        Goes through the disk's public block API only, is idempotent
        (pure function of the disk image), and skips the write-back when
        a block's used counter is already correct — so a re-run after a
        crash mid-rebuild converges without extra device writes."""
        if retry is not None:
            read = lambda b: retry.call(disk.read, self.file_id, b)
            write = lambda b, blk: retry.call(disk.write, self.file_id,
                                              b, blk)
        else:
            read = lambda b: disk.read(self.file_id, b)
            write = lambda b, blk: disk.write(self.file_id, b, blk)
        numbers = disk.block_numbers(self.file_id)
        self._block_count = (numbers[-1] + 1) if numbers else 0
        self._free_space = []
        self._record_count = 0
        for block_no in range(self._block_count):
            block = read(block_no)
            used = 0
            for entry in block.slots:
                if entry is None:
                    continue
                format_id, _ = entry
                used += self.formats[format_id].width
                self._record_count += 1
            if block.used != used:
                block.used = used
                write(block_no, block)
            self._free_space.append(self.block_size - used)
        self._free_hint = max(self._free_space, default=0)

    # -- Scanning ---------------------------------------------------------------

    def blocks(self) -> Iterator[Tuple[int, list]]:
        """``(block_no, slots)`` for every block in block order: the one
        scan loop.  Each block costs one logical (and possibly physical)
        read.  ``slots`` is the block's own list, ``None`` for a
        tombstone; read it, never change it."""
        for block_no in range(self._block_count):
            yield block_no, self.pool.get(self.file_id, block_no).slots

    def scan_blocks(self, format_id: int) -> Iterator[List[tuple]]:
        """The records of one format, one list per block in block order
        (:meth:`blocks`, one comprehension per block)."""
        for _, slots in self.blocks():
            yield [entry[1] for entry in slots
                   if entry is not None and entry[0] == format_id]

    def scan(self, format_id: Optional[int] = None
             ) -> Iterator[Tuple[RID, int, tuple]]:
        """Iterate ``(rid, format_id, record)`` in block order; optionally
        one format only — :meth:`blocks` flattened, for the callers that
        need each record's RID (the checker, index rebuilds)."""
        for block_no, slots in self.blocks():
            for slot, entry in enumerate(slots):
                if entry is not None and (format_id is None
                                          or entry[0] == format_id):
                    yield RID(block_no, slot), entry[0], entry[1]

    # -- Metadata ------------------------------------------------------------------

    def free_space(self, block_no: int) -> int:
        """Free bytes the extent map believes the block has (the checker
        compares this against the block's actual slot contents)."""
        return self._free_space[block_no]

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def block_count(self) -> int:
        return self._block_count

    def _format(self, format_id: int) -> RecordFormat:
        try:
            return self.formats[format_id]
        except KeyError:
            raise StorageError(
                f"unknown record format #{format_id} in {self.name!r}") from None

    def _block_of(self, rid: RID):
        if rid.block >= self._block_count:
            raise StorageError(f"{self.name!r}: block {rid.block} out of range")
        return self.pool.get(self.file_id, rid.block)

    def _entry(self, block, rid: RID):
        if rid.slot >= len(block.slots) or block.slots[rid.slot] is None:
            raise StorageError(f"{self.name!r}: no record at {rid}")
        return block.slots[rid.slot]

    def __repr__(self):
        return (f"<RecordFile #{self.file_id} {self.name} "
                f"records={self._record_count} blocks={self._block_count}>")
