"""Unit tests for the write-ahead log itself (the recovery integration is
covered in test_recovery.py)."""

import pytest

from repro.storage.buffer import Block, Disk
from repro.storage.wal import (
    CLR,
    COMMIT,
    UPDATE,
    WriteAheadLog,
    undo_losers,
)


class TestLogBasics:
    def test_lsns_monotone(self):
        wal = WriteAheadLog()
        first = wal.append(1, UPDATE, (1, 0, 0, None, (1, (1,))))
        second = wal.append(1, COMMIT)
        assert second == first + 1

    def test_force_makes_prefix_durable(self):
        wal = WriteAheadLog()
        wal.log_update(1, 1, 0, 0, None, (1, (1,)), compensation=False)
        assert wal.durable_records() == []
        wal.force()
        assert len(wal.durable_records()) == 1

    def test_force_counts_only_nonempty(self):
        wal = WriteAheadLog()
        wal.force()
        assert wal.perf.wal_forces == 0
        wal.append(1, COMMIT)
        wal.force()
        wal.force()
        assert wal.perf.wal_forces == 1

    def test_crash_drops_volatile_tail(self):
        wal = WriteAheadLog()
        wal.log_update(1, 1, 0, 0, None, (1, (1,)), compensation=False)
        wal.force()
        wal.log_update(1, 1, 0, 1, None, (1, (2,)), compensation=False)
        wal.crash()
        assert len(wal) == 1

    def test_commit_forces(self):
        wal = WriteAheadLog()
        wal.log_update(7, 1, 0, 0, None, (1, (1,)), compensation=False)
        wal.log_commit(7)
        assert 7 in wal.committed_transactions()

    def test_snapshot_isolated_from_caller(self):
        """The log keeps the caller's slot itself, not a copy: a slot is
        immutable, so nobody can change the logged image behind it."""
        wal = WriteAheadLog()
        entry = (1, (1,))
        wal.log_update(1, 1, 0, 0, None, entry, compensation=False)
        record = wal._records[0]
        assert record.payload[4] is entry
        with pytest.raises(TypeError):
            record.payload[4][1][0] = 99


class TestLoserSelection:
    def fill(self, wal):
        wal.log_update(1, 1, 0, 0, None, (1, ("w",)),
                       compensation=False)   # winner
        wal.log_commit(1)
        wal.log_update(2, 1, 0, 1, None, (1, ("l",)),
                       compensation=False)   # loser
        wal.log_update(2, 1, 0, 2, None, (1, ("l2",)),
                       compensation=True)    # CLR: never undone
        wal.log_update(None, 1, 0, 3, None, (1, ("auto",)),
                       compensation=False)   # autocommit: never undone
        wal.force()

    def test_losers_exclude_winners_clrs_and_autocommit(self):
        wal = WriteAheadLog()
        self.fill(wal)
        losers = wal.loser_updates()
        assert [record.payload[2] for record in losers] == [1]

    def test_losers_newest_first(self):
        wal = WriteAheadLog()
        wal.log_update(5, 1, 0, 0, None, (1, ()), compensation=False)
        wal.log_update(5, 1, 0, 1, None, (1, ()), compensation=False)
        wal.force()
        losers = wal.loser_updates()
        assert [r.payload[2] for r in losers] == [1, 0]


class TestUndo:
    def test_undo_restores_before_images_on_disk(self):
        disk = Disk()
        block = Block()
        block.slots = [(1, ("after",))]
        disk.write(9, 0, block)

        wal = WriteAheadLog()
        wal.log_update(3, 9, 0, 0, (1, ("before",)), (1, ("after",)),
                       compensation=False)
        wal.force()
        restored = undo_losers(wal, disk)
        assert restored == 1
        assert disk.read(9, 0).slots[0] == (1, ("before",))

    def test_undo_of_insert_clears_slot(self):
        disk = Disk()
        block = Block()
        block.slots = [(1, (1,))]
        disk.write(9, 0, block)
        wal = WriteAheadLog()
        wal.log_update(3, 9, 0, 0, None, (1, (1,)), compensation=False)
        wal.force()
        undo_losers(wal, disk)
        assert disk.read(9, 0).slots[0] is None

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.log_commit(1)
        wal.truncate()
        assert len(wal) == 0
        assert wal.committed_transactions() == set()

    def test_undo_restores_used_width_from_formats(self):
        """Regression: _fix_used must restore the occupied *width* from
        the file's format registry, not the slot count (which left the
        free-space map lying until rebuild_metadata ran)."""
        from repro.storage.records import RecordFormat

        fmt = RecordFormat(1, "r", {"who": 20})
        disk = Disk()
        block = Block()
        # two committed records + one in-flight, all format 1
        block.slots = [(1, ("w1",)), (1, ("w2",)),
                       (1, ("loser",))]
        block.used = 3 * fmt.width
        disk.write(9, 0, block)

        wal = WriteAheadLog()
        wal.log_update(1, 9, 0, 0, None, (1, ("w1",)),
                       compensation=False)
        wal.log_update(1, 9, 0, 1, None, (1, ("w2",)),
                       compensation=False)
        wal.log_commit(1)
        wal.log_update(2, 9, 0, 2, None, (1, ("loser",)),
                       compensation=False)
        wal.force()

        undo_losers(wal, disk, {9: {1: fmt}})
        recovered = disk.read(9, 0)
        assert recovered.slots[2] is None
        assert recovered.used == 2 * fmt.width   # width, not count (2)

    def test_undo_without_formats_falls_back_to_slot_count(self):
        disk = Disk()
        block = Block()
        block.slots = [(1, (1,)), (1, (2,))]
        disk.write(9, 0, block)
        wal = WriteAheadLog()
        wal.log_update(3, 9, 0, 1, None, (1, (2,)), compensation=False)
        wal.force()
        undo_losers(wal, disk)
        assert disk.read(9, 0).used == 1   # best effort without widths

    def test_checkpoint_resets_log_keeps_lsns_monotone(self):
        wal = WriteAheadLog()
        wal.log_update(1, 9, 0, 0, None, (1, (1,)), compensation=False)
        wal.log_commit(1)
        watermark = wal.checkpoint()
        assert len(wal) == 0
        assert wal.perf.wal_checkpoints == 1
        assert wal.last_checkpoint_lsn == watermark
        next_lsn = wal.append(2, UPDATE, (9, 0, 0, None, (1, (2,))))
        assert next_lsn > watermark
