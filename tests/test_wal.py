"""Unit tests for the write-ahead log itself (the recovery integration is
covered in test_recovery.py)."""

import pytest

from repro.storage.buffer import Block, Disk
from repro.storage.wal import (
    ABORT,
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
        wal.log_end(7, COMMIT)
        assert 7 in wal.ended_transactions()

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
        wal.log_end(1, COMMIT)
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

    def test_checkpoint_with_no_transaction_open_empties_the_log(self):
        wal = WriteAheadLog()
        wal.log_end(1, COMMIT)
        wal.checkpoint()
        assert len(wal) == 0
        assert wal.ended_transactions() == set()

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
        wal.log_end(1, COMMIT)
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
        wal.log_end(1, COMMIT)
        watermark = wal.checkpoint()
        assert len(wal) == 0
        assert wal.perf.wal_checkpoints == 1
        assert wal.last_checkpoint_lsn == watermark
        next_lsn = wal.append(2, UPDATE, (9, 0, 0, None, (1, (2,))))
        assert next_lsn > watermark


class TestCompaction:
    """The log holds what recovery can read: the records of transactions
    without a durable end record, and nothing else."""

    @pytest.fixture()
    def low(self, monkeypatch):
        monkeypatch.setattr(WriteAheadLog, "COMPACT_AT", 4)

    @staticmethod
    def write(wal, txn_id, slot, before=None, after=(1, ("x",))):
        return wal.log_update(txn_id, 9, 0, slot, before, after,
                              compensation=False)

    def test_keeps_only_open_transactions_records(self, low):
        wal = WriteAheadLog()
        self.write(wal, 1, 0)                  # open
        self.write(wal, 2, 1)
        wal.log_end(2, COMMIT)                 # ended
        self.write(wal, 3, 2)
        wal.log_end(3, ABORT)                  # ended
        self.write(wal, None, 3)               # auto-committed
        assert [(r.txn_id, r.kind) for r in wal._records] == [(1, UPDATE)]
        assert wal.durable_records() == wal._records
        assert wal.perf.wal_records == 6       # appended, not held
        assert wal.perf.wal_checkpoints == 2   # at the 4th and 6th append

    def test_open_transaction_still_undone_after_compaction_and_crash(
            self, low):
        disk = Disk()
        block = Block()
        block.slots = [(1, ("loser",))]
        disk.write(9, 0, block)
        wal = WriteAheadLog()
        self.write(wal, 7, 0, before=(1, ("before",)), after=(1, ("loser",)))
        for k in range(20):                    # several compactions
            self.write(wal, None, 1)
            self.write(wal, 100 + k, 2)
            wal.log_end(100 + k, COMMIT)
        assert wal.perf.wal_checkpoints >= 5
        assert wal._records[0].txn_id == 7
        assert len(wal) <= 2 * WriteAheadLog.COMPACT_AT
        wal.crash()
        assert undo_losers(wal, disk) == 1
        assert disk.read(9, 0).slots[0] == (1, ("before",))

    def test_an_end_record_closes_only_once_durable(self, monkeypatch):
        """A commit record that compaction sees before its force is not
        the commit point yet: a crash there leaves a loser to undo."""
        monkeypatch.setattr(WriteAheadLog, "COMPACT_AT", 2)
        wal = WriteAheadLog()
        self.write(wal, 5, 0)
        wal.force()
        wal.append(5, COMMIT)                  # compacts, not yet forced
        assert wal.perf.wal_checkpoints == 1
        assert len(wal) == 2
        wal.crash()
        assert [r.payload[2] for r in wal.loser_updates()] == [0]

    def test_lsns_stay_monotonic_across_compaction_and_crash(self, low):
        wal = WriteAheadLog()
        handed_out = [self.write(wal, None, k) for k in range(6)]
        wal.force()
        handed_out += [self.write(wal, 1, k) for k in range(3)]
        watermark = wal.last_checkpoint_lsn
        assert watermark > 0
        wal.crash()                            # only what compaction kept
        handed_out.append(self.write(wal, 2, 0))
        assert handed_out == sorted(set(handed_out))
        assert wal.checkpoint() >= watermark
        assert self.write(wal, 3, 0) > handed_out[-1]

    def test_a_long_transaction_compacts_amortised(self, low):
        wal = WriteAheadLog()
        for k in range(1000):
            self.write(wal, 1, k)
        assert len(wal) == 1000
        assert wal.perf.wal_checkpoints <= 10  # threshold doubles: log2


class TestBoundedLogInAStore:
    @pytest.fixture()
    def low(self, monkeypatch):
        monkeypatch.setattr(WriteAheadLog, "COMPACT_AT", 64)

    def test_population_and_writes_keep_the_log_bounded(self, low):
        from repro.workloads import build_university
        db = build_university(seed=7)
        for k in range(40):
            db.execute(f"Modify instructor(salary := {1000 + k})"
                       " Where employee-nbr = 1001")
        storage = db.statistics()["storage"]
        assert storage["wal_records_held"] == len(db.store.wal) <= 2 * 64
        assert storage["wal_records"] > 4 * 64   # counts every append
        assert storage["wal_checkpoints"] >= 4

    def test_save_open_round_trip_after_compaction(self, low, tmp_path):
        from repro import Database
        from repro.workloads import build_university
        db = build_university(seed=7)
        pending = db.session()               # open across compactions
        pending.execute("Modify instructor(salary := 1)"
                        " Where employee-nbr = 1001")
        db.store.pool.flush()                # its page is on disk too
        compactions = db.perf.wal_checkpoints
        for k in range(40):
            db.execute(f"Modify course(credits := {1 + k % 5})"
                       " Where course-no = 101")
        assert db.perf.wal_checkpoints > compactions   # while it was open
        assert db.store.wal._records[0].txn_id == \
            pending._transaction.transaction_id
        salary = "From instructor Retrieve salary Where employee-nbr = 1001"
        path = str(tmp_path / "compacted.simdb")
        db.save(path)
        reopened = Database.open(path)
        assert reopened.query(salary).scalar() == \
            build_university(seed=7).query(salary).scalar()
        assert reopened.query("From course Retrieve credits"
                              " Where course-no = 101").scalar() == 5
        assert reopened.check().ok
        wal = reopened.store.wal
        assert len(wal) == 0
        assert wal.txn_watermark == db.store.wal.txn_watermark
        assert wal.last_checkpoint_lsn >= db.store.wal.last_checkpoint_lsn
        # New transactions never reuse an id the compacted log dropped.
        txn = reopened.store.transactions.begin_detached()
        assert txn.transaction_id > db.store.wal.txn_watermark

    def test_sessions_compacting_concurrently_lose_nothing(self, low):
        """Four sessions write, commit and abort on their own threads,
        rescheduled every 10 µs, while the log compacts under them; a
        fifth holds a write open.  After a crash every committed salary
        stands and the open write is gone."""
        import sys
        import threading
        from repro.workloads import build_university
        db = build_university(seed=7)
        salary = ("From instructor Retrieve salary"
                  " Where employee-nbr = {}")
        original = db.query(salary.format(1005)).scalar()
        pending = db.session()
        pending.execute("Modify instructor(salary := 1)"
                        " Where employee-nbr = 1005")
        db.store.pool.flush()
        before = db.store.perf.wal_checkpoints
        committed, errors = {}, []

        def writer(employee):
            session = db.session()
            try:
                for k in range(30):
                    session.execute(f"Modify instructor(salary := {k})"
                                    f" Where employee-nbr = {employee}")
                    if k % 3 == 2:
                        session.abort()
                    else:
                        session.commit()
                        committed[employee] = k
            except Exception as error:   # reported below, not swallowed
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(1001 + i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert db.store.perf.wal_checkpoints - before >= 4
        db.simulate_crash()
        assert len(committed) == 4
        for employee, value in committed.items():
            assert db.query(salary.format(employee)).scalar() == value
        assert db.query(salary.format(1005)).scalar() == original
        assert db.check().ok
