"""Storage substrate tests: disk, buffer pool, record files."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BufferPool, Disk, RecordFile, RecordFormat, RID
from repro.storage.buffer import Block
from repro.storage.faults import FaultInjector


def make_file(pool_capacity=16, block_size=256):
    disk = Disk()
    pool = BufferPool(disk, pool_capacity)
    record_file = RecordFile(1, "test", pool, block_size)
    record_file.register_format(RecordFormat(1, "row", {"k": 6, "v": 20}))
    return disk, pool, record_file


class TestBufferPool:
    def test_miss_then_hit(self):
        disk = Disk()
        pool = BufferPool(disk, 4)
        pool.get(1, 0)
        assert pool.perf.physical_reads == 1
        pool.get(1, 0)
        assert pool.perf.logical_reads == 2
        assert pool.perf.physical_reads == 1

    def test_lru_eviction_writes_back_dirty(self):
        disk = Disk()
        pool = BufferPool(disk, 2)
        block = pool.get(1, 0)
        block.slots.append((1, (1,)))
        pool.mark_dirty(1, 0)
        pool.get(1, 1)
        pool.get(1, 2)  # evicts block 0 (dirty) -> physical write
        assert pool.perf.physical_writes == 1
        # Re-reading block 0 must see the written data.
        fetched = pool.get(1, 0)
        assert fetched.slots == [(1, (1,))]

    def test_lru_order_respects_access(self):
        disk = Disk()
        pool = BufferPool(disk, 2)
        pool.get(1, 0)
        pool.get(1, 1)
        pool.get(1, 0)      # touch 0: 1 is now the LRU victim
        pool.get(1, 2)
        assert pool.resident_blocks == 2
        pool.get(1, 0)      # still resident -> no extra physical read
        assert pool.perf.physical_reads == 3

    def test_invalidate_forces_cold_reads(self):
        disk = Disk()
        pool = BufferPool(disk, 8)
        pool.get(1, 0)
        pool.invalidate()
        pool.get(1, 0)
        assert pool.perf.physical_reads == 2

    def test_dirty_unresident_rejected(self):
        pool = BufferPool(Disk(), 2)
        with pytest.raises(StorageError):
            pool.mark_dirty(9, 9)

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(Disk(), 0)

    def test_stats_delta(self):
        pool = BufferPool(Disk(), 2)
        pool.get(1, 0)
        before = pool.perf.as_dict()
        pool.get(1, 0)
        pool.get(1, 1)
        after = pool.perf.as_dict()
        assert (after["logical_reads"] - before["logical_reads"],
                after["physical_reads"] - before["physical_reads"]) == (2, 1)


class _ParkedDisk(Disk):
    """A disk whose reads park inside the device until ``release`` is
    set; the first ``failures`` of them then raise."""

    def __init__(self, failures=0):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()
        self.failures = failures
        self.reads = 0

    def read(self, file_id, block_no):
        self.reads += 1
        self.entered.set()
        assert self.release.wait(10.0)
        if self.failures:
            self.failures -= 1
            raise StorageError("injected read failure")
        return super().read(file_id, block_no)


def _until(condition):
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, "the interleaving never came"
        time.sleep(0.001)


class TestSingleFlightWaiter:
    """The loader of a missed block records a marker, not an event; a
    second reader of the block turns it into the event it waits on.
    Forced: the loader is parked inside the device read until the second
    reader is seen waiting."""

    def race(self, disk):
        pool = BufferPool(disk, capacity=4)
        outcome = {}

        def get(name):
            try:
                outcome[name] = pool.get(1, 0)
            except StorageError as exc:
                outcome[name] = exc

        # Daemon threads: a waiter nobody wakes fails the test, not the run.
        loader = threading.Thread(target=get, args=("loader",), daemon=True)
        loader.start()
        assert disk.entered.wait(10.0)
        # An uncontended miss creates no event.
        assert not isinstance(pool._loading[(1, 0)], threading.Event)
        waiter = threading.Thread(target=get, args=("waiter",), daemon=True)
        waiter.start()
        _until(lambda: isinstance(pool._loading.get((1, 0)),
                                  threading.Event))
        disk.release.set()
        for thread in (loader, waiter):
            thread.join(10.0)
            assert not thread.is_alive()
        assert pool._loading == {}
        return pool, outcome

    def test_waiter_gets_the_installed_frame(self):
        disk = _ParkedDisk()
        pool, outcome = self.race(disk)
        assert outcome["waiter"] is outcome["loader"]
        assert disk.reads == 1 and pool.perf.physical_reads == 1

    def test_waiter_becomes_the_loader_when_the_read_fails(self):
        disk = _ParkedDisk(failures=1)
        pool, outcome = self.race(disk)
        assert isinstance(outcome["loader"], StorageError)
        assert isinstance(outcome["waiter"], Block)
        assert disk.reads == 2 and pool.perf.physical_reads == 1
        assert pool.get(1, 0) is outcome["waiter"]


class TestSlotsAreSharedNotCopied:
    """A slot is an immutable ``(format_id, record)`` tuple shared by
    the buffer frame, the disk image and every reader; blocks are still
    distinct across the device boundary, so replacing a slot on one side
    never shows on the other."""

    def test_frame_and_disk_image_do_not_alias(self):
        disk, pool, record_file = make_file()
        rid = record_file.insert(1, (1, "a"))
        pool.flush()
        frame = pool.get(1, rid.block)
        image = disk.read(1, rid.block)
        assert image is not frame and image.slots is not frame.slots
        assert image.slots[rid.slot] is frame.slots[rid.slot]
        # The buffered frame changes after the write: the disk does not.
        frame.slots[rid.slot] = (1, (1, "frame"))
        frame.used += 1
        assert disk.read(1, rid.block).slots[rid.slot] == (1, (1, "a"))
        assert disk.read(1, rid.block).used == frame.used - 1
        # The reverse: a block read off the disk, changed, leaves both
        # the frame and the disk image alone.
        image.slots[rid.slot] = (1, (1, "image"))
        assert frame.slots[rid.slot] == (1, (1, "frame"))
        assert disk.read(1, rid.block).slots[rid.slot] == (1, (1, "a"))
        # And a block handed to Disk.write is not the image it leaves.
        disk.write(1, rid.block, image)
        image.slots[rid.slot] = None
        assert disk.read(1, rid.block).slots[rid.slot] == (1, (1, "image"))

    def test_torn_write_is_a_distinct_block(self):
        disk = Disk()
        disk.faults = FaultInjector(seed=1)
        block = Block()
        block.slots = [(1, (key,)) for key in range(4)]
        disk.faults.torn_write(1, keep=0.5)
        disk.write(1, 0, block)
        torn = disk.read(1, 0)
        assert torn.slots == block.slots[:2]
        assert len(block.slots) == 4            # the caller's block
        torn.slots[0] = None
        assert disk.read(1, 0).slots[0] == (1, (0,))

    def test_a_slots_values_cannot_be_assigned(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, (1, "a"))
        _, record = record_file.read(rid)
        with pytest.raises(TypeError):
            record[1] = "b"
        record_file.update(rid, {"v": "b"})
        assert record == (1, "a")               # what the reader holds
        assert record_file.read(rid)[1] == (1, "b")

    def test_insert_takes_a_tuple_of_the_formats_width(self):
        _, _, record_file = make_file()
        for wrong in ({"k": 1, "v": "a"}, [1, "a"], (1,)):
            with pytest.raises(StorageError):
                record_file.insert(1, wrong)


class TestRecordFile:
    def test_insert_read_roundtrip(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, (1, "hello"))
        fmt, record = record_file.read(rid)
        assert fmt == 1 and record == (1, "hello")

    def test_blocking_factor(self):
        _, _, record_file = make_file(block_size=256)
        # width = 4 header + 26 = 30 -> 8 records per 256-byte block
        assert record_file.blocking_factor(1) == 8

    def test_records_fill_blocks(self):
        _, _, record_file = make_file(block_size=256)
        for i in range(20):
            record_file.insert(1, (i, str(i)))
        assert record_file.block_count == 3   # ceil(20 / 8)
        assert record_file.record_count == 20

    def test_update_in_place(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, (1, "a"))
        record_file.update(rid, {"v": "b"})
        assert record_file.read(rid)[1] == (1, "b")

    def test_update_unknown_field(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, (1, "a"))
        with pytest.raises(StorageError):
            record_file.update(rid, {"ghost": 1})

    def test_delete_and_undelete_same_rid(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, (1, "a"))
        record = record_file.delete(rid)
        assert not record_file.exists(rid)
        record_file.undelete(rid, 1, record)
        assert record_file.read(rid)[1] == (1, "a")

    def test_undelete_occupied_slot_rejected(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, (1, "a"))
        with pytest.raises(StorageError):
            record_file.undelete(rid, 1, (2, "b"))

    def test_deleted_space_reused(self):
        _, _, record_file = make_file(block_size=256)
        rids = [record_file.insert(1, (i, "")) for i in range(8)]
        record_file.delete(rids[0])
        rid = record_file.insert(1, (99, ""))
        assert rid.block == 0  # went into the freed space

    def test_clustered_insert_lands_near_anchor(self):
        _, _, record_file = make_file(block_size=256)
        anchor = record_file.insert(1, (0, "anchor"))
        # Fill block 0 completely, spill into block 1, then free a slot in
        # block 0: a clustered insert should return there, an ordinary
        # insert prefers the tail block.
        fillers = [record_file.insert(1, (i + 1, "filler"))
                   for i in range(10)]
        record_file.delete(fillers[0])
        plain = record_file.insert(1, (99, "plain"))
        assert plain.block != anchor.block
        rid = record_file.insert(1, (100, "x"), near=anchor)
        assert rid.block == anchor.block

    def test_clustering_falls_back_when_block_full(self):
        _, _, record_file = make_file(block_size=256)
        anchor = record_file.insert(1, (0, ""))
        for i in range(7):
            record_file.insert(1, (i, ""))
        rid = record_file.insert(1, (100, ""), near=anchor)
        assert rid.block != anchor.block

    def test_scan_by_format(self):
        _, _, record_file = make_file()
        record_file.register_format(RecordFormat(2, "other", {"z": 8}))
        record_file.insert(1, (1, "a"))
        record_file.insert(2, (9,))
        record_file.insert(1, (2, "b"))
        only_rows = [record for _, _, record in record_file.scan(1)]
        assert only_rows == [(1, "a"), (2, "b")]
        everything = list(record_file.scan())
        assert len(everything) == 3

    def test_read_after_eviction_durable(self):
        disk, pool, record_file = make_file(pool_capacity=1, block_size=256)
        rids = [record_file.insert(1, (i, str(i)))
                for i in range(30)]
        pool.flush()
        for i, rid in enumerate(rids):
            assert record_file.read(rid)[1] == (i, str(i))

    def test_oversized_format_rejected(self):
        _, _, record_file = make_file(block_size=256)
        with pytest.raises(StorageError):
            record_file.register_format(RecordFormat(9, "big", {"x": 500}))

    def test_missing_record(self):
        _, _, record_file = make_file()
        with pytest.raises(StorageError):
            record_file.read(RID(0, 0))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)),
                min_size=1, max_size=60))
def test_file_matches_dict_model(operations):
    """Property: a RecordFile behaves like a dict under insert / delete /
    update, regardless of block boundaries and buffer pressure."""
    _, pool, record_file = make_file(pool_capacity=2, block_size=128)
    model = {}
    rids = {}
    for op, key in operations:
        if op == 0:  # insert (overwrite model entry under fresh rid)
            if key in rids:
                continue
            rids[key] = record_file.insert(1, (key, str(key)))
            model[key] = str(key)
        elif op == 1 and key in rids:  # delete
            record_file.delete(rids.pop(key))
            model.pop(key)
        elif op == 2 and key in rids:  # update
            record_file.update(rids[key], {"v": f"u{key}"})
            model[key] = f"u{key}"
    seen = dict(record for _, _, record in record_file.scan(1))
    assert seen == model
