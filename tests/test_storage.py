"""Storage substrate tests: disk, buffer pool, record files."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BufferPool, Disk, RecordFile, RecordFormat, RID
from repro.storage.buffer import Block
from repro.storage.faults import FaultInjector
from repro.workloads import build_university


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


class TestThreadSafetyHammer:
    """Concurrent readers over the shared storage layers: no KeyErrors,
    no corrupted LRU order, no lost counter bumps."""

    def test_buffer_pool_hammer(self):
        disk = Disk()
        pool = BufferPool(disk, capacity=8)
        blocks = 64
        errors = []

        def reader(seed):
            try:
                for step in range(400):
                    pool.get(1, (seed * 13 + step) % blocks)
            except BaseException as exc:      # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert pool.resident_blocks <= 8
        assert pool.perf.logical_reads == 8 * 400

    def test_read_cache_hammer(self):
        database = build_university(seed=11)
        cache = database.store.read_cache
        errors = []

        def prober(seed):
            try:
                for step in range(300):
                    surrogate = (seed * 7 + step) % 60
                    cache.get_record_batch("student", [surrogate])
                    cache.put_record_batch(
                        "student", {surrogate: (None, {"step": step})},
                        cache.epoch)
                    cache.get_fanout_batch(1, True, [surrogate])
                    cache.put_fanout_batch(1, True,
                                           {surrogate: (surrogate,)},
                                           cache.epoch)
                    if step % 50 == 0:
                        cache.invalidate_record("student", surrogate)
            except BaseException as exc:      # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=prober, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        sizes = cache.sizes
        assert sizes["records"] <= cache.record_capacity
        assert sizes["fanout"] <= cache.fanout_capacity

    def test_concurrent_sessions_read_identical_rows(self):
        """Snapshot sessions on their own threads share the store's
        buffer pool, read cache and plan cache, and every one of them
        returns the rows a lone reader does."""
        database = build_university(seed=11)
        texts = ["From student Retrieve name, title of courses-enrolled"
                 " Where credits of courses-enrolled > 3",
                 "From student Retrieve name, name of advisor"
                 " Order By name of advisor"]
        expected = [database.query(text).rows for text in texts]
        database.cold_cache()
        results, errors = [], []

        def reader():
            try:
                with database.session() as session:
                    for _ in range(5):
                        results.append([session.query(text).rows
                                         for text in texts])
            except BaseException as exc:      # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results == [expected] * 20

    def test_single_flight_collapses_concurrent_misses(self):
        disk = Disk(read_latency=0.005)
        pool = BufferPool(disk, capacity=16)
        results = []

        def reader():
            results.append(pool.get(1, 0))

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 6
        # One loader performed the device read; the herd waited for it.
        assert pool.perf.physical_reads == 1


class TestReadLatency:
    """``Disk.read_latency`` holds a device read open — outside every
    buffer-pool lock — for as long as it says, and is 0 by default."""

    def test_default_disk_reads_without_delay(self):
        assert Disk().read_latency == 0.0
        assert build_university(seed=11).store.disk.read_latency == 0.0

    def test_each_device_read_takes_the_latency(self):
        disk = Disk(read_latency=0.01)
        pool = BufferPool(disk, capacity=4)
        started = time.perf_counter()
        pool.get(1, 0)
        missed = time.perf_counter() - started
        started = time.perf_counter()
        pool.get(1, 0)                  # a hit never reaches the device
        hit = time.perf_counter() - started
        assert missed >= 0.01
        assert hit < 0.01
        assert pool.perf.physical_reads == 1


class TestBufferEvictionScaling:
    """The buffer pool's eviction is O(1) per miss regardless of pool
    size and scan length — a full LRU scan per eviction would make the
    10^5-block sweep quadratic."""

    def test_eviction_cost_is_flat_at_1e5_blocks(self):
        disk = Disk()

        def sweep(blocks, capacity):
            pool = BufferPool(disk, capacity=capacity)
            started = time.perf_counter()
            for block_no in range(blocks):
                pool.get(1, block_no)
            return time.perf_counter() - started

        small = max(sweep(10_000, 1_000), 1e-4)
        large = sweep(100_000, 10_000)
        # 10x the misses (and 10x the pool) must cost ~10x, not ~100x.
        # The generous 30x bound tolerates interpreter noise while still
        # failing any O(capacity)-per-eviction regression (~500x here).
        assert large / small < 30.0

    def test_mark_dirty_reinstalls_evicted_writer_frame(self):
        disk = Disk()
        pool = BufferPool(disk, capacity=1)
        block = pool.get(1, 0)
        block.slots.append((0, (1,)))
        pool.get(1, 1)                 # concurrent reader evicts frame 0
        pool.mark_dirty(1, 0, block)   # writer reinstalls its image
        pool.flush()
        assert disk.read(1, 0).slots == [(0, (1,))]

    def test_mark_dirty_without_block_still_raises(self):
        disk = Disk()
        pool = BufferPool(disk, capacity=1)
        pool.get(1, 0)
        pool.get(1, 1)
        with pytest.raises(StorageError):
            pool.mark_dirty(1, 0)


class TestBulkLoadBlockChoice:
    """`_choose_block`'s free-space hint: bulk loads are amortized O(1)
    per insert, and placement is identical to the plain first-fit scan."""

    def _file(self):
        pool = BufferPool(Disk(), capacity=64)
        record_file = RecordFile(9, "bulk", pool, block_size=256)
        record_file.register_format(RecordFormat(0, "narrow", {"v": 20}))
        record_file.register_format(RecordFormat(1, "wide", {"v": 100}))
        return record_file

    def test_bulk_load_is_linear(self):
        def load(count):
            record_file = self._file()
            started = time.perf_counter()
            for index in range(count):
                record_file.insert(0, (index,))
            return time.perf_counter() - started

        small = max(load(2_000), 1e-4)
        large = load(16_000)
        # 8x the inserts must cost ~8x; the O(n^2) scan would be ~64x.
        assert large / small < 24.0

    def test_placement_matches_plain_first_fit(self):
        hinted = self._file()
        reference = self._file()
        # Disable the hint's skip on the reference by forcing it huge, so
        # every insert walks the full first-fit scan.
        reference._free_hint = 10 ** 9

        import random
        rng = random.Random(42)
        hinted_rids, reference_rids = [], []
        live = []
        for step in range(600):
            action = rng.random()
            if action < 0.7 or not live:
                fmt = 0 if rng.random() < 0.8 else 1
                hinted_rids.append(hinted.insert(fmt, (step,)))
                reference_rids.append(reference.insert(fmt, (step,)))
                live.append(len(hinted_rids) - 1)
            else:
                victim = live.pop(rng.randrange(len(live)))
                hinted.delete(hinted_rids[victim])
                reference.delete(reference_rids[victim])
            # Reference stays exhaustive despite the failed-scan tighten.
            reference._free_hint = 10 ** 9
        assert hinted_rids == reference_rids

    def test_delete_reopens_block_for_reuse(self):
        record_file = self._file()
        rids = [record_file.insert(1, (index,)) for index in range(12)]
        blocks_before = record_file._block_count
        record_file.delete(rids[0])
        replacement = record_file.insert(1, (99,))
        # The freed space is found again (no new block appended).
        assert replacement.block == rids[0].block
        assert record_file._block_count == blocks_before
