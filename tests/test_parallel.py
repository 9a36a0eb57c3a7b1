"""Morsel-parallel execution: row identity, knobs, thread safety, and
the storage-layer performance fixes that make the parallel read path
safe and scalable (buffer-pool eviction, bulk-load block choice)."""

from __future__ import annotations

import threading
import time

import pytest

from repro import parse_dml
from repro.database import Database
from repro.engine import operators as ops
from repro.engine.parallel import (
    DEFAULT_PARALLELISM,
    MAX_PARALLELISM,
    Parallel,
    validate_parallelism,
)
from repro.errors import SimError, StorageError
from repro.interfaces.iqf import run_script
from repro.optimizer.physical_plan import lower_plan
from repro.perf import COUNTER_FIELDS
from repro.storage.buffer import BufferPool, Disk
from repro.storage.files import RecordFile
from repro.storage.records import RecordFormat
from repro.workloads import UNIVERSITY_DDL, build_university
from repro.workloads.generators import (
    populate_scale,
    scale_queries,
    scale_schema,
)
from repro.workloads.university import UNIVERSITY_QUERIES

#: Order By queries with NULL keys both directions: students without an
#: advisor produce NULL advisor names (TYPE 3 dummy), and the §5.1 sort
#: contract places NULLs last under Asc and Desc alike — a morsel merge
#: that perturbed row order would break these first.
ORDERED_QUERIES = [
    "From student Retrieve name, name of advisor Order By name of advisor",
    "From student Retrieve name, name of advisor"
    " Order By name of advisor Desc",
]

ALL_QUERIES = UNIVERSITY_QUERIES + ORDERED_QUERIES


class TestRowIdentity:
    """Parallel execution must be row-identical to serial — same rows,
    same order — across worker counts and batch sizes."""

    @pytest.fixture(scope="class")
    def reference(self):
        database = build_university(seed=11)
        return database, {text: database.query(text).rows
                          for text in ALL_QUERIES}

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_university_sweep(self, reference, workers, batch_size):
        _, expected = reference
        subject = build_university(seed=11)
        subject.executor.parallelism = workers
        subject.executor.batch_size = batch_size
        for text in ALL_QUERIES:
            assert subject.query(text).rows == expected[text], text

    def test_scale_workload_sweep(self):
        serial = Database(scale_schema(3), constraint_mode="off")
        populate_scale(serial, 600, chain_depth=3)
        parallel = Database(scale_schema(3), constraint_mode="off")
        populate_scale(parallel, 600, chain_depth=3)
        for text in scale_queries(3):
            expected = serial.query(text).rows
            for workers in (2, 4, 8):
                parallel.executor.parallelism = workers
                assert parallel.query(text).rows == expected, \
                    f"{text} at {workers} workers"

    def test_serial_plan_has_no_parallel_operator(self):
        database = build_university(seed=11)
        query = parse_dml(UNIVERSITY_QUERIES[0])
        tree = database.qualifier.resolve_retrieve(query)
        physical = lower_plan(query, tree, None, database.executor)
        assert all(op.name != "Parallel" for op in physical.operators)

    def test_parallel_plan_wraps_selection_segment(self):
        database = build_university(seed=11)
        database.executor.parallelism = 4
        query = parse_dml(
            "From instructor Retrieve name Where salary > 0 Order By name")
        tree = database.qualifier.resolve_retrieve(query)
        physical = lower_plan(query, tree, None, database.executor)
        names = [op.name for op in physical.operators]
        assert names.count("Parallel") == 1
        barrier = names.index("Parallel")
        assert set(names[:barrier]) <= {"Scan", "EVATraverse",
                                        "OuterTraverse", "Filter", "Semi",
                                        "AntiSemi"}
        assert set(names[barrier + 1:]) <= {"Aggregate", "Project", "Sort",
                                            "Distinct"}


class TestParallelismKnob:
    def test_validate_bounds(self):
        assert validate_parallelism(1) == 1
        assert validate_parallelism(MAX_PARALLELISM) == MAX_PARALLELISM
        for bad in (0, -2, MAX_PARALLELISM + 1, True, "4", 2.5, None):
            with pytest.raises(SimError):
                validate_parallelism(bad)

    def test_database_ctor_plumbs_parallelism(self):
        database = Database(UNIVERSITY_DDL, constraint_mode="off",
                            parallelism=4)
        assert database.executor.parallelism == 4
        default = Database(UNIVERSITY_DDL, constraint_mode="off")
        assert default.executor.parallelism == DEFAULT_PARALLELISM

    def test_database_ctor_rejects_bad_parallelism(self):
        with pytest.raises(SimError):
            Database(UNIVERSITY_DDL, constraint_mode="off", parallelism=0)

    def test_iqf_set_shows_and_changes(self, small_university):
        transcript = run_script(small_university, ".set\n")
        assert f"parallelism: {DEFAULT_PARALLELISM}" in transcript
        assert "batch-size:" in transcript
        transcript = run_script(small_university, ".set parallelism 8\n")
        assert "parallelism set to 8" in transcript
        assert small_university.executor.parallelism == 8

    def test_iqf_set_rejects_out_of_bounds(self, small_university):
        transcript = run_script(small_university,
                                ".set parallelism 0\n"
                                ".set parallelism x\n")
        assert transcript.count("error:") == 2
        assert small_university.executor.parallelism == DEFAULT_PARALLELISM


class TestPlanVerification:
    def _physical(self, database, text):
        query = parse_dml(text)
        tree = database.qualifier.resolve_retrieve(query)
        return query, tree, lower_plan(query, tree, None, database.executor)

    def test_parallel_shape_verifies_clean(self):
        database = build_university(seed=11)
        database.executor.parallelism = 4
        from repro.analysis import verify_physical
        for text in UNIVERSITY_QUERIES:
            _, tree, physical = self._physical(database, text)
            errors = [d for d in verify_physical(database.schema, tree,
                                                 physical)
                      if d.severity == "error"]
            assert errors == [], text

    def test_sim208_rejects_consumer_below_barrier(self):
        database = build_university(seed=11)
        from repro.analysis import verify_physical
        _, tree, physical = self._physical(
            database, "From student Retrieve name Order By name")
        # Hand-build a broken shape: the barrier above the Sort.
        physical.root = Parallel(physical.root, 4)
        diagnostics = verify_physical(database.schema, tree, physical)
        assert any(d.code == "SIM208" for d in diagnostics)

    def test_sim208_rejects_nested_barriers(self):
        database = build_university(seed=11)
        database.executor.parallelism = 2
        from repro.analysis import verify_physical
        _, tree, physical = self._physical(
            database, "From student Retrieve name")
        barrier = next(op for op in physical.operators
                       if op.name == "Parallel")
        barrier.child = Parallel(barrier.child, 2)
        diagnostics = verify_physical(database.schema, tree, physical)
        assert any(d.code == "SIM208" for d in diagnostics)


class TestExplainAndCounters:
    def test_explain_analyze_reports_workers_and_morsels(self):
        database = build_university(seed=11)
        database.executor.parallelism = 4
        database.executor.batch_size = 4
        database.enable_tracing()
        result = database.query(UNIVERSITY_QUERIES[0])
        rendered = result.explain_analyze()
        assert "Parallel(workers<=4)" in rendered
        assert "workers=" in rendered
        assert "morsels=" in rendered

    def test_segment_counters_match_serial_totals(self):
        serial = build_university(seed=11)
        parallel = build_university(seed=11)
        parallel.executor.parallelism = 4
        parallel.executor.batch_size = 4
        text = "From student Retrieve name Where student-nbr > 2010"

        def segment_rows(database):
            query = parse_dml(text)
            tree = database.qualifier.resolve_retrieve(query)
            physical = lower_plan(query, tree, None, database.executor)
            database.executor.accessor.begin_query()
            ctx = ops.ExecContext(database.executor, physical)
            for batch in physical.root.run(ctx):
                pass
            return {op.name: (op.rows_in, op.rows_out)
                    for op in physical.operators
                    if op.name in ("Scan", "Filter")}

        # The per-worker clone counters merge back into the template
        # segment exactly once: row totals equal the serial run's.
        assert segment_rows(parallel) == segment_rows(serial)

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_result_perf_populated_under_parallelism(self, batch_size):
        """The workers' frames fold into the run's at the barrier, so
        ``ResultSet.perf`` at four workers is the serial run's, field by
        field.  (This query reads nothing below the barrier that two
        morsels share, so the sharded memos cannot move a count.)  The
        two batch counters describe the pipeline's geometry, which the
        barrier changes: it is one more operator, re-emitting every
        segment row, and a morsel boundary cuts a batch short."""
        text = "From student Retrieve name, title of courses-enrolled"
        perf = {}
        for parallelism in (1, 4):
            database = build_university(seed=11)
            database.executor.parallelism = parallelism
            database.executor.batch_size = batch_size
            database.cold_cache()
            result = database.query(text)
            perf[parallelism] = result.perf.as_dict()
        serial, parallel = perf[1], perf[4]
        assert serial["records_decoded"] > 0 and serial["memo_hits"] > 0
        geometry = ("batches_dispatched", "batch_rows")
        for name in COUNTER_FIELDS:
            if name not in geometry:
                assert parallel[name] == serial[name], name
        assert parallel["batch_rows"] == serial["batch_rows"] + len(result)
        assert parallel["batches_dispatched"] > serial["batches_dispatched"]


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
                    cache.get_record("student", surrogate)
                    cache.put_record("student", surrogate, None,
                                     {"step": step}, cache.epoch)
                    cache.get_fanout(1, True, surrogate)
                    cache.put_fanout(1, True, surrogate, (surrogate,),
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

    def test_repeated_parallel_queries_are_stable(self):
        database = build_university(seed=11)
        database.executor.parallelism = 8
        database.executor.batch_size = 2
        expected = None
        for _ in range(5):
            rows = database.query(
                "From student Retrieve name, title of courses-enrolled"
                " Where credits of courses-enrolled > 3").rows
            if expected is None:
                expected = rows
            assert rows == expected

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
