"""cProfile of the analytic rounds (``make profile-analytic``).

Builds the ``scale_schema(3)`` database at 10 000 entities, prints one
line per ``scale_queries`` statement — its best-of-7 warm time in ms and
the TYPE 2 bindings a traced run of it evaluates (EXPLAIN ANALYZE's
``actual=`` summed over the TYPE 2 nodes) — and then profiles two
sections, each printed as the top 25 functions by self time:

* **warm** — one round of ``scale_queries`` fills the caches, then
  three more rounds are profiled: the starting point for any executor
  change;
* **cold** — the e2e benchmark's ``analytic_cold`` setting: the pool
  resized to ``COLD_POOL_FRAMES`` (104 of the 839 blocks) and
  ``cold_cache()`` before each round.  First one round with the
  physical reads of each statement, in total and per file (which unit
  a statement's block reads go to), then two profiled rounds, so block
  reads, eviction and the batched record path (``BufferPool.get``,
  ``_install``, ``Disk.read``, ``RecordFile.read_many``,
  ``MapperStore._role_records``, ``StructureEva.targets_many``,
  ``ReadCache._fill``) show where they stand.

cProfile inflates call-heavy code, so use it to find candidates and
``make bench-e2e`` to measure them.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time
from collections import Counter

from repro.database import Database
from repro.workloads.generators import (
    populate_scale,
    scale_queries,
    scale_schema,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

from workloads import (  # noqa: E402  (benchmarks/e2e)
    ANALYTIC_ENTITIES,
    CHAIN_DEPTH,
    COLD_POOL_FRAMES,
    FITTING_POOL_FRAMES,
)

ROUNDS = 3
COLD_ROUNDS = 2
TOP = 25
BEST_OF = 7


def statement_table(database, queries) -> None:
    """Best-of-``BEST_OF`` ms and traced TYPE 2 bindings per statement."""
    print(f"==== per statement: best of {BEST_OF} (ms), "
          f"traced TYPE 2 bindings ====")
    for text in queries:
        times = []
        for _ in range(BEST_OF):
            start = time.perf_counter()
            database.execute(text)
            times.append(time.perf_counter() - start)
        database.enable_tracing()
        try:
            nodes = database.query(text).trace.find("execute").attrs["nodes"]
        finally:
            database.disable_tracing()
        bindings = sum(node["actual_rows"] for node in nodes
                       if node["label"] == "TYPE 2")
        print(f"{min(times) * 1000:9.2f} {bindings:8d}  {text}")


def reads_by_file(database, queries) -> None:
    """One cold round: each statement's physical reads, in total and
    per file, counted at the disk."""
    store = database.store
    names = {record_file.file_id: record_file.name
             for record_file in store._files.values()}
    disk, counts = store.disk, Counter()
    real_read = disk.read

    def counted_read(file_id, block_no):
        counts[file_id] += 1
        return real_read(file_id, block_no)
    print("==== cold: physical reads per statement, per file ====")
    database.cold_cache()
    disk.read = counted_read
    try:
        for text in queries:
            counts.clear()
            database.execute(text)
            print(f"{sum(counts.values()):9d}  {text}")
            for file_id, reads in counts.most_common():
                print(f"{reads:18d}  {names[file_id]}")
    finally:
        del disk.read                   # the instance shadow only


def profile(title: str, database, queries, rounds: int,
            cold: bool) -> None:
    profiler = cProfile.Profile()
    for _ in range(rounds):
        if cold:
            database.cold_cache()
        profiler.enable()
        for text in queries:
            database.execute(text)
        profiler.disable()
    print(f"==== {title} ====")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(TOP)


def main() -> int:
    database = Database(scale_schema(CHAIN_DEPTH), constraint_mode="off")
    populate_scale(database, ANALYTIC_ENTITIES, chain_depth=CHAIN_DEPTH,
                   seed=1)
    database.store.pool.flush()
    database.store.pool.resize(FITTING_POOL_FRAMES)
    queries = scale_queries(CHAIN_DEPTH)
    for text in queries:
        database.execute(text)
    statement_table(database, queries)
    profile(f"warm: {ROUNDS} rounds, {FITTING_POOL_FRAMES} frames",
            database, queries, ROUNDS, cold=False)
    database.store.pool.resize(COLD_POOL_FRAMES)
    reads_by_file(database, queries)
    profile(f"cold: {COLD_ROUNDS} rounds, {COLD_POOL_FRAMES} frames, "
            f"cold_cache() before each", database, queries, COLD_ROUNDS,
            cold=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
