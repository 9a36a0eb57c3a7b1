"""cProfile of the warm analytic round (``make profile-analytic``).

Builds the ``scale_schema(3)`` database at 10 000 entities, runs one
round of ``scale_queries`` to fill the caches, then profiles three more
and prints the top 25 functions by self time — the starting point for
any executor change.  cProfile inflates call-heavy code, so use it to
find candidates and ``make bench-e2e`` to measure them.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

from repro.database import Database
from repro.workloads.generators import (
    populate_scale,
    scale_queries,
    scale_schema,
)

ENTITIES = 10_000
CHAIN_DEPTH = 3
ROUNDS = 3
TOP = 25


def main() -> int:
    database = Database(scale_schema(CHAIN_DEPTH), constraint_mode="off")
    populate_scale(database, ENTITIES, chain_depth=CHAIN_DEPTH, seed=1)
    database.store.pool.flush()
    database.store.pool.resize(2048)
    queries = scale_queries(CHAIN_DEPTH)
    for text in queries:
        database.execute(text)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(ROUNDS):
        for text in queries:
            database.execute(text)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
