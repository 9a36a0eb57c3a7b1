"""Where the analytic database's memory goes (``make rss``).

Builds the e2e benchmark's ``analytic_cold`` database — ``scale_schema(3)``
at 10 000 entities, the pool resized to ``COLD_POOL_FRAMES`` — with
``tracemalloc`` on, runs two cold rounds of ``scale_queries``
(``cold_cache()`` before each), then prints the bytes each owner holds
at the end, per loaded entity:

* disk image (``Disk._blocks``), buffer frames (``BufferPool._frames``)
  and the write-ahead log's records;
* the read cache's decoded-record, role and fan-out LRUs;
* the executor's memo shards (``EntityAccessor._memos``);
* the MVCC version chains (``VersionManager``'s maps);
* the index dicts, one row per kind below their total: the surrogate,
  unique and value indexes, the EVA structure indexes (forward and
  reverse), the field-mapped EVAs' reverse indexes and the MV DVA
  indexes.

An object reachable from several owners is counted once, by the first
in that order: a record tuple the disk image, a buffer frame, the log
and the record cache all share is disk image.  ``other`` is what
``tracemalloc`` traces beyond the owners (schema, plans, interpreter
state); ``peak`` is the traced high-water mark of the whole run.
Compare two trees by running this in each.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc

from repro.database import Database
from repro.mapper.mappings import StructureEva
from repro.storage.buffer import Block
from repro.storage.index import _BaseIndex
from repro.storage.wal import LogRecord
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
)

COLD_ROUNDS = 2
#: what the walk descends into; every other object is a leaf
_WALKED = (dict, list, tuple, set, frozenset, Block, LogRecord,
           _BaseIndex)


def _indexes_of(storages):
    return [value for storage in storages for value in vars(storage).values()
            if isinstance(value, _BaseIndex)]


def index_owners(store):
    """``(kind, roots)`` for each kind of index the store keeps; they
    claim after every owner of :func:`owners`."""
    evas = store._evas.values()
    return [
        ("surrogate", list(store._surrogate_index.values())),
        ("unique", list(store._unique_index.values())),
        ("value", list(store._value_index.values())),
        ("EVA structure", _indexes_of(
            eva for eva in evas if isinstance(eva, StructureEva))),
        ("EVA field", _indexes_of(
            eva for eva in evas if not isinstance(eva, StructureEva))),
        ("MV DVA", _indexes_of(store._mvs.values())),
    ]


def owners(database):
    """``(owner, roots)`` in claiming order."""
    store = database.store
    cache, versions = store.read_cache, store.versions
    return [
        ("disk image", [store.disk._blocks]),
        ("buffer frames", [store.pool._frames]),
        ("write-ahead log", [store.wal._records]),
        ("record cache", [cache._records]),
        ("role cache", [cache._roles]),
        ("fan-out cache", [cache._fanout]),
        ("memo shards", [database.executor.accessor._memos]),
        ("version chains", [versions._pending, versions._txn_keys,
                            versions._chains, versions._rec_pending,
                            versions._rec_changes]),
    ]


def claim(roots, seen) -> int:
    """Bytes reachable from ``roots`` not already in ``seen``."""
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, _WALKED):
            # Referents, not ``vars()``: reading an instance's __dict__
            # would create the dict this is measuring.
            stack.extend(ref for ref in gc.get_referents(obj)
                         if not isinstance(ref, type))
    return total


def main() -> int:
    tracemalloc.start()
    database = Database(scale_schema(CHAIN_DEPTH), constraint_mode="off")
    created = populate_scale(database, ANALYTIC_ENTITIES,
                             chain_depth=CHAIN_DEPTH, seed=1)
    entities = sum(len(surrogates) for surrogates in created.values())
    database.store.pool.flush()
    database.store.pool.resize(COLD_POOL_FRAMES)
    queries = scale_queries(CHAIN_DEPTH)
    for _ in range(COLD_ROUNDS):
        database.cold_cache()
        for text in queries:
            database.execute(text)
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    seen = set()
    rows = [(owner, claim(roots, seen))
            for owner, roots in owners(database)]
    kinds = [(f"  {kind}", claim(roots, seen))
             for kind, roots in index_owners(database.store)]
    indexed = sum(size for _, size in kinds)
    other = current - indexed - sum(size for _, size in rows)
    rows += [("index dicts", indexed), *kinds, ("other", other)]
    print(f"analytic_cold database: {entities} entities, "
          f"{COLD_POOL_FRAMES} frames, {COLD_ROUNDS} cold rounds")
    print(f"{'owner':<16} {'bytes':>12} {'B/entity':>10} {'share':>7}")
    for owner, size in rows:
        print(f"{owner:<16} {size:>12,} {size / entities:>10.1f} "
              f"{size / current:>7.1%}")
    print(f"{'traced now':<16} {current:>12,} {current / entities:>10.1f}")
    print(f"{'traced peak':<16} {peak:>12,} {peak / entities:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
