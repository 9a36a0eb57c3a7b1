"""E20 — runtime lockdep instrumentation overhead.

The dynamic lock-order checker (:mod:`repro.engine.lockdep`) is on by
default under pytest and ``REPRO_LOCKDEP=1``; for that to be a
keep-it-on default, its cost on the *worst* cell — E19's contended
writes, where lock traffic is the workload — must stay small.

Two measurements:

* the instrumentation's own cost, in microseconds per acquisition: one
  thread takes the nesting the write path takes (unit latch, then the
  version map, then the buffer pool) through checked and unchecked
  :class:`~repro.engine.lockdep.RankedLock` s, best of ``repeats``; the
  difference is what checking adds to every acquire, whatever the
  workload.  **This is the gate** (``MAX_US_PER_ACQUIRE``).
* the E19 contended-write cell, once with lockdep forced off and once
  on (the enabled state is captured at lock construction, so each run
  builds a fresh database inside :func:`repro.engine.lockdep.forced`):
  for the oracle, the violations and the acquisition graph.  Its
  off/on throughput ratio *was* the gate (< 10 %), but the cost above
  is fixed while the cell kept getting faster (PR 16, PR 18), and one
  cell is ~0.1 s of eight threads resolving deadlocks: single off/on
  pairs read between -40 % and +45 % on the same code.  Both rates are
  recorded; no ratio of them is.

Shape claims asserted:
* checking costs less than ``MAX_US_PER_ACQUIRE`` per acquisition;
* the instrumented run records **zero** lock-order violations while
  observing a non-trivial acquisition graph;
* the committed-prefix oracle holds in both modes.
"""

import time

from repro.engine import lockdep
from repro.engine.lockdep import RankedLock

from _harness import attach
from bench_concurrency import _measure_contention

#: the E19 contended cell this experiment re-drives
SESSIONS = 8
TRANSACTIONS = 30
REPEATS = 5

#: acceptance bound on what checking adds to one acquisition (0.6-0.8 us
#: on the boxes this was written on; a broken chain cache costs 10+)
MAX_US_PER_ACQUIRE = 1.5
ACQUIRE_ROUNDS = 100_000


def _contended_cell(sessions: int, transactions: int) -> dict:
    result = _measure_contention((sessions,), transactions)
    cell = dict(result["sessions"][str(sessions)])
    cell["oracle_ok"] = result["oracle_ok"]
    return cell


def _us_per_acquire(check: bool, repeats: int) -> float:
    with lockdep.forced(check):
        latch, versions, pool = (RankedLock("store.unit_latch"),
                                 RankedLock("mapper.versions"),
                                 RankedLock("storage.buffer"))
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(ACQUIRE_ROUNDS):
            with latch:
                with versions:
                    pass
                with pool:
                    pass
        best = min(best, time.perf_counter() - started)
    return best / (3 * ACQUIRE_ROUNDS) * 1e6


def measure_lockdep(sessions: int = SESSIONS,
                    transactions: int = TRANSACTIONS,
                    repeats: int = REPEATS) -> dict:
    """The numbers ``BENCH_lockdep.json`` records."""
    started = time.perf_counter()
    with lockdep.forced(False):
        baseline = _contended_cell(sessions, transactions)
    with lockdep.forced(True):
        lockdep.reset()
        instrumented = _contended_cell(sessions, transactions)
        graph_edges = len(lockdep.edges())
        violation_count = len(lockdep.violations())
    us_per_acquire = (_us_per_acquire(True, repeats)
                      - _us_per_acquire(False, repeats))
    return {
        "sessions": sessions,
        "transactions_per_session": transactions,
        "repeats": repeats,
        "baseline_txns_per_s": baseline["txns_per_s"],
        "instrumented_txns_per_s": instrumented["txns_per_s"],
        "us_per_acquire": us_per_acquire,
        "max_us_per_acquire": MAX_US_PER_ACQUIRE,
        "acquisition_edges": graph_edges,
        "violations": violation_count,
        "deadlocks_resolved": instrumented["deadlocks"],
        "oracle_ok": baseline["oracle_ok"] and instrumented["oracle_ok"],
        "wall_s": time.perf_counter() - started,
    }


def test_e20_lockdep_overhead_smoke(benchmark):
    measured = measure_lockdep(sessions=4, transactions=10, repeats=1)

    assert measured["oracle_ok"]
    assert measured["violations"] == 0
    assert measured["acquisition_edges"] > 0
    assert 0 < measured["us_per_acquire"] < measured["max_us_per_acquire"]

    benchmark(lambda: None)
    attach(benchmark,
           baseline_txns_per_s=round(measured["baseline_txns_per_s"], 1),
           instrumented_txns_per_s=round(
               measured["instrumented_txns_per_s"], 1),
           us_per_acquire=round(measured["us_per_acquire"], 3),
           acquisition_edges=measured["acquisition_edges"],
           violations=measured["violations"])
