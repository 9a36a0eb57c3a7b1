"""Shared measurement helpers for the benchmark suite.

Every experiment reports two kinds of numbers:

* wall time, measured by pytest-benchmark (treat relative values only);
* block I/O from the buffer pool, which is deterministic and is the unit
  the paper's §5.1/§5.2 performance discussion uses.  Deterministic I/O
  lets the benchmarks *assert* the paper's qualitative claims (who wins,
  in which direction) rather than just print numbers.
"""

from __future__ import annotations

from typing import Callable, Dict


def cold_io(db, operation: Callable[[], object]) -> Dict[str, int]:
    """Run ``operation`` against a cold cache and return its I/O counts."""
    db.cold_cache()
    db.reset_io_stats()
    operation()
    stats = db.io_stats
    return {"logical": stats.logical_reads,
            "physical": stats.physical_reads,
            "writes": stats.physical_writes}


def attach(benchmark, **info) -> None:
    """Record experiment numbers on the benchmark's extra_info."""
    for key, value in info.items():
        benchmark.extra_info[key] = value
