"""cProfile of the OLTP session mix (``make profile-oltp``).

Builds the e2e benchmark's ``oltp_session`` workload (UNIVERSITY, one
snapshot Session, 60/20/20 point reads / short traversals / one-statement
write transactions), warms it up, profiles 3 000 operations and prints
the statement front end — lexer, parser, qualifier, lint, optimizer,
verifiers, lowering, plan cache — row by row, then what an operation
does below it as counts per operation (versioned unit reads, lock
acquisitions, name canonicalisations, copy-protocol copies, record reads
off a page: the figures ``tests/test_counting_guard.py`` budgets per
statement), then the top 25 functions by self time.  A point read is
a batch of one, so the unit and record reads are counted at
``MapperStore._read_many`` and ``RecordFile.read_many``.  After the
plan cache only the skeleton scan and the bind remain of the front end:
six fills, then hits, and ``tokenize`` runs on the fills alone — a hit
whose entry carries diagnostics re-anchors them by the skeleton's
literal offsets and builds no token either.  cProfile inflates
call-heavy code, so use it to find candidates and ``make bench-e2e`` to
measure them.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e/workloads.py)

OPERATIONS = 3000
WARM_UP_OPERATIONS = 300
TOP = 25

#: the front-end rows: (file suffix, function name)
FRONT_END = (
    ("lexer.py", "skeleton"),
    ("lexer.py", "tokenize"),
    ("dml/parser.py", "parse_dml"),
    ("plan_cache.py", "bind"),
    ("database.py", "_compile_statement"),
    ("qualification.py", "resolve_retrieve"),
    ("qualification.py", "resolve_selection"),
    ("query_lint.py", "lint_retrieve"),
    ("query_lint.py", "lint_update"),
    ("strategies.py", "choose_plan"),
    ("plan_verify.py", "verify_plan"),
    ("plan_verify.py", "verify_physical"),
    ("physical_plan.py", "lower_plan"),
    ("physical_plan.py", "lower_selection"),
)

#: the per-operation count rows: (file suffix, function name, label)
PER_OPERATION = (
    ("mapper/store.py", "_read_many", "MapperStore._read_many"),
    ("engine/lockdep.py", "acquire", "RankedLock.acquire"),
    ("repro/naming.py", "canon", "naming.canon"),
    ("/copy.py", "copy", "copy.copy"),
    ("storage/files.py", "read_many", "RecordFile.read_many"),
)


def _calls(stats, suffix: str, name: str):
    """(calls, cumulative s) of the functions ``name`` in files ending
    ``suffix``."""
    calls = cumulative = 0
    for (path, _line, function), row in stats.stats.items():
        if function == name and path.endswith(suffix):
            calls += row[1]
            cumulative += row[3]
    return calls, cumulative


def main() -> int:
    workload = workloads.make_workload("oltp_session", seed=1, cpu_count=1,
                                       smoke=False)
    workload.build()
    workload.warm_up()
    workload.open_clients()
    workload.loop(None, operations=WARM_UP_OPERATIONS)
    profiler = cProfile.Profile()
    profiler.enable()
    _samples, failed, elapsed = workload.loop(None, operations=OPERATIONS)
    profiler.disable()
    workload.close_clients()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    print(f"{OPERATIONS} oltp_session operations in {elapsed:.2f} s under "
          f"cProfile, {failed} failed")
    print(f"{'front end':<44}{'calls':>8}{'cumulative s':>14}")
    for suffix, name in FRONT_END:
        calls, cumulative = _calls(stats, suffix, name)
        print(f"{suffix + '::' + name:<44}{calls:>8}{cumulative:>14.3f}")
    print()
    print(f"{'per operation':<44}{'calls':>8}{'per op':>14}")
    for suffix, name, label in PER_OPERATION:
        calls, _ = _calls(stats, suffix, name)
        print(f"{label:<44}{calls:>8}{calls / OPERATIONS:>14.1f}")
    print()
    stats.sort_stats("tottime").print_stats(TOP)
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
