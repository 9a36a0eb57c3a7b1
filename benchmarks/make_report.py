"""Regenerate the EXPERIMENTS.md measurement tables from a benchmark run.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python benchmarks/make_report.py bench.json > measured.md
    python benchmarks/make_report.py --read-path [out.json]
    python benchmarks/make_report.py --recovery [out.json]

The output groups benchmarks by experiment (the ``test_e<N>_`` prefix) and
prints, per benchmark, the mean wall time and every ``extra_info`` number
(the deterministic block-I/O measurements the experiments assert on).
EXPERIMENTS.md narrates these numbers; this report is the raw regeneration
path.

``--read-path`` runs the E13 cold-vs-warm measurement directly and writes
``BENCH_read_path.json`` (hit rate + speedup), tracking the read-path
perf trajectory from PR to PR.

``--recovery`` runs the E14 crash-torture/recovery measurement and writes
``BENCH_recovery.json`` (crash points recovered consistent, recovery and
checker latency, transient-retry cost).

``--lint`` runs the E15 static-analysis measurement and writes
``BENCH_lint.json`` (lint overhead ratio, workload cleanliness, seeded
defect detection).

``--trace`` runs the E16 tracing-overhead measurement and writes
``BENCH_trace.json`` (disabled/enabled overhead ratios over the 12-query
sweep, spans per statement, layers observed).

``--batch`` runs the E17 batched-execution measurement and writes
``BENCH_batch.json`` (batched-over-tuple-at-a-time speedups per
UNIVERSITY query, with row-identical verification).

``--scale`` runs the E18 morsel-parallelism measurement at 10^5 entities
and writes ``BENCH_scale.json`` (rows/sec and speedup vs serial at
1/2/4/8 workers on the scale workload, populate rate and peak RSS per
entity count, with row-identical verification).  ``--scale-smoke`` runs
the same measurement at 10^4 entities for CI.

``--concurrency`` runs the E19 multi-session measurement and writes
``BENCH_concurrency.json`` (snapshot-read statements/sec and latency
histograms at 1/4/8 sessions with row-identical verification,
contended write throughput with deadlock counts and the
committed-prefix oracle, plus the disjoint-entity write cell: 8
sessions updating disjoint entities of one class must commit at >= 2x
the class-granularity baseline with zero lock conflicts).
``--concurrency-smoke`` is the reduced CI lane (row identity + both
oracles + the disjoint-entity gate; no read-throughput bound).
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import defaultdict

_EXPERIMENT_TITLES = {
    "e3": "E3 — ADDS scale (§6)",
    "e4": "E4 — EVA mapping options (§5.2)",
    "e5": "E5 — variable-format records vs separate units (§5.2)",
    "e6": "E6 — optimizer (§5.1)",
    "e7": "E7 — semantic DML vs relational formulation (§1, §4.1)",
    "e8": "E8 — transitive closure (§4.7)",
    "e9": "E9 — VERIFY enforcement (§3.3)",
    "e10": "E10 — DMSII evolution path (§5)",
    "e11": "E11 — output forms (§4.5)",
    "e12": "E12 — MV DVA mapping (§5.2)",
    "e13": "E13 — read-path caches & memoization",
    "e14": "E14 — fault injection, crash torture & consistency checking",
    "e15": "E15 — simcheck static analysis (overhead & coverage)",
    "e16": "E16 — end-to-end tracing overhead (EXPLAIN ANALYZE)",
    "e17": "E17 — batched Volcano execution vs tuple-at-a-time",
    "e18": "E18 — morsel-parallel execution at scale",
    "e19": "E19 — multi-session concurrency (2PL + MVCC + server)",
    "e20": "E20 — runtime lockdep instrumentation overhead",
    "e21": "E21 — semantic rewrite & materialized derived relations",
}


def write_read_path_report(out_path: str) -> int:
    """Run the E13 measurement and emit ``BENCH_read_path.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_read_path import measure_read_path
    measured = measure_read_path()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}: "
          f"{measured['wall_speedup']:.2f}x warm-over-cold, "
          f"hit rate {measured['warm_hit_rate']:.3f}, "
          f"{measured['cold_logical_reads']} -> "
          f"{measured['warm_logical_reads']} logical reads")
    return 0


def write_recovery_report(out_path: str) -> int:
    """Run the E14 measurement and emit ``BENCH_recovery.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_recovery import measure_recovery
    measured = measure_recovery()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}: "
          f"{measured['consistent_points']}/{measured['crash_points_run']} "
          f"crash points consistent, "
          f"{measured['exact_prefix_points']}/{measured['crash_points_run']} "
          f"exact committed prefixes, "
          f"recover {measured['recover_ms']:.2f} ms, "
          f"check {measured['check_ms']:.2f} ms")
    return 0


def write_lint_report(out_path: str) -> int:
    """Run the E15 measurement and emit ``BENCH_lint.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_lint import measure_lint
    measured = measure_lint()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}: "
          f"{measured['queries']} queries compile clean, "
          f"{measured['plans_verified']}/{measured['queries']} plans "
          f"verified, lint overhead "
          f"{measured['lint_overhead_ratio']:.3f}x of execution, "
          f"{measured['defects_detected']}/{measured['defects_seeded']} "
          f"seeded defects detected, "
          f"{measured['concurrency_defects_detected']}/"
          f"{measured['concurrency_defects_seeded']} SIM3xx defects "
          f"detected, sweep findings "
          f"{measured['concurrency_sweep_findings']}")
    if (measured["concurrency_defects_detected"]
            != measured["concurrency_defects_seeded"]):
        print("FAIL: planted SIM3xx defects escaped the concurrency "
              "lint", file=sys.stderr)
        return 1
    if measured["concurrency_sweep_findings"]:
        print("FAIL: the concurrency sweep over src/repro is not clean",
              file=sys.stderr)
        return 1
    return 0


def write_trace_report(out_path: str) -> int:
    """Run the E16 measurement and emit ``BENCH_trace.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_trace import measure_trace
    measured = measure_trace()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}: "
          f"disabled overhead {measured['disabled_overhead_ratio']:+.4f} "
          f"(bound {measured['disabled_overhead_bound']:.2f}), "
          f"enabled overhead {measured['enabled_overhead_ratio']:+.3f}, "
          f"{measured['spans_per_statement_mean']:.1f} spans/statement "
          f"over {measured['statements_traced']} statements")
    if (measured["disabled_overhead_ratio"]
            > measured["disabled_overhead_bound"]):
        print("FAIL: disabled-tracing overhead exceeds the bound",
              file=sys.stderr)
        return 1
    return 0


def write_batch_report(out_path: str) -> int:
    """Run the E17 measurement and emit ``BENCH_batch.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_batch import measure_batch
    measured = measure_batch()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}: "
          f"{measured['multi_eva_min_speedup']:.2f}x min / "
          f"{measured['multi_eva_mean_speedup']:.2f}x mean batched-over-"
          f"tuple on {measured['multi_eva_queries']} traversal queries "
          f"(batch size {measured['batch_size']}), "
          f"rows identical: {measured['rows_identical']}")
    if not measured["rows_identical"]:
        print("FAIL: batched execution returned different rows",
              file=sys.stderr)
        return 1
    if measured["multi_eva_min_speedup"] < measured["min_speedup_bound"]:
        print("FAIL: batched speedup on traversal queries below the "
              f"{measured['min_speedup_bound']:.1f}x bound",
              file=sys.stderr)
        return 1
    return 0


def write_scale_report(out_path: str, entities: int = 100_000,
                       enforce_bound: bool = True) -> int:
    """Run the E18 measurement and emit ``BENCH_scale.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_scale import measure_scale
    measured = measure_scale(entities=entities)
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    aggregates = ", ".join(
        f"{workers}w {speedup:.2f}x"
        for workers, speedup in measured["aggregate_speedup"].items())
    print(f"wrote {out_path}: {measured['entities']} entities, "
          f"traversal-query speedup {aggregates} "
          f"(read latency {measured['read_latency_us']:.0f} us), "
          f"rows identical: {measured['rows_identical']}")
    if not measured["rows_identical"]:
        print("FAIL: parallel execution returned different rows",
              file=sys.stderr)
        return 1
    if (enforce_bound and measured["aggregate_speedup_at_4"]
            < measured["min_aggregate_speedup"]):
        print("FAIL: aggregate speedup at 4 workers below the "
              f"{measured['min_aggregate_speedup']:.1f}x bound",
              file=sys.stderr)
        return 1
    return 0


def write_concurrency_report(out_path: str, smoke: bool = False) -> int:
    """Run the E19 measurement and emit ``BENCH_concurrency.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_concurrency import measure_concurrency
    if smoke:
        measured = measure_concurrency(entities=2_000,
                                       session_counts=(1, 4),
                                       rounds=1, transactions=10)
    else:
        measured = measure_concurrency()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    rates = ", ".join(
        f"{sessions}s {cell['stmts_per_s']:.1f}/s ({cell['speedup']:.2f}x)"
        for sessions, cell in measured["reads"]["sessions"].items())
    contended = measured["contention"]["sessions"]
    deadlocks = sum(cell["deadlocks"] for cell in contended.values())
    disjoint = measured["disjoint"]
    print(f"wrote {out_path}: snapshot reads {rates}; "
          f"contended commits at max sessions "
          f"{list(contended.values())[-1]['txns_per_s']:.1f} txns/s, "
          f"{deadlocks} deadlocks resolved; disjoint-entity writers "
          f"{measured['disjoint_speedup']:.2f}x the class-granularity "
          f"baseline at 8 sessions; "
          f"rows identical: {measured['rows_identical']}, "
          f"oracle ok: {measured['oracle_ok']}")
    if not measured["rows_identical"]:
        print("FAIL: concurrent snapshot reads differ from serial rows",
              file=sys.stderr)
        return 1
    if not measured["oracle_ok"]:
        print("FAIL: committed-prefix oracle violated under contention",
              file=sys.stderr)
        return 1
    disjoint_conflicts = sum(
        cell["deadlocks"] + cell["timeouts"]
        for cell in disjoint["sessions"].values())
    if disjoint_conflicts:
        print("FAIL: disjoint-entity writers hit lock conflicts — "
              "entity granularity is not isolating them", file=sys.stderr)
        return 1
    if measured["disjoint_speedup"] < measured["min_disjoint_speedup_at_8"]:
        print("FAIL: disjoint-entity throughput at 8 sessions below "
              f"{measured['min_disjoint_speedup_at_8']:.1f}x the "
              "class-granularity baseline", file=sys.stderr)
        return 1
    if (not smoke and measured["read_speedup_at_4"] is not None
            and measured["read_speedup_at_4"]
            < measured["min_read_speedup_at_4"]):
        print("FAIL: snapshot-read throughput at 4 sessions below the "
              f"{measured['min_read_speedup_at_4']:.1f}x bound",
              file=sys.stderr)
        return 1
    return 0


def experiment_of(name: str) -> str:
    match = re.match(r"test_(e\d+)_", name)
    if match:
        return match.group(1)
    return "other"


def write_lockdep_report(out_path: str) -> int:
    """Run the E20 measurement and emit ``BENCH_lockdep.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_lockdep import measure_lockdep
    measured = measure_lockdep()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}: checking costs "
          f"{measured['us_per_acquire']:.2f} us per acquire; contended "
          f"cell at {measured['sessions']} sessions, once each — "
          f"lockdep off {measured['baseline_txns_per_s']:.1f} txns/s, on "
          f"{measured['instrumented_txns_per_s']:.1f} txns/s, "
          f"{measured['acquisition_edges']} graph edges, "
          f"{measured['violations']} violations, "
          f"oracle ok: {measured['oracle_ok']}")
    if measured["violations"]:
        print("FAIL: lock-order violations recorded during the "
              "instrumented run", file=sys.stderr)
        return 1
    if not measured["oracle_ok"]:
        print("FAIL: committed-prefix oracle violated", file=sys.stderr)
        return 1
    if measured["us_per_acquire"] >= measured["max_us_per_acquire"]:
        print(f"FAIL: lockdep checking costs "
              f"{measured['us_per_acquire']:.2f} us per acquire, over the "
              f"{measured['max_us_per_acquire']:.1f} us bound",
              file=sys.stderr)
        return 1
    return 0


def write_rewrite_report(out_path: str) -> int:
    """Run the E21 measurement and emit ``BENCH_rewrite.json``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_rewrite import measure_rewrite
    measured = measure_rewrite()
    with open(out_path, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    sub, mat = measured["subclass"], measured["closure_mat"]
    print(f"wrote {out_path}: subclass-pruned ISA query "
          f"{sub['legacy_ms']:.2f} ms -> {sub['rewritten_ms']:.2f} ms "
          f"({sub['speedup']:.1f}x, {sub['rows']} rows), closure "
          f"materialization {mat['direct_ms']:.2f} ms -> "
          f"{mat['materialized_ms']:.2f} ms ({mat['speedup']:.1f}x, "
          f"{mat['rows']} rows, {mat['materialized_hits']} hits)")
    failed = 0
    for label, cell in (("subclass-pruned", sub),
                        ("materialization-hit", mat)):
        if not cell["rows_identical"]:
            print(f"FAIL: {label} cell rows differ from the rewrite-off "
                  "reference", file=sys.stderr)
            failed = 1
        if cell["speedup"] < measured["min_speedup"]:
            print(f"FAIL: {label} cell speedup {cell['speedup']:.2f}x "
                  f"below the {measured['min_speedup']:.1f}x bound",
                  file=sys.stderr)
            failed = 1
    if sub["rewrite_subclass_prunes"] < 1:
        print("FAIL: subclass cell never exercised the rewrite",
              file=sys.stderr)
        failed = 1
    if mat["materialized_hits"] < 1:
        print("FAIL: materialization cell never hit the materialization",
              file=sys.stderr)
        failed = 1
    return failed


def format_benchmark(entry: dict) -> str:
    name = entry["name"]
    mean_ms = entry["stats"]["mean"] * 1000.0
    extra = entry.get("extra_info", {})
    extras = "  ".join(f"{key}={value}" for key, value in extra.items())
    return f"| `{name}` | {mean_ms:10.3f} | {extras} |"


def main(argv) -> int:
    if len(argv) >= 2 and argv[1] == "--read-path":
        out_path = argv[2] if len(argv) > 2 else "BENCH_read_path.json"
        return write_read_path_report(out_path)
    if len(argv) >= 2 and argv[1] == "--recovery":
        out_path = argv[2] if len(argv) > 2 else "BENCH_recovery.json"
        return write_recovery_report(out_path)
    if len(argv) >= 2 and argv[1] == "--lint":
        out_path = argv[2] if len(argv) > 2 else "BENCH_lint.json"
        return write_lint_report(out_path)
    if len(argv) >= 2 and argv[1] == "--trace":
        out_path = argv[2] if len(argv) > 2 else "BENCH_trace.json"
        return write_trace_report(out_path)
    if len(argv) >= 2 and argv[1] == "--batch":
        out_path = argv[2] if len(argv) > 2 else "BENCH_batch.json"
        return write_batch_report(out_path)
    if len(argv) >= 2 and argv[1] == "--scale":
        out_path = argv[2] if len(argv) > 2 else "BENCH_scale.json"
        return write_scale_report(out_path)
    if len(argv) >= 2 and argv[1] == "--concurrency":
        out_path = argv[2] if len(argv) > 2 else "BENCH_concurrency.json"
        return write_concurrency_report(out_path)
    if len(argv) >= 2 and argv[1] == "--concurrency-smoke":
        out_path = argv[2] if len(argv) > 2 else \
            "BENCH_concurrency_smoke.json"
        return write_concurrency_report(out_path, smoke=True)
    if len(argv) >= 2 and argv[1] == "--lockdep":
        out_path = argv[2] if len(argv) > 2 else "BENCH_lockdep.json"
        return write_lockdep_report(out_path)
    if len(argv) >= 2 and argv[1] == "--rewrite":
        out_path = argv[2] if len(argv) > 2 else "BENCH_rewrite.json"
        return write_rewrite_report(out_path)
    if len(argv) >= 2 and argv[1] == "--scale-smoke":
        out_path = argv[2] if len(argv) > 2 else "BENCH_scale_smoke.json"
        # 10^4-entity CI lane: row identity is enforced, the 2x bound is
        # only asserted at the full 10^5 scale.
        return write_scale_report(out_path, entities=10_000,
                                  enforce_bound=False)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        data = json.load(handle)

    grouped = defaultdict(list)
    for entry in data["benchmarks"]:
        grouped[experiment_of(entry["name"])].append(entry)

    print("# Measured results (regenerated)\n")
    machine = data.get("machine_info", {})
    print(f"Python {machine.get('python_version', '?')} on "
          f"{machine.get('system', '?')}; wall times are indicative, "
          f"block-I/O numbers (extra info) are deterministic.\n")
    for experiment in sorted(grouped,
                             key=lambda e: (e == "other",
                                            int(e[1:]) if e[1:].isdigit()
                                            else 0)):
        title = _EXPERIMENT_TITLES.get(
            experiment, "Substrate extensions (recovery, sessions)")
        print(f"## {title}\n")
        print("| benchmark | mean ms | measurements |")
        print("|---|---:|---|")
        for entry in sorted(grouped[experiment],
                            key=lambda e: e["name"]):
            print(format_benchmark(entry))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
