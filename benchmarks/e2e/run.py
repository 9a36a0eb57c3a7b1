#!/usr/bin/env python3
"""The SIM end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --repeat 5            # ... five times
    python3 benchmarks/e2e/run.py --workload oltp_session --seed 1 \\
        --seconds 10 --trace 0                          # one run, one pass
    python3 benchmarks/e2e/run.py --check-bounds A.json B.json

With ``--workload`` the process sets the workload up, measures one pass
and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
it, every workload runs both passes, each in its own process, and the
results land in ``benchmarks/e2e/out/``.  README.md defines every name.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
             "the program in src/ and runs from a checkout that has it")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.engine import lockdep  # noqa: E402
from repro.types.tvl import is_null  # noqa: E402

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: an untraced run is cut into about this many timed segments with a
#: speed calibration between them
SEGMENTS = 10
#: runs of each reference walk per calibration (their median counts)
CALIBRATION_RUNS = 15
#: the reference kernel walks a wide table (50 000 cells, served from
#: memory) and a narrow one (500 cells, served from cache); these are
#: the walks' times on the quiet reference box, and times are reported
#: as if they had taken this long throughout
WIDE_NOMINAL_S = 0.0046
NARROW_NOMINAL_S = 0.00163
#: weight of the wide walk in the slowdown.  When the host's memory is
#: contended the wide walk slows 1.7-2.0x, the narrow one not at all and
#: the four workloads 1.1-1.3x, which puts the weight between 0.1 and
#: 0.3.  When the host takes the processor away both walks slow alike
#: and the weight does not matter.
MEMORY_SHARE = 0.2
#: a traced run traces this share of the operations an untraced run of
#: ``--seconds`` completes on the reference box, then measures an
#: untraced reference for ``--seconds``
TRACED_SHARE = 0.25
#: spans written to ``out/trace-<workload>.jsonl`` (whole operations)
TRACE_FILE_SPANS = 50_000
#: layers' self time must cover this share of the time inside operations
MIN_ATTRIBUTED_SHARE = 0.98


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ------------------------------------------------------------ measurement

def percentile(sorted_ns, percent: int) -> float:
    """Nearest-rank percentile in ms."""
    rank = max(1, math.ceil(len(sorted_ns) * percent / 100.0))
    return sorted_ns[rank - 1] / 1e6


def enough_beyond(count: int, percent: int) -> bool:
    """A percentile is reported only with ten samples beyond it."""
    return count - math.ceil(count * percent / 100.0) >= 10


def tail(samples_ns, fallback_ms: float) -> float:
    """The highest of p99, p90 and p50 that has at least ten samples
    beyond it; ``fallback_ms`` when there are no samples at all."""
    if not samples_ns:
        return fallback_ms
    ordered = sorted(samples_ns)
    for percent in (99, 90):
        if enough_beyond(len(ordered), percent):
            return percentile(ordered, percent)
    return percentile(ordered, 50)


def over_segments(segments, kinds, percent: int, fallback_ms: float) -> float:
    """The median over the run's segments of each segment's percentile
    of the latencies of ``kinds``: a burst on the host moves one segment,
    not the metric.  A segment counts when it has ten samples beyond the
    percentile (one sample, for a median).  When most segments do not,
    the pooled samples decide, by the same rule (else their median);
    ``fallback_ms`` when there are no samples at all."""
    per_segment, pooled = [], []
    for segment in segments:
        ordered = sorted(value for kind in kinds for value in segment[kind])
        pooled.extend(ordered)
        if ordered and (percent == 50
                        or enough_beyond(len(ordered), percent)):
            per_segment.append(percentile(ordered, percent))
    if not pooled:
        return fallback_ms
    if 2 * len(per_segment) > len(segments):
        return statistics.median(per_segment)
    pooled.sort()
    if not enough_beyond(len(pooled), percent):
        percent = 50
    return percentile(pooled, percent)


class Calibrator:
    """Measures how fast this box runs interpreted code right now.

    The sandboxes these cells run in slow down by a fifth to a factor of
    three for minutes at a time (other tenants on the host), which no
    run length averages out.  Every timed stretch is therefore bracketed
    by runs of a fixed kernel that shares no code with the system under
    test, and its times are divided by the kernel's slowdown: what is
    reported is the time the work would have taken had the box run the
    kernel at its nominal speed throughout.  A change to the system
    cannot move the kernel, so it shows in full.

    The kernel is one walk over a table too wide for the cache and one
    over a narrow table, weighted ``MEMORY_SHARE`` to the rest: a host
    short of memory bandwidth slows the first far more than it slows the
    system, and the second not at all.
    """

    def __init__(self):
        order = random.Random(0)
        self._wide = self._walk(order, 50_000)
        self._narrow = self._walk(order, 500)

    @staticmethod
    def _walk(order: random.Random, width: int):
        cells = [{"key": index, "pair": (index, str(index))}
                 for index in range(width)]
        return cells, [order.randrange(width) for _ in range(20_000)]

    @staticmethod
    def _median_s(walk) -> float:
        cells, picks = walk
        times = []
        for _ in range(CALIBRATION_RUNS):
            started = time.perf_counter()
            total = 0
            for index in picks:
                cell = cells[index]
                total += cell["key"] + len(cell["pair"][1])
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def slowdown(self) -> float:
        """Weighted mean of the two walks' median times over their
        nominal times (1.0 = nominal)."""
        wide = self._median_s(self._wide) / WIDE_NOMINAL_S
        narrow = self._median_s(self._narrow) / NARROW_NOMINAL_S
        return MEMORY_SHARE * wide + (1.0 - MEMORY_SHARE) * narrow


def measure(workload, seconds: float, calibrator: Calibrator):
    """The untraced pass: closed-loop segments of ``seconds / SEGMENTS``
    (at least one operation each) until ``seconds`` have been measured,
    each scaled by the slowdown calibrated just before and after it.

    Returns ([{kind: [scaled latency ns]} per segment], failed, [scaled
    operations per second per segment], raw seconds, [slowdown per
    segment]).
    """
    segments = []
    failed = 0
    raw_s = 0.0
    rates, slowdowns = [], []
    before = calibrator.slowdown()
    while raw_s < seconds:
        segment, segment_failed, elapsed = workload.loop(
            None, seconds=min(seconds / SEGMENTS, seconds - raw_s))
        after = calibrator.slowdown()
        slowdown = (before + after) / 2.0
        before = after
        segments.append({kind: [value / slowdown for value in values]
                         for kind, values in segment.items()})
        failed += segment_failed
        raw_s += elapsed
        rates.append(sum(len(values) for values in segment.values())
                     / (elapsed / slowdown))
        slowdowns.append(slowdown)
    return segments, failed, rates, raw_s, slowdowns


def snapshot_counters(workload) -> dict:
    """Every counter the per-layer metrics need, from the public
    statistics surfaces."""
    database = workload.database
    stats = database.statistics()
    io = database.io_stats
    counters = dict(stats["read_path"])
    counters.update(
        logical_reads=io.logical_reads, physical_reads=io.physical_reads,
        wal_records=stats["storage"]["wal_records"],
        wal_forces=stats["storage"]["wal_forces"],
        commits=stats["storage"]["commits"],
        snapshots_opened=stats["storage"]["mvcc"]["snapshots_opened"],
        chained_keys=stats["storage"]["mvcc"]["chained_keys"],
        lock_waits=stats["locks"]["waits"],
        deadlocks=stats["locks"]["deadlocks"],
        rows_returned=workload.rows_returned)
    if workload.server is not None:
        served = workload.server.statistics()
        counters.update(shed=served["shed"],
                        queued_peak=served["queued_peak"])
    return counters


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def user_bytes(database) -> int:
    """Bytes of user values loaded: every stored data value at its
    natural width (8 per number, 4 per date, the UTF-8 length of a
    string) plus 8 per relationship instance."""
    total = 0
    store = database.store
    relationships = {}
    for sim_class in database.schema.classes():
        for attribute in sim_class.immediate_attributes.values():
            if attribute.is_subrole or attribute.is_surrogate:
                continue
            if attribute.is_eva:
                relationships[id(store.eva_info(attribute))] = attribute
                continue
            rows = database.execute(
                f"From {sim_class.name} Retrieve {attribute.name}").rows
            for (value,) in rows:
                if is_null(value):
                    continue
                if isinstance(value, str):
                    total += len(value.encode("utf-8"))
                else:
                    total += 4 if hasattr(value, "year") else 8
    for attribute in relationships.values():
        total += 8 * store.relationship_cardinality(attribute)
    return total


# ------------------------------------------------------------------ guards

def refuse_dishonest_cell(workload) -> None:
    """The cells are CPU-honest or they do not run."""
    database = workload.database
    problems = []
    if database.store.disk.read_latency != 0:
        problems.append("Disk.read_latency is not 0")
    if database.executor.parallelism != 1:
        problems.append("parallelism is not 1")
    if lockdep.enabled():
        problems.append("lockdep is enabled (REPRO_LOCKDEP, or running "
                        "under pytest)")
    if workload.clients > (os.cpu_count() or 1):
        problems.append(f"{workload.clients} client threads on "
                        f"{os.cpu_count()} CPUs")
    if problems:
        raise SystemExit("refusing to measure: " + "; ".join(problems))


def run_stamp(workload, args, db_blocks: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "seed": args.seed,
            "seconds": args.seconds, "op_counts": workload.op_counts(),
            "pool_frames": workload.pool_frames, "db_blocks": db_blocks,
            "modelled_latency_us": None}


# ----------------------------------------------------------------- one run

def set_up(name: str, args, repeats: int, calibrator: Calibrator):
    """Build the workload ``repeats`` times; keep the last.  Returns the
    workload, the scaled set-up times, the block count and the user
    bytes."""
    times = []
    for attempt in range(repeats):
        workload = workloads.make_workload(name, args.seed,
                                           os.cpu_count() or 1, args.smoke)
        gc.collect()
        before = calibrator.slowdown()
        started = time.perf_counter()
        workload.build()
        built = time.perf_counter() - started
        if attempt == repeats - 1:
            # Untimed accounting, before warm-up so the warm-up is the
            # last thing to touch the caches.
            report = workload.database.check()
            if not report.ok:
                raise SystemExit(f"loaded database is inconsistent: "
                                 f"{report.summary()}")
            db_blocks = report.checked["blocks"]
            loaded_bytes = user_bytes(workload.database)
        started = time.perf_counter()
        workload.warm_up()
        warmed = time.perf_counter() - started
        slowdown = (before + calibrator.slowdown()) / 2.0
        times.append((built + warmed) / slowdown)
    return workload, times, db_blocks, loaded_bytes


def end_to_end_metrics(segments, rates, setup_times, db_blocks,
                       loaded_bytes, workload) -> dict:
    everything = ("read", "write")
    op_p50 = over_segments(segments, everything, 50, 0.0)
    block_size = workload.database.design.block_size
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": op_p50,
        # A workload without writes repeats its median (every workload
        # prints every metric); one with too few for a tail, the writes'.
        "read_p50_ms": over_segments(segments, ("read",), 50, op_p50),
        "write_p50_ms": over_segments(segments, ("write",), 50, op_p50),
        "write_p90_ms": over_segments(segments, ("write",), 90, op_p50),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stored_bytes_per_user_byte":
            db_blocks * block_size / loaded_bytes,
    }


def per_layer_metrics(spans, counters, operations, workload,
                      traced_rate, reference, reference_s,
                      wal_records_loaded) -> dict:
    self_ns, calls, op_ns = tracing.layer_times(spans)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls_per_op"] = ratio(calls.get(layer, 0),
                                                 operations)
        metrics[f"{layer}.self_us_per_op"] = ratio(
            self_ns.get(layer, 0) / 1e3, operations)
        metrics[f"{layer}.self_share"] = ratio(self_ns.get(layer, 0), op_ns)
    acquire_ns = sum(span[5] - span[4] for span in spans
                     if span[3] == "LockManager.acquire")
    victims = sum(1 for span in spans
                  if span[3] == "LockManager.acquire"
                  and span[8] == "DeadlockError")
    c = counters
    writes = c["commits"]
    everything = reference["read"] + reference["write"]
    op_p50 = percentile(sorted(everything), 50)

    def hit_ratio(kind: str) -> float:
        return ratio(c[f"{kind}_hits"],
                     c[f"{kind}_hits"] + c[f"{kind}_misses"])

    metrics.update({
        "storage.buffer.logical_reads_per_op":
            ratio(c["logical_reads"], operations),
        "storage.buffer.physical_reads_per_op":
            ratio(c["physical_reads"], operations),
        "storage.buffer.hit_ratio":
            1.0 - ratio(c["physical_reads"], c["logical_reads"]),
        "mapper.read_cache.record_hit_ratio": hit_ratio("record_cache"),
        "mapper.read_cache.role_hit_ratio": hit_ratio("role_cache"),
        "mapper.read_cache.fanout_hit_ratio": hit_ratio("fanout_cache"),
        "mapper.read_cache.invalidations_per_write":
            ratio(c["invalidations"], writes),
        "engine.access.memo_hit_ratio": hit_ratio("memo"),
        "mapper.store.records_decoded_per_op":
            ratio(c["records_decoded"], operations),
        "engine.executor.rows_examined_per_row_returned":
            ratio(c["batch_rows"], c["rows_returned"]),
        "optimizer.rewrite.applied_per_op": ratio(
            c["rewrite_subclass_prunes"] + c["rewrite_empty_extents"]
            + c["rewrite_eva_flips"] + c["rewrite_exists_reorders"]
            + c["rewrite_traversal_factorings"], operations),
        "mapper.versions.snapshots_per_op":
            ratio(c["snapshots_opened"], operations),
        "mapper.versions.chained_keys_end": c["chained_keys_end"],
        "storage.wal.records_per_commit": ratio(c["wal_records"], writes),
        "storage.wal.forces_per_commit": ratio(c["wal_forces"], writes),
        "storage.wal.records_per_entity_loaded":
            ratio(wal_records_loaded, workload.entities_loaded),
        "engine.sessions.lock_waits": c["lock_waits"],
        "engine.sessions.lock_wait_us_per_op":
            ratio(acquire_ns / 1e3, operations),
        "engine.sessions.deadlocks": c["deadlocks"],
        "engine.sessions.deadlock_retries": victims,
        "interfaces.server.shed": c.get("shed", 0),
        "interfaces.server.queued_peak": c.get("queued_peak", 0),
        "mapper.store.populate_entities_per_s":
            ratio(workload.entities_loaded, workload.populate_s),
        "bench.trace_overhead_ratio": ratio(
            traced_rate, len(everything) / reference_s),
        # Tails of the untraced reference, unscaled.  Too unsteady on
        # this box to carry a bound, so they are not end-to-end metrics.
        "bench.op_p99_ms": tail(everything, 0.0),
        "bench.write_p99_ms": tail(reference["write"], op_p50),
        "bench.unattributed_share":
            ratio(self_ns.get(tracing.BENCH_LAYER, 0), op_ns),
    })
    return metrics


def untraced_pass(workload, args, calibrator, setup_times, db_blocks,
                  loaded_bytes):
    """Returns (metrics, sample counts, failed, detail for the run file)."""
    workload.open_clients()
    try:
        segments, failed, rates, raw_s, slowdowns = measure(
            workload, args.seconds, calibrator)
    finally:
        workload.close_clients()
    metrics = end_to_end_metrics(segments, rates, setup_times, db_blocks,
                                 loaded_bytes, workload)
    counts = {kind: sum(len(segment[kind]) for segment in segments)
              for kind in ("read", "write")}
    return metrics, counts, failed, {
        "slowdown": {"segments": slowdowns, "raw_seconds": raw_s}}


def traced_pass(workload, args):
    """A fixed number of traced operations, then an untraced reference
    stretch of ``--seconds``.  Returns what untraced_pass returns; the
    caller adds the recovery time once the final oracle has run."""
    wal_records_loaded = \
        workload.database.statistics()["storage"]["wal_records"]
    workload.open_clients()
    tracer = tracing.Tracer()
    try:
        # Traced first: the traced operations are then the first of the
        # seeded stream whatever the box's speed, so counts repeat.
        per_client = max(
            workload.min_traced_ops,
            int(workload.nominal_ops_per_second * args.seconds
                * TRACED_SHARE / workload.clients))
        before = snapshot_counters(workload)
        tracer.install()
        try:
            samples, failed, elapsed = workload.loop(
                tracer, operations=per_client)
        finally:
            tracer.remove()
        after = snapshot_counters(workload)
        reference, reference_failed, reference_s = workload.loop(
            None, seconds=args.seconds)
    finally:
        workload.close_clients()
    counters = {key: after[key] - before[key] for key in after}
    counters["chained_keys_end"] = after["chained_keys"]
    counters["queued_peak"] = after.get("queued_peak", 0)
    counts = {kind: len(values) for kind, values in samples.items()}
    operations = sum(counts.values())
    reference_ops = len(reference["read"]) + len(reference["write"])
    spans = tracing.adopt_server_spans(tracer.spans,
                                       workload.client_threads)
    metrics = per_layer_metrics(
        spans, counters, operations, workload, operations / elapsed,
        reference, reference_s, wal_records_loaded)
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_jsonl(OUT_DIR / f"trace-{workload.name}.jsonl", spans,
                        TRACE_FILE_SPANS)
    failed += reference_failed
    if metrics["bench.unattributed_share"] > 1 - MIN_ATTRIBUTED_SHARE:
        workload.errors.append(
            f"layers cover only {1 - metrics['bench.unattributed_share']:.3f}"
            " of the time inside operations")
        failed += 1
    counts["reference"] = reference_ops
    return metrics, counts, failed, {}


def run_one(args) -> int:
    spec = load_spec()
    traced = bool(args.trace)
    calibrator = Calibrator()
    workload, setup_times, db_blocks, loaded_bytes = set_up(
        args.workload, args, 1 if traced else SETUP_REPEATS, calibrator)
    refuse_dishonest_cell(workload)
    stamp = run_stamp(workload, args, db_blocks)
    if traced:
        metrics, counts, failed, detail = traced_pass(workload, args)
    else:
        metrics, counts, failed, detail = untraced_pass(
            workload, args, calibrator, setup_times, db_blocks, loaded_bytes)
    checks, failures, recovery_ms = workload.final_oracle()
    if traced:
        metrics["storage.wal.recovery_ms"] = recovery_ms
    attempted = sum(counts.values()) + checks
    failed += failures

    declared = spec["per_layer" if traced else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}")
    for name in units:
        print(f"{name:55s} {metrics[name]:>16.6f} {units[name]}")
    for error in workload.errors[:20]:
        print("FAILED:", error)
    print(f"failed_ops_ratio {failed / attempted:.6f} "
          f"({failed} of {attempted})")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload.name}-trace{int(traced)}.json").write_text(
        json.dumps(dict(result, workload=workload.name, trace=int(traced),
                        stamp=stamp, samples=counts, **detail), indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- all runs

def run_child(name: str, args, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)] + ["--smoke"] * args.smoke
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited "
                         f"{done.returncode}")
    return json.loads(
        (OUT_DIR / f"run-{name}-trace{trace}.json").read_text())


def spread_table(runs: list, spec: dict) -> list:
    """Median, quartiles and relative spread per (workload, end-to-end
    metric) over ``runs`` (each a {workload: detail} of untraced runs)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for entry in spec["end_to_end"]:
            values = [run[workload]["metrics"][entry["name"]]["value"]
                      for run in runs if workload in run]
            if not values:
                continue
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            rows.append({"workload": workload, "metric": entry["name"],
                         "unit": entry["unit"], "runs": len(values),
                         "median": median, "q1": q1, "q3": q3,
                         "spread": ratio(q3 - q1, abs(median)),
                         "bound": entry["bound"]})
    return rows


def print_spread(rows: list) -> None:
    print(f"{'workload':15s} {'metric':28s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for row in rows:
        print(f"{row['workload']:15s} {row['metric']:28s} "
              f"{row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f} "
              f"{row['spread']:8.4f} {row['bound']:6.2f}  {row['unit']}")


def run_all(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    untraced_runs, traced_runs = [], []
    for _ in range(args.repeat):
        untraced_runs.append({name: run_child(name, args, 0)
                              for name in names})
        traced_runs.append({name: run_child(name, args, 1)
                            for name in names})
    rows = spread_table(untraced_runs, spec)
    print_spread(rows)
    OUT_DIR.mkdir(exist_ok=True)
    target = Path(args.out) if args.out else OUT_DIR / "results.json"
    target.write_text(json.dumps(
        {"end_to_end": untraced_runs, "per_layer": traced_runs,
         "spread": rows}, indent=1))
    print(f"wrote {target}")
    return 0


def check_bounds(first_path: str, second_path: str) -> int:
    """Compare two result sets of the same code (or of a parent and a
    change): the second's median may not be worse than the first's by
    more than the metric's bound, and neither spread may exceed it."""
    spec = load_spec()
    better = {e["name"]: e["better"] for e in spec["end_to_end"]}
    first = {(r["workload"], r["metric"]): r for r in spread_table(
        json.loads(Path(first_path).read_text())["end_to_end"], spec)}
    second = {(r["workload"], r["metric"]): r for r in spread_table(
        json.loads(Path(second_path).read_text())["end_to_end"], spec)}
    violations = 0
    print(f"{'workload':15s} {'metric':28s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for key, a in first.items():
        b = second[key]
        change = ratio(b["median"] - a["median"], abs(a["median"]))
        worse = change if better[key[1]] == "lower" else -change
        verdict = "ok"
        if worse > a["bound"]:
            verdict = "REGRESSED"
        elif max(a["spread"], b["spread"]) > a["bound"]:
            verdict = "UNRESOLVED (spread over bound)"
        violations += verdict != "ok"
        print(f"{key[0]:15s} {key[1]:28s} {a['median']:12.4f} "
              f"{b['median']:12.4f} {worse:9.4f} {a['bound']:6.2f}  "
              f"{verdict}")
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the data; the numbers mean nothing")
    parser.add_argument("--out", help="result file of a run of every "
                                      "workload")
    parser.add_argument("--check-bounds", nargs=2,
                        metavar=("FIRST.json", "SECOND.json"))
    args = parser.parse_args(argv)
    if args.check_bounds:
        return check_bounds(*args.check_bounds)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
