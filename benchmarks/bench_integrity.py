"""E9 — VERIFY enforcement overhead and trigger detection (paper §3.3).

"Integrity constraints are handled by a trigger detection / query
enhancement mechanism that works efficiently for a subset of constraints."

Workload: an insert/modify stream against the UNIVERSITY schema under
constraint modes OFF / IMMEDIATE / DEFERRED.

Shape claims asserted:
* trigger detection skips constraints whose terms a statement does not
  touch (checks_skipped grows, checks_run does not, on unrelated updates);
* deferred mode runs no more checks than immediate mode for the same
  stream;
* enforcement overhead is bounded (immediate mode under 25x OFF on this
  stream — enforcement re-evaluates aggregates per touched entity).
"""

import time

import pytest

from repro import Database
from repro.workloads import UNIVERSITY_DDL

from _harness import attach

STREAM_SIZE = 30


def fresh(mode: str) -> Database:
    db = Database(UNIVERSITY_DDL, constraint_mode=mode,
                  use_optimizer=False)
    db.execute('Insert department(dept-nbr := 100, name := "D")')
    db.execute('Insert course(course-no := 1, title := "Full Load",'
               ' credits := 12)')
    return db


def insert_stream(db, count=STREAM_SIZE, base=0):
    for k in range(count):
        db.execute(f'Insert student(soc-sec-no := {base + k + 1},'
                   f' courses-enrolled := course with'
                   f' (title = "Full Load"))')


def unrelated_stream(db, count=STREAM_SIZE):
    for k in range(count):
        db.execute(f'Modify person(name := "Name {k}")'
                   f' Where soc-sec-no = 1')


@pytest.mark.parametrize("mode", ["off", "immediate", "deferred"])
def test_e9_insert_stream(benchmark, mode):
    counter = [0]

    def operation():
        db = fresh(mode)
        base = counter[0]
        counter[0] += STREAM_SIZE
        if mode == "deferred":
            with db.transaction():
                insert_stream(db, base=base)
        else:
            insert_stream(db, base=base)
        return db

    db = benchmark(operation)
    attach(benchmark, mode=mode, **db.constraints.statistics())


def test_e9_trigger_detection_skips_unrelated(benchmark):
    db = fresh("immediate")
    insert_stream(db, count=5)
    checks_before = db.perf.constraint_checks_run
    skips_before = db.perf.constraint_checks_skipped
    unrelated_stream(db, count=20)
    assert db.perf.constraint_checks_run == checks_before
    assert db.perf.constraint_checks_skipped > skips_before
    attach(benchmark, checks_run=db.perf.constraint_checks_run,
           checks_skipped=db.perf.constraint_checks_skipped)
    benchmark(lambda: None)


def test_e9_deferred_runs_fewer_or_equal_checks(benchmark):
    immediate = fresh("immediate")
    insert_stream(immediate)
    deferred = fresh("deferred")
    with deferred.transaction():
        insert_stream(deferred)
    assert deferred.perf.constraint_checks_run <= \
        immediate.perf.constraint_checks_run
    attach(benchmark,
           immediate_checks=immediate.perf.constraint_checks_run,
           deferred_checks=deferred.perf.constraint_checks_run)
    benchmark(lambda: None)


def test_e9_overhead_bounded(benchmark):
    def timed(mode):
        started = time.perf_counter()
        db = fresh(mode)
        insert_stream(db)
        return time.perf_counter() - started

    baseline = min(timed("off") for _ in range(3))
    enforced = min(timed("immediate") for _ in range(3))
    assert enforced < 25 * baseline
    attach(benchmark, off_seconds=round(baseline, 4),
           immediate_seconds=round(enforced, 4),
           overhead=round(enforced / baseline, 2))
    benchmark(lambda: None)


def test_e9_violation_rolls_back_cleanly(benchmark):
    from repro import ConstraintViolation
    db = fresh("immediate")
    insert_stream(db, count=5)

    def operation():
        try:
            db.execute('Insert student(soc-sec-no := 999999)')
        except ConstraintViolation:
            return True
        return False

    assert benchmark(operation)
    assert db.store.class_count("student") == 5
