"""Randomized crash-torture: crash at every k-th physical write, log
force and log append.

The harness replays small UNIVERSITY update workloads (inserts, DVA/EVA
modifies, deletes, include/exclude churn) against a fault-injected
database, crashing after every possible k-th physical write (then every
log force, then every log append), recovering, and asserting three
things for every crash point:

* the semantic consistency checker comes back clean — EVA/inverse
  symmetry, hierarchy containment, index agreement, free-space accuracy
  and declared constraints all hold on the recovered physical state;
* no committed effect is lost and no uncommitted effect survives: the
  recovered database's logical dump equals a fault-free shadow database
  that executed exactly the committed statement prefix.  Statement-level
  autocommit makes the oracle binary — ``execute`` returned iff the
  statement is durable (data pages flush *before* the commit record, so
  a write-triggered crash can never land past the commit point);
* a second crash injected *during recovery* doesn't change the outcome
  (see test_recovery.py for the fingerprint-level idempotence test).

Dumps are keyed by business keys (student-nbr, employee-nbr, course-no,
dept-nbr), never by surrogates, so they are insensitive to surrogate
assignment order.  The crash-matrix tests carry ``@pytest.mark.torture``
(run them alone with ``make torture``).
"""

import pytest

from repro.errors import InjectedCrash, StorageError, TransientStorageError
from repro.storage.wal import WriteAheadLog
from repro.workloads.university import build_university

#: deliberately small population: the crash matrix rebuilds the database
#: once per crash point, and every write ordinal in every script is hit
BUILD = dict(departments=2, instructors=3, students=8, courses=6,
             ta_fraction=0.0, seed=11)

TORTURE_SEED = 1988  # fixed seed for the whole lane (SIGMOD '88)


def fresh_db():
    database = build_university(**BUILD)
    # populate_university loads through the raw Mapper (no transactions),
    # so make the base population durable before any fault is armed
    database.store.pool.flush()
    return database


# --------------------------------------------------------------------- scripts
#
# Generated deterministically so each script is long enough to give the
# matrix its >= 200 crash points while staying readable as code.

def _insert_script():
    script = []
    for i in range(10):
        script.append(f'Insert student(name := "Tor S{i}",'
                      f' soc-sec-no := 90000{i:04d},'
                      f' student-nbr := {3001 + i})')
        script.append(f'Insert course(course-no := {901 + i},'
                      f' title := "Crashing {i}", credits := {2 + i % 4})')
    for i in range(5):
        script.append(f'Insert instructor(name := "Tor I{i}",'
                      f' soc-sec-no := 90001{i:04d},'
                      f' employee-nbr := {1901 + i},'
                      f' salary := {39000 + 500 * i})')
        script.append(f'Insert person(name := "Tor P{i}",'
                      f' soc-sec-no := 90002{i:04d})')
    script.append('Insert department(dept-nbr := 901,'
                  ' name := "Resilience")')
    return script


def _modify_script():
    script = []
    for round_no in range(6):
        for course_no in (101, 103, 105):
            script.append(f'Modify course(credits := {1 + round_no})'
                          f' Where course-no = {course_no}')
        for student_nbr in (2001, 2003, 2005):
            script.append(f'Modify student(name := "Round {round_no}")'
                          f' Where student-nbr = {student_nbr}')
        script.append(f'Modify instructor(salary := {50000 + round_no})'
                      f' Where employee-nbr = {1001 + round_no % 3}')
        advisor = 1001 + round_no % 3
        script.append(f'Modify student(advisor := instructor with'
                      f' (employee-nbr = {advisor}))'
                      f' Where student-nbr = {2002 + round_no}')
        dept = 100 + round_no % 2
        script.append(f'Modify student(major-department := department'
                      f' with (dept-nbr = {dept}))'
                      f' Where student-nbr = {2001 + round_no}')
    return script


def _delete_script():
    script = [
        'Delete course Where course-no = 106',
        'Delete student Where student-nbr = 2008',
        'Delete student Where student-nbr = 2007',
        'Delete course Where course-no = 105',
        'Delete student Where student-nbr = 2006',
    ]
    # delete/re-insert churn: every round buries the previous round's
    # rows and frees slots the next round reoccupies
    for i in range(12):
        script.append(f'Insert student(name := "Churn {i}",'
                      f' soc-sec-no := 90003{i:04d},'
                      f' student-nbr := {3101 + i})')
        script.append(f'Insert course(course-no := {911 + i},'
                      f' title := "Backfill {i}", credits := 3)')
        if i >= 2:
            script.append(f'Delete student'
                          f' Where student-nbr = {3101 + i - 2}')
            script.append(f'Delete course Where course-no = {911 + i - 2}')
    return script


def _include_exclude_script():
    script = [
        'Insert course(course-no := 921, title := "Churn",'
        ' credits := 3)',
        'Insert instructor(name := "Churn Teacher",'
        ' soc-sec-no := 900000041, employee-nbr := 1921,'
        ' salary := 40000)',
    ]
    for round_no in range(6):
        for student_nbr in (2001, 2002, 2003, 2004):
            script.append(f'Modify student(courses-enrolled := include'
                          f' course with (course-no = 921))'
                          f' Where student-nbr = {student_nbr}')
        script.append('Modify course(teachers := include instructor with'
                      ' (employee-nbr = 1921)) Where course-no = 921')
        for student_nbr in (2002, 2004, 2001, 2003):
            script.append(f'Modify student(courses-enrolled := exclude'
                          f' courses-enrolled with (course-no = 921))'
                          f' Where student-nbr = {student_nbr}')
        script.append('Modify course(teachers := exclude teachers with'
                      ' (employee-nbr = 1921)) Where course-no = 921')
    return script


SCRIPTS = {
    "insert": _insert_script(),
    "modify": _modify_script(),
    "delete": _delete_script(),
    "include-exclude": _include_exclude_script(),
}


# ----------------------------------------------------------------------- dumps

#: logical dump queries, every one keyed by business keys only
DUMP_QUERIES = (
    "From person Retrieve soc-sec-no, name",
    "From student Retrieve student-nbr, soc-sec-no, name",
    "From instructor Retrieve employee-nbr, salary, bonus",
    "From course Retrieve course-no, title, credits",
    "From department Retrieve dept-nbr, name",
    "From student Retrieve student-nbr, employee-nbr of advisor",
    "From student Retrieve student-nbr, course-no of courses-enrolled",
    "From student Retrieve student-nbr, dept-nbr of major-department",
    "From course Retrieve course-no, employee-nbr of teachers",
    "From instructor Retrieve employee-nbr, dept-nbr of"
    " assigned-department",
)


def dump(database):
    """Surrogate-independent logical snapshot of the whole database."""
    return [sorted(database.query(text).rows, key=repr)
            for text in DUMP_QUERIES]


def shadow_dumps(script):
    """Dump after each committed prefix of ``script`` (fault-free twin):
    ``dumps[n]`` is the state after the first ``n`` statements."""
    shadow = fresh_db()
    dumps = [dump(shadow)]
    for statement in script:
        shadow.execute(statement)
        dumps.append(dump(shadow))
    return dumps


def count_ops(script, op="write"):
    """Dry-run a script and return how many operations of kind ``op``
    (physical writes, log forces or log appends) it performs."""
    database = fresh_db()
    injector = database.install_faults(seed=TORTURE_SEED)
    for statement in script:
        database.execute(statement)
    return injector.ops[op]


def run_with_crash(script, k, seed=TORTURE_SEED, op="write"):
    """Execute ``script`` with a crash armed on the k-th operation of kind
    ``op`` (physical write, log force or log append), recover, and return
    (database, committed-statement count, whether the crash fired)."""
    database = fresh_db()
    injector = database.install_faults(seed=seed)
    if op == "write":
        injector.crash_after_writes(k)
    elif op == "force":
        injector.fail_force(k, error="crash")
    else:
        injector.crash_after_appends(k)
    committed = 0
    crashed = False
    try:
        for statement in script:
            database.execute(statement)
            committed += 1
    except InjectedCrash:
        crashed = True
    database.simulate_crash()
    return database, committed, crashed


# ---------------------------------------------------------------- crash matrix

#: a log threshold low enough that the write-ahead log compacts every
#: few statements, so compactions fall between the crash points
LOW_COMPACT_AT = 8
#: every script as written, then again with the log compacting
CRASH_MATRIX = (
    [pytest.param(name, None, id=name) for name in sorted(SCRIPTS)]
    + [pytest.param(name, LOW_COMPACT_AT, id=f"{name}-compacting")
       for name in sorted(SCRIPTS)])


def torture_lane(request):
    """Whether ``-m torture`` selected this run."""
    return "torture" in request.config.getoption("markexpr")


def compact_every_few_statements(script, compact_at, monkeypatch, request):
    """With ``compact_at`` set, lower the log's compaction threshold to it
    (``-m torture`` lane only: a second matrix doubles the time) and
    check the script then compacts every few statements."""
    if compact_at is None:
        return
    if not torture_lane(request):
        pytest.skip("second crash matrix: `-m torture` lane only")
    monkeypatch.setattr(WriteAheadLog, "COMPACT_AT", compact_at)
    database = fresh_db()
    before = database.perf.wal_checkpoints
    for statement in script:
        database.execute(statement)
    compactions = database.perf.wal_checkpoints - before
    assert compactions >= len(script) // 4, compactions


def crash_at(name, op, points):
    """Crash on each of ``points`` (ordinals of ``op``) in turn; every
    crash must fire and recover to the committed prefix with a clean
    check()."""
    script = SCRIPTS[name]
    expected = shadow_dumps(script)
    for k in points:
        database, committed, crashed = run_with_crash(script, k, op=op)
        assert crashed, f"{name} {op}={k}: the armed crash never fired"
        report = database.check()
        assert report.ok, (
            f"{name} {op}={k}: corrupt after recovery: "
            f"{report.problems[:5]}")
        assert dump(database) == expected[committed], (
            f"{name} {op}={k}: recovered state is not the committed "
            f"prefix ({committed} statements)")


@pytest.mark.torture
@pytest.mark.parametrize("name, compact_at", CRASH_MATRIX)
def test_crash_at_every_write(name, compact_at, monkeypatch, request):
    """Crash after every possible k-th write of the script; every crash
    point must recover to the committed prefix with a clean check().
    Run once more with the log compacting every few statements."""
    script = SCRIPTS[name]
    compact_every_few_statements(script, compact_at, monkeypatch, request)
    total_writes = count_ops(script)
    assert total_writes >= len(script), "script writes too little to torture"
    crash_at(name, "write", range(1, total_writes + 1))


@pytest.mark.torture
def test_crash_matrix_covers_200_points():
    """Acceptance floor: the matrix spans >= 200 seeded crash points."""
    total = sum(count_ops(script) for script in SCRIPTS.values())
    assert total >= 200, f"only {total} crash points across the matrix"


@pytest.mark.torture
@pytest.mark.parametrize("name, compact_at", CRASH_MATRIX)
def test_crash_on_commit_force(name, compact_at, monkeypatch, request):
    """Crash on a log force: the commit record never becomes durable, so
    the statement must be undone even though its data pages were already
    flushed.  The ``-m torture`` lane crashes at every force of the
    script, as written and with the log compacting; elsewhere only the
    2nd force of the script as written crashes."""
    script = SCRIPTS[name]
    compact_every_few_statements(script, compact_at, monkeypatch, request)
    crash_at(name, "force", range(1, count_ops(script, "force") + 1)
             if torture_lane(request) else (2,))


@pytest.mark.torture
@pytest.mark.parametrize("name, compact_at", CRASH_MATRIX)
def test_crash_at_every_append(name, compact_at, monkeypatch, request):
    """Crash right after every log append of the script (``-m torture``
    lane only).  With the log compacting, some crashes fall right after
    an append that compacted: had it dropped the records of a transaction
    whose end record is not yet durable, that transaction's flushed pages
    would be left with nothing to undo them from."""
    if not torture_lane(request):
        pytest.skip("append crash matrix: `-m torture` lane only")
    script = SCRIPTS[name]
    compact_every_few_statements(script, compact_at, monkeypatch, request)
    crash_at(name, "append", range(1, count_ops(script, "append") + 1))


@pytest.mark.torture
def test_double_crash_during_recovery():
    """Crash again in the middle of the undo pass; a rerun of recovery
    must still converge to the committed prefix."""
    script = SCRIPTS["modify"]
    expected = shadow_dumps(script)
    database = fresh_db()
    injector = database.install_faults(seed=TORTURE_SEED)
    injector.crash_after_writes(5)
    committed = 0
    try:
        for statement in script:
            database.execute(statement)
            committed += 1
    except InjectedCrash:
        pass
    injector.crash_after_writes(1)   # fires inside undo_losers
    with pytest.raises(InjectedCrash):
        database.simulate_crash()
    database.simulate_crash()        # second attempt completes
    assert database.check().ok
    assert dump(database) == expected[committed]


# ------------------------------------------------------- non-crash fault modes

class TestTransientFaults:
    def test_transient_write_fault_is_retried(self):
        database = fresh_db()
        injector = database.install_faults(seed=TORTURE_SEED)
        injector.fail_write(1, error="transient")
        database.execute('Insert person(name := "Flaky",'
                         ' soc-sec-no := 900000021)')
        assert database.perf.transient_retries >= 1
        assert database.perf.transient_giveups == 0
        rows = database.query('From person Retrieve name'
                              ' Where soc-sec-no = 900000021').rows
        assert rows == [("Flaky",)]

    def test_transient_read_fault_is_retried(self):
        database = fresh_db()
        injector = database.install_faults(seed=TORTURE_SEED)
        database.cold_cache()
        injector.fail_read(1, error="transient")
        assert len(database.query("From student Retrieve name")) \
            == BUILD["students"]
        assert database.perf.transient_retries >= 1

    def test_retry_counters_surface_in_statistics(self):
        database = fresh_db()
        injector = database.install_faults(seed=TORTURE_SEED)
        database.cold_cache()
        injector.fail_read(1, error="transient")
        database.query("From course Retrieve title")
        stats = database.statistics()
        assert stats["read_path"]["transient_retries"] >= 1
        assert stats["storage"]["retry"]["retries"] >= 1
        assert stats["storage"]["faults"]["injected"]["transient"] >= 1

    def test_persistent_transient_fault_gives_up(self):
        database = fresh_db()
        injector = database.install_faults(seed=TORTURE_SEED)
        database.cold_cache()
        # outlast the retry budget: every attempt fails
        injector.fail_read(1, error="transient",
                           repeat=database.store.retry.max_attempts + 1)
        with pytest.raises(TransientStorageError):
            database.query("From student Retrieve name")
        assert database.perf.transient_giveups == 1

    def test_permanent_fault_is_not_retried(self):
        database = fresh_db()
        injector = database.install_faults(seed=TORTURE_SEED)
        database.cold_cache()
        injector.fail_read(1, error="permanent")
        with pytest.raises(StorageError):
            database.query("From student Retrieve name")
        assert database.perf.transient_retries == 0


class TestTornWrites:
    def test_torn_uncommitted_write_repaired_by_recovery(self):
        # Empty database: the torn block holds only the in-flight
        # transaction's own slots, so the undo pass's before-images cover
        # the whole tear.  (A tear across *other* transactions' slots is
        # unrepairable data loss by design — the committed-write test
        # below shows the checker catching exactly that.)
        from repro.database import Database
        from repro.workloads import UNIVERSITY_DDL
        database = Database(UNIVERSITY_DDL, constraint_mode="off")
        injector = database.install_faults(seed=TORTURE_SEED)
        before = dump(database)
        database.begin()
        database.execute('Insert person(name := "Torn",'
                         ' soc-sec-no := 900000031)')
        injector.torn_write(1, keep=0.5)
        database.store.pool.flush()   # steal: torn page reaches the platter
        database.simulate_crash()
        assert database.check().ok
        assert dump(database) == before

    def test_torn_committed_write_detected_by_checker(self):
        database = fresh_db()
        injector = database.install_faults(seed=TORTURE_SEED)
        injector.torn_write(1, keep=0.2)
        database.execute('Insert person(name := "Shear",'
                         ' soc-sec-no := 900000032)')
        # resident frames mask the torn platter image until dropped
        assert database.check().ok
        database.cold_cache()
        report = database.check()
        assert not report.ok
        assert any("free-space" in p or "index" in p
                   for p in report.problems)
