"""Regression tests for the error-masking bugfix sweep.

Each test pins one fixed bug:

* the DDL parser swallowed *every* exception raised while building
  AttributeOptions — genuine bugs surfaced as position-annotated syntax
  errors with the original traceback lost;
* UpdateEngine.execute let a failing rollback *replace* the statement's
  own error — under an injected storage fault the caller saw the cleanup
  failure instead of the fault that caused it;
* SimDate leaked raw OverflowError / AttributeError / TypeError instead
  of typed errors, and ignored 3VL semantics for NULL operands;
* PerfCounters increments raced under concurrent sessions.
"""

import threading

import pytest

from repro import Database, parse_ddl
from repro.errors import (
    DDLSyntaxError,
    InjectedCrash,
    RequiredViolation,
    SchemaError,
    TypeMismatchError,
)
from repro.mapper.physical import PhysicalDesign
from repro.perf import PerfCounters
from repro.types.dates import SimDate
from repro.types.tvl import NULL
from repro.workloads import UNIVERSITY_DDL


class TestDDLOptionErrors:
    """Bug 1: blanket ``except Exception`` around AttributeOptions."""

    def test_domain_error_is_syntax_error_with_cause(self):
        with pytest.raises(DDLSyntaxError) as info:
            parse_ddl("Class thing ( tags: string[10], unique, mv );")
        assert "multi-valued" in str(info.value)
        # The original SchemaError survives as the explicit cause.
        assert isinstance(info.value.__cause__, SchemaError)

    def test_syntax_error_carries_position(self):
        with pytest.raises(DDLSyntaxError) as info:
            parse_ddl("Class thing (\n  xs: integer, mv (max 0) );")
        assert info.value.line == 2

    def test_unexpected_errors_propagate_untranslated(self, monkeypatch):
        import repro.schema.ddl_parser as ddl_parser

        def boom(**_kwargs):
            raise RuntimeError("attribute-options bug")

        monkeypatch.setattr(ddl_parser, "AttributeOptions", boom)
        # A genuine bug must NOT be rewritten into a syntax error.
        with pytest.raises(RuntimeError, match="attribute-options bug"):
            parse_ddl("Class thing ( name: string[10] );")


class TestRollbackMasking:
    """Bug 2: a failing rollback replaced the statement's own error."""

    def _crashing_db(self):
        schema = parse_ddl(UNIVERSITY_DDL)
        # One buffer frame: the statement's second block evicts (and
        # physically writes) the first, so an armed write-crash fires
        # mid-statement and the undo closures must re-read a block from
        # the now-dead device.
        database = Database(schema,
                            design=PhysicalDesign(schema, pool_capacity=1),
                            constraint_mode="off")
        database.execute('Insert course(course-no := 101,'
                         ' title := "Algebra I", credits := 3)')
        database.store.pool.flush()
        return database

    def test_original_fault_survives_failed_rollback(self):
        database = self._crashing_db()
        injector = database.install_faults()
        injector.crash_after_writes(1)
        with pytest.raises(InjectedCrash) as info:
            database.execute(
                'Insert student(name := "S", soc-sec-no := 1,'
                ' student-nbr := 2001, courses-enrolled := course'
                ' with (title = "Algebra I"))')
        # The statement's own failure is what propagates...
        assert "injected crash on write" in str(info.value)
        # ...and the rollback's failure stays reachable as context.
        context = info.value.__context__
        assert isinstance(context, InjectedCrash)
        assert "crashed device" in str(context)

    def test_clean_rollback_still_raises_original(self):
        database = Database(UNIVERSITY_DDL, constraint_mode="immediate")
        with pytest.raises(RequiredViolation):
            database.execute('Insert person(name := "X")')
        # The failed statement left nothing behind.
        assert len(database.query("From person Retrieve name")) == 0


class TestDateErrors:
    """Bug 3: raw OverflowError / TypeError leaks from SimDate."""

    def test_add_days_overflow_is_typed(self):
        with pytest.raises(TypeMismatchError, match="out of range"):
            SimDate(9999, 12, 31).add_days(1)
        with pytest.raises(TypeMismatchError, match="out of range"):
            SimDate(1, 1, 1).add_days(-1)
        # Large enough to overflow timedelta itself, not just the date.
        with pytest.raises(TypeMismatchError):
            SimDate(2000, 1, 1).add_days(10 ** 12)

    def test_add_days_null_is_null(self):
        assert SimDate(2000, 1, 1).add_days(NULL) is NULL
        assert SimDate(2000, 1, 1).add_days(None) is NULL

    def test_add_days_rejects_non_integers(self):
        with pytest.raises(TypeMismatchError, match="integer day count"):
            SimDate(2000, 1, 1).add_days("7")
        with pytest.raises(TypeMismatchError, match="integer day count"):
            SimDate(2000, 1, 1).add_days(True)

    def test_days_until_null_is_null(self):
        assert SimDate(2000, 1, 1).days_until(NULL) is NULL
        assert SimDate(2000, 1, 1).days_until(None) is NULL

    def test_days_until_rejects_non_dates(self):
        with pytest.raises(TypeMismatchError, match="date operand"):
            SimDate(2000, 1, 1).days_until("2001-01-01")

    def test_arithmetic_still_works(self):
        assert SimDate(2000, 1, 1).add_days(30) == SimDate(2000, 1, 31)
        assert SimDate(2000, 1, 1).days_until(SimDate(2000, 1, 31)) == 30


class TestPerfCounterConcurrency:
    """Bug 4: unsynchronized counter increments lost updates."""

    def test_bump_is_thread_safe(self):
        perf = PerfCounters()
        increments, workers = 10_000, 8

        def hammer():
            for _ in range(increments):
                perf.bump("records_decoded")
                perf.bump("record_cache_hits", 2)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert perf.records_decoded == increments * workers
        assert perf.record_cache_hits == 2 * increments * workers

    def test_concurrent_sessions_count_exactly(self):
        from repro.engine.sessions import Session

        database = Database(UNIVERSITY_DDL, constraint_mode="off")
        for i in range(10):
            database.execute(f'Insert course(course-no := {100 + i},'
                             f' title := "C{i}", credits := 3)')
        database.perf.reset()
        errors = []

        def read_loop():
            session = Session(database)
            try:
                for _ in range(20):
                    session.query("From course Retrieve title")
            except Exception as exc:  # pragma: no cover - diagnostic aid
                errors.append(exc)
            finally:
                session.commit()

        threads = [threading.Thread(target=read_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        counters = database.perf.as_dict()
        # Every query evaluates all 10 course records exactly once; each
        # evaluation is a memo hit or a memo miss, so the sum is exact
        # however the four sessions interleave — unless increments are
        # lost to the old unsynchronized read-modify-write.
        assert (counters["memo_hits"]
                + counters["memo_misses"]) == 4 * 20 * 10

    def test_failing_statement_still_accounts_what_it_counted(self):
        """Memo hits/misses are counted into the run's frame and reach
        the totals when it closes; a statement that raises half way
        must not strand what it had counted — nor leave its frame open
        on the thread."""
        database = Database(UNIVERSITY_DDL, constraint_mode="off")
        for i in range(10):
            database.execute(f'Insert course(course-no := {100 + i},'
                             f' title := "C{i}", credits := 3)')
        database.perf.reset()
        from repro import parse_dml
        with pytest.raises(TypeMismatchError):
            # Straight to the executor (the linter would refuse this
            # statically): reads all 10 credits as one column, then
            # fails comparing them.
            database.executor.execute(parse_dml(
                'From course Retrieve title Where credits < "three"'))
        counters = database.perf.as_dict()
        assert counters["memo_hits"] + counters["memo_misses"] == 10
        assert database.perf.frame() is None
