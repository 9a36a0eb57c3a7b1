"""End-to-end query tracing and EXPLAIN ANALYZE.

Covers the span recorder itself, the per-layer instrumentation threaded
through Figure 1 (parser, optimizer, executor, Mapper, storage), the
three surfaces (``explain_analyze``, JSONL export, histograms), the
no-span-leak guarantee under injected faults, and the learned-cardinality
feedback loop into the optimizer.
"""

import json
import sys
import threading

import pytest

from repro import Database
from repro.errors import InjectedCrash, SimError
from repro.interfaces.server import SimClient
from repro.trace import TraceRecorder, attach_tracing, detach_tracing
from repro.workloads import UNIVERSITY_DDL
from repro.workloads.university import UNIVERSITY_QUERIES, build_university


@pytest.fixture()
def traced_university():
    database = build_university(departments=4, instructors=10, students=40,
                                courses=20, seed=7)
    database.enable_tracing()
    return database


class TestRecorder:
    def test_disabled_recorder_records_nothing(self):
        recorder = TraceRecorder(enabled=False)
        with recorder.span("outer", layer="test") as span:
            assert span is None
            recorder.count("things")
            recorder.event("boom")
        assert len(recorder.statements) == 0
        assert recorder.open_spans() == 0

    def test_span_nesting_and_timing(self):
        recorder = TraceRecorder()
        recorder.begin_statement("stmt")
        with recorder.span("a", layer="one"):
            with recorder.span("b", layer="two"):
                recorder.count("inner", 3)
        root = recorder.end_statement()
        assert root.closed and root.duration_ms >= 0
        (a,) = root.children
        (b,) = a.children
        assert (a.name, b.name) == ("a", "b")
        assert b.counts["inner"] == 3

    def test_events_land_on_the_current_span(self):
        recorder = TraceRecorder()
        recorder.event("dropped")           # no span open yet
        recorder.begin_statement("stmt")
        with recorder.span("a", layer="one"):
            recorder.event("retry", attempt=1)
            with recorder.span("b", layer="two"):
                recorder.event("force")
        root = recorder.end_statement()
        (a,) = root.children
        (b,) = a.children
        assert root.events == []
        assert a.events == [{"event": "retry", "attempt": 1}]
        assert b.events == [{"event": "force"}]

    def test_span_records_error_and_closes(self):
        recorder = TraceRecorder()
        recorder.begin_statement("stmt")
        with pytest.raises(ValueError):
            with recorder.span("work", layer="test"):
                raise ValueError("boom")
        root = recorder.end_statement("ValueError: boom")
        assert root.children[0].error == "ValueError: boom"
        assert root.children[0].closed
        assert recorder.open_spans() == 0

    def test_capacity_bounds_retention(self):
        recorder = TraceRecorder(capacity=3)
        for i in range(5):
            recorder.begin_statement(f"s{i}")
            recorder.end_statement()
        assert len(recorder.statements) == 3
        assert recorder.last().attrs["text"] == "s4"


class TestExplainAnalyze:
    def test_twelve_query_sweep(self, traced_university):
        database = traced_university
        for text in UNIVERSITY_QUERIES:
            result = database.query(text)
            assert database.trace.open_spans() == 0, text
            rendered = result.explain_analyze()
            # Layer spans are all present...
            for layer in ("qualifier", "optimizer", "executor"):
                assert f"[{layer}]" in rendered, text
            # ...and the annotated tree shows TYPE labels with both
            # estimated and actual cardinalities per node.
            assert "TYPE" in rendered, text
            assert "est=" in rendered and "actual=" in rendered, text

    def test_actual_rows_match_result_cardinality(self, traced_university):
        database = traced_university
        for text in UNIVERSITY_QUERIES:
            result = database.query(text)
            execute = result.trace.find("execute")
            assert execute is not None, text
            assert execute.attrs["output_rows"] == len(result), text

    def test_untraced_result_raises(self):
        database = build_university(departments=2, instructors=3,
                                    students=8, courses=6, seed=1)
        result = database.query("From department Retrieve name")
        with pytest.raises(ValueError, match="not traced"):
            result.explain_analyze()

    def test_update_statements_are_traced(self, traced_university):
        database = traced_university
        database.execute('Insert person(name := "Tracey",'
                         ' soc-sec-no := 987654)')
        root = database.trace.last()
        names = [span.name for span in root.walk()]
        assert "update" in names and "lint" in names
        rendered = root.render()
        assert "storage.record_mutations" in rendered

    def test_mapper_and_storage_counts_surface(self, traced_university):
        database = traced_university
        database.cold_cache()
        result = database.query(
            "From student Retrieve name, name of advisor")
        rendered = result.explain_analyze()
        assert "mapper.records_decoded" in rendered
        assert "storage.physical_reads" in rendered


class TestNoSpanLeaks:
    def test_faulting_statement_closes_every_span(self):
        database = build_university(departments=2, instructors=3,
                                    students=8, courses=6, seed=3)
        database.store.pool.flush()
        recorder = database.enable_tracing()
        injector = database.install_faults()
        injector.crash_after_writes(1)
        with pytest.raises(InjectedCrash):
            database.execute('Insert person(name := "Doomed",'
                             ' soc-sec-no := 424242)')
        assert recorder.open_spans() == 0
        root = recorder.last()
        assert root.closed
        assert root.error and "InjectedCrash" in root.error
        for span in root.walk():
            assert span.closed, span.name

    def test_failed_parse_closes_statement(self, traced_university):
        database = traced_university
        with pytest.raises(SimError):
            database.execute("From nowhere Retrieve nothing at all;;;")
        assert database.trace.open_spans() == 0
        assert database.trace.last().closed


class TestTracingBesideASecondSession:
    """The open spans live on the opening thread's frames, so every
    session thread — and every server connection — records its own
    statement trees: the invariant is one root per statement, each with
    its own children and its own counts, however the threads interleave
    (they are switched every 0.1 ms here)."""

    STATEMENTS = 30
    QUERIES = ("From student Retrieve name, name of advisor",
               "From course Retrieve title, credits")

    def _alone(self, database):
        """Each query's ``execute`` counts when nothing runs beside it
        (a Session keeps one executor, and its memo, for its life, so
        the counts of a statement it has run before repeat exactly)."""
        session = database.session()
        alone = {}
        for text in self.QUERIES:
            for _ in range(3):      # plan-epoch moves and cache fills
                result = session.execute(text)
            alone[text] = dict(result.trace.find("execute").counts)
            assert alone[text]
        database.trace.clear()
        return alone

    def _warm(self, database, runners):
        """Run each runner's query once, so that its session's memo is
        as warm for every raced statement as for the measured one."""
        for run, text in zip(runners, self.QUERIES):
            run(text)
        database.trace.clear()

    def _race(self, runners):
        """``runners``: one ``run(text)`` per thread."""
        start = threading.Barrier(len(runners))
        failures = []

        def loop(run, text):
            try:
                start.wait(10)
                for _ in range(self.STATEMENTS):
                    run(text)
            except BaseException as exc:    # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=loop, args=pair)
                   for pair in zip(runners, self.QUERIES)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def _check(self, database, alone):
        roots = list(database.trace.statements)
        assert len(roots) == len(self.QUERIES) * self.STATEMENTS
        for text in self.QUERIES:
            mine = [root for root in roots if root.attrs["text"] == text]
            assert len(mine) == self.STATEMENTS
            for root in mine:
                assert root.closed and root.error is None
                assert [child.name for child in root.children] \
                    == ["compile", "execute"]
                assert root.children[0].attrs["cache"] == "hit"
                assert root.children[1].counts == alone[text]
        assert database.trace.open_spans() == 0

    def test_two_session_threads_record_their_own_trees(
            self, traced_university):
        database = traced_university
        alone = self._alone(database)
        runners = [database.session().execute for _ in self.QUERIES]
        self._warm(database, runners)
        self._race(runners)
        self._check(database, alone)

    def test_two_server_connections_record_their_own_trees(
            self, traced_university):
        database = traced_university
        alone = self._alone(database)
        with database.serve() as server:
            clients = [SimClient(*server.address) for _ in self.QUERIES]
            try:
                runners = [client.execute for client in clients]
                self._warm(database, runners)
                self._race(runners)
            finally:
                for client in clients:
                    client.close()
        self._check(database, alone)


class TestSurfaces:
    def test_jsonl_export_is_valid(self, traced_university):
        database = traced_university
        for text in UNIVERSITY_QUERIES[:4]:
            database.query(text)
        lines = database.trace_jsonl().splitlines()
        assert len(lines) == 4
        for line in lines:
            tree = json.loads(line)
            assert tree["name"] == "statement"
            assert any(child["name"] == "execute"
                       for child in tree["children"])

    def test_histograms_populate(self, traced_university):
        database = traced_university
        for text in UNIVERSITY_QUERIES:
            database.query(text)
        histograms = database.trace.histograms.as_dict()
        assert histograms["latency_us"]["executor"]["count"] == 12
        assert histograms["latency_us"]["driver"]["count"] == 12
        assert histograms["rows_per_node"]["TYPE 1"]["count"] >= 12

    def test_statistics_include_trace(self, traced_university):
        database = traced_university
        database.query(UNIVERSITY_QUERIES[0])
        assert "trace" in database.statistics()

    def test_detach_restores_null_hooks(self, traced_university):
        database = traced_university
        database.disable_tracing(detach=True)
        store = database.store
        assert store.trace is None
        assert store.read_cache.trace is None
        assert not hasattr(store.wal, "trace")  # it counts into perf
        assert store.pool.trace is None
        result = database.query(UNIVERSITY_QUERIES[0])
        assert result.trace is None

    def test_attach_detach_roundtrip(self):
        database = Database(UNIVERSITY_DDL, constraint_mode="off")
        recorder = attach_tracing(database.store)
        assert database.store.trace is recorder
        detach_tracing(database.store)
        assert database.store.trace is None


class TestOptimizerFeedback:
    def test_traced_actuals_feed_cost_model(self, traced_university):
        database = traced_university
        assert database.optimizer.fanout_feedback() is None
        database.query("From student Retrieve name, name of advisor")
        feedback = database.optimizer.fanout_feedback()
        assert feedback is not None
        assert feedback[("student", "advisor")] == pytest.approx(1.0)

    def test_feedback_changes_estimates(self, traced_university):
        database = traced_university
        text = "From student Retrieve name, name of advisor"
        first = database.query(text)
        second = database.query(text)
        # After feedback the advisor node's estimate equals the actual.
        rendered = second.explain_analyze()
        assert "est=40.0 actual=40" in rendered


class TestFrontEnds:
    def test_iqf_trace_command(self, traced_university):
        from repro.interfaces.iqf import run_script
        out = run_script(traced_university,
                         ".trace From department Retrieve name\n")
        assert "statement [driver]" in out
        assert "[optimizer]" in out and "TYPE 1" in out

    def test_iqf_trace_on_off(self):
        from repro.interfaces.iqf import run_script
        database = build_university(departments=2, instructors=3,
                                    students=8, courses=6, seed=5)
        out = run_script(database,
                         ".trace on\nFrom department Retrieve name;\n"
                         ".trace off\n")
        assert "tracing on" in out and "tracing off" in out
        assert database.trace.last() is not None

    def test_cli_trace_subcommand(self, capsys):
        from repro.__main__ import main
        code = main(["trace", "--university"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = json.loads(lines[0])
        assert "layout" in header and header["statements"] == 12
        assert len(lines) == 13
        for line in lines[1:]:
            json.loads(line)
