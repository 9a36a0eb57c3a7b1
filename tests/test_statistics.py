"""Statistical optimization tests (paper §5.1's unfinished roadmap item)."""

import threading

import pytest

from repro import Database, PhysicalDesign, parse_ddl, parse_dml
from repro.optimizer import CostModel, analyze
from repro.optimizer.statistics import AttributeStatistics
from repro.perf import PerfCounters
from repro.workloads import (UNIVERSITY_DDL, build_university,
                             populate_university)


@pytest.fixture(scope="module")
def db():
    schema = parse_ddl(UNIVERSITY_DDL)
    design = (PhysicalDesign(schema)
              .add_value_index("student", "student-nbr")
              .finalize())
    database = Database(schema, design=design, constraint_mode="off")
    populate_university(database, students=80, instructors=10, courses=20,
                        seed=5)
    return database


class TestAnalyze:
    def test_cardinalities_collected(self, db):
        statistics = analyze(db.store)
        assert statistics.class_cardinality["student"] == 80
        assert statistics.class_cardinality["course"] == 20

    def test_attribute_distributions(self, db):
        statistics = analyze(db.store)
        credits = statistics.attribute("course", "credits")
        assert credits.row_count == 20
        assert 1 <= credits.distinct_count <= 4   # credits in 2..5
        assert credits.null_count == 0

    def test_null_fraction(self, db):
        statistics = analyze(db.store)
        bonus = statistics.attribute("instructor", "bonus")
        # TAs get bonus 0; regular instructors a value: no nulls here, but
        # spouse-less people have null birthdate? birthdate always set.
        name = statistics.attribute("person", "name")
        assert name.null_count == 0

    def test_eva_fanouts_both_directions(self, db):
        statistics = analyze(db.store)
        advisees = statistics.eva("instructor", "advisees")
        advisor = statistics.eva("student", "advisor")
        assert advisees is not None and advisor is not None
        assert advisees.instance_count == advisor.instance_count
        assert advisees.forward_fanout == pytest.approx(
            advisor.reverse_fanout)

    def test_equality_selectivity_from_distribution(self):
        stats = AttributeStatistics(row_count=100, null_count=0,
                                    distinct_count=25)
        assert stats.equality_selectivity() == pytest.approx(0.04)

    def test_most_common_value(self):
        stats = AttributeStatistics(row_count=100, null_count=0,
                                    distinct_count=25,
                                    top_value="popular", top_frequency=40)
        assert stats.equality_selectivity("popular") == pytest.approx(0.4)
        assert stats.equality_selectivity("rare") == pytest.approx(0.04)

    def test_range_selectivity_histogram(self):
        from repro.optimizer.statistics import _equi_depth
        values = sorted(range(100))
        stats = AttributeStatistics(row_count=100, null_count=0,
                                    distinct_count=100,
                                    boundaries=_equi_depth(values, 8))
        half = stats.range_selectivity(low=50)
        assert 0.3 < half < 0.8

    def test_empty_extent(self):
        db = Database("Class Empty ( x: integer );", constraint_mode="off")
        statistics = analyze(db.store)
        assert statistics.class_cardinality["empty"] == 0
        attr = statistics.attribute("empty", "x")
        assert attr.equality_selectivity() == 0.0


class TestOptimizerIntegration:
    def test_analyze_enables_value_index_choice(self, db):
        # student-nbr is NOT declared unique, but the collected statistics
        # show it is effectively unique: the index plan wins.
        nbr = db.query("From student Retrieve student-nbr").rows[10][0]
        text = f"From student Retrieve name Where student-nbr = {nbr}"

        db.optimizer.table_statistics = None
        query = parse_dml(text)
        tree = db.qualifier.resolve_retrieve(query)
        default_plan = db.optimizer.choose_plan(query, tree)

        db.analyze()
        analyzed_plan = db.optimizer.choose_plan(query, tree)
        assert analyzed_plan.root_access["student"].kind == "index"
        # With statistics the estimated rows shrink to ~1.
        assert analyzed_plan.root_access["student"].estimated_rows <= \
            (default_plan.root_access["student"].estimated_rows
             if default_plan.root_access["student"].kind == "index"
             else 80)

    def test_statistics_survive_on_cost_model(self, db):
        statistics = db.analyze()
        model = CostModel(db.store, statistics)
        with_stats = model.equality_selectivity("student", "student-nbr")
        without = CostModel(db.store).equality_selectivity(
            "student", "student-nbr")
        assert with_stats < without

    def test_iqf_analyze_command(self, db):
        from repro.interfaces import run_script
        transcript = run_script(db, ".analyze\n")
        assert "analyzed" in transcript


class TestDatabaseStatistics:
    def test_io_is_three_integers_a_json_client_can_read(self, db):
        import json
        db.query("From student Retrieve name")
        statistics = db.statistics()
        io = statistics["io"]
        assert set(io) == {"logical_reads", "physical_reads",
                           "physical_writes"}
        assert all(type(count) is int for count in io.values())
        assert io["logical_reads"] == db.io_stats.logical_reads > 0
        assert json.loads(json.dumps(statistics))["io"] == io


class TestOneCountThreeSurfaces:
    """A count is stored once, where it arises; ``ResultSet.perf``,
    ``db.io_stats``, ``statistics()`` and a span's ``counts`` all read
    that one count."""

    def test_physical_reads_agree_on_every_surface(self):
        database = build_university(departments=2, instructors=4,
                                    students=20, courses=8, seed=3)
        database.enable_tracing()
        text = "From student Retrieve name, name of advisor"
        for _ in range(3):      # plan-epoch moves and cache fills
            database.query(text)
        database.cold_cache()
        before = database.io_stats.physical_reads
        result = database.query(text)
        in_spans = sum(span.counts.get("storage.physical_reads", 0)
                       for span in result.trace.walk())
        assert result.perf.physical_reads \
            == database.io_stats.physical_reads - before == in_spans > 0

    def test_wal_forces_agree_on_every_surface(self):
        database = build_university(departments=2, instructors=4,
                                    students=20, courses=8, seed=3)
        session = database.session()
        before = (database.io_stats.wal_forces,
                  database.statistics()["storage"]["wal_forces"])
        session.execute('Modify course(title := "Renamed")'
                        ' Where course-no = 101')
        session.commit()
        after = (database.io_stats.wal_forces,
                 database.statistics()["storage"]["wal_forces"])
        # the data-page flush forces the log, then the commit record
        assert after[0] - before[0] == after[1] - before[1] == 2

    def test_counters_survive_a_crash(self):
        database = build_university(departments=2, instructors=4,
                                    students=20, courses=8, seed=3)
        with database.transaction():
            database.execute('Modify course(title := "Renamed")'
                             ' Where course-no = 101')
        for _ in range(5):
            database.cold_cache()
            database.query("From student Retrieve name, name of advisor")
        reads = database.io_stats.physical_reads
        commits = database.statistics()["storage"]["commits"]
        assert commits >= 1
        database.simulate_crash()
        assert database.io_stats.physical_reads >= reads
        assert database.statistics()["storage"]["commits"] >= commits


class TestFrames:
    """An event is charged to the calling thread's innermost open frame
    and handed up as frames close; the outermost frame's close folds
    into the totals."""

    def test_a_bump_outside_every_frame_reaches_the_totals(self):
        perf = PerfCounters()
        assert perf.frame() is None
        perf.bump("memo_hits", 2)
        assert perf.as_dict()["memo_hits"] == 2

    def test_the_outermost_frame_folds_into_the_totals_on_close(self):
        perf = PerfCounters()
        outer = perf.open()
        perf.bump("memo_hits")
        inner = perf.open()
        perf.bump("memo_hits", 2)
        assert perf.frame() is inner
        assert perf.as_dict()["memo_hits"] == 0
        perf.close(inner)
        assert perf.frame() is outer
        assert inner.as_dict()["memo_hits"] == 2
        assert perf.as_dict()["memo_hits"] == 0
        perf.close(outer)
        assert perf.frame() is None
        assert outer.as_dict()["memo_hits"] == 3
        assert perf.as_dict()["memo_hits"] == 3

    def test_a_span_frame_keeps_its_own_counts_apart(self):
        perf = PerfCounters()
        outer = perf.open(span="statement")
        perf.bump("memo_hits")
        child = perf.open(span="execute")
        perf.bump("memo_hits", 2)
        perf.close(child)
        assert outer.as_dict()["memo_hits"] == 1
        assert outer.inherited == {"memo_hits": 2}
        perf.close(outer)
        assert outer.as_dict()["memo_hits"] == 3   # closed: the total
        assert perf.as_dict()["memo_hits"] == 3

    def test_frames_belong_to_their_thread(self):
        perf = PerfCounters()
        frame = perf.open()
        seen = []

        def other():
            seen.append(perf.frame())
            own = perf.open()
            perf.bump("memo_hits", 5)
            perf.close(own)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        perf.bump("memo_hits")
        assert seen == [None]
        assert perf.as_dict()["memo_hits"] == 5
        perf.close(frame)
        assert frame.as_dict()["memo_hits"] == 1
        assert perf.as_dict()["memo_hits"] == 6
