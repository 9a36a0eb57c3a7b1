"""The batched operator algebra: lowering, execution, and its knobs.

Covers the physical pipeline end to end — per-operator EXPLAIN ANALYZE
records over the whole UNIVERSITY workload, the TYPE 3 dummy-padding
golden rows, deterministic NULLS LAST ordering, result and
``ResultSet.perf`` invariance across batch sizes, the physical-DAG
verifier (SIM205-207), the batched mapper and accessor reads, the
ordered-index range selection fast path, and the ``batch_size``
configuration surface (Database ctor and IQF ``.set``).
"""

from __future__ import annotations

import re

import pytest

from repro import Database, PhysicalDesign, parse_ddl, parse_dml
from repro.engine import operators as ops
from repro.engine.executor import QueryExecutor
from repro.engine.operators import validate_batch_size
from repro.errors import PlanVerificationError, SimError
from repro.interfaces.iqf import run_script
from repro.optimizer.physical_plan import lower_plan
from repro.perf import COUNTER_FIELDS
from repro.types.tvl import is_null
from repro.workloads import UNIVERSITY_DDL, UNIVERSITY_QUERIES, \
    build_university
from repro.workloads.generators import (
    populate_scale,
    scale_queries,
    scale_schema,
)


class TestNullOrdering:
    def test_ascending_nulls_last(self, small_university):
        rows = small_university.query(
            "From person Retrieve name Order By birthdate").rows
        assert rows[0] == ("John Doe",)       # 1940 first
        assert rows[-1] == ("Lone Wolf",)     # null birthdate last

    def test_descending_nulls_still_last(self, small_university):
        rows = small_university.query(
            "From person Retrieve name Order By birthdate Desc").rows
        assert rows[0] == ("Jane Roe",)       # 1950 first when descending
        assert rows[-1] == ("Lone Wolf",)     # null stays last, not first

    def test_sort_key_total_order(self):
        null_key = ops._sort_key(None, False)
        value_key = ops._sort_key(3, False)
        assert value_key < null_key
        null_desc = ops._sort_key(None, True)
        value_desc = ops._sort_key(3, True)
        assert value_desc < null_desc


class TestType3Golden:
    """TYPE 3 target-only branches pad with the all-null dummy (§4.5)."""

    def test_missing_eva_yields_null_padded_row(self, small_university):
        rows = small_university.query(
            "From student Retrieve name, name of advisor").rows
        by_name = {row[0]: row[1] for row in rows}
        assert by_name["John Doe"] == "Joe Bloke"
        assert is_null(by_name["Lone Wolf"])   # no advisor: dummy padding

    def test_empty_mv_eva_yields_one_null_row(self, small_university):
        rows = small_university.query(
            "From student Retrieve name, title of courses-enrolled").rows
        wolf_rows = [row for row in rows if row[0] == "Lone Wolf"]
        assert len(wolf_rows) == 1
        assert is_null(wolf_rows[0][1])

    def test_chained_type3_dummies(self, small_university):
        # advisor is missing, so its department hop must stay null too.
        rows = small_university.query(
            "From student Retrieve name, name of assigned-department"
            " of advisor").rows
        by_name = {row[0]: row[1] for row in rows}
        assert by_name["John Doe"] == "Physics"
        assert is_null(by_name["Lone Wolf"])


class TestOperatorExplain:
    def test_every_university_query_reports_operators(self, university):
        university.enable_tracing()
        try:
            for text in UNIVERSITY_QUERIES:
                result = university.execute(text)
                rendered = result.explain_analyze()
                assert "op Scan(" in rendered, text
                assert "op Project(" in rendered, text
        finally:
            university.disable_tracing()

    def test_traversal_queries_report_traverse_operators(self, university):
        university.enable_tracing()
        try:
            rendered = university.execute(
                "From student Retrieve name, name of advisor"
            ).explain_analyze()
        finally:
            university.disable_tracing()
        assert "op OuterTraverse(" in rendered
        assert "[TYPE 3]" in rendered
        assert "batches=" in rendered

    def test_operator_records_carry_batch_counts(self, university):
        university.enable_tracing()
        try:
            result = university.execute("From student Retrieve name")
        finally:
            university.disable_tracing()
        execute = next(child for child in result.trace.children
                       if child.name == "execute")
        records = execute.attrs["operators"]
        scan = next(r for r in records if r["op"] == "Scan")
        assert scan["batches"] >= 1
        assert scan["rows_out"] == 40
        project = next(r for r in records if r["op"] == "Project")
        assert project["rows_in"] == project["rows_out"] == 40

    def test_operator_lines_end_at_their_counts(self, university):
        university.enable_tracing()
        try:
            rendered = university.execute(
                "From student Retrieve name, name of advisor"
                " Where student-nbr > 2010").explain_analyze()
        finally:
            university.disable_tracing()
        lines = [line.strip() for line in rendered.splitlines()
                 if line.strip().startswith("op ")]
        assert [line.split("(")[0] for line in lines] == [
            "op Scan", "op Filter", "op OuterTraverse", "op Project"]
        for line in lines:
            assert re.fullmatch(r"op \w+\(.*\)( \[TYPE \d\])?  "
                                r"batches=\d+ in=\d+ out=\d+"
                                r"( est=\d+\.\d)?", line), line

    def test_operator_rows_do_not_depend_on_batch_size(self):
        text = "From student Retrieve name Where student-nbr > 2010"

        def operator_records(batch_size):
            database = build_university(seed=11)
            database.executor.batch_size = batch_size
            database.enable_tracing()
            result = database.execute(text)
            execute = next(child for child in result.trace.children
                           if child.name == "execute")
            return execute.attrs["operators"]

        small, large = operator_records(4), operator_records(64)
        assert [(r["op"], r["rows_in"], r["rows_out"]) for r in small] \
            == [(r["op"], r["rows_in"], r["rows_out"]) for r in large]
        assert small[0]["rows_out"] > 4
        assert small[0]["batches"] > large[0]["batches"]

    def test_batch_counters_accumulate(self, university):
        before = university.perf.as_dict()
        university.query("From student Retrieve name, name of advisor")
        after = university.perf.as_dict()
        assert after["batches_dispatched"] > before["batches_dispatched"]
        assert after["batch_rows"] > before["batch_rows"]


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("size", [1, 3, 64, 4096])
    def test_rows_identical_across_batch_sizes(self, size):
        reference = build_university(seed=11)
        subject = build_university(seed=11)
        subject.executor.batch_size = size
        for text in UNIVERSITY_QUERIES:
            assert subject.query(text).rows == reference.query(text).rows, \
                text

    @pytest.mark.parametrize("query", [
        "From student Retrieve name, title of courses-enrolled",
        # TYPE 2: each student's scope fits one expansion chunk even at
        # batch size 2, so chunking never changes what is evaluated.
        "From student Retrieve name Where credits of courses-enrolled > 3",
        "From student Retrieve name, sum(credits of courses-enrolled)",
    ])
    def test_memo_totals_do_not_depend_on_batch_size(self, query):
        small = build_university(seed=11)
        small.executor.batch_size = 2
        large = build_university(seed=11)
        large.executor.batch_size = 1024
        for database in (small, large):
            database.query(query)     # warm both equally
        counters = []
        for database in (small, large):
            perf = database.query(query).perf
            counters.append((perf.memo_hits, perf.memo_misses,
                             perf.domain_enumerations,
                             perf.records_decoded))
        assert counters[0] == counters[1]
        assert counters[0][0] > 0


#: Order By queries with NULL keys both directions: students without an
#: advisor produce NULL advisor names (TYPE 3 dummy), and the §5.1 sort
#: contract places NULLs last under Asc and Desc alike.
ORDERED_QUERIES = [
    "From student Retrieve name, name of advisor Order By name of advisor",
    "From student Retrieve name, name of advisor"
    " Order By name of advisor Desc",
]

ALL_QUERIES = UNIVERSITY_QUERIES + ORDERED_QUERIES


class TestRowIdentity:
    """Execution must be row-identical — same rows, same order — across
    batch sizes, with the caches warm or emptied before every query."""

    @pytest.fixture(scope="class")
    def reference(self):
        database = build_university(seed=11)
        return database, {text: database.query(text).rows
                          for text in ALL_QUERIES}

    @pytest.mark.parametrize("cache", ["warm", "cold"])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_university_sweep(self, reference, batch_size, cache):
        _, expected = reference
        subject = build_university(seed=11)
        subject.executor.batch_size = batch_size
        for text in ALL_QUERIES:
            if cache == "cold":
                subject.cold_cache()
            assert subject.query(text).rows == expected[text], text

    def test_scale_workload_sweep(self):
        reference = Database(scale_schema(3), constraint_mode="off")
        populate_scale(reference, 600, chain_depth=3)
        subject = Database(scale_schema(3), constraint_mode="off")
        populate_scale(subject, 600, chain_depth=3)
        for text in scale_queries(3):
            expected = reference.query(text).rows
            for batch_size in (1, 3):
                subject.executor.batch_size = batch_size
                assert subject.query(text).rows == expected, \
                    f"{text} at batch size {batch_size}"

    def test_repeated_queries_are_stable(self):
        """The memos and caches a run fills never change what the next
        run of the same statement returns."""
        database = build_university(seed=11)
        database.executor.batch_size = 2
        text = ("From student Retrieve name, title of courses-enrolled"
                " Where credits of courses-enrolled > 3")
        expected = database.query(text).rows
        assert expected
        for _ in range(4):
            assert database.query(text).rows == expected


class TestResultPerf:
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_result_perf_populated(self, batch_size):
        """``ResultSet.perf`` of a cold run counts the same events at
        every batch size as in one whole-class batch, field by field —
        except the ones that describe the pipeline's geometry:
        ``batches_dispatched`` (smaller batches are more of them) and
        the block touches, ``logical_reads`` and ``physical_reads``
        (a batch reads each of its blocks once, so a larger batch never
        touches more)."""
        text = "From student Retrieve name, title of courses-enrolled"
        perf = {}
        for size in (batch_size, 1024):
            database = build_university(seed=11)
            database.executor.batch_size = size
            database.cold_cache()
            perf[size] = database.query(text).perf.as_dict()
        got, whole = perf[batch_size], perf[1024]
        assert got["records_decoded"] > 0 and got["memo_hits"] > 0
        assert got["physical_reads"] > 0
        geometry = ("batches_dispatched", "logical_reads", "physical_reads")
        for name in COUNTER_FIELDS:
            if name not in geometry:
                assert got[name] == whole[name], name
        assert got["batches_dispatched"] > whole["batches_dispatched"]
        for name in ("logical_reads", "physical_reads"):
            assert got[name] >= whole[name], name


class TestBatchedReads:
    def test_fetch_many_matches_record_of(self, small_university):
        store = small_university.store
        surrogates = list(store.scan_class("course"))
        records = store.fetch_many("course", surrogates + surrogates[:1])
        assert set(records) == set(surrogates)
        for surrogate in surrogates:
            assert records[surrogate] == store.record_of(surrogate, "course")

    def test_traverse_eva_batch_matches_eva_targets(self, small_university):
        store = small_university.store
        eva = small_university.schema.get_class("student") \
            .attribute("courses-enrolled")
        students = list(store.scan_class("student"))
        batched = store.traverse_eva_batch(students, eva)
        for surrogate in students:
            assert batched[surrogate] == store.eva_targets(surrogate, eva)

    def test_dva_batch_matches_dva(self, small_university):
        executor = small_university.executor
        accessor = executor.accessor
        attr = small_university.schema.get_class("course") \
            .attribute("credits")
        courses = list(small_university.store.scan_class("course"))
        instances = courses + [None] + courses[:1]
        assert accessor.dva_batch(attr, instances) == \
            [accessor.dva(instance, attr) for instance in instances]


class TestPhysicalVerifier:
    def _lowered(self, database, text):
        query = parse_dml(text)
        tree = database.qualifier.resolve_retrieve(query)
        physical = lower_plan(query, tree, None)
        return query, tree, physical

    def test_good_dag_verifies_clean(self, small_university):
        from repro.analysis import verify_physical
        _, tree, physical = self._lowered(
            small_university, "From student Retrieve name, name of advisor")
        assert verify_physical(small_university.schema, tree, physical) == []

    def test_every_university_plan_verifies_clean(self, university):
        from repro.analysis import verify_physical
        for text in UNIVERSITY_QUERIES:
            _, tree, physical = self._lowered(university, text)
            assert verify_physical(university.schema, tree,
                                   physical) == [], text

    def test_wrong_traverse_kind_is_sim207(self, small_university):
        from repro.analysis import verify_physical
        _, tree, physical = self._lowered(
            small_university, "From student Retrieve name, name of advisor")
        outer = next(op for op in physical.operators
                     if op.name == "OuterTraverse")
        inner = ops.EVATraverse(outer.node, outer.child)
        physical.root.child.child = inner   # Sortless: Project <- traverse
        codes = {d.code for d in verify_physical(
            small_university.schema, tree, physical)}
        assert "SIM207" in codes

    def test_missing_spine_node_is_sim205(self, small_university):
        from repro.analysis import verify_physical
        _, tree, physical = self._lowered(
            small_university, "From student Retrieve name, name of advisor")
        traverse = next(op for op in physical.operators
                        if op.name == "OuterTraverse")
        # Splice the traverse out: its node is never bound.
        parent = next(op for op in physical.operators
                      if op.child is traverse)
        parent.child = traverse.child
        codes = {d.code for d in verify_physical(
            small_university.schema, tree, physical)}
        assert "SIM205" in codes

    def test_type2_on_spine_is_sim206(self, small_university):
        from repro.analysis import verify_physical
        _, tree, physical = self._lowered(
            small_university,
            "From student Retrieve name"
            " Where credits of courses-enrolled > 3")
        semi = next(op for op in physical.operators if op.name == "Semi")
        exists_node = semi.nodes[0]
        # Enumerate the existential node as if it were a loop variable.
        physical.slots[exists_node.id] = physical.width
        physical.width += 1
        parent = next(op for op in physical.operators
                      if op.child is semi)
        parent.child = ops.EVATraverse(exists_node, semi)
        codes = {d.code for d in verify_physical(
            small_university.schema, tree, physical)}
        assert "SIM206" in codes

    def test_verifier_failure_is_fail_closed(self, monkeypatch,
                                             small_university):
        # Break the lowering so the executor's own verify call must raise.
        import repro.optimizer.physical_plan as pp

        original = pp.lower_plan

        def sabotage(query, tree, plan):
            physical = original(query, tree, plan)
            traverse = next((op for op in physical.operators
                             if op.name == "OuterTraverse"), None)
            if traverse is not None:
                parent = next(op for op in physical.operators
                              if op.child is traverse)
                parent.child = traverse.child
            return physical

        monkeypatch.setattr(pp, "lower_plan", sabotage)
        with pytest.raises(PlanVerificationError):
            small_university.query(
                "From student Retrieve name, name of advisor")


class TestFilterPushdown:
    def test_root_only_predicate_filters_before_traversal(
            self, small_university):
        from repro.analysis import verify_physical
        query = parse_dml(
            "Retrieve title of Transitive(prerequisites) of course"
            " Where course-no of course = 102")
        tree = small_university.qualifier.resolve_retrieve(query)
        physical = lower_plan(query, tree, None)
        names = [op.name for op in physical.operators]
        assert names.index("Filter") < names.index("OuterTraverse")
        # The pushed-down DAG still satisfies the structural contract.
        assert verify_physical(small_university.schema, tree,
                               physical) == []
        rows = small_university.query(
            "Retrieve title of Transitive(prerequisites) of course"
            " Where course-no of course = 102").rows
        assert rows == [("Algebra I",)]

    def test_quantified_predicate_is_not_pushed(self, small_university):
        query = parse_dml(
            "From instructor Retrieve name"
            " Where 3 = some(credits of courses-taught)")
        tree = small_university.qualifier.resolve_retrieve(query)
        physical = lower_plan(query, tree, None)
        names = [op.name for op in physical.operators]
        assert "Filter" not in names
        assert "Semi" in names


class TestRangeSelection:
    def _ordered_indexed_db(self):
        schema = parse_ddl(UNIVERSITY_DDL)
        design = PhysicalDesign(schema)
        design.add_value_index("course", "credits", kind="ordered")
        db = Database(schema, design=design, constraint_mode="off")
        for number, title, credits in [(101, "Algebra I", 3),
                                       (102, "Calculus I", 4),
                                       (201, "QCD", 5)]:
            db.execute(f'Insert course(course-no := {number}, '
                       f'title := "{title}", credits := {credits})')
        return db

    def test_range_predicate_uses_ordered_index(self):
        db = self._ordered_indexed_db()
        before = db.perf.as_dict()["index_selections"]
        affected = db.execute("Modify course(credits := 4)"
                              " Where credits > 4")
        assert affected == 1
        # Two index-served selections: one names the entities to lock,
        # one re-selects under the locks (engine/sessions.py).
        assert db.perf.as_dict()["index_selections"] == before + 2
        rows = db.query("From course Retrieve title, credits").rows
        assert ("QCD", 4) in rows

    def test_range_results_match_full_scan(self):
        indexed = self._ordered_indexed_db()
        plain = Database(UNIVERSITY_DDL, constraint_mode="off")
        for number, title, credits in [(101, "Algebra I", 3),
                                       (102, "Calculus I", 4),
                                       (201, "QCD", 5)]:
            plain.execute(f'Insert course(course-no := {number}, '
                          f'title := "{title}", credits := {credits})')
        for where in ("credits > 3", "credits >= 4", "credits < 5",
                      "credits >= 3 and credits < 5"):
            query = f"From course Retrieve title Where {where}"
            assert indexed.query(query).rows == plain.query(query).rows
        assert plain.perf.as_dict()["index_selections"] == 0

    def test_hash_index_does_not_serve_ranges(self):
        schema = parse_ddl(UNIVERSITY_DDL)
        design = PhysicalDesign(schema)
        design.add_value_index("course", "credits")        # hash (default)
        db = Database(schema, design=design, constraint_mode="off")
        db.execute('Insert course(course-no := 101, title := "A",'
                   ' credits := 3)')
        before = db.perf.as_dict()["index_selections"]
        db.execute("Modify course(credits := 2) Where credits > 1")
        assert db.perf.as_dict()["index_selections"] == before

    def test_ordered_kind_survives_save_load(self, tmp_path):
        db = self._ordered_indexed_db()
        path = str(tmp_path / "ordered.simdb")
        db.save(path)
        from repro.persistence import open_database
        loaded = open_database(path)
        assert loaded.design.value_index_kind("course", "credits") \
            == "ordered"
        before = loaded.perf.as_dict()["index_selections"]
        loaded.execute("Modify course(credits := 4) Where credits > 4")
        # To lock, then under the locks: both index-served.
        assert loaded.perf.as_dict()["index_selections"] == before + 2

    def test_bad_index_kind_rejected(self):
        schema = parse_ddl(UNIVERSITY_DDL)
        design = PhysicalDesign(schema)
        with pytest.raises(SimError):
            design.add_value_index("course", "credits", kind="btree")


class TestBatchSizeKnob:
    def test_validate_bounds(self):
        assert validate_batch_size(1) == 1
        assert validate_batch_size(65536) == 65536
        for bad in (0, -5, 65537, True, "64", 2.5, None):
            with pytest.raises(SimError):
                validate_batch_size(bad)

    def test_database_ctor_plumbs_batch_size(self):
        db = Database(UNIVERSITY_DDL, constraint_mode="off", batch_size=128)
        assert db.executor.batch_size == 128
        default = Database(UNIVERSITY_DDL, constraint_mode="off")
        assert default.executor.batch_size == ops.DEFAULT_BATCH_SIZE

    def test_database_ctor_rejects_bad_batch_size(self):
        with pytest.raises(SimError):
            Database(UNIVERSITY_DDL, constraint_mode="off", batch_size=0)

    def test_iqf_set_shows_and_changes(self, small_university):
        transcript = run_script(small_university, ".set\n")
        assert f"batch-size: {ops.DEFAULT_BATCH_SIZE}" in transcript
        transcript = run_script(small_university, ".set batch-size 256\n")
        assert "batch-size set to 256" in transcript
        assert small_university.executor.batch_size == 256

    def test_executor_ctor_rejects_bad_batch_size(self, small_university):
        with pytest.raises(SimError):
            QueryExecutor(small_university.store, batch_size=0)

    @pytest.mark.parametrize("argument", [
        "parallelism 2", "batch-size", "rewrite on now", "colour red"])
    def test_iqf_set_usage(self, small_university, argument):
        """Anything but one known knob and one value prints the usage
        line and changes nothing."""
        transcript = run_script(small_university, f".set {argument}\n")
        assert "usage: .set [batch-size <n> | rewrite on|off]" in transcript
        assert small_university.executor.batch_size \
            == ops.DEFAULT_BATCH_SIZE
        assert small_university.rewrite is True

    def test_iqf_set_rejects_out_of_bounds(self, small_university):
        transcript = run_script(small_university,
                                ".set batch-size 0\n.set batch-size x\n")
        assert transcript.count("error:") == 2
        assert small_university.executor.batch_size \
            == ops.DEFAULT_BATCH_SIZE
