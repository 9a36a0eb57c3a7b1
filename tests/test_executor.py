"""Retrieve execution semantics (paper §4.5): nested loops, TYPE 3 outer
joins, TYPE 2 existentials, aggregates, quantifiers, transitive closure,
ordering and null handling."""

import pytest
from decimal import Decimal

from repro.types.tvl import NULL, is_null


class TestOuterJoinSemantics:
    def test_type3_prints_null_for_empty_domain(self, small_university):
        rows = small_university.query(
            "From Student Retrieve Name, Name of Advisor").rows
        assert ("John Doe", "Joe Bloke") in rows
        lone = [r for r in rows if r[0] == "Lone Wolf"]
        assert lone and is_null(lone[0][1])

    def test_names_of_non_students_not_printed(self, small_university):
        rows = small_university.query(
            "From Student Retrieve Name").rows
        names = [r[0] for r in rows]
        assert "Joe Bloke" not in names  # instructor only

    def test_type1_empty_domain_prunes_row(self, small_university):
        # courses-enrolled used in both lists -> TYPE 1 -> inner join.
        rows = small_university.query("""
            From student Retrieve name, title of courses-enrolled
            Where credits of courses-enrolled >= 1""").rows
        names = {r[0] for r in rows}
        assert names == {"John Doe"}      # Lone Wolf has no courses

    def test_cascading_dummy_through_chain(self, small_university):
        # Lone Wolf has no advisor; advisor's department name must be null,
        # not an error.
        rows = small_university.query("""
            From student Retrieve name,
                 name of assigned-department of advisor""").rows
        lone = [r for r in rows if r[0] == "Lone Wolf"]
        assert lone and is_null(lone[0][1])


class TestExistentialSemantics:
    def test_type2_requires_witness(self, small_university):
        rows = small_university.query("""
            Retrieve name of student
            Where title of courses-enrolled = "Algebra I" """).rows
        assert rows == [("John Doe",)]

    def test_type2_no_witness_even_for_negation(self, small_university):
        # Existential semantics: a student with no courses has no witness,
        # so even 'neq' cannot select them (paper program semantics).
        rows = small_university.query("""
            Retrieve name of student
            Where title of courses-enrolled neq "Algebra I" """).rows
        assert rows == []

    def test_correlated_type2_conjunction(self, small_university):
        # Both conjuncts bind to the same courses-enrolled variable: there
        # must be ONE course satisfying both.
        rows = small_university.query("""
            Retrieve name of student
            Where title of courses-enrolled = "Algebra I" and
                  credits of courses-enrolled = 3""").rows
        assert rows == [("John Doe",)]
        rows = small_university.query("""
            Retrieve name of student
            Where title of courses-enrolled = "Algebra I" and
                  credits of courses-enrolled = 4""").rows
        assert rows == []


class TestMultiPerspective:
    def test_cross_product(self, small_university):
        rows = small_university.query(
            "From student, instructor Retrieve name of student, "
            "name of instructor").rows
        assert len(rows) == 2 * 2

    def test_value_based_join(self, small_university):
        rows = small_university.query("""
            From student, instructor
            Retrieve name of student, name of instructor
            Where birthdate of student < birthdate of instructor""").rows
        assert ("John Doe", "Joe Bloke") in rows
        assert ("John Doe", "Jane Roe") in rows
        assert all(r[0] != "Lone Wolf" for r in rows)  # null birthdate

    def test_entity_comparison(self, small_university):
        rows = small_university.query("""
            From student, instructor
            Retrieve name of student, name of instructor
            Where advisor of student = instructor""").rows
        assert rows == [("John Doe", "Joe Bloke")]


class TestAggregates:
    def test_universal_aggregate(self, small_university):
        value = small_university.query(
            "From instructor Retrieve Table Distinct avg(salary of instructor)"
        ).scalar()
        assert value == Decimal("55000.00")

    def test_correlated_aggregate(self, small_university):
        rows = small_university.query("""
            From student Retrieve name,
                 sum(credits of courses-enrolled) of student""").rows
        assert ("John Doe", 3) in rows
        assert ("Lone Wolf", 0) in rows       # SUM of empty is 0

    def test_count_of_empty_is_zero(self, small_university):
        rows = small_university.query("""
            From student Retrieve name,
                 count(courses-enrolled) of student""").rows
        assert ("Lone Wolf", 0) in rows

    def test_min_max(self, small_university):
        row = small_university.query(
            "From course Retrieve Table Distinct min(credits of course), "
            "max(credits of course)").rows[0]
        assert row == (3, 5)

    def test_aggregate_in_where(self, small_university):
        rows = small_university.query("""
            From course Retrieve title
            Where count(prerequisites) of course >= 1""").rows
        assert sorted(r[0] for r in rows) == [
            "Calculus I", "Quantum Chromodynamics"]

    def test_nested_attribute_aggregate(self, small_university):
        rows = small_university.query("""
            From Department Retrieve name,
                 AVG(Salary of Instructors-employed) of Department""").rows
        assert ("Physics", Decimal("50000.00")) in rows
        assert ("Math", Decimal("60000.00")) in rows


class TestQuantifiers:
    def test_some(self, small_university):
        rows = small_university.query("""
            From instructor Retrieve name
            Where 3 = some(credits of courses-taught)""").rows
        assert rows == []  # nobody teaches anything yet

    def test_no_over_empty_is_true(self, small_university):
        rows = small_university.query("""
            From student Retrieve name
            Where "Biology" = no(title of courses-enrolled)""").rows
        assert {r[0] for r in rows} == {"John Doe", "Lone Wolf"}

    def test_all(self, small_university):
        rows = small_university.query("""
            From student Retrieve name
            Where 3 = all(credits of courses-enrolled)""").rows
        # John's only course has 3 credits; vacuous truth for Lone Wolf.
        assert {r[0] for r in rows} == {"John Doe", "Lone Wolf"}


class TestTransitiveClosure:
    def test_prerequisite_chain(self, small_university):
        rows = small_university.query("""
            Retrieve Title of Transitive(prerequisites) of Course
            Where Title of Course = "Quantum Chromodynamics" """).rows
        assert [r[0] for r in rows] == ["Calculus I", "Algebra I"]

    def test_count_distinct_transitive(self, small_university):
        value = small_university.query("""
            From course
            Retrieve count distinct (transitive(prerequisites))
            Where title = "Quantum Chromodynamics" """).scalar()
        assert value == 2

    def test_closure_handles_cycles(self, empty_university):
        db = empty_university
        for number, title in [(1, "A"), (2, "B"), (3, "C")]:
            db.execute(f'Insert course(course-no := {number}, '
                       f'title := "{title}", credits := 1)')
        db.execute('Modify course(prerequisites := include course with '
                   '(title = "B")) Where title = "A"')
        db.execute('Modify course(prerequisites := include course with '
                   '(title = "C")) Where title = "B"')
        db.execute('Modify course(prerequisites := include course with '
                   '(title = "A")) Where title = "C"')
        rows = db.query("""
            Retrieve title of transitive(prerequisites) of course
            Where title of course = "A" """).rows
        assert sorted(r[0] for r in rows) == ["B", "C"]  # no infinite loop

    def test_inverse_direction_closure(self, small_university):
        rows = small_university.query("""
            Retrieve Title of Transitive(prerequisite-of) of Course
            Where Title of Course = "Algebra I" """).rows
        assert [r[0] for r in rows] == ["Calculus I",
                                        "Quantum Chromodynamics"]


class TestOrderingAndDistinct:
    def test_perspective_order_is_surrogate_order(self, small_university):
        rows = small_university.query("From course Retrieve title").rows
        assert [r[0] for r in rows] == [
            "Algebra I", "Calculus I", "Quantum Chromodynamics"]

    def test_order_by_descending(self, small_university):
        rows = small_university.query(
            "From course Retrieve title, credits Order By credits Desc").rows
        assert [r[1] for r in rows] == [5, 4, 3]

    def test_order_by_nulls_last(self, small_university):
        rows = small_university.query(
            "From person Retrieve name Order By birthdate").rows
        assert rows[-1] == ("Lone Wolf",)   # null birthdate sorts last

    def test_distinct(self, small_university):
        rows = small_university.query(
            "From course Retrieve Table Distinct credits").rows
        assert len(rows) == len({r for r in rows})

    def test_like_pattern(self, small_university):
        rows = small_university.query(
            'From person Retrieve name Where name like "J%e"').rows
        assert {r[0] for r in rows} == {"John Doe", "Jane Roe", "Joe Bloke"}


class TestNullLogic:
    def test_null_comparison_is_unknown_not_error(self, small_university):
        rows = small_university.query("""
            From person Retrieve name Where birthdate < "1946-01-01" """).rows
        assert {r[0] for r in rows} == {"John Doe", "Joe Bloke"}

    def test_arithmetic_with_null_yields_null(self, small_university):
        rows = small_university.query(
            "From instructor Retrieve name, salary + bonus").rows
        joe = [r for r in rows if r[0] == "Joe Bloke"][0]
        assert is_null(joe[1])  # Joe has no bonus
        jane = [r for r in rows if r[0] == "Jane Roe"][0]
        assert jane[1] == Decimal("65000.00")

    def test_not_unknown_is_unknown(self, small_university):
        # NOT (null < x) is still unknown -> row not selected.
        rows = small_university.query("""
            From person Retrieve name
            Where not (birthdate < "1946-01-01")""").rows
        assert {r[0] for r in rows} == {"Jane Roe"}

    def test_isa(self, small_university):
        rows = small_university.query("""
            From person Retrieve name
            Where person isa instructor and not person isa student""").rows
        assert {r[0] for r in rows} == {"Joe Bloke", "Jane Roe"}


class TestResultSetApi:
    def test_columns_default_to_described_expressions(self, small_university):
        result = small_university.query(
            "From student Retrieve name, name of advisor")
        assert result.columns == ["name", "name of advisor"]

    def test_scalar_requires_1x1(self, small_university):
        result = small_university.query("From student Retrieve name")
        with pytest.raises(ValueError):
            result.scalar()

    def test_pretty_renders_nulls(self, small_university):
        text = small_university.query(
            "From student Retrieve name, name of advisor").pretty()
        assert "?" in text and "John Doe" in text

    def test_to_dicts(self, small_university):
        dicts = small_university.query(
            "From course Retrieve title, credits").to_dicts()
        assert dicts[0] == {"title": "Algebra I", "credits": 3}


class TestTransitiveChains:
    """§4.7: "Transitive closure can be performed on any cyclic chain of
    EVAs (the single reflexive EVA ... is a cyclic chain one element
    long)." — the multi-EVA case."""

    DDL = """
    Class Author ( aname: string[10];
      wrote: book inverse is written-by mv );
    Class Book ( btitle: string[10];
      inspired: author inverse is inspired-of mv );
    """

    @staticmethod
    def build():
        from repro import Database
        db = Database(TestTransitiveChains.DDL, constraint_mode="off")
        for a in ("A1", "A2", "A3"):
            db.execute(f'Insert author(aname := "{a}")')
        for b in ("B1", "B2"):
            db.execute(f'Insert book(btitle := "{b}")')
        db.execute('Modify author(wrote := book with (btitle = "B1"))'
                   ' Where aname = "A1"')
        db.execute('Modify book(inspired := author with (aname = "A2"))'
                   ' Where btitle = "B1"')
        db.execute('Modify author(wrote := book with (btitle = "B2"))'
                   ' Where aname = "A2"')
        db.execute('Modify book(inspired := author with (aname = "A3"))'
                   ' Where btitle = "B2"')
        return db

    def test_two_eva_cycle(self):
        db = self.build()
        rows = db.query(
            'Retrieve aname of transitive(inspired of wrote) of author'
            ' Where aname of author = "A1"').rows
        assert [r[0] for r in rows] == ["A2", "A3"]

    def test_chain_levels_in_structured_output(self):
        db = self.build()
        result = db.query(
            'Retrieve Structure aname of transitive(inspired of wrote)'
            ' of author Where aname of author = "A1"')
        closure = [r.level for r in result.structured
                   if r.format_name == "inspired"]
        assert closure == [1, 2]

    def test_chain_count(self):
        db = self.build()
        value = db.query(
            'From author Retrieve count(transitive(inspired of wrote))'
            ' Where aname = "A1"').scalar()
        assert value == 2

    def test_non_cyclic_chain_rejected(self):
        from repro import QualificationError
        db = self.build()
        with pytest.raises(QualificationError, match="cyclic"):
            db.query('Retrieve btitle of transitive(wrote) of author')

    def test_chain_through_unknown_eva_rejected(self):
        from repro import QualificationError
        db = self.build()
        with pytest.raises(QualificationError):
            db.query('Retrieve aname of transitive(ghost of wrote)'
                     ' of author')


class TestEarlyExit:
    """``exists``, ``some``, ``no`` and ``all`` expand each undecided
    owner in rounds of 1, 2, 4, … bindings and stop at the round that
    decides it; what they return is the reference interpreter's."""

    @pytest.fixture(scope="class")
    def chain(self):
        from repro import Database
        from repro.workloads.generators import populate_scale, scale_schema
        db = Database(scale_schema(3), constraint_mode="off")
        populate_scale(db, 400, chain_depth=3, seed=5)
        return db

    @pytest.fixture
    def fan(self):
        """One tier1 feeding twelve tier2s in surrogate order, loads
        1, 2, 4, 9, … — so the rounds are positions [0], [1, 2],
        [3..6], [7..11]."""
        from repro import Database
        from repro.workloads.generators import scale_schema
        db = Database(scale_schema(3), constraint_mode="off")
        for position, load in enumerate([1, 2, 4] + [9] * 9):
            db.execute(f"Insert tier2(key2 := {position},"
                       f" load2 := {load})")
        db.execute("Insert tier1(key1 := 1)")
        for position in range(12):
            db.execute("Modify tier1(feeds := include tier2 with"
                       f" (key2 = {position})) Where key1 = 1")
        return db

    @staticmethod
    def loads_read(db, monkeypatch, text, poison=None):
        """The rows of ``text`` and the load2 instances it evaluated;
        reading the tier2 whose key2 is ``poison`` raises."""
        from repro.engine.access import EntityAccessor
        from repro.errors import ExecutionError
        real = getattr(EntityAccessor.dva_batch, "real",
                       EntityAccessor.dva_batch)
        poisoned = db.query(f"From tier2 Retrieve tier2 Where key2 = {poison}"
                            ).rows[0][0] if poison is not None else None
        read = []

        def counting(self, attr, instances):
            if attr.name == "load2":
                read.extend(instances)
                if poisoned in instances:
                    raise ExecutionError("poisoned load2")
            return real(self, attr, instances)
        counting.real = real
        monkeypatch.setattr(EntityAccessor, "dva_batch", counting)
        return db.query(text).rows, read

    def test_a_witness_ends_the_type2_expansion(self, chain):
        from tests.reference_interpreter import reference_rows
        text = "From tier0 Retrieve key0 Where load2 of feeds of feeds > 10"
        chain.enable_tracing()
        try:
            result = chain.query(text)
        finally:
            chain.disable_tracing()
        nodes = result.trace.find("execute").attrs["nodes"]
        traced = sum(node["actual_rows"] for node in nodes
                     if node["label"] == "TYPE 2")
        scope = chain.query("From tier0 Retrieve count(feeds),"
                            " count(feeds of feeds)").rows
        full = sum(first + second for first, second in scope)
        assert 0 < traced < full / 2
        assert result.rows and result.rows == reference_rows(chain, text)

    @pytest.mark.parametrize("text, rows, evaluated", [
        # the witness (load2 = 4) is at position 2: round two decides
        ("From tier1 Retrieve key1 Where 4 = no(load2 of feeds)", [], 3),
        # decided false at position 3 (load2 = 9): round three decides
        ("From tier1 Retrieve key1 Where 5 > all(load2 of feeds)", [], 7),
        # nothing decides: every round runs
        ("From tier1 Retrieve key1 Where 3 = no(load2 of feeds)", [(1,)],
         12),
    ])
    def test_a_quantifier_stops_at_its_deciding_round(
            self, fan, monkeypatch, text, rows, evaluated):
        from tests.reference_interpreter import reference_rows
        got, read = self.loads_read(fan, monkeypatch, text)
        assert len(read) == evaluated
        assert got == rows == reference_rows(fan, text)

    def test_an_error_surfaces_only_from_the_deciding_round(
            self, fan, monkeypatch):
        """INTERNALS §8: a binding of the round that decides its owner
        is evaluated, so its error surfaces; a later round's is never
        reached."""
        from repro.errors import ExecutionError
        text = "From tier1 Retrieve key1 Where 4 = some(load2 of feeds)"
        with pytest.raises(ExecutionError, match="poisoned"):
            self.loads_read(fan, monkeypatch, text, poison=1)
        rows, read = self.loads_read(fan, monkeypatch, text, poison=3)
        assert rows == [(1,)] and len(read) == 3
