"""Differential test: compiled columns vs the per-row interpreter.

``repro.engine.expressions`` compiles every qualified expression into a
set-at-a-time column function and expands scoped constructs a chunk of
bindings at a time; ``tests/reference_interpreter.py`` is the
tuple-at-a-time interpreter it replaced.  A seeded generator builds
Retrieves over UNIVERSITY and ``scale_schema(3)`` — paths through NULLs
and DUMMY TYPE 3 instances, nested and/or/not, arithmetic including
divide-by-zero, ``like``, date-vs-string compares, ``isa``, some/all/no
over empty and non-empty scopes, count/sum/avg/min/max with and without
``distinct``, aggregates nested in a WHERE — and every statement must
agree with the oracle value for value:

* column by column (selection flags, 3-valued truth, target values) at
  ``batch_size`` 1, 3 and 64, and
* as result rows through the whole operator pipeline at those batch
  sizes.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, parse_dml
from repro.engine.executor import QueryExecutor
from repro.engine.expressions import (
    Batch,
    compile_selection,
    compile_truth,
    compile_value,
)
from repro.engine.operators import ExecContext
from repro.types.tvl import NULL, UNKNOWN
from repro.workloads import build_university
from repro.workloads.generators import populate_scale, scale_schema

from tests.reference_interpreter import exists_subtrees, reference_bindings

BATCH_SIZES = (1, 3, 64)
STATEMENTS_PER_SCHEMA = 40


# ---------------------------------------------------------------- databases

@pytest.fixture(scope="module")
def university():
    db = build_university(departments=3, instructors=6, students=14,
                          courses=9, seed=11)
    # NULL attributes, empty EVA domains (DUMMY TYPE 3 instances, empty
    # aggregate and quantifier scopes) and a course nobody takes.
    db.execute('Insert student(name := "Lone Wolf", soc-sec-no := 7,'
               ' student-nbr := 2999)')
    db.execute('Insert instructor(name := "Idle Hands", soc-sec-no := 8,'
               ' employee-nbr := 1999)')
    db.execute('Insert instructor(soc-sec-no := 9, employee-nbr := 1998,'
               ' salary := 40000, bonus := 0, birthdate := "1950-01-01")')
    db.execute('Insert course(course-no := 999, title := "Void_Study 100%",'
               ' credits := 1)')
    return db


@pytest.fixture(scope="module")
def scale():
    db = Database(scale_schema(3), constraint_mode="off")
    populate_scale(db, 160, chain_depth=3, seed=5)
    # A last-tier entity with no links and parts with NULL cost / site.
    db.execute("Insert tier2(key2 := 9001)")
    db.execute("Insert tier1(key1 := 9002, load1 := 50)")
    db.execute("Insert part(asset-key := 9003, part-key := 9003)")
    db.execute("Insert part(asset-key := 9004, part-key := 9004,"
               " site-code := 3)")
    # NULL instances ahead of a witness: a tier2 linking the NULL-cost
    # part, then a costly one; a tier1 feeding a NULL-load tier2, then a
    # loaded one.
    db.execute("Insert part(asset-key := 9005, part-key := 9005,"
               " cost := 9999)")
    db.execute("Insert tier2(key2 := 9006, load2 := 7)")
    for part in (9003, 9005):
        db.execute("Modify tier2(links := include part with"
                   f" (part-key = {part})) Where key2 = 9006")
    db.execute("Insert tier2(key2 := 9007)")
    db.execute("Insert tier2(key2 := 9008, load2 := 99)")
    db.execute("Insert tier1(key1 := 9009)")
    for tier2 in (9007, 9008):
        db.execute("Modify tier1(feeds := include tier2 with"
                   f" (key2 = {tier2})) Where key1 = 9009")
    return db


# ---------------------------------------------------------------- generator

class Vocabulary:
    """What the generator may say about one perspective class."""

    def __init__(self, perspective, key, numbers, strings=(), dates=(),
                 entities=(), scoped_numbers=(), scoped_entities=()):
        self.perspective = perspective
        self.key = key
        self.numbers = numbers              # numeric value paths
        self.strings = strings              # (path, like pattern, literal)
        self.dates = dates                  # (path, date literal)
        self.entities = entities            # (entity path, class) for isa
        self.scoped_numbers = scoped_numbers    # aggregate/quantifier args
        self.scoped_entities = scoped_entities  # count(...) arguments


UNIVERSITY_VOCABULARY = [
    Vocabulary(
        "student", "student-nbr",
        numbers=["student-nbr", "salary of advisor", "bonus of advisor",
                 "credits of courses-enrolled",
                 "teaching-load of student as teaching-assistant"],
        strings=[("name", "J%", "John Doe"),
                 ("name of advisor", "%o_ %", "Joe Bloke"),
                 ("title of courses-enrolled", "%I", "Algebra I"),
                 ("name of major-department", "_hys%", "Physics")],
        dates=[("birthdate", "1960-06-15"),
               ("birthdate of advisor", "03/02/1950")],
        entities=[("student", "teaching-assistant"),
                  ("advisor", "teaching-assistant"),
                  ("advisor", "student")],
        scoped_numbers=["credits of courses-enrolled",
                        "salary of teachers of courses-enrolled",
                        "course-no of courses-enrolled"],
        scoped_entities=["courses-enrolled",
                         "teachers of courses-enrolled"]),
    Vocabulary(
        "instructor", "employee-nbr",
        numbers=["employee-nbr", "salary", "bonus",
                 "credits of courses-taught", "student-nbr of advisees",
                 "dept-nbr of assigned-department"],
        strings=[("name", "%e%", "Jane Roe"),
                 ("name of assigned-department", "M%", "Math"),
                 ("title of courses-taught", "%_ I%", "Logic I")],
        dates=[("birthdate", "1950-01-01"),
               ("birthdate of advisees", "1962-02-03")],
        entities=[("instructor", "student"),
                  ("advisees", "teaching-assistant")],
        scoped_numbers=["credits of courses-taught",
                        "student-nbr of advisees", "bonus of instructor"],
        scoped_entities=["advisees", "courses-taught"]),
    Vocabulary(
        "course", "course-no",
        numbers=["course-no", "credits", "credits of prerequisites",
                 "salary of teachers"],
        strings=[("title", "%\\_%", "Void_Study 100%"),
                 ("title", "%100\\%", "Optics I"),
                 ("name of teachers", "%", "Joe Bloke")],
        entities=[("teachers", "student")],
        scoped_numbers=["salary of teachers", "credits of prerequisites",
                        "student-nbr of students-enrolled"],
        scoped_entities=["students-enrolled", "prerequisites",
                         "transitive(prerequisites)"]),
]

SCALE_VOCABULARY = [
    Vocabulary(
        "tier0", "key0",
        numbers=["key0", "load0", "load1 of feeds",
                 "load2 of feeds of feeds"],
        scoped_numbers=["load1 of feeds", "load2 of feeds of feeds",
                        "cost of links of feeds of feeds"],
        scoped_entities=["feeds", "feeds of feeds"]),
    Vocabulary(
        "tier2", "key2",
        numbers=["key2", "load2", "cost of links", "site-code of links",
                 "load1 of fed-by"],
        entities=[("links", "tracked"), ("links", "costed")],
        scoped_numbers=["cost of links", "site-code of links",
                        "part-key of links"],
        scoped_entities=["links"]),
    Vocabulary(
        "part", "part-key",
        numbers=["part-key", "cost", "site-code", "load2 of linked-from",
                 "load1 of fed-by of linked-from"],
        entities=[("part", "costed")],
        scoped_numbers=["load2 of linked-from", "key2 of linked-from"],
        scoped_entities=["linked-from"]),
]

COMPARISONS = ("=", "neq", "<", "<=", ">", ">=")


class Generator:
    """Seeded expression generator over one :class:`Vocabulary`."""

    def __init__(self, vocabulary: Vocabulary, rng: random.Random):
        self.v = vocabulary
        self.rng = rng

    def pick(self, options):
        return options[self.rng.randrange(len(options))]

    def literal(self) -> str:
        return str(self.pick((0, 1, 3, 4, 7, 12, 50, 2005, 5000, 40000)))

    def aggregate(self) -> str:
        func = self.pick(("count", "sum", "avg", "min", "max"))
        distinct = " distinct " if self.rng.random() < 0.3 else ""
        if func == "count" and self.rng.random() < 0.5:
            return f"count{distinct}({self.pick(self.v.scoped_entities)})"
        return f"{func}{distinct}({self.pick(self.v.scoped_numbers)})"

    def number(self, depth: int) -> str:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.35:
            return self.pick(self.v.numbers)
        if roll < 0.5:
            return self.literal()
        if roll < 0.65:
            return self.aggregate()
        if roll < 0.72:
            return f"(- {self.number(depth - 1)})"
        op = self.pick(("+", "-", "*", "/"))
        right = self.number(depth - 1)
        if op == "/" and self.rng.random() < 0.4:
            right = self.pick(("0", f"({right} - {right})"))
        return f"({self.number(depth - 1)} {op} {right})"

    def quantified(self) -> str:
        left = self.pick((self.literal(), self.pick(self.v.numbers)))
        quantifier = self.pick(("some", "all", "no"))
        return (f"{left} {self.pick(COMPARISONS)} "
                f"{quantifier}({self.pick(self.v.scoped_numbers)})")

    def boolean(self, depth: int) -> str:
        roll = self.rng.random()
        if depth > 0 and roll < 0.3:
            op = self.pick(("and", "or"))
            return (f"({self.boolean(depth - 1)} {op} "
                    f"{self.boolean(depth - 1)})")
        if depth > 0 and roll < 0.4:
            return f"(not {self.boolean(depth - 1)})"
        if roll < 0.5 and self.v.strings:
            path, pattern, literal = self.pick(self.v.strings)
            if self.rng.random() < 0.5:
                return f'{path} like "{pattern}"'
            return f'{path} {self.pick(COMPARISONS)} "{literal}"'
        if roll < 0.58 and self.v.dates:
            path, literal = self.pick(self.v.dates)
            if self.rng.random() < 0.3:
                return f'"{literal}" {self.pick(COMPARISONS)} {path}'
            return f'{path} {self.pick(COMPARISONS)} "{literal}"'
        if roll < 0.66 and self.v.entities:
            path, class_name = self.pick(self.v.entities)
            return f"{path} isa {class_name}"
        if roll < 0.8:
            return self.quantified()
        return (f"{self.number(2)} {self.pick(COMPARISONS)} "
                f"{self.number(2)}")

    def statement(self) -> str:
        targets = [self.v.key]
        for _ in range(self.rng.randrange(3)):
            targets.append(self.pick((
                self.pick(self.v.numbers), self.aggregate(),
                self.number(2),
                self.pick(self.v.strings)[0] if self.v.strings
                else self.v.key)))
        text = f"From {self.v.perspective} Retrieve {', '.join(targets)}"
        if self.rng.random() < 0.85:
            text += f" Where {self.boolean(3)}"
        return text


def generate(vocabularies, seed):
    rng = random.Random(seed)
    generators = [Generator(v, rng) for v in vocabularies]
    return [generators[index % len(generators)].statement()
            for index in range(STATEMENTS_PER_SCHEMA)]


# ------------------------------------------------------------------- oracle

def as_batch(rows, width):
    """Slot rows (the oracle's bindings) as the columns the compiled
    functions read."""
    return Batch({slot: [row[slot] for row in rows]
                  for slot in range(width)}, len(rows))


def _render(value):
    return NULL if value is UNKNOWN else value


def check_statement(db, text):
    """One statement against the oracle: columns first, then rows."""
    query = parse_dml(text)
    rows, flags, truths, targets = [], [], [], []
    flat = None
    loop_nodes = []
    for loop_nodes, evaluator, env, selected in reference_bindings(db, query):
        if flat is None:
            flat = not exists_subtrees(loop_nodes)
        rows.append([env[node.id] for node in loop_nodes])
        flags.append(selected)
        if flat and query.where is not None:
            truths.append(evaluator.truth(query.where, env))
        # Target values of bindings the selection rejects are never
        # computed by either evaluator on the TYPE 2 path.
        targets.append([evaluator.value(item.expression, env)
                        for item in query.targets] if selected else None)
    expected_rows = [tuple(_render(value) for value in values)
                     for values in targets if values is not None]

    slots = {node.id: index for index, node in enumerate(loop_nodes)}
    width = len(loop_nodes)
    exists_nodes = exists_subtrees(loop_nodes)
    columns = [compile_value(item.expression, slots, width)
               for item in query.targets]
    selection = truth = None
    if query.where is not None:
        selection = compile_selection(query.where, exists_nodes, slots,
                                      width)
        if flat:
            truth = compile_truth(query.where, slots, width)

    for batch_size in BATCH_SIZES:
        executor = QueryExecutor(db.store, db.qualifier,
                                 batch_size=batch_size)
        ctx = ExecContext(executor)
        got_flags, got_truths = [], []
        got_targets = [[] for _ in columns]
        for start in range(0, len(rows), batch_size):
            chunk = rows[start:start + batch_size]
            batch = as_batch(chunk, width)
            if selection is not None:
                got_flags.extend(selection(ctx, batch))
            if truth is not None:
                got_truths.extend(truth(ctx, batch))
            kept = as_batch([row for row, keep in zip(
                chunk, flags[start:start + batch_size]) if keep], width)
            for got, column in zip(got_targets, columns):
                got.extend(column(ctx, kept))
        if selection is not None:
            assert got_flags == flags, (text, batch_size)
        if truth is not None:
            assert got_truths == truths, (text, batch_size)
        got_rows = [tuple(_render(value) for value in values)
                    for values in zip(*got_targets)]
        assert got_rows == expected_rows, (text, batch_size)

        executor = QueryExecutor(db.store, db.qualifier,
                                 batch_size=batch_size)
        assert executor.execute(parse_dml(text)).rows == expected_rows, \
            (text, batch_size)
    return len(rows), sum(flags)


# -------------------------------------------------------------------- tests

def test_university_expressions_match_the_interpreter(university):
    bindings = selected = 0
    for text in generate(UNIVERSITY_VOCABULARY, seed=1988):
        seen, kept = check_statement(university, text)
        bindings += seen
        selected += kept
    # The sweep is not vacuous: selections both keep and reject rows.
    assert 0 < selected < bindings


def test_scale_expressions_match_the_interpreter(scale):
    bindings = selected = 0
    for text in generate(SCALE_VOCABULARY, seed=1988):
        seen, kept = check_statement(scale, text)
        bindings += seen
        selected += kept
    assert 0 < selected < bindings


@pytest.mark.parametrize("text", [
    # empty and non-empty quantifier scopes, every quantifier
    "From student Retrieve student-nbr"
    " Where 3 = some(credits of courses-enrolled)",
    "From student Retrieve student-nbr"
    " Where 3 <= all(credits of courses-enrolled)",
    "From student Retrieve student-nbr"
    " Where 3 = no(credits of courses-enrolled)",
    "From instructor Retrieve employee-nbr"
    " Where bonus neq all(bonus of instructor)",
    # an aggregate nested in a WHERE, beside a TYPE 2 path
    "From student Retrieve student-nbr"
    " Where sum(credits of courses-enrolled) >= 12"
    " and credits of courses-enrolled > 3",
    # every aggregate over empty scopes, with and without distinct
    "From instructor Retrieve employee-nbr, count(advisees),"
    " sum(credits of courses-taught), avg(credits of courses-taught),"
    " min(credits of courses-taught), max distinct"
    " (credits of courses-taught), count distinct"
    " (credits of courses-taught)",
    # arithmetic through NULLs and DUMMY, divide by zero
    "From student Retrieve student-nbr, salary of advisor / 0,"
    " (salary of advisor + bonus of advisor) / 7,"
    " - teaching-load of student as teaching-assistant",
    # date against string, either side; like with both wildcards
    'From person Retrieve soc-sec-no Where "1950-01-01" <= birthdate'
    ' or name like "_o%"',
    # isa on TYPE 3 dummies
    "From student Retrieve student-nbr, name of advisor"
    " Where not advisor isa teaching-assistant",
    # transitive scope
    "From course Retrieve course-no,"
    " count distinct (transitive(prerequisites))",
    # runs of all-int, mixed int/float (``credits / 2``), Decimal/float
    # (``+ 0.25``) and NULL-bearing (``bonus``) values, with and without
    # distinct
    "From student Retrieve student-nbr, sum(credits of courses-enrolled),"
    " min(credits of courses-enrolled / 2),"
    " max distinct (credits of courses-enrolled / 2),"
    " sum(credits of courses-enrolled / 2 + 0.25),"
    " avg(bonus of teachers of courses-enrolled"
    " + credits of courses-enrolled / 2),"
    " sum distinct (bonus of teachers of courses-enrolled)",
    # scopes under DUMMY owners (students without an advisor)
    "From student Retrieve student-nbr, name of advisor,"
    " count(courses-taught of advisor), max(salary of advisor)",
    # a two-level SOME whose witness lies in a later round
    "From tier0 Retrieve key0 Where 90 < some(load2 of feeds of feeds)",
    # an ALL decided false late, and a TYPE 2 scope two levels deep
    "From tier1 Retrieve key1 Where 98 > all(load2 of feeds)",
    "From tier0 Retrieve key0 Where load2 of feeds of feeds > 95",
    # a NO that meets an UNKNOWN (NULL load2 / cost) before its witness
    "From tier1 Retrieve key1 Where 95 < no(load2 of feeds)",
    "From tier2 Retrieve key2 Where 5000 < no(cost of links)",
    # an outer slot read inside a scope
    "From tier2 Retrieve key2 Where cost of links > load2",
    "From tier2 Retrieve key2 Where load2 < some(cost of links / 100)",
    "From tier2 Retrieve key2, sum(cost of links - load2)",
    # NULL-bearing and empty runs (tier2 9001 links nothing)
    "From tier2 Retrieve key2, sum(cost of links), avg(cost of links),"
    " min distinct (cost of links), max(cost of links / 7),"
    " count distinct (site-code of links)",
])
def test_named_shapes_match_the_interpreter(request, text):
    scale = text.startswith(("From tier", "From part"))
    check_statement(request.getfixturevalue(
        "scale" if scale else "university"), text)


def test_sliced_scopes_match_the_interpreter(scale, monkeypatch):
    """With the chunk bound at one binding per ``batch_size`` row, every
    domain is sliced and every owner's decision is re-read between
    slices — the results must not notice."""
    from repro.engine import expressions
    monkeypatch.setattr(expressions, "CHUNK_FACTOR", 1)
    for text in generate(SCALE_VOCABULARY, seed=7)[:12]:
        check_statement(scale, text)


# ----------------------------------------------- work moved to compile time

class TestCompileTimeCoercion:
    """Regressions for per-row work that now happens once per plan."""

    def test_like_pattern_is_compiled_once(self, university, monkeypatch):
        import re
        compiled = []
        real_compile = re.compile

        def counting_compile(pattern, flags=0):
            compiled.append(pattern)
            return real_compile(pattern, flags)
        monkeypatch.setattr(re, "compile", counting_compile)
        executor = QueryExecutor(university.store, university.qualifier)
        rows = executor.execute(parse_dml(
            'From person Retrieve name Where name like "J%n_Doe"')).rows
        assert compiled.count("J.*n.Doe") == 1
        assert all(name.startswith("J") for (name,) in rows)

    def test_like_still_needs_strings(self, university):
        from repro.errors import TypeMismatchError
        executor = QueryExecutor(university.store, university.qualifier)
        with pytest.raises(TypeMismatchError, match="LIKE"):
            executor.execute(parse_dml(
                'From course Retrieve title Where credits like "3%"'))

    def test_date_literal_is_parsed_once(self, university, monkeypatch):
        from repro.types.dates import SimDate
        parsed = []
        real_parse = SimDate.parse.__func__

        def counting_parse(cls, text):
            parsed.append(text)
            return real_parse(cls, text)
        monkeypatch.setattr(SimDate, "parse", classmethod(counting_parse))
        executor = QueryExecutor(university.store, university.qualifier)
        for where in ('birthdate < "1960-06-15"',
                      '"06/15/1960" > birthdate'):
            del parsed[:]
            rows = executor.execute(parse_dml(
                f"From person Retrieve soc-sec-no Where {where}")).rows
            assert len(parsed) == 1
            assert len(rows) > 1

    def test_malformed_date_literal_raises_before_the_first_row(self):
        from repro.errors import TypeMismatchError
        from repro.workloads import UNIVERSITY_DDL
        empty = Database(UNIVERSITY_DDL, constraint_mode="off")
        with pytest.raises(TypeMismatchError, match="cannot parse date"):
            empty.executor.execute(parse_dml(
                'From person Retrieve name Where birthdate < "someday"'))

    def test_sum_takes_any_sequence_without_copying(self):
        from decimal import Decimal
        from repro.engine.expressions import _sum
        assert _sum((1, 2, 3)) == 6
        assert _sum(iter([1, 2.5])) == 3.5
        assert _sum([Decimal("1.5"), 2.5]) == 4.0
        from repro.errors import TypeMismatchError
        with pytest.raises(TypeMismatchError):
            _sum([1, True])
