"""The plan cache is exact, not approximately right.

``repro.plan_cache`` reuses one compiled statement for every text of the
same *shape* (its literal skeleton: the text with its literals cut out
and their kinds kept).
These tests pin what that must never change:

* **differential** — every workload query and a seeded generator's
  statements, re-drawn with other literal bindings, give the same rows,
  column labels, ``params``, diagnostics (of the *submitted* text) and
  exceptions cold, warm on an entry another binding filled, and in the
  reference interpreter, across batch sizes, rewrite and snapshots;
* **updates** — cold and warm statement streams leave byte-identical
  databases;
* **invalidation** — every plan-epoch source makes the next execution a
  miss that re-runs the fail-closed verifiers; an unchanged epoch is a
  hit that runs none of them (the guard that a fill never skips one);
* **concurrency** — sessions sharing entries never share per-run state;
* **bounded** — entries are per shape, never per binding, and capped.
"""

from __future__ import annotations

import itertools
import sys
import threading
from decimal import Decimal

import pytest

from repro import Database
from repro.dml import parse_dml
from repro.engine import lockdep
from repro.engine.sessions import Session
from repro.lexer import DECIMAL, NUMBER, STRING, Token, tokenize
from repro.optimizer.physical_plan import PhysicalPlan
from repro.plan_cache import CAPACITY, CompiledStatement, PlanCache
from repro.workloads import UNIVERSITY_QUERIES, build_university
from repro.workloads.generators import (
    populate_scale,
    scale_queries,
    scale_schema,
)

from tests.reference_interpreter import reference_rows
from tests.test_expression_compile import (
    SCALE_VOCABULARY,
    UNIVERSITY_VOCABULARY,
    generate,
)


# ---------------------------------------------------------------- databases

def small_university():
    db = build_university(departments=3, instructors=6, students=14,
                          courses=9, seed=11)
    db.execute('Insert student(name := "Lone Wolf", soc-sec-no := 7,'
               ' student-nbr := 2999)')
    db.execute('Insert instructor(soc-sec-no := 9, employee-nbr := 1998,'
               ' salary := 40000, bonus := 0, birthdate := "1950-01-01")')
    db.execute('Insert course(course-no := 999, title := "Void_Study 100%",'
               ' credits := 1)')
    return db


@pytest.fixture(scope="module")
def university():
    return small_university()


@pytest.fixture(scope="module")
def scale():
    db = Database(scale_schema(3), constraint_mode="off")
    populate_scale(db, 160, chain_depth=3, seed=5)
    db.execute("Insert tier2(key2 := 9001)")
    db.execute("Insert part(asset-key := 9003, part-key := 9003)")
    return db


def counters(db):
    perf = db.perf.as_dict()
    return perf["plan_cache_hits"], perf["plan_cache_misses"]


# ------------------------------------------------------- literal re-drawing

def redraw(text, draw):
    """``text`` with each number/string literal token replaced by
    ``draw(token)`` (source text of the replacement)."""
    assert "\n" not in text
    pieces, position = [], 0
    for token in tokenize(text):
        if token.kind not in (NUMBER, DECIMAL, STRING):
            continue
        start = token.column - 1
        length = len(token.value)
        if token.kind == STRING:
            length += 2 + token.value.count('"')
        pieces += [text[position:start], draw(token)]
        position = start + length
    return "".join(pieces) + text[position:]


def written(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


def bumped(token):
    """Same shape, other values; strings gain quotes and digits."""
    if token.kind == STRING:
        return written('9 "q" ' + token.value)
    return str(Decimal(token.value) + 1)


def negated(token):
    return written(token.value) if token.kind == STRING \
        else f"-{token.value}"


def retyped(token):
    """``5`` -> ``5.0`` -> must not share an entry with either."""
    if token.kind == STRING:
        return written(token.value)
    return f"{token.value}.0" if token.kind == NUMBER \
        else token.value.split(".")[0]


def quoted(token):
    """``5`` -> ``"5"``: usually a different verdict, never a shared plan."""
    return written(token.value)


BINDINGS = (bumped, negated, retyped, quoted)

#: batch_size x rewrite x (latest | snapshot session)
CONFIGURATIONS = list(itertools.product((64, 1, 3), (True, False),
                                        (False, True)))


def outcome(run, text):
    try:
        result = run(text)
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)
    return ("rows", result.rows, list(result.columns),
            [(d.code, d.severity, d.message, d.span)
             for d in result.diagnostics])


def compiled(db, text):
    """What binding gave ``text``: its ``params`` and the codes and
    spans of its diagnostics (or the error compiling it raised)."""
    try:
        entry = db.compile(text)
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)
    return entry.params, [(d.code, d.span) for d in entry.diagnostics]


def check_differential(db, texts):
    session = Session(db)
    saved = (db.executor.batch_size, db.rewrite)
    hits_before, _ = counters(db)
    compared = 0
    try:
        for index, text in enumerate(texts):
            batch, rewrite, snapshot = \
                CONFIGURATIONS[index % len(CONFIGURATIONS)]
            db.executor.batch_size = batch
            db.rewrite = rewrite
            run = session.execute if snapshot else db.execute
            variants = [text] + [redraw(text, draw) for draw in BINDINGS]
            for variant in variants:
                db.plan_cache.clear()
                missed = compiled(db, variant)
                db.plan_cache.clear()
                cold = outcome(run, variant)
                db.plan_cache.clear()
                run_original = outcome(run, text)      # fills the shape
                warm = outcome(run, variant)     # hits it, when same shape
                assert warm == cold, (variant, text)
                assert compiled(db, variant) == missed, (variant, text)
                assert outcome(run, variant) == cold, variant
                if cold[0] == "rows":
                    assert cold[1] == reference_rows(db, variant), variant
                    compared += 1
                assert run_original == outcome(run, text), text
    finally:
        db.executor.batch_size, db.rewrite = saved
    hits_after, _ = counters(db)
    assert compared > len(texts)            # most re-drawn bindings run
    assert hits_after - hits_before > 3 * len(texts)    # and mostly hit


# --------------------------------------------------------- (a) differential

def test_workload_queries_cold_warm_and_reference_agree(university, scale):
    check_differential(university, UNIVERSITY_QUERIES)
    check_differential(scale, scale_queries(3))


def test_generated_university_statements_agree(university):
    check_differential(university, generate(UNIVERSITY_VOCABULARY, 1988))


def test_generated_scale_statements_agree(scale):
    check_differential(scale, generate(SCALE_VOCABULARY, 1988)[:12])


def test_literal_types_do_not_share_an_entry(university):
    db = university
    db.plan_cache.clear()
    texts = ['From course Retrieve title Where credits = 3',
             'From course Retrieve title Where credits = 3.0',
             'From course Retrieve title Where credits = -3',
             'From course Retrieve title Where title = "3"']
    for text in texts:
        assert db.compile(text).cache == "miss", text
    assert len(db.plan_cache) == len(texts)
    assert db.compile(texts[0].replace("3", "4")).cache == "hit"
    # Hyphenated names with digits are names, not literals.
    first = db.compile("From instructor Retrieve name"
                       " Where employee-nbr = 1001")
    assert first.cache == "miss" and first.params == [1001]


def test_diagnostics_belong_to_the_submitted_statement(university):
    db = university
    db.plan_cache.clear()
    clean = db.query("From course Retrieve title Where course-no = 5000")
    assert clean.diagnostics == []
    text = "From course Retrieve title  Where course-no = 99999"
    (warning,) = db.query(text).diagnostics
    assert warning.code == "SIM113" and "99999" in warning.message
    assert (warning.span.line, warning.span.column) == (
        1, text.index("99999") + 1)
    assert db.query(
        "From course Retrieve title Where course-no = 5001").diagnostics == []
    # SIM127, the update-side twin, with the fill on the flagged side.
    db.plan_cache.clear()
    flagged = db.compile("Modify course(course-no := 99999)"
                         " Where course-no = 1")
    assert [d.code for d in flagged.diagnostics] == ["SIM127"]
    assert "outside integer ranges (1..9999)" in flagged.diagnostics[0].message
    clean = db.compile("Modify course(course-no := 5000) Where course-no = 1")
    assert clean.cache == "hit" and clean.diagnostics == []


def test_value_independent_diagnostics_follow_the_submitted_text(
        monkeypatch):
    db = Database("Class team ( name: string[10]; scores: integer mv );")
    first = db.compile("From team Retrieve name Where name = \"a\""
                       " and scores + 1 > 3")
    moved = db.compile("From team Retrieve name Where name = \"abcdef\""
                       " and scores + 1 > 3")
    assert moved.cache == "hit"
    (before,), (after,) = first.diagnostics, moved.diagnostics
    assert before.code == after.code == "SIM111"
    assert after.span.column == before.span.column + 5
    # A hit re-anchors them by the skeleton's offsets, lexing nothing,
    # to the spans an uncached compile of its own text gives.
    db.compile("From team Retrieve name\n  Where name = \"a\" and"
               " scores + 1 > 3 (* 1 *)\n  and 1 < scores + scores")
    text = ("From team Retrieve name\n  Where name = \"x\"\"y\" and"
            " scores + 1 > 3 (* 1 *)\n  and 12345 < scores + scores")
    uncached = db.compile(parse_dml(text))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return tokenize(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", counted)
    hit = db.compile(text)
    assert hit.cache == "hit" and calls == []
    assert [(d.code, d.span) for d in hit.diagnostics] \
        == [(d.code, d.span) for d in uncached.diagnostics]
    assert len(hit.diagnostics) >= 2
    # The entry keeps no token list to re-anchor with.
    assert not [name for name, value in vars(hit.lifted).items()
                if isinstance(value, list)
                and any(isinstance(item, Token) for item in value)]


def test_values_read_at_compile_time_pin_their_slot(university):
    db = university
    db.plan_cache.clear()
    # A literal target is its own column label.
    doubled = db.query("From course Retrieve credits * 2 Where course-no = 101")
    tripled = db.query("From course Retrieve credits * 3 Where course-no = 101")
    assert doubled.columns != tripled.columns
    again = db.compile("From course Retrieve credits * 3 Where course-no = 102")
    assert again.cache == "pinned"
    # So is the constant a vacuous quantifier is warned about.
    three = db.compile("From instructor Retrieve name Where salary = some(3)")
    four = db.compile("From instructor Retrieve name Where salary = some(4)")
    assert four.cache == "miss"
    assert "some(3)" in three.diagnostics[0].message
    assert "some(4)" in four.diagnostics[0].message


def test_analyzed_selectivity_pins_only_non_unique_probes():
    from repro import parse_ddl
    from repro.mapper.physical import PhysicalDesign
    from repro.workloads import UNIVERSITY_DDL
    schema = parse_ddl(UNIVERSITY_DDL)
    design = PhysicalDesign(schema)
    design.add_value_index("course", "credits")
    db = Database(schema, design=design, constraint_mode="off")
    for number, credits in ((1, 3), (2, 3), (3, 4)):
        db.execute(f'Insert course(course-no := {number}, title := "c",'
                   f' credits := {credits})')
    probe = "From course Retrieve title Where credits = {}"
    assert db.compile(probe.format(3)).cache == "miss"
    assert db.compile(probe.format(4)).cache == "hit"
    db.analyze()
    assert db.compile(probe.format(3)).cache == "miss"
    assert db.compile(probe.format(4)).cache == "miss"     # pinned apart
    assert db.compile(probe.format(4)).cache == "pinned"
    assert db.query(probe.format(3)).rows == [("c",), ("c",)]
    unique = "From course Retrieve title Where course-no = {}"
    assert db.compile(unique.format(1)).cache == "miss"
    assert db.compile(unique.format(2)).cache == "hit"


def test_a_statement_that_raises_is_never_cached(university):
    db = university
    db.plan_cache.clear()
    for _ in range(2):
        with pytest.raises(Exception):
            db.execute("From student Retrieve name Where advisor > 3")
        with pytest.raises(Exception, match="cannot parse date"):
            db.execute('From person Retrieve name'
                       ' Where birthdate < "someday"')
    assert len(db.plan_cache) == 0
    # A good date fills the shape; a bad one still fails before a row.
    db.execute('From person Retrieve name Where birthdate < "1960-06-15"')
    with pytest.raises(Exception, match="cannot parse date"):
        db.execute('From person Retrieve name Where birthdate < "someday"')
    assert len(db.plan_cache) == 1


def test_explain_analyze_of_a_hit_repeats_the_fills_plan_lines(university):
    db = university
    db.plan_cache.clear()
    db.enable_tracing()
    try:
        text = ("From instructor Retrieve name, name of assigned-department"
                " Where employee-nbr = {}")
        db.execute(text.format(1003))   # first actuals move the epoch
        miss = db.execute(text.format(1001)).explain_analyze()
        hit = db.execute(text.format(1002)).explain_analyze()
    finally:
        db.disable_tracing(detach=True)
    assert "compile [parser]" in miss and "cache=miss" in miss
    optimize = next(line for line in miss.splitlines()
                    if "optimize [optimizer]" in line)
    plan_facts = optimize.split("ms  ", 1)[1]       # strategy= ... rewrite=
    assert "strategy=index" in plan_facts and "rewrite=" in plan_facts
    compile_line = next(line for line in hit.splitlines()
                        if "compile [parser]" in line)
    assert "cache=hit " + plan_facts in compile_line
    assert "optimize" not in hit and "[qualifier]" not in hit
    estimates = [line.split("actual")[0] for line in miss.splitlines()
                 if " est=" in line]
    assert estimates == [line.split("actual")[0] for line in hit.splitlines()
                         if " est=" in line]
    assert "employee-nbr = 1002" in hit and "employee-nbr = 1001" not in hit


def test_traced_sessions_label_their_own_statements(university):
    """The rewrite line and the strategies-considered count travel on the
    Plan, not on the Optimizer every session shares."""
    db = university
    db.plan_cache.clear()
    db.enable_tracing()
    try:
        alice, bob = db.session(), db.session()
        pruned = ("From person Retrieve name"
                  " Where person isa instructor and soc-sec-no > {}")
        plain = "From course Retrieve title Where course-no = {}"
        spans = {}
        for round_no in range(3):       # fills, then hits, interleaved
            for owner, session, text in (("alice", alice, pruned),
                                         ("bob", bob, plain)):
                result = session.execute(text.format(round_no))
                spans[owner, round_no] = result.explain_analyze()
    finally:
        db.disable_tracing(detach=True)
    assert "cache=hit" in spans["alice", 2] and "cache=hit" in spans["bob", 2]
    for round_no in range(3):
        assert "rewrite=subclass(person->instructor)" in spans["alice",
                                                               round_no]
        assert "strategy=subclass" in spans["alice", round_no]
        assert "rewrite=none" in spans["bob", round_no]
        assert "strategy=subclass" not in spans["bob", round_no]
    assert not hasattr(db.optimizer, "_last_rewrite")
    assert not hasattr(db.optimizer, "_considered")


def test_statistics_report_the_cache(university):
    db = university
    db.plan_cache.clear()
    before = db.statistics()["read_path"]
    db.query("From course Retrieve title Where course-no = 101")
    db.query("From course Retrieve title Where course-no = 102")
    after = db.statistics()["read_path"]
    assert after["plan_cache_misses"] - before["plan_cache_misses"] == 1
    assert after["plan_cache_hits"] - before["plan_cache_hits"] == 1
    assert after["plan_cache_entries"] == len(db.plan_cache) == 1
    db.plan_cache.clear()
    assert db.statistics()["read_path"]["plan_cache_invalidations"] \
        == after["plan_cache_invalidations"] + 1
    with db.serve() as server:
        assert server.statistics()["plan_cache_entries"] == 0


# -------------------------------------------------------------- (b) updates

UPDATE_STREAM = [
    'Insert course(course-no := 5000, title := "Plan A", credits := 3)',
    'Insert course(course-no := 5001, title := "Plan ""B"" 2", credits := 4)',
    'Insert course(course-no := 99999, title := "Too far", credits := 3)',
    'Modify course(course-no := 5000) Where course-no = 5001',
    'Insert course(course-no := 5002, title := "Plan C", credits := 99)',
    'Modify instructor(salary := 1.1 * salary) Where employee-nbr = 1001',
    'Modify instructor(salary := 1.2 * salary) Where employee-nbr = 1002',
    'Modify instructor(salary := salary + 1) Where salary > 50000',
    'Modify instructor(salary := salary + 2) Where salary > 60000',
    'Modify course(title := "Seminar 12") Where course-no = 5000',
    'Modify course(title := "Seminar ""13""") Where course-no = 5001',
    'Modify course(course-no := 99999) Where course-no = 5001',
    'Modify student(advisor := instructor with (employee-nbr = 1001))'
    ' Where student-nbr = 2001',
    'Modify student(advisor := instructor with (employee-nbr = 1002))'
    ' Where student-nbr = 2002',
    'Modify student(advisor := instructor with (employee-nbr = 7777))'
    ' Where student-nbr = 2003',
    'Modify student(courses-enrolled := include course with'
    ' (course-no = 5000)) Where student-nbr = 2001',
    'Modify student(courses-enrolled := include course with'
    ' (course-no = 5001)) Where student-nbr = 2002',
    'Modify student(courses-enrolled := exclude courses-enrolled with'
    ' (credits > 3)) Where student-nbr = 2002',
    'Modify student(courses-enrolled := exclude courses-enrolled with'
    ' (credits > 2)) Where student-nbr = 2001',
    'Insert teaching-assistant From student Where student-nbr = 2004'
    ' (employee-nbr := 1901, teaching-load := 3)',
    'Insert teaching-assistant From student Where student-nbr = 2005'
    ' (employee-nbr := 1902, teaching-load := 4)',
    'Delete course Where course-no = 5001',
    'Delete course Where course-no = 5000',
    'Delete course Where course-no = 4242',
]


def run_stream(front_door: str, cold: bool):
    db = build_university(departments=3, instructors=6, students=14,
                          courses=9, seed=11)
    session = db.session() if front_door == "session" else None
    outcomes = []
    for text in UPDATE_STREAM:
        if cold:
            db.plan_cache.clear()
        warnings = [(d.code, d.message, d.span)
                    for d in db.compile(text).diagnostics]
        if cold:
            db.plan_cache.clear()
        try:
            if session is None:
                result = db.execute(text)
            else:
                result = session.execute(text)
                session.commit()
        except Exception as exc:
            if session is not None:
                session.abort()
            result = (type(exc).__name__, str(exc))
        outcomes.append((text, warnings, result))
    assert db.check().ok
    db.store.pool.flush()
    image = {key: (block.used, block.slots)
             for key, block in db.store.disk._blocks.items()}
    return outcomes, image, counters(db)


@pytest.mark.parametrize("front_door", ["database", "session"])
def test_update_streams_leave_byte_identical_databases(front_door):
    cold, cold_image, (cold_hits, _) = run_stream(front_door, cold=True)
    warm, warm_image, (warm_hits, _) = run_stream(front_door, cold=False)
    assert cold == warm
    assert cold_image == warm_image
    assert cold_hits == 0 < len(UPDATE_STREAM) < warm_hits
    by_text = {text: (warnings, result) for text, warnings, result in warm}
    # The stream is not vacuous: writes land, integrity errors fire, and
    # the SIM127 pair keeps its two verdicts on one shape.
    assert sum(1 for _, _, result in warm if result == 1) >= 12
    assert sum(1 for _, _, result in warm if isinstance(result, tuple)) >= 4
    assert by_text[UPDATE_STREAM[0]][0] == []
    assert [code for code, _, _ in by_text[UPDATE_STREAM[2]][0]] == ["SIM127"]


# --------------------------------------------------------- (c) invalidation

@pytest.fixture()
def counted(monkeypatch):
    """A database whose fail-closed verifiers count their calls."""
    import repro.analysis
    import repro.analysis.plan_verify
    import repro.engine.executor
    calls = {"verify_plan": 0, "verify_physical": 0, "SIM401": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counting(repro.analysis, "verify_plan", "verify_plan")
    counting(repro.engine.executor, "verify_physical", "verify_physical")
    counting(repro.analysis.plan_verify, "_verify_subclass_path", "SIM401")
    db = build_university(departments=3, instructors=6, students=14,
                          courses=9, seed=11)
    return db, calls


PRUNED = ("From person Retrieve name"
          " Where person isa instructor and soc-sec-no > {}")


def test_every_epoch_source_reruns_the_verifiers(counted):
    db, calls = counted
    bindings = itertools.count()

    def run():
        before = dict(calls)
        result = db.compile(PRUNED.format(next(bindings)))
        assert db.query(PRUNED.format(next(bindings))).rows is not None
        return result.cache, {key: calls[key] - before[key] for key in calls}

    once = {"verify_plan": 1, "verify_physical": 1, "SIM401": 1}
    never = {"verify_plan": 0, "verify_physical": 0, "SIM401": 0}
    assert run() == ("miss", once)
    assert run() == ("hit", never)          # unchanged epoch: none re-run

    def flip(owner, knob, value):
        def source():
            setattr(owner, knob, value)
        return source

    sources = {
        "clear": db.plan_cache.clear,
        "analyze": db.analyze,
        "declare": lambda: db.materialize(
            "pre", "closure", "course", ["prerequisites"]),
        "refresh": lambda: db.refresh_materialization("pre"),
        "drop": lambda: db.drop_materialization("pre"),
        "batch_size": flip(db.executor, "batch_size", 7),
        "rewrite": flip(db, "rewrite", False),
    }
    for name, source in sources.items():
        epoch = db.plan_cache.epoch
        source()
        cache, delta = run()
        assert cache == "miss", name
        assert delta["verify_plan"] == delta["verify_physical"] == 1, name
        if db.rewrite:
            assert delta["SIM401"] == 1, name
        if name not in ("batch_size", "rewrite"):
            assert db.plan_cache.epoch > epoch, name    # knobs are in the key
        assert run() == ("hit", never), name
    db.use_optimizer = False
    assert run() == ("miss", {"verify_plan": 1, "verify_physical": 1,
                              "SIM401": 0})
    assert run() == ("hit", never)


def test_cardinality_drift_moves_the_plan_epoch(counted):
    db, calls = counted
    empty = Database(db.schema.ddl(), constraint_mode="off")
    text = "From course Retrieve title Where credits > {}"
    assert empty.compile(text.format(1)).cache == "miss"
    assert empty.compile(text.format(2)).cache == "hit"
    for number in range(1, 4):
        empty.execute(f'Insert course(course-no := {number}, title := "c",'
                      f' credits := 3)')
    epoch, before = empty.plan_cache.epoch, calls["verify_plan"]
    assert empty.query(text.format(2)).rows == [("c",)] * 3
    assert empty.plan_cache.epoch == epoch + 1
    assert calls["verify_plan"] == before + 1
    assert empty.compile(text.format(4)).cache == "hit"


def test_learned_fanout_moves_the_plan_epoch():
    db = build_university(departments=3, instructors=6, students=14,
                          courses=9, seed=11)
    db.enable_tracing()
    text = "From student Retrieve name, name of advisor"
    db.query(text)          # first actuals: plans are costed again
    assert db.compile(text).cache == "miss"
    db.query(text)          # same actuals: no drift
    assert db.compile(text).cache == "hit"


# ---------------------------------------------------------- (d) concurrency

def test_sessions_share_entries_but_never_per_run_state(monkeypatch):
    db = build_university(departments=3, instructors=8, students=30,
                          courses=12, seed=5)
    point = ("From instructor Retrieve employee-nbr, name"
             " Where employee-nbr = {}")
    hop = ("From course Retrieve course-no, name of teachers"
           " Where course-no = {}")
    expected = {}
    for key in range(1001, 1009):
        expected[point.format(key)] = db.query(point.format(key)).rows
    for key in range(101, 113):
        expected[hop.format(key)] = db.query(hop.format(key)).rows
    texts = sorted(expected)
    templates = [db.compile(point.format(1001)).physical,
                 db.compile(hop.format(101)).physical]

    local = threading.local()
    real_fresh = PhysicalPlan.fresh

    def recording_fresh(self):
        local.instance = real_fresh(self)
        return local.instance
    monkeypatch.setattr(PhysicalPlan, "fresh", recording_fresh)

    failures = []
    violations_before = list(lockdep.violations())

    def client(index: int) -> None:
        try:
            session = db.session()
            for step in range(500):
                text = texts[(index * 7 + step * 3) % len(texts)]
                rows = session.execute(text).rows
                sink = local.instance.operators[-1]
                if rows != expected[text] or sink.rows_out != len(rows):
                    failures.append((text, rows, sink.rows_out))
                if step == 250 and index == 0:
                    db.plan_cache.clear()   # evicted mid-flight: harmless
        except Exception as exc:    # pragma: no cover
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for template in templates:      # templates are copied, never run
        assert all(op.batches == op.rows_in == op.rows_out == 0
                   for op in template.operators)
    assert lockdep.violations() == violations_before
    hits, misses = counters(db)
    assert hits > 1900 and misses < 40


# -------------------------------------------------------------- (e) bounded

def test_ten_thousand_shapes_stay_within_capacity():
    class Stub:     # what the cache asks of its database, nothing else
        use_optimizer = rewrite = True
        executor = type("E", (), {"batch_size": 64})
        store = build_university(departments=1, instructors=1, students=1,
                                 courses=1, seed=1).store

        def _compile_statement(self, statement):
            return CompiledStatement(statement)

    from repro.dml.ast import Lifted
    cache = PlanCache(Stub())
    for shape in range(10_000):
        lifted = Lifted(1)
        lifted.pinned.clear()
        bound = cache.bind(("shape", shape, int), [shape], [0], "",
                           lambda: (object(), lifted))
        assert bound.cache == "miss" and len(cache) <= CAPACITY
    assert len(cache) == CAPACITY == len(cache._tables[1])
    newest = cache.bind(("shape", 9_999, int), [1], [0], "", None)
    assert newest.cache == "hit" and newest.params == [1]


def test_entries_are_per_shape_not_per_binding(university):
    db = university
    db.plan_cache.clear()
    for key in range(10_000):
        db.compile(f"From course Retrieve title Where course-no = {key}")
    assert len(db.plan_cache) == 1
    attributes = ("name", "student-nbr", "birthdate", "soc-sec-no")
    for size in range(1, len(attributes) + 1):
        for chosen in itertools.permutations(attributes, size):
            db.compile(f"From student Retrieve {', '.join(chosen)}")
    assert len(db.plan_cache) == 1 + 64
