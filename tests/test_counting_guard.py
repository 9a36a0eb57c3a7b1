"""Structural guards on event counting (AST-based, like
``tests/test_read_protocol_guard.py``): there is one way to count, and
the second ways must not grow back.

* every name passed to ``<...>perf.bump(...)`` under ``src/repro`` is a
  literal in ``COUNTER_FIELDS`` — the tallies are dicts, which would
  take a typo silently where ``__slots__`` used to raise.  The read
  cache's one keyed-LRU helper counts ``lru.hits`` / ``lru.misses``,
  so the literals checked there are the ``_LRU(...)`` instantiations';
* no totals field has a second, span-only name: ``trace.count`` is for
  the per-unit names that have no field (``mapper.decoded[<class>]``,
  ``storage.mutated[<unit>]``) and a span shows a field's events — block
  I/O and WAL forces included — as what its frame counted;
* one warmed snapshot-session Retrieve of the ``oltp_session``
  instructor query takes the counter lock exactly once (34 ``bump``s
  and 3 ``as_dict()`` copies before the statement became the unit of
  accounting);
* that Retrieve, the ``oltp_session`` course traversal and an
  instructor read of a key not read before stay inside a written
  budget of versioned unit reads, read-cache lock acquisitions, name
  canonicalisations, copy-protocol copies and record reads off a page,
  and lex nothing (a plan-cache hit keys on the text's literal
  skeleton);
* a snapshot scan with no writer in sight never takes the version
  manager's mutex.
"""

from __future__ import annotations

import ast
import copy
import os
import sys

from repro import lexer, naming
from repro.mapper.store import MapperStore
from repro.perf import COUNTER_FIELDS
from repro.storage.files import RecordFile
from repro.workloads import build_university

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")


def _calls(tree: ast.AST, attr: str, receiver: str):
    """Calls of ``<...><receiver>.<attr>(...)``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr):
            owner = node.func.value
            name = owner.attr if isinstance(owner, ast.Attribute) \
                else getattr(owner, "id", "")
            if name == receiver:
                yield node


def _literal(node) -> str:
    return node.value if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else ""


def miscounted_names(source: str) -> list:
    """``(line, what)`` of every ``perf.bump`` whose counter is not a
    literal field name (or the LRU helper's ``lru.hits``/``lru.misses``)
    and of every ``_LRU(...)`` that names a counter no field has."""
    tree = ast.parse(source)
    findings = []
    for call in _calls(tree, "bump", "perf"):
        name = call.args[0]
        if isinstance(name, ast.Attribute) and name.attr in ("hits", "misses") \
                and getattr(name.value, "id", "") == "lru":
            continue
        if _literal(name) not in COUNTER_FIELDS:
            findings.append((call.lineno, ast.unparse(name)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", "") == "_LRU":
            findings += [(node.lineno, ast.unparse(name))
                         for name in node.args[1:3]
                         if _literal(name) not in COUNTER_FIELDS]
    return sorted(findings)


def second_names(source: str) -> list:
    """Lines of ``trace.count("<layer>.<field>")``: a totals field
    counted a second time, under a second name."""
    return sorted(
        call.lineno for call in _calls(ast.parse(source), "count", "trace")
        if _literal(call.args[0]).rsplit(".", 1)[-1] in COUNTER_FIELDS)


def _sources(root: str):
    for directory, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path) as handle:
                    yield os.path.relpath(path, REPO_ROOT), handle.read()


class TestTheGuardsFire:
    def test_a_typo_and_a_computed_name_are_reported(self):
        source = ("def f(self, perf, lru, report, name):\n"
                  "    self.perf.bump('records_decoded')\n"
                  "    perf.bump('record_decoded', 2)\n"
                  "    self.store.perf.bump(name)\n"
                  "    self.perf.bump(lru.hits)\n"
                  "    report.bump('records')\n"
                  "    _LRU(8, 'role_cache_hits', 'role_cache_miss')\n")
        assert miscounted_names(source) == [
            (3, "'record_decoded'"), (4, "name"), (7, "'role_cache_miss'")]

    def test_a_second_name_for_a_field_is_reported(self):
        source = ("def f(self, trace, class_name):\n"
                  "    self.perf.bump('records_decoded')\n"
                  "    trace.count('mapper.records_decoded')\n"
                  "    trace.count(f'mapper.decoded[{class_name}]')\n"
                  "    trace.count('storage.physical_reads')\n"
                  "    trace.count(f'storage.mutated[{class_name}]')\n"
                  "    'a b'.count('records_decoded')\n")
        assert second_names(source) == [3, 5]


class TestSweep:
    def test_every_counted_name_is_a_field(self):
        assert {name: miscounted_names(source)
                for name, source in _sources(SRC)
                if miscounted_names(source)} == {}

    def test_no_field_is_counted_under_a_second_name(self):
        assert {name: second_names(source)
                for name, source in _sources(SRC)
                if second_names(source)} == {}
        with open(os.path.join(SRC, "mapper", "read_cache.py")) as handle:
            assert list(_calls(ast.parse(handle.read()), "count",
                               "trace")) == []


class _CountingLock:
    def __init__(self, lock):
        self.lock = lock
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self.lock.acquire(*args, **kwargs)

    def release(self):
        self.lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


def test_a_statement_takes_the_counter_lock_once():
    database = build_university(departments=4, instructors=12, students=80,
                                courses=24, seed=17)
    session = database.session()
    text = ("From instructor Retrieve name, salary, name of "
            "assigned-department Where employee-nbr = 1001")
    for _ in range(3):      # plan-epoch moves and cache fills
        session.execute(text)
    perf = database.perf
    lock = perf._lock = _CountingLock(perf._lock)
    try:
        result = session.execute(text)
    finally:
        perf._lock = lock.lock
    assert len(result.rows) == 1
    assert sum(result.perf.as_dict().values()) > 10     # it did count
    assert lock.acquisitions == 1


#: an ``oltp_session`` instructor read of a key no statement before the
#: measured one reads: its plan is cached, its records are not
FRESH_KEY_READ = ("From instructor Retrieve name, salary, name of"
                  " assigned-department Where employee-nbr = 1007")

#: what one statement of each ``oltp_session`` read shape may do on a
#: snapshot session, warmed (or, for :data:`FRESH_KEY_READ`, with its
#: plan warmed only): versioned unit reads, read-cache lock
#: acquisitions, name canonicalisations, template copies through the
#: copy protocol, record reads off a page (``make profile-oltp``
#: prints the same counts per operation) and ``tokenize`` calls.  A
#: plain DVA reads its role's record, which the executor memoizes, so
#: the instructor read fetches its Instructor record once for the
#: filter's ``employee-nbr`` and the target ``salary``, and its
#: ``assigned-department`` hop reads no membership: that record says
#: the instructor holds the role.
READ_BUDGETS = {
    "From instructor Retrieve name, salary, name of assigned-department"
    " Where employee-nbr = 1001": {
        "_read": 4, "lock": 0, "canon": 2, "copy": 0, "record_read": 1,
        "tokenize": 0},
    "From course Retrieve title, name of teachers, name of"
    " students-enrolled Where course-no = 101": {
        "_read": 5, "lock": 0, "canon": 2, "copy": 0, "record_read": 1,
        "tokenize": 0},
    FRESH_KEY_READ: {
        "_read": 4, "lock": 4, "canon": 2, "copy": 0, "record_read": 5,
        "tokenize": 0},
}


def test_a_cached_point_read_stays_inside_its_budget(monkeypatch):
    database = build_university(departments=4, instructors=12, students=80,
                                courses=24, seed=17)
    session = database.session()
    for text in READ_BUDGETS:
        if text != FRESH_KEY_READ:
            for _ in range(3):      # plan-epoch moves and cache fills
                session.execute(text)
    counts = dict.fromkeys(("_read", "canon", "copy", "record_read",
                            "tokenize"), 0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    # Point reads are batches of one: every versioned unit read is a
    # ``_read_many``, every record read off a page a ``read_many``.
    monkeypatch.setattr(MapperStore, "_read_many",
                        counted("_read", MapperStore._read_many))
    monkeypatch.setattr(RecordFile, "read_many",
                        counted("record_read", RecordFile.read_many))
    monkeypatch.setattr(copy, "copy", counted("copy", copy.copy))
    reals = (("canon", naming.canon), ("tokenize", lexer.tokenize))
    for name, module in list(sys.modules.items()):
        for counter, real in reals:
            if name.startswith("repro") \
                    and getattr(module, counter, None) is real:
                monkeypatch.setattr(module, counter, counted(counter, real))
    cache = database.store.read_cache
    lock = _CountingLock(cache._lock)
    monkeypatch.setattr(cache, "_lock", lock)
    spent = {}
    for text in READ_BUDGETS:
        # A write's epoch move expires the session memo, so the read
        # cache, not the memo, serves the measured statement.
        cache.note_write()
        counts.update(dict.fromkeys(counts, 0))
        lock.acquisitions = 0
        assert session.execute(text).rows
        spent[text] = dict(counts, lock=lock.acquisitions)
    assert {text: {name: count for name, count in counts.items()
                   if count > READ_BUDGETS[text][name]}
            for text, counts in spent.items()} \
        == {text: {} for text in READ_BUDGETS}


def test_a_snapshot_scan_with_no_writer_takes_no_version_mutex():
    """Membership is a read of the role records: with no record changed
    since the pin there is nothing to correct and nothing to lock."""
    database = build_university(departments=1, instructors=2, students=4,
                                courses=6, seed=17)
    store = database.store
    versions = store.versions
    snap = store.begin_snapshot()
    lock = versions._mutex = _CountingLock(versions._mutex)
    try:
        with store.snapshot_scope(snap):
            scanned = list(store.scan_class("course"))
    finally:
        versions._mutex = lock.lock
        store.end_snapshot(snap)
    assert len(scanned) == 6
    assert lock.acquisitions == 0
