"""Structural guards on the Mapper's read path (AST-based, like
``tools/dev_lint.py``): the snapshot/physical twins, the unvalidated
cache fill and the second time axis must not grow back.

* ``versions.lookup`` is called from ONE function under
  ``src/repro/mapper/`` — the read protocol (``MapperStore._read_many``;
  ``_read`` is its one-key case);
* every ``ReadCache.put_*`` call site passes the epoch its reader
  captured before reading, as a local name — never ``cache.epoch`` read
  at the put itself, which would validate nothing;
* every ``ReadCache`` critical section that drops entries also bumps
  ``epoch``, so no fill can slip between the drop and the bump;
* indexes beside writers have ONE mechanism — probe plus the records
  ``versions.changed`` names: the clean/dirty class check it replaced
  (``class_clean``, ``_indexes_exact``) is not spelled anywhere under
  ``src/repro``, and ``_find`` reaches ``scan_class`` in one place, after
  its probe loop (no index, or every probe raced — counted);
* the past is read from the version chains: there is no
  ``mapper/history.py``, and neither the store nor the update engine
  touches anything called ``.history`` (the journal's hook on the write
  path) — ``enable_history`` sets a retention flag and that is all.
"""

from __future__ import annotations

import ast
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAPPER = os.path.join(REPO_ROOT, "src", "repro", "mapper")

#: put method -> positional argument count when the epoch is included
PUT_ARITY = {"put_record": 5, "put_role": 4, "put_fanout": 5,
             "put_record_batch": 3, "put_role_batch": 3,
             "put_fanout_batch": 4}


def _functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _calls(node: ast.AST, attr: str):
    for child in ast.walk(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr):
            yield child


def _name(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", "")


def version_lookup_callers(source: str) -> list:
    """Names of the functions that call ``<...>versions.lookup(...)``."""
    return [function.name for function in _functions(ast.parse(source))
            if any(_name(call.func.value) == "versions"
                   for call in _calls(function, "lookup"))]


def unvalidated_puts(source: str) -> list:
    """``(line, method)`` of every put_* call that omits the epoch or
    does not pass a captured local for it."""
    findings = []
    for method, arity in PUT_ARITY.items():
        for call in _calls(ast.parse(source), method):
            epoch = next((k.value for k in call.keywords
                          if k.arg == "epoch"), None)
            if epoch is None and len(call.args) == arity:
                epoch = call.args[-1]
            if not isinstance(epoch, ast.Name):
                findings.append((call.lineno, method))
    return sorted(findings)


def history_references(source: str) -> list:
    """Lines that read or write an attribute named ``history``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr == "history")


def scans_in_find(source: str) -> list:
    """``"loop"`` / ``"tail"`` for every ``scan_class`` call inside a
    function named ``_find``: within its probe loop, or after it."""
    places = []
    for function in _functions(ast.parse(source)):
        if function.name != "_find":
            continue
        loops = [node for node in ast.walk(function)
                 if isinstance(node, (ast.For, ast.While))]
        for call in sorted(_calls(function, "scan_class"),
                           key=lambda call: call.lineno):
            inside = any(call in ast.walk(loop) for loop in loops)
            places.append("loop" if inside else "tail")
    return places


def drops_without_bump(source: str) -> list:
    """Lines of ``with self._lock:`` blocks that pop or clear a cache
    map without ``self.epoch += 1`` in the same block."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.With):
            continue
        drops = any(_name(call.func.value) in ("_records", "_roles",
                                               "_fanout")
                    for attr in ("pop", "clear")
                    for call in _calls(node, attr))
        bumps = any(isinstance(child, ast.AugAssign)
                    and _name(child.target) == "epoch"
                    for child in ast.walk(node))
        if drops and not bumps:
            findings.append(node.lineno)
    return findings


def _sources(root: str):
    for directory, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path) as handle:
                    yield os.path.relpath(path, root), handle.read()


class TestTheGuardsFire:
    def test_second_lookup_caller_is_reported(self):
        source = ("def _read(self, snap, key):\n"
                  "    return self.versions.lookup(snap, key)\n"
                  "def _record_of_snapshot(self, snap, key):\n"
                  "    versions = self.versions\n"
                  "    return versions.lookup(snap, key)\n"
                  "def unrelated(self, index):\n"
                  "    return index.lookup(3)\n")
        assert version_lookup_callers(source) == ["_read",
                                                  "_record_of_snapshot"]

    def test_put_without_captured_epoch_is_reported(self):
        source = ("def f(cache, epoch):\n"
                  "    cache.put_role('a', 1, None, epoch)\n"
                  "    cache.put_record('a', 1, 'rid', {}, epoch=epoch)\n"
                  "    cache.put_role('a', 1, None)\n"
                  "    cache.put_fanout(7, True, 1, (), cache.epoch)\n")
        assert unvalidated_puts(source) == [(4, "put_role"),
                                            (5, "put_fanout")]

    def test_drop_outside_the_bump_section_is_reported(self):
        source = ("def invalidate(self, key):\n"
                  "    with self._lock:\n"
                  "        self._records.pop(key, None)\n"
                  "    self.epoch += 1\n"
                  "def clear(self):\n"
                  "    with self._lock:\n"
                  "        self._roles.clear()\n"
                  "        self.epoch += 1\n")
        assert drops_without_bump(source) == [2]


    def test_a_scan_inside_the_probe_loop_is_reported(self):
        source = ("def _find(self, probe):\n"
                  "    for _attempt in range(3):\n"
                  "        if self.dirty():\n"
                  "            return list(self.scan_class('a'))\n"
                  "        return probe()\n"
                  "    return list(self.scan_class('a'))\n")
        assert scans_in_find(source) == ["loop", "tail"]

    def test_a_journal_hook_is_reported(self):
        source = ("def enable_history(self):\n"
                  "    self.versions.retain = True\n"
                  "def write_dva(self, surrogate, attr, value):\n"
                  "    if self.history is not None:\n"
                  "        self.store.history.tick()\n")
        assert history_references(source) == [4, 5]


class TestMapperSweep:
    def test_one_function_probes_the_version_map(self):
        callers = [(name, function) for name, source in _sources(MAPPER)
                   for function in version_lookup_callers(source)]
        assert callers == [("store.py", "_read_many")]

    def test_every_cache_fill_is_validated(self):
        assert {name: unvalidated_puts(source)
                for name, source in _sources(os.path.dirname(MAPPER))
                if unvalidated_puts(source)} == {}

    def test_every_invalidation_bumps_inside_its_critical_section(self):
        with open(os.path.join(MAPPER, "read_cache.py")) as handle:
            assert drops_without_bump(handle.read()) == []

    def test_indexes_beside_writers_have_one_mechanism(self):
        for name, source in _sources(os.path.dirname(MAPPER)):
            assert "class_clean" not in source, name
            assert "_indexes_exact" not in source, name
        with open(os.path.join(MAPPER, "store.py")) as handle:
            source = handle.read()
        assert scans_in_find(source) == ["tail"]
        find = next(function for function in _functions(ast.parse(source))
                    if function.name == "_find")
        assert sorted(call.args[0].value for call in _calls(find, "bump")) \
            == ["snapshot_find_overlays", "snapshot_find_scans"]
        count = next(function for function in _functions(ast.parse(source))
                     if function.name == "class_count")
        assert list(_calls(count, "scan_class")) == []

    def test_the_version_chains_are_the_only_time_axis(self):
        assert not os.path.exists(os.path.join(MAPPER, "history.py"))
        for path in (os.path.join(MAPPER, "store.py"),
                     os.path.join(os.path.dirname(MAPPER), "engine",
                                  "updates.py")):
            with open(path) as handle:
                assert history_references(handle.read()) == [], path
