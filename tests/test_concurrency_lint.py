"""Golden tests for the SIM3xx concurrency lint
(repro.analysis.concurrency) and its CLI wiring.

Each rule gets a positive (fires) and negative (stays silent) snippet;
the sweep test is the acceptance gate — the engine's own source must be
lint-clean after the RankedLock migration.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.concurrency import (
    lint_concurrency_paths,
    lint_concurrency_source,
)
from repro.analysis.diagnostics import RULES
from repro.analysis.lock_order import (
    LOCK_RANKS,
    LOCK_SITES,
    THREADED_CLASSES,
    THREADED_MODULES,
    describe_hierarchy,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def codes(source: str, path: str) -> list:
    return [d.code for d in lint_concurrency_source(source, path)]


class TestSIM300AcquireOutsideWith:
    def test_bare_acquire_fires(self):
        src = "def f(self):\n    self._lock.acquire()\n"
        assert codes(src, "store.py") == ["SIM300"]

    def test_with_block_is_clean(self):
        src = "def f(self):\n    with self._lock:\n        pass\n"
        assert codes(src, "store.py") == []

    def test_semaphore_is_not_a_lock(self):
        src = "def f(self):\n    self._slots.acquire()\n"
        assert codes(src, "server.py") == []

    def test_noqa_suppresses(self):
        src = "def f(self):\n    self._lock.acquire()  # noqa: SIM300\n"
        assert codes(src, "store.py") == []


class TestSIM301RankInversion:
    def test_ascending_nesting_fires(self):
        src = ("def f(self):\n"
               "    with self._lock:\n"              # storage.buffer, 10
               "        with store.commit_latch:\n"  # 36: inversion
               "            pass\n")
        assert codes(src, "buffer.py") == ["SIM301"]

    def test_descending_nesting_is_clean(self):
        src = ("def f(self):\n"
               "    with store.commit_latch:\n"      # 36
               "        with self._mutex:\n"         # mapper.versions, 30
               "            pass\n")
        assert codes(src, "versions.py") == []

    def test_unit_latch_under_class_locks_is_clean(self):
        src = ("def f(self):\n"
               "    with self._cond:\n"              # sessions.class_locks, 50
               "        with record_file.latch:\n"   # store.unit_latch, 42
               "            pass\n")
        assert codes(src, "sessions.py") == []

    def test_unranked_nesting_is_clean(self):
        src = ("def f(self):\n"
               "    with self.whatever_lock:\n"
               "        with self.other_lock:\n"
               "            pass\n")
        assert codes(src, "util.py") == []

    def test_inversion_is_an_error(self):
        src = ("def f(self):\n"
               "    with self._lock:\n"
               "        with store.commit_latch:\n"
               "            pass\n")
        diags = lint_concurrency_source(src, "buffer.py")
        assert diags[0].severity == "error"


class TestSIM302BlockingUnderLock:
    def test_socket_send_under_lock_fires(self):
        src = ("def f(self):\n"
               "    with self._conn_lock:\n"
               "        self.sock.sendall(data)\n")
        assert codes(src, "server.py") == ["SIM302"]

    def test_future_result_under_lock_fires(self):
        src = ("def f(self):\n"
               "    with self._lock:\n"
               "        value = future.result()\n")
        assert codes(src, "parallel.py") == ["SIM302"]

    def test_wal_force_under_lock_fires(self):
        src = ("def f(self):\n"
               "    with self._lock:\n"
               "        self.wal.force()\n")
        assert codes(src, "buffer.py") == ["SIM302"]

    def test_wait_without_timeout_fires(self):
        src = ("def f(self):\n"
               "    while True:\n"
               "        with self._cond:\n"
               "            self._cond.wait()\n")
        assert codes(src, "sessions.py") == ["SIM302"]

    def test_blocking_outside_lock_is_clean(self):
        src = ("def f(self):\n"
               "    with self._lock:\n"
               "        data = prepare()\n"
               "    self.sock.sendall(data)\n")
        assert codes(src, "server.py") == []

    def test_wait_with_timeout_in_loop_is_clean(self):
        src = ("def f(self):\n"
               "    while self.busy:\n"
               "        with self._cond:\n"
               "            self._cond.wait(0.1)\n")
        assert codes(src, "sessions.py") == []


class TestSIM303UnguardedSharedWrite:
    def test_unguarded_write_in_threaded_class_fires(self):
        src = ("class BufferPool:\n"
               "    def grow(self):\n"
               "        self.capacity = 99\n")
        assert codes(src, "buffer.py") == ["SIM303"]

    def test_guarded_write_is_clean(self):
        src = ("class BufferPool:\n"
               "    def grow(self):\n"
               "        with self._lock:\n"
               "            self.capacity = 99\n")
        assert codes(src, "buffer.py") == []

    def test_init_is_exempt(self):
        src = ("class BufferPool:\n"
               "    def __init__(self):\n"
               "        self.capacity = 99\n")
        assert codes(src, "buffer.py") == []

    def test_unthreaded_class_is_exempt(self):
        src = ("class Widget:\n"
               "    def grow(self):\n"
               "        self.capacity = 99\n")
        assert codes(src, "buffer.py") == []

    def test_def_line_noqa_covers_the_body(self):
        src = ("class BufferPool:\n"
               "    def grow(self):  # noqa: SIM303\n"
               "        self.capacity = 99\n"
               "        self.count = 0\n")
        assert codes(src, "buffer.py") == []

    def test_global_write_in_threaded_module_fires(self):
        src = ("def bump():\n"
               "    global counter\n"
               "    counter = counter + 1\n")
        assert codes(src, "server.py") == ["SIM303"]


class TestSIM304WaitOutsidePredicateLoop:
    def test_wait_outside_while_fires(self):
        src = ("def f(self):\n"
               "    with self._cond:\n"
               "        self._cond.wait(0.1)\n")
        assert codes(src, "sessions.py") == ["SIM304"]

    def test_wait_inside_while_is_clean(self):
        src = ("def f(self):\n"
               "    with self._cond:\n"
               "        while self.pending:\n"
               "            self._cond.wait(0.1)\n")
        assert codes(src, "sessions.py") == []

    def test_wait_for_is_exempt(self):
        src = ("def f(self):\n"
               "    with self._cond:\n"
               "        self._cond.wait_for(lambda: True, timeout=0.1)\n")
        assert codes(src, "sessions.py") == []


class TestFramework:
    def test_sim3xx_codes_are_catalogued(self):
        for code in ("SIM300", "SIM301", "SIM302", "SIM303", "SIM304"):
            assert code in RULES
        assert RULES["SIM301"].severity == "error"

    def test_diagnostics_carry_concurrency_source(self):
        src = "def f(self):\n    self._lock.acquire()\n"
        diag = lint_concurrency_source(src, "store.py")[0]
        assert diag.source == "concurrency"
        assert diag.span.line == 2

    def test_hierarchy_is_strictly_ordered(self):
        ranks = sorted(LOCK_RANKS.values())
        assert len(set(ranks)) == len(ranks)
        assert LOCK_RANKS["storage.wal"] == min(ranks)
        assert LOCK_RANKS["storage.wal"] < LOCK_RANKS["storage.buffer"]
        assert LOCK_RANKS["store.commit_latch"] \
            < LOCK_RANKS["store.unit_latch"] \
            < LOCK_RANKS["sessions.class_locks"]
        text = describe_hierarchy()
        assert "storage.wal" in text.splitlines()[0]

    def test_hierarchy_names_only_live_locks(self):
        """Every rank is some ``ranked_lock("<name>")`` literal, and every
        site module, threaded module and threaded class is in the source,
        so a deleted lock cannot leave its rank or its table rows behind."""
        import ast
        from repro.analysis.concurrency import _python_files
        literals, classes, modules = set(), set(), set()
        for path in _python_files([SRC_REPRO]):
            modules.add(os.path.basename(path))
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    classes.add(node.name)
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "ranked_lock"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    literals.add(node.args[0].value)
        assert set(LOCK_RANKS) == literals, set(LOCK_RANKS) ^ literals
        assert set(LOCK_SITES) <= modules, set(LOCK_SITES) - modules
        assert THREADED_MODULES <= modules, THREADED_MODULES - modules
        assert THREADED_CLASSES <= classes, THREADED_CLASSES - classes

    def test_syntax_error_is_reported_not_raised(self):
        diags = lint_concurrency_source("def broken(:\n", "bad.py")
        assert len(diags) == 1
        assert diags[0].severity == "error"


class TestSweep:
    def test_src_repro_is_lint_clean(self):
        """The acceptance gate: zero findings over the engine source."""
        reported = lint_concurrency_paths([SRC_REPRO])
        assert reported == [], "\n".join(
            d.describe(p) for p, d in reported)

    def test_sweep_visits_the_migrated_modules(self):
        from repro.analysis.concurrency import _python_files
        names = {os.path.basename(p) for p in _python_files([SRC_REPRO])}
        assert {"sessions.py", "store.py", "versions.py", "buffer.py",
                "read_cache.py", "server.py"} <= names


    def test_threaded_modules_name_engine_modules(self):
        """SIM303 audits the modules named in ``THREADED_MODULES``; a
        name that matches no file would audit nothing."""
        from repro.analysis.concurrency import _python_files
        names = {os.path.basename(p) for p in _python_files([SRC_REPRO])}
        assert THREADED_MODULES <= names, THREADED_MODULES - names


class TestCLI:
    def test_concurrency_flag_routes_and_exits_zero(self, capsys):
        from repro.analysis.cli import main
        status = main(["--concurrency", SRC_REPRO])
        out = capsys.readouterr().out
        assert status == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_strict_mode_fails_on_warnings(self, tmp_path, capsys):
        bad = tmp_path / "buffer.py"
        bad.write_text("class BufferPool:\n"
                       "    def grow(self):\n"
                       "        self.capacity = 99\n")
        from repro.analysis.cli import main
        assert main(["--concurrency", str(bad)]) == 0
        capsys.readouterr()
        assert main(["--concurrency", "--strict", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SIM303" in out

    def test_error_findings_fail_without_strict(self, tmp_path, capsys):
        bad = tmp_path / "buffer.py"
        bad.write_text("def f(self):\n"
                       "    with self._lock:\n"
                       "        with store.commit_latch:\n"
                       "            pass\n")
        from repro.analysis.cli import main
        assert main(["--concurrency", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SIM301" in out

    def test_dev_lint_includes_concurrency_pass(self, tmp_path, capsys):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "dev_lint", os.path.join(REPO_ROOT, "tools", "dev_lint.py"))
        dev_lint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(dev_lint)
        bad = tmp_path / "buffer.py"
        bad.write_text("class BufferPool:\n"
                       "    def grow(self):\n"
                       "        self.capacity = 99\n")
        assert dev_lint.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SIM303" in out
        assert dev_lint.main(["--no-concurrency", str(bad)]) == 0
