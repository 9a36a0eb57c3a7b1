"""Concurrency lint: SIM3xx lock-discipline checks over Python source.

PR 3's simcheck turned *query* correctness rules into stable, mechanical
diagnostics; this module does the same for the engine's *concurrency*
rules, so the move to finer-grained locking has a gate.  The checks run
over the engine's own source with ``ast`` — no imports, no execution —
driven by the declared lock hierarchy in :mod:`repro.analysis.lock_order`:

``SIM300``
    a ``.acquire()`` call on a lock-like attribute outside a ``with``
    statement (manual acquire/release pairs leak on exceptions).
``SIM301``
    a ``with`` on a ranked lock lexically nested inside a ``with`` on a
    lower-or-equal-ranked lock — an inversion of the declared
    descending-acquisition order that runtime lockdep would reject.
``SIM302``
    a blocking call (socket I/O, ``Future.result``, ``WAL.force``,
    ``Condition.wait`` without a timeout) lexically inside a ``with``
    on a lock — the classic latency/deadlock amplifier.
``SIM303``
    an assignment to instance state of a known-threaded class (or a
    ``global`` write in a known-threaded module) with no guarding
    ``with <lock>:`` in scope; ``__init__`` is exempt.
``SIM304``
    a ``Condition.wait``/``wait_for``-less bare ``wait`` call not
    enclosed in a ``while`` predicate loop — spurious wakeups fall
    through to stale state.

Findings are ordinary :class:`~repro.analysis.diagnostics.Diagnostic`
records (``source="concurrency"``), so the CLI and the CI lanes consume
them unchanged.  Suppression: a trailing
``# noqa: SIM30x`` on the offending line; for SIM303 the ``def`` line
of the enclosing function also works (one escape hatch per
caller-holds-the-lock helper, not per statement).
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, DiagnosticSink
from repro.analysis.lock_order import (
    BLOCKING_CALLS,
    CONDITION_HINTS,
    LOCK_RANKS,
    THREADED_CLASSES,
    THREADED_MODULES,
    is_lock_name,
    site_rank,
)
from repro.lexer import Span

_NOQA_RE = re.compile(r"#\s*noqa:\s*([A-Z0-9, ]+)")


def _noqa_lines(source: str) -> Dict[int, Set[str]]:
    """line number -> set of SIM codes suppressed on that line."""
    table: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",")}
            table[number] = {c for c in codes if c}
    return table


def _dotted(node: ast.AST) -> Optional[str]:
    """``self._lock`` / ``store.commit_latch`` as a dotted string, else
    None for anything that is not a simple attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _HeldLock:
    """One lexically-entered ``with <lock>:`` scope."""

    __slots__ = ("dotted", "lock_class", "rank", "line")

    def __init__(self, dotted: str, lock_class: Optional[str], line: int):
        self.dotted = dotted
        self.lock_class = lock_class
        self.rank = LOCK_RANKS.get(lock_class) if lock_class else None
        self.line = line


class _ConcurrencyVisitor(ast.NodeVisitor):
    def __init__(self, module_basename: str, sink: DiagnosticSink):
        self.module = module_basename
        self.sink = sink
        self.held: List[_HeldLock] = []
        #: stack of (function node, enclosing class name or None)
        self.functions: List[Tuple[ast.AST, Optional[str]]] = []
        self.class_stack: List[str] = []
        self.while_depth = 0

    # -- helpers -------------------------------------------------------

    def _emit(self, code: str, message: str, node: ast.AST,
              hint: Optional[str] = None) -> None:
        span = Span(getattr(node, "lineno", 0),
                    getattr(node, "col_offset", 0) + 1)
        self.sink.emit(code, message, span, hint)

    def _in_init(self) -> bool:
        return bool(self.functions) and isinstance(
            self.functions[-1][0],
            (ast.FunctionDef, ast.AsyncFunctionDef)) \
            and self.functions[-1][0].name == "__init__"

    # -- structure -----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        enclosing = self.class_stack[-1] if self.class_stack else None
        self.functions.append((node, enclosing))
        # A nested function body does not inherit the lexical lock scope:
        # it usually runs later, on another thread or after release.
        saved_held, self.held = self.held, []
        saved_while, self.while_depth = self.while_depth, 0
        self.generic_visit(node)
        self.held = saved_held
        self.while_depth = saved_while
        self.functions.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_While(self, node: ast.While) -> None:
        self.while_depth += 1
        self.generic_visit(node)
        self.while_depth -= 1

    def visit_With(self, node: ast.With) -> None:
        entered: List[_HeldLock] = []
        for item in node.items:
            expr = item.context_expr
            dotted = _dotted(expr)
            if dotted is None or not is_lock_name(dotted):
                continue
            lock_class = site_rank(self.module, dotted)
            held = _HeldLock(dotted, lock_class, node.lineno)
            self._check_inversion(held, expr)
            entered.append(held)
        self.held.extend(entered)
        self.generic_visit(node)
        for _ in entered:
            self.held.pop()

    def _check_inversion(self, new: _HeldLock, node: ast.AST) -> None:
        if new.rank is None:
            return
        for outer in self.held:
            if outer.rank is None or outer.dotted == new.dotted:
                continue
            if new.rank >= outer.rank:
                self._emit(
                    "SIM301",
                    f"acquiring {new.lock_class!r} (rank {new.rank}) "
                    f"inside {outer.lock_class!r} (rank {outer.rank}) "
                    f"inverts the declared order",
                    node,
                    hint="acquire in descending rank: see "
                         "analysis/lock_order.py")

    # -- calls (SIM300, SIM302, SIM304) --------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _dotted(func.value)
            method = func.attr
            if method == "acquire" and receiver \
                    and is_lock_name(receiver):
                self._emit(
                    "SIM300",
                    f"{receiver}.acquire() outside a with block leaks "
                    f"the lock on any exception before release",
                    node,
                    hint=f"use `with {receiver}:`")
            if method in ("wait", "wait_for") and receiver \
                    and self._is_condition(receiver):
                self._check_wait(node, receiver, method)
            if self.held and method in BLOCKING_CALLS and receiver:
                hints = BLOCKING_CALLS[method]
                low = receiver.lower()
                if any(h in low for h in hints):
                    holder = self.held[-1]
                    self._emit(
                        "SIM302",
                        f"{receiver}.{method}() may block while "
                        f"{holder.dotted} (entered line {holder.line}) "
                        f"is held",
                        node,
                        hint="move the blocking call outside the lock "
                             "or bound it with a timeout")
        self.generic_visit(node)

    def _is_condition(self, receiver: str) -> bool:
        leaf = receiver.rsplit(".", 1)[-1].lower()
        return any(h in leaf for h in CONDITION_HINTS)

    def _check_wait(self, node: ast.Call, receiver: str,
                    method: str) -> None:
        has_timeout = bool(node.keywords) or (
            method == "wait" and len(node.args) >= 1) or (
            method == "wait_for" and len(node.args) >= 2)
        if method == "wait" and not has_timeout:
            self._emit(
                "SIM302",
                f"{receiver}.wait() without a timeout blocks "
                f"indefinitely while holding the condition's lock",
                node,
                hint="pass a timeout slice, or use wait_for with one")
        if method == "wait" and self.while_depth == 0:
            self._emit(
                "SIM304",
                f"{receiver}.wait() outside a while predicate loop: a "
                f"spurious wakeup falls through with stale state",
                node,
                hint="loop `while not predicate: wait(...)`, or use "
                     "wait_for")

    # -- shared-state writes (SIM303) ----------------------------------

    def _current_threaded_class(self) -> Optional[str]:
        if not self.functions:
            return None
        enclosing = self.functions[-1][1]
        if enclosing in THREADED_CLASSES:
            return enclosing
        return None

    def _check_self_write(self, target: ast.AST, node: ast.AST) -> None:
        owner = self._current_threaded_class()
        if owner is None or self._in_init() or self.held:
            return
        dotted = _dotted(target)
        if dotted is None or not dotted.startswith("self."):
            return
        if is_lock_name(dotted):
            return  # installing the lock itself
        self._emit(
            "SIM303",
            f"write to {dotted} in threaded class {owner} with no "
            f"guarding lock in scope",
            node,
            hint="wrap in `with <lock>:` or mark the helper "
                 "`# noqa: SIM303` if the caller holds it")

    def _check_global_write(self, name: str, node: ast.AST) -> None:
        if self.module not in THREADED_MODULES or self.held:
            return
        if not self.functions:
            return  # module top level runs at import, single-threaded
        declared_global = any(
            isinstance(stmt, ast.Global) and name in stmt.names
            for stmt in ast.walk(self.functions[-1][0]))
        if declared_global:
            self._emit(
                "SIM303",
                f"write to module global {name!r} in threaded module "
                f"{self.module} with no guarding lock in scope",
                node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for leaf in self._assign_leaves(target):
                if isinstance(leaf, ast.Attribute):
                    self._check_self_write(leaf, node)
                elif isinstance(leaf, ast.Name):
                    self._check_global_write(leaf.id, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._check_self_write(node.target, node)
        elif isinstance(node.target, ast.Name):
            self._check_global_write(node.target.id, node)
        self.generic_visit(node)

    def _assign_leaves(self, target: ast.AST) -> Iterable[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._assign_leaves(element)
        else:
            yield target


def _suppressed(diagnostic: Diagnostic, noqa: Dict[int, Set[str]],
                def_lines: Dict[int, int]) -> bool:
    line = diagnostic.span.line
    if diagnostic.code in noqa.get(line, ()):
        return True
    if diagnostic.code == "SIM303":
        def_line = def_lines.get(line)
        if def_line is not None and diagnostic.code in noqa.get(
                def_line, ()):
            return True
    return False


def _function_lines(tree: ast.Module) -> Dict[int, int]:
    """Finding line -> innermost enclosing ``def`` line (for def-level
    SIM303 suppression)."""
    table: Dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = getattr(node, "end_lineno", node.lineno)
            for line in range(node.lineno, end + 1):
                # Innermost wins: later (nested) defs overwrite.
                table[line] = node.lineno
    return table


def lint_concurrency_source(source: str,
                            path: str = "<memory>") -> List[Diagnostic]:
    """SIM3xx diagnostics for one Python source text."""
    sink = DiagnosticSink(source="concurrency")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        sink.emit("SIM300",
                  f"cannot parse {path}: {exc}",
                  Span(exc.lineno or 0, (exc.offset or 0) or 1),
                  severity="error")
        return sink.items
    visitor = _ConcurrencyVisitor(os.path.basename(path), sink)
    visitor.visit(tree)
    noqa = _noqa_lines(source)
    def_lines = _function_lines(tree)
    return [d for d in sink.sorted()
            if not _suppressed(d, noqa, def_lines)]


def _python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
    return files


def lint_concurrency_paths(paths: Iterable[str]
                           ) -> List[Tuple[str, Diagnostic]]:
    """Sweep files/directories; returns (path, diagnostic) pairs."""
    reported: List[Tuple[str, Diagnostic]] = []
    for file_path in _python_files(paths):
        with open(file_path) as handle:
            source = handle.read()
        reported.extend((file_path, d)
                        for d in lint_concurrency_source(source, file_path))
    return reported
