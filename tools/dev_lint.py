"""Dependency-free lint fallback for environments without ruff/mypy.

``make lint`` and ``make typecheck`` prefer the real tools when they are
on PATH (configured in ``pyproject.toml``); this script is the degraded
lane the repository can always run.  It parses every Python file with
:mod:`ast` and reports:

* syntax errors;
* unused imports (module scope);
* duplicate top-level definitions;
* ``except:`` without an exception class;
* tabs in indentation and trailing whitespace;
* lines longer than the configured limit;
* regex syntax newer than Python 3.9 — possessive quantifiers (``*+``,
  ``++``, ``?+``, ``}+``) and atomic groups (``(?>``) — in the string
  pieces of a pattern passed to ``re.compile``/``re.match``/…, module
  constants it names included: the repository supports 3.9.

When the paths include engine source, the SIM3xx concurrency lint
(:mod:`repro.analysis.concurrency`) runs as part of the same sweep, so
``make lint`` gates lock discipline even without ruff installed.

Usage::

    python tools/dev_lint.py [--line-length N] [--no-concurrency] [paths...]

Exit status 1 when any finding is reported, 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterator, List, Optional, Tuple

# Self-bootstrapping: CI and bare `python tools/dev_lint.py` runs have no
# PYTHONPATH; the concurrency pass needs the repro package importable.
_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

Finding = Tuple[str, int, str]


def iter_python_files(paths: List[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path) and path.endswith(".py"):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = [d for d in dirs
                       if d not in ("__pycache__", ".git", ".ruff_cache")]
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _imported_names(node: ast.AST) -> List[Tuple[str, int]]:
    names = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names.append((bound, node.lineno))
    elif isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return names        # compiler directives, not bindings
        for alias in node.names:
            if alias.name == "*":
                continue
            names.append((alias.asname or alias.name, node.lineno))
    return names


def _used_names(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # "repro.analysis.cli" used as "repro.analysis" — the root
            # Name node covers it; nothing extra to record.
            pass
    # Names re-exported via __all__ strings count as used.
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) \
                        and isinstance(element.value, str):
                    used.add(element.value)
    return used


_RE_FUNCTIONS = frozenset(("compile", "match", "fullmatch", "search",
                           "findall", "finditer", "sub", "subn", "split"))


def newer_regex_syntax(pattern: str) -> Optional[str]:
    """The first construct of ``pattern`` that ``re`` reads only from
    Python 3.11 on, outside escapes and character classes."""
    at, in_class = 0, False
    while at < len(pattern):
        char = pattern[at]
        if char == "\\":
            at += 1
        elif in_class:
            in_class = char != "]"
        elif char == "[":
            in_class = True
            at += pattern.startswith("^", at + 1)
            at += pattern.startswith("]", at + 1)     # a literal ']'
        elif pattern.startswith("(?>", at):
            return "atomic group '(?>'"
        elif char in "*+?}" and pattern.startswith("+", at + 1):
            return f"possessive quantifier '{char}+'"
        at += 1
    return None


def _regex_findings(path: str, tree: ast.AST) -> List[Finding]:
    """Newer-than-3.9 regex syntax in patterns passed to ``re``."""
    constants: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value
    findings: List[Finding] = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and call.args
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _RE_FUNCTIONS
                and getattr(call.func.value, "id", "") == "re"):
            continue
        pending, seen = [call.args[0]], set()
        while pending:
            for node in ast.walk(pending.pop()):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    construct = newer_regex_syntax(node.value)
                    if construct:
                        findings.append((path, call.lineno,
                                         f"{construct} needs Python 3.11"))
                elif isinstance(node, ast.Name) and node.id in constants \
                        and node.id not in seen:
                    seen.add(node.id)
                    pending.append(constants[node.id])
    return findings


def check_file(path: str, line_length: int) -> List[Finding]:
    findings: List[Finding] = []
    with open(path, encoding="utf-8") as handle:
        source = handle.read()

    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.rstrip("\n")
        if stripped != stripped.rstrip():
            findings.append((path, number, "trailing whitespace"))
        indent = stripped[:len(stripped) - len(stripped.lstrip())]
        if "\t" in indent:
            findings.append((path, number, "tab in indentation"))
        if len(stripped) > line_length:
            findings.append(
                (path, number,
                 f"line too long ({len(stripped)} > {line_length})"))

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append((path, exc.lineno or 0, f"syntax error: {exc.msg}"))
        return findings

    used = _used_names(tree)
    for node in tree.body:
        for name, lineno in _imported_names(node):
            if name not in used and not name.startswith("_"):
                findings.append((path, lineno, f"unused import {name!r}"))

    seen = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen:
                findings.append(
                    (path, node.lineno,
                     f"duplicate top-level definition {node.name!r} "
                     f"(first at line {seen[node.name]})"))
            seen[node.name] = node.lineno

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append((path, node.lineno,
                             "bare 'except:'; name the exception class"))
    findings.extend(_regex_findings(path, tree))
    return findings


def concurrency_findings(paths: List[str]) -> List[Finding]:
    """SIM3xx lock-discipline findings, folded into the hygiene sweep."""
    from repro.analysis.concurrency import lint_concurrency_paths
    findings: List[Finding] = []
    for path, diagnostic in lint_concurrency_paths(paths):
        findings.append((path, diagnostic.span.line,
                         f"{diagnostic.code} {diagnostic.severity}: "
                         f"{diagnostic.message}"))
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    parser.add_argument("--line-length", type=int, default=88)
    parser.add_argument("--no-concurrency", action="store_true",
                        help="skip the SIM3xx concurrency lint pass")
    args = parser.parse_args(argv)
    paths = args.paths or ["src/repro"]

    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(paths):
        checked += 1
        findings.extend(check_file(path, args.line_length))
    if not args.no_concurrency:
        findings.extend(concurrency_findings(paths))

    for path, lineno, message in findings:
        print(f"{path}:{lineno}: {message}")
    print(f"{checked} file(s) checked, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
