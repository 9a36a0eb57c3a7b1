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
* lines longer than the configured limit.

Syntax newer than Python 3.9, the oldest version the repository
supports — regex patterns included, which are compiled at import — is
``make compat39``'s to catch: it imports every module under 3.9.

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
from typing import Iterator, List, Tuple

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
