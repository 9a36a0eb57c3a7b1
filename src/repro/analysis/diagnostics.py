"""Shared diagnostics framework for simcheck (the static analyzers).

Every rule has a stable ``SIM***`` code, a default severity, and a short
title.  Analyzers emit :class:`Diagnostic` records — code, severity,
message, source span (reusing the lexer's token positions) and an optional
fix-it hint — into a :class:`DiagnosticSink`.  The database front end turns
error-severity diagnostics into typed exceptions (see
:func:`raise_for_errors`); warnings and notes ride along on result sets
and the lint CLI.

Code ranges:

* ``SIM0xx`` — schema lint (:mod:`repro.analysis.schema_lint`)
* ``SIM1xx`` — query/update lint (:mod:`repro.analysis.query_lint`);
  ``SIM10x`` qualification, ``SIM11x`` type checking, ``SIM12x`` updates
* ``SIM2xx`` — plan verification (:mod:`repro.analysis.plan_verify`)
* ``SIM3xx`` — concurrency lint (:mod:`repro.analysis.concurrency`):
  lock-discipline checks over the engine's own source, driven by the
  declared rank hierarchy in :mod:`repro.analysis.lock_order`
* ``SIM4xx`` — semantic rewrite verification
  (:mod:`repro.analysis.plan_verify` re-deriving the proofs of
  :mod:`repro.optimizer.rewrite`)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.errors import (
    PlanVerificationError,
    StaticAnalysisError,
    StaticTypeError,
    StaticUpdateError,
)
from repro.lexer import Span

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog."""

    code: str
    severity: str
    title: str


def _catalog(*rules) -> dict:
    table = {}
    for code, severity, title in rules:
        table[code] = Rule(code, severity, title)
    return table


#: The full simcheck rule catalog.  Codes are stable: never renumber.
RULES = _catalog(
    # -- Schema lint (SIM0xx) ------------------------------------------------
    ("SIM000", ERROR, "DDL syntax error"),
    ("SIM001", ERROR, "unknown superclass"),
    ("SIM002", ERROR, "generalization cycle"),
    ("SIM003", ERROR, "multiple base-class ancestors"),
    ("SIM010", ERROR, "EVA names unknown range class"),
    ("SIM011", INFO, "EVA has no declared inverse"),
    ("SIM012", WARNING, "one-sided inverse declaration"),
    ("SIM013", ERROR, "inverse pair is not mutual"),
    ("SIM014", ERROR, "inverse pair disagrees on range"),
    ("SIM015", ERROR, "declared inverse is not an EVA"),
    ("SIM016", ERROR, "REQUIRED on both EVA directions"),
    ("SIM020", ERROR, "attribute shadows an inherited attribute"),
    ("SIM021", ERROR, "subrole value set does not match subclasses"),
    ("SIM022", ERROR, "more than one subrole attribute"),
    ("SIM030", WARNING, "vacuous VERIFY assertion"),
    ("SIM031", ERROR, "VERIFY references an undeclared attribute"),
    ("SIM032", ERROR, "VERIFY on unknown class"),
    ("SIM033", ERROR, "VERIFY assertion does not parse"),
    ("SIM040", INFO, "named type is never used"),
    # -- Query lint (SIM10x qualification, SIM11x types) ---------------------
    ("SIM100", ERROR, "DML syntax error"),
    ("SIM101", ERROR, "qualification cannot be resolved"),
    ("SIM102", ERROR, "ambiguous shorthand qualification"),
    ("SIM103", ERROR, "invalid AS role conversion"),
    ("SIM104", ERROR, "unknown perspective class"),
    ("SIM110", ERROR, "entity/value misuse"),
    ("SIM111", WARNING, "multi-valued attribute in scalar position"),
    ("SIM112", ERROR, "incomparable operand types"),
    ("SIM113", WARNING, "comparison is statically UNKNOWN or false"),
    ("SIM114", ERROR, "aggregate over a non-aggregable argument"),
    ("SIM115", WARNING, "quantifier target cannot vary"),
    ("SIM116", WARNING, "aggregate over a constant"),
    ("SIM117", ERROR, "selection expression is not boolean"),
    # -- Update lint (SIM12x) ------------------------------------------------
    ("SIM120", ERROR, "assignment to unknown attribute"),
    ("SIM121", ERROR, "assignment to a system-maintained attribute"),
    ("SIM122", ERROR, "INCLUDE/EXCLUDE on a single-valued attribute"),
    ("SIM123", ERROR, "entity/value mismatch in assignment"),
    ("SIM124", ERROR, "selector class outside the EVA's range"),
    ("SIM125", ERROR, "update statement targets a view"),
    ("SIM126", ERROR, "update statement names an unknown class"),
    ("SIM127", WARNING, "assigned literal outside the declared domain"),
    # -- Plan verification (SIM2xx) ------------------------------------------
    ("SIM200", ERROR, "plan/tree label mismatch"),
    ("SIM201", ERROR, "range variable not bound exactly once"),
    ("SIM202", ERROR, "TYPE 2 existential subtree on the enumeration spine"),
    ("SIM203", ERROR, "TYPE 3 outer-join direction not preserved"),
    ("SIM204", ERROR, "plan access path references an unknown object"),
    ("SIM205", ERROR, "physical spine does not cover the loop nodes"),
    ("SIM206", ERROR, "existential node enumerated by the physical spine"),
    ("SIM207", ERROR, "traversal operator kind contradicts the TYPE label"),
    # -- Concurrency lint (SIM3xx) -------------------------------------------
    ("SIM300", WARNING, "lock acquired outside a with block"),
    ("SIM301", ERROR, "nested lock acquisition inverts the declared order"),
    ("SIM302", WARNING, "blocking call while holding a lock"),
    ("SIM303", WARNING, "unguarded shared-state write in threaded code"),
    ("SIM304", WARNING, "condition wait outside a predicate loop"),
    # -- Semantic rewrite verification (SIM4xx) --------------------------------
    ("SIM400", INFO, "provably-empty subclass extent"),
    ("SIM401", ERROR, "rewrite/verifier mismatch"),
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a coded, severity-ranked message anchored to a span."""

    code: str
    severity: str
    message: str
    span: Span = field(default_factory=Span)
    hint: Optional[str] = None
    #: which analyzer produced it: "schema" | "query" | "plan"
    source: str = "query"

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def describe(self, path: Optional[str] = None) -> str:
        """``path:line:col: SIM013 error: message [hint: ...]``"""
        prefix = f"{path}:" if path else ""
        text = (f"{prefix}{self.span.describe()}: {self.code} "
                f"{self.severity}: {self.message}")
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text

    def offset(self, base: Span) -> "Diagnostic":
        """Rebase a relative span (e.g. inside a VERIFY assertion) onto the
        enclosing declaration's position."""
        return Diagnostic(self.code, self.severity, self.message,
                          self.span.offset(base), self.hint, self.source)


class DiagnosticSink:
    """Accumulates diagnostics for one analysis run."""

    def __init__(self, source: str = "query"):
        self.source = source
        self.items: List[Diagnostic] = []

    def emit(self, code: str, message: str, span: Span = Span(),
             hint: Optional[str] = None,
             severity: Optional[str] = None) -> Diagnostic:
        """Record one diagnostic; severity defaults from the catalog."""
        rule = RULES[code]
        diagnostic = Diagnostic(code, severity or rule.severity, message,
                                span, hint, self.source)
        self.items.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.items.extend(diagnostics)

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.items if d.severity == ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.items if d.severity == WARNING]

    def infos(self) -> List[Diagnostic]:
        return [d for d in self.items if d.severity == INFO]

    def sorted(self) -> List[Diagnostic]:
        """Severity-major, then source order."""
        return sorted(self.items,
                      key=lambda d: (_SEVERITY_RANK[d.severity],
                                     d.span.line, d.span.column, d.code))

    def __bool__(self) -> bool:
        return bool(self.items)

    def __len__(self) -> int:
        return len(self.items)


#: exception class per code range, so existing ``except`` clauses keep
#: working when enforcement moves from runtime to compile time
_TYPE_CODES = frozenset(("SIM110", "SIM112", "SIM114", "SIM117"))
_UPDATE_PREFIX = "SIM12"
_PLAN_PREFIX = "SIM2"
_REWRITE_PREFIX = "SIM4"


def exception_for(diagnostic: Diagnostic) -> type:
    """The exception class a given error diagnostic should raise as."""
    if diagnostic.code in _TYPE_CODES:
        return StaticTypeError
    if diagnostic.code.startswith(_UPDATE_PREFIX):
        return StaticUpdateError
    if diagnostic.code.startswith((_PLAN_PREFIX, _REWRITE_PREFIX)):
        return PlanVerificationError
    return StaticAnalysisError


def raise_for_errors(diagnostics: Iterable[Diagnostic]) -> None:
    """Raise the first error-severity diagnostic as a typed exception.

    The exception message is the diagnostic's message (with the code
    appended) and ``diagnostics`` carries the full list, warnings
    included, for programmatic consumers.
    """
    items = list(diagnostics)
    errors = [d for d in items if d.severity == ERROR]
    if not errors:
        return
    first = errors[0]
    exc_class = exception_for(first)
    raise exc_class(f"{first.message} [{first.code}]",
                    diagnostics=items).with_code(first.code)
