"""Exception hierarchy for the SIM reproduction.

Every error raised by the library derives from :class:`SimError`, so client
code can catch one base class.  The sub-hierarchy mirrors the phases of the
system: schema definition, DML parsing, semantic analysis, integrity
enforcement, storage, and execution.
"""

from __future__ import annotations


class SimError(Exception):
    """Base class for all errors raised by this library.

    ``diagnostic_code`` carries the stable ``SIM***`` rule code when the
    error corresponds to a rule of the static-analysis catalog
    (:mod:`repro.analysis`); it is ``None`` for purely runtime failures.
    """

    diagnostic_code = None

    def with_code(self, code: str) -> "SimError":
        """Tag this error with a static-analysis rule code (chaining)."""
        self.diagnostic_code = code
        return self


class SchemaError(SimError):
    """Invalid schema definition (bad class graph, attribute conflict...)."""


class TypeDefinitionError(SchemaError):
    """Invalid type definition (empty range, bad precision...)."""


class DDLSyntaxError(SchemaError):
    """The DDL text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DMLError(SimError):
    """Base class for DML (query language) errors."""


class DMLSyntaxError(DMLError):
    """The DML text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class QualificationError(DMLError):
    """An attribute could not be qualified to a perspective class.

    Raised when a qualification chain names an unknown attribute, when a
    shorthand qualification is ambiguous, or when an ``AS`` role conversion
    targets a class outside the generalization hierarchy.
    """


class BindingError(DMLError):
    """A range variable reference could not be resolved."""


class TypeMismatchError(DMLError):
    """An expression combines operands of incompatible types."""


class StaticAnalysisError(SimError):
    """Compile-time diagnostics with severity ``error`` were found.

    Raised by :meth:`repro.database.Database.compile` and by the execute
    path when the static analyzers (:mod:`repro.analysis`) reject a
    statement before any data is touched.  ``diagnostics`` holds the full
    :class:`repro.analysis.diagnostics.Diagnostic` list (warnings too).
    """

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(message)


class StaticTypeError(TypeMismatchError, StaticAnalysisError):
    """A statically detected type error (EVA/DVA misuse, incomparable
    operand families...).  Subclasses :class:`TypeMismatchError` so code
    catching the runtime type error also catches the compile-time one."""

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        TypeMismatchError.__init__(self, message)


class IntegrityError(SimError):
    """A DML action would violate schema-defined integrity."""


class ConstraintViolation(IntegrityError):
    """A VERIFY assertion failed.  Carries the assertion's ELSE message."""

    def __init__(self, constraint_name: str, message: str):
        self.constraint_name = constraint_name
        self.user_message = message
        super().__init__(f"verify {constraint_name} failed: {message}")


class StaticUpdateError(IntegrityError, StaticAnalysisError):
    """A statically detected update error (assignment to a system
    attribute, INCLUDE on a single-valued attribute...).  Subclasses
    :class:`IntegrityError` so code catching the runtime enforcement
    error also catches the compile-time one."""

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        IntegrityError.__init__(self, message)


class UniquenessViolation(IntegrityError):
    """A UNIQUE attribute would receive a duplicate value."""


class RequiredViolation(IntegrityError):
    """A REQUIRED attribute would be left null."""


class CardinalityViolation(IntegrityError):
    """An MV attribute would exceed its MAX bound."""


class StorageError(SimError):
    """Low-level storage failure (bad block, missing record...)."""


class TransientStorageError(StorageError):
    """A storage operation failed but may succeed if retried (simulated
    controller hiccup).  The Mapper's retry policy retries these with
    backoff; all other storage errors are treated as permanent."""


class InjectedCrash(StorageError):
    """The fault injector killed the simulated machine mid-operation.

    Raised by the fault-injection harness when a crash trigger fires; the
    device stays dead (every further I/O re-raises) until
    :meth:`~repro.storage.faults.FaultInjector.reboot`, which
    :meth:`~repro.mapper.store.MapperStore.simulate_crash` calls before
    recovery.  Test harnesses catch this to drive crash-recovery cycles.
    """


class TransactionError(StorageError):
    """Invalid transaction state transition."""


class StoreFailedError(StorageError):
    """The store has stopped: a commit or an abort failed past its point
    of no return, so what memory shows may no longer be what the log
    can recover.  Every later statement, ``begin`` and ``commit`` raises
    this until ``recover()`` / ``simulate_crash()`` rebuilds the store
    from the disk and the log.  ``__cause__`` is the original failure."""


class ExecutionError(SimError):
    """Runtime failure while executing a query plan."""


class ServerOverloaded(SimError):
    """The network server shed this statement: every session slot is
    busy and the admission queue is full.  The statement did not run;
    the client should back off and retry."""


class PlanVerificationError(StaticAnalysisError):
    """The post-optimization plan verifier rejected a chosen plan.

    Raised *before* execution (fail closed) when the structural contract
    between the labelled query tree and the optimizer's plan is broken:
    a TYPE 2 existential subtree on the enumeration spine, a TYPE 3
    target-only branch used in selection, or a range variable bound more
    or less than exactly once.
    """


class CatalogError(SimError):
    """Directory/catalog lookup failure (unknown class, attribute...)."""
