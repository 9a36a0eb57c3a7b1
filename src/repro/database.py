"""The public Database facade: open a schema, run DML, manage transactions.

Typical use::

    from repro import Database

    db = Database(ddl_text)
    db.execute('Insert person(name := "Ada", soc-sec-no := 1)')
    result = db.query("From person Retrieve name")
    print(result.pretty())

The facade wires together the architecture of the paper's Figure 1: the
Parser (:mod:`repro.dml`), the Directory/catalog, the LUC Mapper
(:mod:`repro.mapper`) and the Query Driver (:mod:`repro.engine`), with an
optional Optimizer plan (:mod:`repro.optimizer`).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.dml.ast import RetrieveQuery
from repro.dml.parser import parse_dml
from repro.dml.qualification import Qualifier
from repro.engine.constraints import ConstraintManager
from repro.engine.executor import QueryExecutor
from repro.engine.output import ResultSet
from repro.engine.sessions import LockManager
from repro.engine.updates import UpdateEngine
from repro.errors import SimError
from repro.mapper.physical import PhysicalDesign
from repro.mapper.store import MapperStore
from repro.schema.ddl_parser import parse_ddl
from repro.schema.schema import Schema


#: the root span of a statement nobody is tracing: enters to None
_NO_SPAN = contextlib.nullcontext()


@dataclass
class CompiledStatement:
    """A statement taken through the static pipeline without executing.

    ``diagnostics`` holds everything the analyzers reported (the compile
    itself raises on error severity); ``tree`` and ``plan`` are populated
    for Retrieve statements only.
    """

    statement: object
    tree: object = None
    plan: object = None
    diagnostics: List = field(default_factory=list)


class Database:
    """One SIM database: a resolved schema bound to a Mapper store."""

    def __init__(self, schema: Union[str, Schema],
                 design: Optional[PhysicalDesign] = None,
                 constraint_mode: str = "immediate",
                 use_optimizer: bool = True,
                 rewrite: bool = True,
                 track_history: bool = False,
                 batch_size: Optional[int] = None,
                 parallelism: Optional[int] = None):
        if isinstance(schema, str):
            schema = parse_ddl(schema)
        elif not schema.resolved:
            schema.resolve()
        self.schema = schema
        self.store = MapperStore(schema, design)
        if track_history:
            self.store.enable_history()
        self.design = self.store.design
        self.qualifier = Qualifier(schema)
        knobs = {}
        if batch_size is not None:
            knobs["batch_size"] = batch_size
        if parallelism is not None:
            knobs["parallelism"] = parallelism
        self.executor = QueryExecutor(self.store, self.qualifier, **knobs)
        self.constraints = ConstraintManager(self.executor, constraint_mode)
        self.updates = UpdateEngine(self.executor, self.constraints)
        self.use_optimizer = use_optimizer
        #: semantic rewrite pass (optimizer/rewrite.py); off reproduces
        #: the legacy planner byte for byte
        self.rewrite = rewrite
        self._optimizer = None
        # Concurrency plumbing, created eagerly so two threads opening
        # their first Session can never race to install it.
        self._lock_manager = LockManager()
        self._session_ids = itertools.count(1)

    # -- Statements ---------------------------------------------------------------

    def execute(self, statement: Union[str, object]):
        """Run one DML statement.

        Returns a :class:`ResultSet` for Retrieve and the affected-entity
        count for updates.
        """
        with self._statement_scope(statement) as root:
            if isinstance(statement, str):
                statement = self._spanned("parse", "parser",
                                          parse_dml, statement)
            if isinstance(statement, RetrieveQuery):
                result = self._run_retrieve(statement)
                if root is not None:
                    result.trace = root
                return result
            self._spanned("lint", "analysis", self._lint_update, statement)
            return self._run_update(statement)

    def query(self, text: str) -> ResultSet:
        """Run a Retrieve statement and return its result set."""
        statement = parse_dml(text) if isinstance(text, str) else text
        if not isinstance(statement, RetrieveQuery):
            raise SimError("query() takes a Retrieve statement")
        return self._run_retrieve(statement)

    def _spanned(self, name: str, layer: str, function, *args, **kwargs):
        """``function(*args, **kwargs)``, inside a trace span when
        tracing is on."""
        trace = self.store.trace
        if trace is None or not trace.enabled:
            return function(*args, **kwargs)
        with trace.span(name, layer=layer):
            return function(*args, **kwargs)

    def _statement_scope(self, statement):
        """Open one statement root span (yielded) unless tracing is off
        or a root is already open — :meth:`execute` opens it around the
        parse, a Session enters at _run_retrieve/_run_update."""
        trace = self.store.trace
        if trace is None or not trace.enabled or trace.open_spans():
            return _NO_SPAN
        return self._traced_statement(
            trace, statement if isinstance(statement, str)
            else repr(statement))

    @contextlib.contextmanager
    def _traced_statement(self, trace, text: str):
        """The root is closed however the statement ends — success,
        integrity failure, or injected storage fault — so no span ever
        leaks."""
        root = trace.begin_statement(text)
        error = None
        try:
            yield root
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            trace.end_statement(error)

    def compile(self, statement: Union[str, object]) -> CompiledStatement:
        """Take a statement through the full static pipeline — parse,
        qualify, lint, plan, verify — without executing it.

        Raises the same typed exceptions :meth:`execute` would for
        error-severity diagnostics; returns the compiled artifacts plus
        every diagnostic (warnings and notes included) otherwise.
        """
        if isinstance(statement, str):
            statement = parse_dml(statement)
        if not isinstance(statement, RetrieveQuery):
            diagnostics = self._lint_update(statement)
            return CompiledStatement(statement, diagnostics=diagnostics)
        tree = self.qualifier.resolve_retrieve(statement)
        diagnostics = self._lint_retrieve(statement)
        plan = None
        if self.use_optimizer:
            plan = self.optimizer.choose_plan(statement, tree)
        diagnostics.extend(self._verify(tree, plan))
        return CompiledStatement(statement, tree, plan, diagnostics)

    def _run_retrieve(self, query: RetrieveQuery,
                      executor: Optional[QueryExecutor] = None) -> ResultSet:
        with self._statement_scope(query) as root:
            tree = self._spanned("qualify", "qualifier",
                                 self.qualifier.resolve_retrieve, query)
            diagnostics = self._spanned("lint", "analysis",
                                        self._lint_retrieve, query)
            plan = None
            if self.use_optimizer:
                plan = self.optimizer.choose_plan(query, tree)
            diagnostics.extend(self._spanned("verify", "analysis",
                                             self._verify, tree, plan))
            result = (executor or self.executor).run(query, tree, plan)
            result.diagnostics = diagnostics
            if root is not None:
                result.trace = root
            if result.node_stats and self.use_optimizer:
                # Close the loop: traced actuals refine future estimates.
                self.optimizer.observe_execution(tree, result.node_stats)
            return result

    def _run_update(self, statement, executor: Optional[QueryExecutor] = None,
                    restrict_to=None) -> int:
        """Execute an update the caller has already linted
        (:meth:`_lint_update`) — a Session lints before it takes locks,
        so a rejected statement never waits.  ``executor``: a private
        one for a concurrent statement (see _statement_executor)."""
        engine = (self.updates if executor is None
                  else UpdateEngine(executor, self.constraints))
        with self._statement_scope(statement):
            return self._spanned("update", "engine", engine.execute,
                                 statement, restrict_to=restrict_to)

    def _statement_executor(self) -> QueryExecutor:
        """A private executor for one snapshot Retrieve: a fresh accessor
        memo shard, so rows read at one snapshot's epoch
        can never be served to a query pinned at another."""
        return QueryExecutor(self.store, self.qualifier,
                             batch_size=self.executor.batch_size,
                             parallelism=self.executor.parallelism)

    def _verify(self, tree, plan) -> List:
        """Fail closed: a plan that breaks the structural contract
        between the labelled tree and the enumeration must never run."""
        from repro.analysis import raise_for_errors, verify_plan
        verdict = verify_plan(self.schema, tree, plan)
        raise_for_errors(verdict)
        return verdict

    def _lint_retrieve(self, query: RetrieveQuery) -> List:
        """Type-check a resolved Retrieve; raises on error severity and
        returns the surviving (warning/info) diagnostics."""
        from repro.analysis import lint_retrieve, raise_for_errors
        diagnostics = lint_retrieve(self.schema, query)
        raise_for_errors(diagnostics)
        return diagnostics

    def _lint_update(self, statement) -> List:
        from repro.analysis import lint_update, raise_for_errors
        diagnostics = lint_update(self.schema, statement)
        raise_for_errors(diagnostics)
        return diagnostics

    def explain(self, text: str) -> str:
        """The optimizer's strategy report for a Retrieve statement."""
        query = parse_dml(text) if isinstance(text, str) else text
        if not isinstance(query, RetrieveQuery):
            raise SimError("explain() takes a Retrieve statement")
        tree = self.qualifier.resolve_retrieve(query)
        return self.optimizer.explain(query, tree)

    @property
    def optimizer(self):
        if self._optimizer is None:
            from repro.optimizer.strategies import Optimizer
            self._optimizer = Optimizer(self)
        return self._optimizer

    def analyze(self):
        """Collect optimizer statistics (the ANALYZE pass; paper §5.1's
        "statistical optimization").  Returns the TableStatistics."""
        from repro.optimizer.statistics import analyze
        statistics = analyze(self.store)
        self.optimizer.table_statistics = statistics
        return statistics

    # -- Transactions ---------------------------------------------------------------

    def begin(self) -> None:
        self.store.transactions.begin()

    def commit(self) -> None:
        self.constraints.before_commit()
        self.store.transactions.commit()

    def abort(self) -> None:
        self.constraints.reset_deferred()
        self.store.transactions.abort()

    @contextlib.contextmanager
    def transaction(self):
        """``with db.transaction(): ...`` — commit on success, abort on
        error (including deferred-constraint failures)."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.abort()
            raise
        else:
            try:
                self.commit()
            except BaseException:
                if self.store.transactions.in_transaction():
                    self.abort()
                raise

    # -- Sessions and the network front end --------------------------------------------

    def session(self, **kwargs):
        """Open a concurrent :class:`~repro.engine.sessions.Session` on
        this database (MVCC snapshot reads by default)."""
        from repro.engine.sessions import Session
        return Session(self, **kwargs)

    def serve(self, host: str = "127.0.0.1", port: int = 0, **kwargs):
        """Start a :class:`~repro.interfaces.server.SimServer` on this
        database and return it (already listening; ``server.port`` holds
        the bound port).  Stop it with ``server.stop()`` or use it as a
        context manager."""
        from repro.interfaces.server import SimServer
        server = SimServer(self, host=host, port=port, **kwargs)
        server.start()
        return server

    # -- Introspection -----------------------------------------------------------------

    def statistics(self) -> dict:
        stats = dict(self.schema.statistics())
        stats.update(self.constraints.statistics())
        stats["io"] = repr(self.store.io_stats())
        stats["read_path"] = self.store.perf.as_dict()
        stats["storage"] = self.store.storage_statistics()
        stats["locks"] = self._lock_manager.statistics()
        if self.store.trace is not None:
            stats["trace"] = self.store.trace.histograms.as_dict()
        return stats

    @property
    def io_stats(self):
        return self.store.io_stats()

    @property
    def perf(self):
        """Cumulative read-path counters (cache hits, records decoded...)."""
        return self.store.perf

    def reset_io_stats(self) -> None:
        self.store.reset_io_stats()
        self.store.perf.reset()

    # -- Tracing / EXPLAIN ANALYZE ---------------------------------------------------

    def enable_tracing(self, capacity: int = 256):
        """Attach (or re-enable) end-to-end query tracing and return the
        :class:`~repro.trace.TraceRecorder`.  Every statement then records
        a hierarchical span tree — parse, qualification, optimization,
        verification, per-node execution, mapper decodes/cache traffic and
        storage I/O — rendered by ``ResultSet.explain_analyze()``."""
        from repro.trace import attach_tracing
        recorder = self.store.trace
        if recorder is None:
            recorder = attach_tracing(self.store, capacity=capacity)
        recorder.enabled = True
        return recorder

    def disable_tracing(self, detach: bool = False) -> None:
        """Stop recording.  With ``detach=True`` the recorder is removed
        entirely (the layers' trace hooks revert to ``None``, restoring
        the zero-overhead fast path's single identity test)."""
        recorder = self.store.trace
        if recorder is not None:
            recorder.enabled = False
        if detach:
            from repro.trace import detach_tracing
            detach_tracing(self.store)

    @property
    def trace(self):
        """The attached TraceRecorder, or None when tracing is off."""
        return self.store.trace

    def trace_jsonl(self) -> str:
        """The retained statement traces as JSON Lines — one span tree
        per line, oldest first (``python -m repro trace`` emits this)."""
        recorder = self.store.trace
        if recorder is None:
            raise SimError(
                "tracing is not attached; call enable_tracing() first")
        return recorder.to_jsonl()

    def cold_cache(self) -> None:
        self.store.cold_cache()

    # -- Materialized derived relations ----------------------------------------------

    def materialize(self, name: str, kind: str, class_name: str,
                    eva_names):
        """Declare (and eagerly build) a named materialized derived
        relation — ``kind`` is ``"join"`` (one EVA's instance set) or
        ``"closure"`` (the transitive closure of an EVA hop chain).
        See :mod:`repro.mapper.materialized`."""
        manager = self.store.attach_materializations()
        return manager.declare(name, kind, class_name, eva_names)

    def refresh_materialization(self, name: str):
        """Recompute one materialization from current physical state."""
        return self.store.attach_materializations().refresh(name)

    def drop_materialization(self, name: str) -> None:
        self.store.attach_materializations().drop(name)

    def list_materializations(self):
        """All declared materializations, sorted by name."""
        if self.store.materialized is None:
            return []
        return self.store.materialized.list()

    # -- Temporal history (paper §6) ------------------------------------------------

    @property
    def clock(self) -> int:
        """The logical clock (ticks once per update statement) when
        history tracking is on."""
        self._require_history()
        return self.store.history.clock

    def attribute_history(self, surrogate: int, attr_name: str):
        """All recorded changes of one entity's attribute, oldest first."""
        self._require_history()
        return self.store.history.attribute_history(surrogate, attr_name)

    def role_history(self, surrogate: int):
        self._require_history()
        return self.store.history.role_history(surrogate)

    def value_as_of(self, surrogate: int, class_name: str, attr_name: str,
                    tick: int):
        """An attribute's value as it stood at the end of statement
        ``tick`` — a single value for DVAs, a list for MV DVAs and EVAs."""
        self._require_history()
        attr = self.schema.get_class(class_name).attribute(attr_name)
        journal = self.store.history
        if attr.is_eva:
            current = (self.store.eva_targets(surrogate, attr)
                       if self.store.has_role(surrogate, attr.owner_name)
                       else [])
            return journal.collection_as_of(surrogate, attr.name, tick,
                                            current)
        if attr.multi_valued:
            current = (self.store.read_dva(surrogate, attr)
                       if self.store.has_role(surrogate, attr.owner_name)
                       else [])
            return journal.collection_as_of(surrogate, attr.name, tick,
                                            current)
        from repro.types.tvl import NULL
        current = (self.store.read_dva(surrogate, attr)
                   if self.store.has_role(surrogate, attr.owner_name)
                   else NULL)
        return journal.scalar_as_of(surrogate, attr.name, tick, current)

    def had_role_at(self, surrogate: int, class_name: str,
                    tick: int) -> bool:
        self._require_history()
        return self.store.history.had_role_at(
            surrogate, class_name, tick,
            self.store.has_role(surrogate, class_name))

    def _require_history(self):
        if self.store.history is None:
            raise SimError(
                "history tracking is off; open the database with "
                "track_history=True")

    def simulate_crash(self) -> dict:
        """Lose all volatile state and recover from disk + log.

        Committed transactions survive; the in-flight transaction (if any)
        is undone from the write-ahead log's before-images.  Returns
        recovery statistics.
        """
        self.constraints.reset_deferred()
        return self.store.simulate_crash()

    # -- Fault injection and consistency checking -----------------------------------

    def install_faults(self, injector=None, seed: int = 0):
        """Attach a :class:`~repro.storage.faults.FaultInjector` to the
        storage devices and return it.  Arm fault plans on the returned
        injector; ``simulate_crash`` reboots a crashed device before
        recovering."""
        return self.store.install_faults(injector, seed=seed)

    def check(self, constraints: bool = True):
        """Run the semantic consistency checker against the physical
        state (read caches bypassed).  Returns a
        :class:`~repro.checker.CheckReport`; ``report.ok`` is the
        clean-bill-of-health flag the crash-torture suite asserts."""
        return self.store.check(constraints=constraints)

    # -- Persistence ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the database to a file (see :mod:`repro.persistence`)."""
        from repro.persistence import save_database
        save_database(self, path)

    @classmethod
    def open(cls, path: str) -> "Database":
        """Open a database file written by :meth:`save`."""
        from repro.persistence import open_database
        return open_database(path)

    def __repr__(self):
        return f"<Database {self.schema.name}>"
