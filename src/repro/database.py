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
import weakref
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.dml.ast import RetrieveQuery
from repro.dml.parser import parse_dml
from repro.dml.qualification import Qualifier
from repro.engine.constraints import ConstraintManager
from repro.engine.executor import QueryExecutor
from repro.engine.output import ResultSet
from repro.engine.sessions import LockManager, Session, lock_footprint
from repro.errors import SimError
from repro.mapper.physical import PhysicalDesign
from repro.mapper.store import MapperStore
from repro.optimizer.strategies import Optimizer
from repro.perf import IO_FIELDS
from repro.plan_cache import CompiledStatement, PlanCache
from repro.schema.ddl_parser import parse_ddl
from repro.schema.schema import Schema
from repro.types.tvl import NULL

__all__ = ["CompiledStatement", "Database", "Transition"]


#: the root span of a statement nobody is tracing: enters to None
_NO_SPAN = contextlib.nullcontext()


class _StatementScope:
    """``with`` this around one statement: what the statement counts
    (:mod:`repro.perf`) is folded into the store's totals when it ends,
    in one lock acquisition.  With tracing on — and no span already
    open on this thread — the scope is the statement's root span, which
    ``with`` binds; it is closed however the statement ends (success,
    integrity failure, injected storage fault), so no span ever leaks."""

    __slots__ = ("store", "statement", "trace", "frame")

    def __init__(self, store, statement):
        self.store = store
        self.statement = statement

    def __enter__(self):
        trace = self.trace = self.store.trace
        if trace is None or not trace.enabled or trace.open_spans():
            self.frame = self.store.perf.open()
            return None
        self.frame = None
        statement = self.statement
        return trace.begin_statement(
            statement if isinstance(statement, str) else repr(statement))

    def __exit__(self, exc_type, exc, traceback):
        if self.frame is not None:
            self.store.perf.close(self.frame)
        else:
            self.trace.end_statement(
                None if exc is None else f"{exc_type.__name__}: {exc}")
        return False


@dataclass(frozen=True)
class Transition:
    """One step of a derived history: the commit at ``epoch`` took the
    value from ``old`` to ``new`` (collections and role sets as tuples)."""

    epoch: int
    old: object
    new: object

    def describe(self) -> str:
        return f"t{self.epoch}: {self.old!r} -> {self.new!r}"


class Database:
    """One SIM database: a resolved schema bound to a Mapper store."""

    def __init__(self, schema: Union[str, Schema],
                 design: Optional[PhysicalDesign] = None,
                 constraint_mode: str = "immediate",
                 use_optimizer: bool = True,
                 rewrite: bool = True,
                 track_history: bool = False,
                 batch_size: Optional[int] = None):
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
        knobs = {} if batch_size is None else {"batch_size": batch_size}
        self.executor = QueryExecutor(self.store, self.qualifier, **knobs)
        self.constraints = ConstraintManager(self.executor, constraint_mode)
        self.use_optimizer = use_optimizer
        #: semantic rewrite pass (optimizer/rewrite.py); off reproduces
        #: the legacy planner byte for byte
        self.rewrite = rewrite
        # Shared by every session, so created eagerly: two threads
        # running their first statement can never race to install them.
        self.optimizer = Optimizer(self)
        self.plan_cache = PlanCache(self)
        self._lock_manager = LockManager()
        self._lock_manager.perf = self.store.perf
        self._session_ids = itertools.count(1)
        #: every open Session, the default and server ones included, so
        #: a crash can drop each one's transaction and locks
        self._sessions = weakref.WeakSet()
        #: where this facade's statements run (see Session): opened with
        #: it for the same reason; its transaction opens lazily
        self._session = Session(self, _default=True)

    # -- Statements ---------------------------------------------------------------

    def execute(self, statement: Union[str, object]):
        """Run one DML statement on the default session: a transaction
        of its own unless :meth:`begin` opened one.

        Returns a :class:`ResultSet` for Retrieve and the affected-entity
        count for updates.
        """
        return self._session._execute(statement, parse_dml)

    def query(self, text: str) -> ResultSet:
        """Run a Retrieve statement and return its result set."""
        return self._session._execute(text, parse_dml, retrieve_only=True)

    def _spanned(self, name: str, layer: str, function, *args, **kwargs):
        """``function(*args, **kwargs)``, inside a trace span when
        tracing is on."""
        trace = self.store.trace
        if trace is None or not trace.enabled:
            return function(*args, **kwargs)
        with trace.span(name, layer=layer):
            return function(*args, **kwargs)

    def _statement_scope(self, statement) -> "_StatementScope":
        """One statement's accounting scope (``Session._execute``, the
        one statement path, opens it around the compile)."""
        return _StatementScope(self.store, statement)

    def compile(self, statement: Union[str, object]) -> CompiledStatement:
        """Take a statement through the full static pipeline — parse,
        qualify, lint, plan, verify, lower — without executing it.

        Raises the same typed exceptions :meth:`execute` would for
        error-severity diagnostics; returns the plan-cache entry bound
        to this text — the compiled artifacts plus every diagnostic
        (warnings and notes included) — otherwise.  The artifacts are
        shared with every statement of the same shape: read, don't edit.
        """
        return self._compile(statement, parse_dml)

    def _compile(self, statement, parse) -> CompiledStatement:
        """The one way a statement becomes executable: through the plan
        cache.  ``parse`` is the calling module's ``parse_dml`` (each
        front door resolves its own at call time): ``parse(text, cache)``
        compiles on a miss only.  An already-parsed statement has no
        text to key on and compiles every time."""
        trace = self.store.trace
        traced = trace is not None and trace.enabled
        with (trace.span("compile", layer="parser") if traced
              else _NO_SPAN) as span:
            if isinstance(statement, str):
                compiled = parse(statement, self.plan_cache)
            else:
                compiled = self._compile_statement(statement).bind(
                    None, None, None, "uncacheable")
            if span is not None:
                span.attrs["cache"] = compiled.cache
                if compiled.plan is not None and compiled.cache != "miss":
                    # The fill's optimize span said this; a hit has none.
                    span.attrs.update(compiled.plan.trace_attrs)
            return compiled

    def _compile_statement(self, statement) -> CompiledStatement:
        """Qualify, lint, plan, verify and lower a parsed statement —
        what a plan-cache miss runs, once per statement shape.  Lint and
        both verifiers fail closed: error severity raises, and nothing
        that raised is ever cached."""
        from repro.analysis import (lint_retrieve, lint_update,
                                    raise_for_errors, verify_plan)

        def checked(name, analyzer, *args):
            diagnostics = self._spanned(name, "analysis", analyzer,
                                        self.schema, *args)
            raise_for_errors(diagnostics)
            return diagnostics

        if not isinstance(statement, RetrieveQuery):
            diagnostics = checked("lint", lint_update, statement)
            self._session.updates.prepare(statement)
            classes, entity_lockable = lock_footprint(self.schema, statement)
            return CompiledStatement(
                statement, diagnostics=diagnostics, lock_classes=classes,
                entity_lockable=entity_lockable)
        tree = self._spanned("qualify", "qualifier",
                             self.qualifier.resolve_retrieve, statement)
        diagnostics = checked("lint", lint_retrieve, statement)
        plan = None
        cardinalities = ()
        if self.use_optimizer:
            plan = self.optimizer.choose_plan(statement, tree)
            cardinalities = tuple(
                (root.class_name,
                 self.store.latest_class_count(root.class_name))
                for root in tree.roots)
        diagnostics += checked("verify", verify_plan, tree, plan)
        return CompiledStatement(
            statement, tree, plan, diagnostics,
            physical=self.executor.lower(statement, tree, plan),
            cardinalities=cardinalities,
            lock_classes=tuple(sorted({node.class_name
                                       for node in tree.all_nodes()
                                       if node.class_name})))

    def _run_retrieve(self, compiled: CompiledStatement,
                      executor: QueryExecutor) -> ResultSet:
        result = executor.run(
            compiled.statement, compiled.tree, compiled.plan,
            compiled.physical, compiled.params)
        result.diagnostics = compiled.diagnostics
        if result.node_stats and compiled.plan is not None:
            # Close the loop: traced actuals refine future estimates.
            self.optimizer.observe_execution(compiled.tree,
                                             result.node_stats)
        return result

    def explain(self, text: str) -> str:
        """The optimizer's strategy report for a Retrieve statement."""
        query = parse_dml(text) if isinstance(text, str) else text
        if not isinstance(query, RetrieveQuery):
            raise SimError("explain() takes a Retrieve statement")
        tree = self.qualifier.resolve_retrieve(query)
        return self.optimizer.explain(query, tree)

    def analyze(self):
        """Collect optimizer statistics (the ANALYZE pass; paper §5.1's
        "statistical optimization").  Returns the TableStatistics."""
        from repro.optimizer.statistics import analyze
        statistics = analyze(self.store)
        self.optimizer.table_statistics = statistics
        self.plan_cache.clear()     # plans costed without them are stale
        return statistics

    # -- Transactions ---------------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction on the default session: statements run in
        it until :meth:`commit` or :meth:`abort`."""
        self._session.begin()

    def commit(self) -> None:
        self._session.commit()

    def abort(self) -> None:
        self._session.abort()

    def transaction(self) -> Session:
        """``with db.transaction(): ...`` — a transaction opened on the
        default session, which commits it on success and aborts it on
        error (a deferred-constraint failure at commit aborts too)."""
        self.begin()
        return self._session

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
        counts = stats["read_path"] = self.store.perf.as_dict()
        stats["io"] = {name: counts[name] for name in IO_FIELDS}
        stats["storage"] = self.store.storage_statistics()
        stats["locks"] = self._lock_manager.statistics()
        if self.store.trace is not None:
            stats["trace"] = self.store.trace.histograms.as_dict()
        return stats

    @property
    def io_stats(self):
        """The block-I/O counters (``logical_reads``, ``physical_reads``,
        ``physical_writes``): rows of :attr:`perf`."""
        return self.store.perf

    @property
    def perf(self):
        """Cumulative counters of every layer (block I/O, cache hits,
        records decoded, commits, lock waits...)."""
        return self.store.perf

    def reset_io_stats(self) -> None:
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
        declared = manager.declare(name, kind, class_name, eva_names)
        self.plan_cache.clear()
        return declared

    def refresh_materialization(self, name: str):
        """Recompute one materialization from current physical state."""
        refreshed = self.store.attach_materializations().refresh(name)
        self.plan_cache.clear()
        return refreshed

    def drop_materialization(self, name: str) -> None:
        self.store.attach_materializations().drop(name)
        self.plan_cache.clear()

    def list_materializations(self):
        """All declared materializations, sorted by name."""
        if self.store.materialized is None:
            return []
        return self.store.materialized.list()

    # -- Temporal data (paper §6): reads pinned to a commit epoch ----------------------

    @property
    def clock(self) -> int:
        """The commit epoch, the one time axis: it steps once per
        committed transaction that changed anything (an auto-committed
        update statement is one such transaction)."""
        self._require_history()
        return self.store.versions.epoch

    def value_as_of(self, surrogate: int, class_name: str, attr_name: str,
                    epoch: int):
        """An attribute's value as committed at ``epoch`` — a single
        value for DVAs, a list for MV DVAs and EVAs; NULL or empty while
        the entity did not hold the attribute's class."""
        self._require_history()
        attr = self.schema.get_class(class_name).attribute(attr_name)
        with self.store.as_of(epoch):
            return self._read_attribute(surrogate, attr)

    def had_role_at(self, surrogate: int, class_name: str,
                    epoch: int) -> bool:
        self._require_history()
        class_name = self.schema.get_class(class_name).name
        with self.store.as_of(epoch):
            return self.store.has_role(surrogate, class_name)

    def attribute_history(self, surrogate: int, class_name: str,
                          attr_name: str) -> List[Transition]:
        """Every committed change of one entity's attribute, oldest
        first; a collection's history is a sequence of its versions."""
        self._require_history()
        attr = self.schema.get_class(class_name).attribute(attr_name)
        return self._transitions(
            surrogate, lambda: self._read_attribute(surrogate, attr))

    def role_history(self, surrogate: int) -> List[Transition]:
        """The entity's set of roles, version by version."""
        self._require_history()
        return self._transitions(
            surrogate, lambda: [name for name in self.schema.class_names()
                                if self.store.has_role(surrogate, name)])

    def _read_attribute(self, surrogate: int, attr):
        """Whatever the Mapper's read protocol serves for ``attr`` in
        this thread's view."""
        store = self.store
        if not store.has_role(surrogate, attr.owner_name):
            return [] if attr.is_eva or attr.multi_valued else NULL
        if attr.is_eva:
            return store.eva_targets(surrogate, attr)
        return store.read_dva(surrogate, attr)

    def _transitions(self, surrogate: int, read) -> List[Transition]:
        """Derive a history from the version chains: ``read()`` pinned
        just before the first commit that changed the entity and at
        every such commit since; the steps where its answer moved.
        (Between two of those epochs no unit of the entity changed, so
        one read per epoch is enough.)"""
        def pinned(epoch):
            with self.store.as_of(epoch):
                value = read()
            return tuple(value) if isinstance(value, list) else value

        steps: List[Transition] = []
        epochs = self.store.change_epochs(surrogate)
        old = pinned(epochs[0] - 1) if epochs else None
        for epoch in epochs:
            new = pinned(epoch)
            if new != old:
                steps.append(Transition(epoch, old, new))
            old = new
        return steps

    def _require_history(self):
        if not self.store.versions.retain:
            raise SimError(
                "history tracking is off; open the database with "
                "track_history=True")

    def simulate_crash(self) -> dict:
        """Lose all volatile state and recover from disk + log.

        Committed transactions survive; in-flight transactions are undone
        from the write-ahead log's before-images, and every session
        forgets its transaction and its locks, so a later abort replays
        nothing.  Returns recovery statistics.
        """
        for session in list(self._sessions):
            session._release()
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
