"""Morsel-driven intra-query parallelism over the operator DAG.

The batched algebra of :mod:`repro.engine.operators` made the batch the
unit of work; this module makes it the unit of *scheduling*.  The
:class:`Parallel` operator sits at the pipeline's single barrier: below
it runs the parallel-safe segment — ``Scan → EVATraverse/OuterTraverse →
Filter/Semi/AntiSemi`` — and above it the order-sensitive consumers
(``Aggregate``, ``Project``, ``Sort``, ``Distinct``) stay serial.

Execution partitions the root Scan's materialized domain into *morsels*
(contiguous runs of root instances, à la Leis et al.'s morsel-driven
model) and drives one cloned segment pipeline per worker thread over
them.  Each worker owns a private :class:`~repro.engine.access.
EntityAccessor` — the per-query memos are sharded rather than locked —
and counts into a :class:`~repro.perf.Frame` of its own, which the
dispatching thread collects at the barrier; the compiled expressions
(which read through the context they are handed) and the layers
underneath (read cache, buffer pool, indexes) are shared and
thread-safe.

Determinism: morsels are numbered in root-enumeration order and their
result rows are concatenated in that order at the barrier, so the merged
stream is row-identical to serial execution — Sort/Distinct/Project
above the barrier then behave exactly as in the serial plan.

Under CPython's GIL, pure-Python segment work cannot speed up across
threads; the win is I/O overlap: workers stalled in (modeled or real)
device reads release the interpreter, so scan-heavy pipelines whose
working set misses the buffer pool scale with the worker count — the
classic morsel-parallelism payoff (EXPERIMENTS.md E18: last measured
against a modelled device; row identity is ``tests/test_parallel.py``).
"""

from __future__ import annotations

import threading
from typing import List

from repro.engine import operators as ops
from repro.engine.access import EntityAccessor
from repro.errors import SimError

MIN_PARALLELISM = 1
MAX_PARALLELISM = 64
DEFAULT_PARALLELISM = 1

#: domains smaller than this run serially even when workers are allowed —
#: thread + clone setup would dominate the work.  Deliberately small: a
#: handful of roots can still fan out into most of the database through
#: a long EVA chain, and those are exactly the queries worth splitting.
MIN_PARALLEL_DOMAIN = 8


def validate_parallelism(value) -> int:
    """Bounds-checked worker count (the ``Database`` / IQF ``.set`` knob)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimError(f"parallelism must be an integer, got {value!r}")
    if not MIN_PARALLELISM <= value <= MAX_PARALLELISM:
        raise SimError(f"parallelism must be between {MIN_PARALLELISM} and "
                       f"{MAX_PARALLELISM}, got {value}")
    return value


class _WorkerState:
    """One worker thread's private execution state: a cloned segment
    pipeline plus a sharded accessor, a local stats dict and — on a
    pool thread — the frame the worker counts into."""

    __slots__ = ("ctx", "sink", "leaf", "stats", "morsels", "frame")

    def __init__(self, parent_ctx: ops.ExecContext, segment: ops.Operator):
        accessor = EntityAccessor(parent_ctx.store)
        accessor.begin_query()
        self.stats = {} if parent_ctx.stats is not None else None
        self.ctx = parent_ctx.spawn_worker(accessor, self.stats)
        # A fresh instance chain (verify_physical, SIM208, has already
        # checked that only order-insensitive operators sit below the
        # barrier): per-worker counters merge back without double-counting.
        self.sink = segment.fresh()
        self.leaf = self.sink.chain()[0]
        self.morsels = 0


class Parallel(ops.Operator):
    """The morsel dispatcher / merge barrier.

    ``child`` is the parallel segment's sink.  ``run`` materializes the
    leaf Scan's domain, splits it into morsels, drives cloned segment
    pipelines on a worker pool, and re-emits the workers' result rows in
    morsel order — then folds every clone's operator counters and stats
    back into the template segment so EXPLAIN ANALYZE and
    ``ResultSet.perf`` see exactly the serial totals.
    """

    name = "Parallel"

    def __init__(self, child: ops.Operator, parallelism: int):
        super().__init__(child)
        self.parallelism = parallelism
        self.workers_used = 0
        self.morsels = 0

    def detail(self, params=None) -> str:
        return f"workers<={self.parallelism}"

    # -- Morsel geometry ---------------------------------------------------------

    def _morsel_size(self, domain_size: int, batch_size: int) -> int:
        """Morsels sized for load balance: several morsels per worker so
        a skewed fan-out does not straggle the barrier.  Never clamped up
        to the batch size — a few dozen roots can fan out into most of
        the database through a long EVA chain, and splitting those small
        domains is where morsel parallelism pays."""
        if domain_size <= 0:
            return 1
        return max(1, -(-domain_size // (self.parallelism * 4)))

    # -- Execution ---------------------------------------------------------------

    def run(self, ctx: ops.ExecContext):
        leaf = self.child.chain()[0]
        domain = leaf._open(ctx)
        size = self._morsel_size(len(domain), ctx.batch_size)
        morsels = [domain[start:start + size]
                   for start in range(0, len(domain), size)]
        self.morsels = len(morsels)
        self.rows_in += len(domain)

        states: List[_WorkerState] = []
        if len(morsels) <= 1 or self.parallelism <= 1 \
                or len(domain) < MIN_PARALLEL_DOMAIN:
            state = _WorkerState(ctx, self.child)
            states.append(state)
            results = [self._run_morsel(state, morsel)
                       for morsel in morsels]
        else:
            results = self._run_pool(ctx, morsels, states)
        self.workers_used = len(states)

        self._merge(ctx, states)
        batches = [batch for morsel in results for batch in morsel]
        if batches:
            merged = ops.Batch({slot: [value for batch in batches
                                       for value in batch[slot]]
                                for slot in batches[0]},
                               sum(map(len, batches)))
            for batch in merged.slices(ctx.batch_size):
                yield self._emit(batch)

    def _run_pool(self, ctx, morsels, states):
        from concurrent.futures import ThreadPoolExecutor
        local = threading.local()
        states_lock = threading.Lock()
        # Snapshot Retrieves pin their read view on the issuing thread;
        # worker threads must re-enter the same scope or they would read
        # physical state from a different epoch mid-query.
        store = ctx.store
        snap = store.current_snapshot() \
            if hasattr(store, "current_snapshot") else None
        # Each worker counts into a frame of its own, built on this
        # thread's innermost one — which collects them at the barrier.
        perf = store.perf
        home = perf.frame()

        def task(morsel):
            state = getattr(local, "state", None)
            if state is None:
                state = _WorkerState(ctx, self.child)
                # Never closed here: this thread ends with the pool.
                state.frame = perf.open(under=home)
                local.state = state
                with states_lock:
                    states.append(state)
            if snap is None:
                return self._run_morsel(state, morsel)
            with store.snapshot_scope(snap):
                return self._run_morsel(state, morsel)

        pool_size = min(self.parallelism, len(morsels))
        try:
            with ThreadPoolExecutor(max_workers=pool_size,
                                    thread_name_prefix="sim-morsel") as pool:
                futures = [pool.submit(task, morsel) for morsel in morsels]
                # Collect in submission (= root-enumeration) order: the
                # merge is deterministic no matter which worker finished
                # first.
                return [future.result() for future in futures]
        finally:
            # The pool has drained: no worker counts any more, and a
            # statement that raised still accounts the reads it made.
            for state in states:
                perf.close(state.frame)

    @staticmethod
    def _run_morsel(state: _WorkerState, morsel) -> List:
        state.leaf.domain_override = morsel
        batches = list(state.sink.run(state.ctx))
        state.morsels += 1
        return batches

    # -- Barrier bookkeeping ------------------------------------------------------

    def _merge(self, ctx: ops.ExecContext, states: List[_WorkerState]) -> None:
        """Fold per-worker operator counters and trace stats into the
        template segment.  The template operators never ran themselves,
        so adding each clone's totals exactly once reproduces the serial
        counters — no double-counting into ``ResultSet.perf``."""
        template = self.child.chain()
        for state in states:
            for template_op, clone_op in zip(template, state.sink.chain()):
                template_op.batches += clone_op.batches
                template_op.rows_in += clone_op.rows_in
                template_op.rows_out += clone_op.rows_out
            if state.stats and ctx.stats is not None:
                for node_id, (loops, rows) in state.stats.items():
                    entry = ctx.stats.setdefault(node_id, [0, 0])
                    entry[0] += loops
                    entry[1] += rows
        for template_op in template:
            template_op.workers = len(states)
            template_op.morsels = self.morsels
