"""Timing shims around each layer's public entry points, and the span
arithmetic that turns them into per-layer self times.

Nothing under ``src/`` is edited: :func:`install` replaces the attributes
named in :data:`LAYER_ENTRYPOINTS` with wrappers and :func:`remove` puts
the originals back.  A span is ``(id, parent, layer, name, start_ns,
end_ns, op_id, thread, error)``; every thread keeps its own stack, so the
server's connection threads trace like the harness's client threads.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import repro.analysis
import repro.database
import repro.engine.executor
import repro.engine.sessions
import repro.optimizer.physical_plan
from repro.dml.qualification import Qualifier
from repro.engine.constraints import ConstraintManager
from repro.engine.executor import QueryExecutor
from repro.engine.sessions import LockManager, Session
from repro.engine.updates import UpdateEngine
from repro.interfaces.server import SimClient
from repro.mapper.store import MapperStore
from repro.optimizer.strategies import Optimizer
from repro.storage.buffer import BufferPool
from repro.storage.transactions import TransactionManager
from repro.storage.wal import WriteAheadLog

#: the harness's own root span per operation; time no shim covers
#: (facade glue, harness bookkeeping inside the op) lands here
BENCH_LAYER = "bench"

#: layer -> [(owner, attribute names)].  ``owner`` is the class or module
#: whose attribute callers resolve at call time.  Functions imported by
#: name are patched in every module that holds a reference; functions
#: imported lazily (inside the caller) are patched on their home package.
LAYER_ENTRYPOINTS: Dict[str, List[Tuple[object, Tuple[str, ...]]]] = {
    "dml.parser": [(repro.database, ("parse_dml",)),
                   (repro.engine.sessions, ("parse_dml",))],
    "dml.qualification": [(Qualifier, ("resolve_retrieve",))],
    "analysis": [(repro.analysis, ("lint_retrieve", "lint_update",
                                   "verify_plan")),
                 (repro.engine.executor, ("verify_physical",))],
    "optimizer": [(Optimizer, ("choose_plan",)),
                  (repro.optimizer.physical_plan, ("lower_plan",))],
    "engine.executor": [(QueryExecutor, ("run", "select_entities",
                                         "predicate_holds"))],
    "engine.updates": [(UpdateEngine, ("execute",))],
    "engine.constraints": [(ConstraintManager, ("after_statement",
                                                "before_commit"))],
    "engine.sessions": [(LockManager, ("acquire", "release_all")),
                        (Session, ("execute", "commit"))],
    "mapper.store": [(MapperStore, (
        "fetch_many", "record_of", "read_dva", "has_role",
        "traverse_eva_batch", "eva_targets", "find_by_dva", "scan_class",
        "write_dva", "insert_entity", "remove_role"))],
    "storage.buffer": [(BufferPool, ("get", "flush"))],
    "storage.wal": [(WriteAheadLog, ("append", "force"))],
    "storage.transactions": [(TransactionManager, ("commit_detached",))],
    "interfaces.server": [(SimClient, ("execute", "commit"))],
}

LAYERS = tuple(LAYER_ENTRYPOINTS)

Span = Tuple[int, int, str, str, int, int, int, str, Optional[str]]


class _ThreadState(threading.local):
    """Per-thread: the stack of open span ids and the operation id the
    harness announced on this thread (0 on a server thread)."""

    def __init__(self):
        self.stack: List[int] = []
        self.op_id = 0


class Tracer:
    """Collects spans from the installed shims."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        self._installed: List[Tuple[object, str, object]] = []

    # -- Recording --------------------------------------------------------

    def begin(self, layer: str, name: str) -> Tuple:
        stack = self._local.stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return (span_id, parent, layer, name, time.perf_counter_ns())

    def end(self, token: Tuple, error: Optional[str] = None) -> None:
        end_ns = time.perf_counter_ns()
        local = self._local
        local.stack.pop()
        self.spans.append(token + (end_ns, local.op_id,
                                   threading.current_thread().name, error))

    def operation(self, op_id: int, name: str) -> Tuple:
        """Open the harness's root span for one operation; every span
        this thread records until :meth:`end` carries ``op_id``."""
        self._local.op_id = op_id
        return self.begin(BENCH_LAYER, name)

    # -- Shims ------------------------------------------------------------

    def _wrap(self, function, layer: str, name: str):
        begin, end = self.begin, self.end
        if inspect.isgeneratorfunction(function):
            # The work of a generator happens in its consumer's frame:
            # time each resumption, or the layer would read as idle.
            def generator_shim(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    token = begin(layer, name)
                    try:
                        value = next(iterator)
                    except StopIteration:
                        end(token)
                        return
                    except BaseException as exc:
                        end(token, type(exc).__name__)
                        raise
                    end(token)
                    yield value
            return generator_shim

        def shim(*args, **kwargs):
            token = begin(layer, name)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                end(token, type(exc).__name__)
                raise
            end(token)
            return result
        return shim

    def install(self, layers=LAYERS) -> None:
        for layer in layers:
            for owner, names in LAYER_ENTRYPOINTS[layer]:
                for attribute in names:
                    original = owner.__dict__[attribute]
                    label = f"{getattr(owner, '__name__', owner)}" \
                            f".{attribute}".rsplit("repro.", 1)[-1]
                    setattr(owner, attribute,
                            self._wrap(original, layer, label))
                    self._installed.append((owner, attribute, original))

    def remove(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


def write_jsonl(path, spans: List[Span], budget: int) -> None:
    """Write the spans of the first operations, whole operations
    only, until ``budget`` spans are used (always at least one
    operation): the file is for reading span trees, the metrics are
    computed from every span."""
    per_operation = Counter(span[6] for span in spans)
    last_operation, used = 0, 0
    for op_id in sorted(per_operation):
        used += per_operation[op_id]
        if last_operation and used > budget:
            break
        last_operation = op_id
    keys = ("id", "parent", "layer", "name", "start_ns", "end_ns", "op_id",
            "thread", "error")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            if span[6] <= last_operation:
                record = dict(zip(keys, span))
                record["parent"] = record["parent"] or None
                handle.write(json.dumps(record) + "\n")


def adopt_server_spans(spans: List[Span], client_threads: List[str]
                       ) -> List[Span]:
    """Hang each server-side root span under the client round trip that
    caused it.

    The k-th ``SimClient`` span of client thread *c* and the k-th root
    span of the c-th connection thread are the same request (connections
    are opened in client order and each is a closed loop), so the server
    root takes the client span as parent, and it and everything below it
    take the client's operation id.  The client span's self time is then
    what ``interfaces.server`` costs: the round trip minus the session
    work done on its behalf.
    """
    server_threads = sorted(
        {span[7] for span in spans
         if span[7].startswith("sim-server-conn-")},
        key=lambda name: int(name.rsplit("-", 1)[1]))
    calls = {server: [span for span in spans if span[7] == client
                      and span[2] == "interfaces.server"]
             for client, server in zip(client_threads, server_threads)}
    request_no = dict.fromkeys(calls, 0)
    adopted = []
    for span in spans:
        thread = span[7]
        # A thread appends children before their root, so every span up
        # to and including the next root belongs to the current request.
        if thread in calls and request_no[thread] < len(calls[thread]):
            call = calls[thread][request_no[thread]]
            is_root = span[1] == 0
            span = (span[0], call[0] if is_root else span[1]) \
                + span[2:6] + (call[6],) + span[7:]
            if is_root:
                request_no[thread] += 1
        adopted.append(span)
    return adopted


def layer_times(spans: List[Span]) -> Tuple[Dict[str, int], Dict[str, int],
                                            int]:
    """Self time and call count per layer, plus the total time inside
    operations (the sum of the harness's root spans).

    A span's self time is its duration minus the durations of its direct
    children; children never outlive their parent, except a server span
    adopted by a client round trip, which lies inside it by causality.
    """
    child_time: Dict[int, int] = {}
    for span in spans:
        if span[1]:
            child_time[span[1]] = child_time.get(span[1], 0) \
                + span[5] - span[4]
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    op_ns = 0
    for span in spans:
        duration = span[5] - span[4]
        layer = span[2]
        self_ns[layer] = self_ns.get(layer, 0) + duration \
            - child_time.get(span[0], 0)
        calls[layer] = calls.get(layer, 0) + 1
        if layer == BENCH_LAYER:
            op_ns += duration
    return self_ns, calls, op_ns
