"""A multi-client network front end over :class:`~repro.engine.sessions.
Session` (paper §1: SIM ran as a shared server under the BTOS/CTOS
message-based OS; clients talked to it through a request port).

The transport is deliberately simple — newline-delimited JSON over TCP —
so any language can drive it, and the interesting parts live where the
paper's did: session management, admission control, and fault tolerance.

* one :class:`~repro.engine.sessions.Session` per connection, so each
  client gets its own transaction, lock identity, and deadlock-retry
  budget; a dropped connection aborts its open transaction and releases
  every lock it held;
* admission control: at most ``max_sessions`` statements execute at
  once; up to ``queue_depth`` more wait their turn, and beyond that the
  server *sheds* the statement with a typed :class:`~repro.errors.
  ServerOverloaded` error instead of letting latency grow without bound;
* per-statement timeouts: the server-wide ``statement_timeout`` (or a
  per-request override) bounds each statement's lock waits, so a client
  stuck behind a long writer gets a clean ``LockTimeout`` back, not a
  hung socket;
* graceful shutdown: :meth:`SimServer.stop` stops accepting, lets
  in-flight statements drain, then aborts whatever transactions remain
  open so no lock outlives the server.

Wire protocol — requests are one JSON object per line::

    {"op": "execute", "text": "Modify ...", "timeout": 2.0}
    {"op": "query",   "text": "From x Retrieve y"}
    {"op": "commit"} | {"op": "abort"} | {"op": "ping"}

and responses mirror them::

    {"ok": true, "result": 3}
    {"ok": true, "columns": ["y"], "rows": [[1], [2]]}
    {"ok": false, "error": "DeadlockError", "message": "..."}

:class:`SimClient` wraps the protocol for Python callers and re-raises
server-side failures as :class:`ServerError` (carrying the original
class name), except :class:`~repro.errors.ServerOverloaded`, which is
re-raised as itself so retry loops can catch the real type.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.sessions import Session
from repro.errors import ServerOverloaded, SimError
from repro.storage.latch import ranked_condition, ranked_lock
from repro.types.tvl import is_null

#: the store counters :meth:`SimServer.statistics` serves
SERVED_COUNTERS = (
    "plan_cache_hits", "plan_cache_misses", "plan_cache_invalidations",
    "plan_cache_entries", "snapshot_find_overlays", "snapshot_find_scans")


def _jsonable(value):
    """A JSON-safe rendering of one result cell.  Nulls (UNKNOWN) map to
    JSON ``null``; anything non-primitive (dates, decimals) goes through
    ``str`` — the wire format is for clients, not round-tripping."""
    if is_null(value):
        return None
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


class ServerError(SimError):
    """A server-side failure relayed to the client.  ``remote_type``
    names the original exception class (e.g. ``"LockTimeout"``)."""

    def __init__(self, remote_type: str, message: str):
        self.remote_type = remote_type
        super().__init__(f"{remote_type}: {message}")


class _AdmissionGate:
    """Bounded two-stage admission: ``slots`` statements run, at most
    ``queue_depth`` wait, the rest are shed.  A plain semaphore cannot
    shed — it has no notion of queue length — so the gate tracks the
    waiter count under its own mutex and rejects before blocking."""

    def __init__(self, slots: int, queue_depth: int):
        self._slots = threading.BoundedSemaphore(slots)
        self._mutex = ranked_lock("server.gate")
        self._queue_depth = queue_depth
        self._queued = 0
        self.shed = 0
        self.queued_peak = 0

    def __enter__(self):
        if self._slots.acquire(blocking=False):
            return self
        with self._mutex:
            if self._queued >= self._queue_depth:
                self.shed += 1
                raise ServerOverloaded(
                    f"server at capacity ({self._queued} statements "
                    f"already queued); retry after backoff")
            self._queued += 1
            self.queued_peak = max(self.queued_peak, self._queued)
        try:
            self._slots.acquire()
        finally:
            with self._mutex:
                self._queued -= 1
        return self

    def __exit__(self, exc_type, exc, tb):
        self._slots.release()
        return False


class SimServer:
    """A threaded socket server sharing one :class:`~repro.database.
    Database` across many client connections.

    Parameters
    ----------
    max_sessions:
        statements allowed to execute concurrently (admission slots).
    queue_depth:
        statements allowed to *wait* for a slot before new arrivals are
        shed with :class:`~repro.errors.ServerOverloaded`.
    statement_timeout:
        default lock-wait bound per statement, in seconds (a request's
        ``timeout`` field overrides it).
    session_kwargs:
        extra keyword arguments for each connection's ``Session``
        (``mvcc``, ``lock_timeout``, ``entity_locks``).
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0,
                 max_sessions: int = 8, queue_depth: int = 16,
                 statement_timeout: Optional[float] = None,
                 **session_kwargs):
        self.database = database
        self.statement_timeout = statement_timeout
        self.session_kwargs = session_kwargs
        self._gate = _AdmissionGate(max_sessions, queue_depth)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._accepting = False
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = ranked_lock("server.connections")
        #: open connections only: a handler drops its entry on the way out
        self._connections: Dict[int, Tuple[socket.socket, Session,
                                           threading.Thread]] = {}
        self._next_conn = 0
        self._inflight = 0
        self._drained = ranked_condition(self._conn_lock)
        self.statements = 0
        self.connections_served = 0

    @property
    def port(self) -> int:
        return self.address[1]

    # -- Lifecycle ---------------------------------------------------------------

    def start(self) -> "SimServer":
        with self._conn_lock:
            self._accepting = True
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="sim-server-accept",
                daemon=True)
            thread = self._accept_thread
        thread.start()
        return self

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, wait up to ``drain_timeout``
        seconds for in-flight statements to drain, then close every
        connection (aborting its open transaction).  Idle connections —
        threads parked waiting for the next request — are not statements
        and are closed immediately once the drain completes."""
        self._stopping.set()
        with self._conn_lock:
            self._accepting = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected to / platform quirk — close suffices
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        with self._drained:
            self._drained.wait_for(lambda: self._inflight == 0,
                                   timeout=drain_timeout)
            conns = list(self._connections.values())
        # Wake every parked reader; its handler aborts the session on
        # the way out, so no lock outlives the server.
        for sock, _session, _thread in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for _sock, _session, thread in conns:
            thread.join(timeout=max(1.0, drain_timeout))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- Accept / connection handling --------------------------------------------

    def _accept_loop(self) -> None:
        while self._accepting:
            try:
                sock, _addr = self._sock.accept()
            except OSError:
                return  # socket closed by stop()
            with self._conn_lock:
                if self._stopping.is_set():
                    sock.close()
                    return
                self._next_conn += 1
                conn_id = self._next_conn
                session = Session(self.database, **self.session_kwargs)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn_id, sock, session),
                    name=f"sim-server-conn-{conn_id}", daemon=True)
                self._connections[conn_id] = (sock, session, thread)
                self.connections_served += 1
            thread.start()

    def _serve_connection(self, conn_id: int, sock: socket.socket,
                          session: Session) -> None:
        reader = sock.makefile("rb")
        try:
            for raw in reader:
                line = raw.strip()
                if not line:
                    continue
                # In flight until the reply is on the wire: stop() must
                # not close the socket between a statement and its rows.
                with self._drained:
                    self._inflight += 1
                try:
                    response = self._handle(session, line)
                    if response is None:  # client said goodbye
                        break
                    payload = (json.dumps(response) + "\n").encode("utf-8")
                    try:
                        sock.sendall(payload)
                    except OSError:
                        break
                finally:
                    with self._drained:
                        self._inflight -= 1
                        self._drained.notify_all()
        finally:
            reader.close()
            try:
                sock.close()
            except OSError:
                pass
            # Fault tolerance: a vanished client must not strand locks.
            try:
                session.abort()
            except Exception:
                pass
            with self._conn_lock:
                self._connections.pop(conn_id, None)

    # -- Request dispatch --------------------------------------------------------

    def _handle(self, session: Session, line: bytes) -> Optional[Dict]:
        try:
            request = json.loads(line.decode("utf-8"))
            op = request.get("op")
            if op == "close":
                return None
            if op == "ping":
                return {"ok": True, "result": "pong"}
            if op == "commit":
                session.commit()
                return {"ok": True, "result": "committed"}
            if op == "abort":
                session.abort()
                return {"ok": True, "result": "aborted"}
            if op in ("execute", "query"):
                return self._statement(session, request)
            raise SimError(f"unknown op {op!r}")
        except Exception as exc:  # every failure becomes a typed reply
            return {"ok": False, "error": type(exc).__name__,
                    "message": str(exc)}

    def _statement(self, session: Session, request: Dict) -> Dict:
        if self._stopping.is_set():
            raise ServerOverloaded("server is shutting down")
        timeout = request.get("timeout", self.statement_timeout)
        with self._gate:
            result = session.execute(request["text"], timeout=timeout)
        with self._conn_lock:
            self.statements += 1
        if hasattr(result, "rows") and hasattr(result, "columns"):
            return {"ok": True, "columns": list(result.columns),
                    "rows": [[_jsonable(v) for v in row]
                             for row in result.rows]}
        return {"ok": True, "result": _jsonable(result)}

    # -- Introspection -----------------------------------------------------------

    def statistics(self) -> Dict[str, Any]:
        with self._conn_lock:
            open_connections = len(self._connections)
        counts = self.database.perf.as_dict()
        return {
            **{name: counts[name] for name in SERVED_COUNTERS},
            "address": list(self.address),
            "connections_served": self.connections_served,
            "open_connections": open_connections,
            "statements": self.statements,
            "shed": self._gate.shed,
            "queued_peak": self._gate.queued_peak,
        }


class RemoteResult:
    """A client-side stand-in for :class:`~repro.engine.output.
    ResultSet`: columns + rows with the same access helpers."""

    def __init__(self, columns: List[str], rows: List[list]):
        self.columns = columns
        self.rows = [tuple(row) for row in rows]

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def scalar(self):
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError(f"scalar() needs a 1x1 result, got "
                             f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class SimClient:
    """A blocking JSON-lines client for :class:`SimServer`.

    Each client holds one connection — hence one server-side session and
    transaction.  Server-side errors raise :class:`ServerError`, except
    overload sheds, which raise :class:`~repro.errors.ServerOverloaded`
    directly so callers can write typed retry loops.
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout)
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("rb")
        self._lock = ranked_lock("server.client")

    def _call(self, request: Dict) -> Dict:
        # Holding the lock across the round trip is the point: one
        # request/response pair at a time per connection.
        with self._lock:
            self._sock.sendall(  # noqa: SIM302
                (json.dumps(request) + "\n").encode("utf-8"))
            raw = self._reader.readline()  # noqa: SIM302
        if not raw:
            raise ServerError("ConnectionClosed",
                              "server closed the connection")
        response = json.loads(raw.decode("utf-8"))
        if response.get("ok"):
            return response
        if response.get("error") == "ServerOverloaded":
            raise ServerOverloaded(response.get("message", ""))
        raise ServerError(response.get("error", "SimError"),
                          response.get("message", ""))

    def execute(self, text: str, timeout: Optional[float] = None):
        request: Dict[str, Any] = {"op": "execute", "text": text}
        if timeout is not None:
            request["timeout"] = timeout
        response = self._call(request)
        if "columns" in response:
            return RemoteResult(response["columns"], response["rows"])
        return response.get("result")

    def query(self, text: str, timeout: Optional[float] = None):
        return self.execute(text, timeout=timeout)

    def commit(self) -> None:
        self._call({"op": "commit"})

    def abort(self) -> None:
        self._call({"op": "abort"})

    def ping(self) -> bool:
        return self._call({"op": "ping"}).get("result") == "pong"

    def close(self) -> None:
        try:
            with self._lock:
                self._sock.sendall(b'{"op": "close"}\n')  # noqa: SIM302
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            try:
                self.commit()
            except ServerError:
                pass
        else:
            try:
                self.abort()
            except (ServerError, OSError):
                pass
        self.close()
        return False
