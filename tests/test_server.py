"""The multi-client socket server: session-per-connection, admission
control with load shedding, statement timeouts, fault tolerance on
client disconnect, and graceful shutdown."""

import socket
import threading
import time

import pytest

from repro import Database
from repro.engine.sessions import Session
from repro.errors import ServerOverloaded, StaticUpdateError
from repro.interfaces.server import ServerError, SimClient
from repro.workloads import UNIVERSITY_DDL


@pytest.fixture()
def db():
    database = Database(UNIVERSITY_DDL, constraint_mode="off")
    database.execute('Insert course(course-no := 101, title := "Algebra",'
                     ' credits := 3)')
    database.execute('Insert department(dept-nbr := 100, name := "Physics")')
    return database


@pytest.fixture()
def server(db):
    srv = db.serve()
    yield srv
    srv.stop()


def connect(server, **kwargs):
    host, port = server.address
    return SimClient(host, port, **kwargs)


class TestOneStatementPipeline:
    """A statement is checked the same way whichever door it came in
    by: ``Database.execute``, a ``Session``, or a ``SimClient``."""

    REJECTED = [
        ('Modify person(no-such-attr := 3) Where name = "x"', "SIM120"),
        ("Insert nosuchclass(name := 1)", "SIM126"),
    ]

    @pytest.mark.parametrize("text, code", REJECTED)
    def test_static_rejection_is_the_same_through_every_door(
            self, db, server, text, code):
        session = Session(db)
        for run in (db.execute, session.execute):
            with pytest.raises(StaticUpdateError) as raised:
                run(text)
            assert raised.value.diagnostic_code == code
        assert session.holdings() == {}
        with connect(server) as client:
            with pytest.raises(ServerError) as raised:
                client.execute(text)
        assert raised.value.remote_type == "StaticUpdateError"
        assert f"[{code}]" in str(raised.value)

    def test_rejected_statement_never_waits_for_a_lock(self, db):
        holder = Session(db)
        holder.execute('Modify person(name := "y") Where name = "x"')
        started = time.monotonic()
        with pytest.raises(StaticUpdateError):
            Session(db, lock_timeout=30.0).execute(
                'Modify person(no-such-attr := 3) Where name = "x"')
        assert time.monotonic() - started < 5.0
        holder.abort()


class TestProtocol:
    def test_query_and_update_roundtrip(self, db, server):
        with connect(server) as client:
            assert client.ping()
            result = client.query("From course Retrieve title, credits")
            assert result.rows == [("Algebra", 3)]
            assert result.to_dicts() == [{"title": "Algebra", "credits": 3}]
            assert client.execute('Modify course(credits := 5)'
                                  ' Where title = "Algebra"') == 1
            client.commit()
        assert db.query('From course Retrieve credits'
                        ' Where title = "Algebra"').scalar() == 5

    def test_abort_discards_update(self, db, server):
        client = connect(server)
        client.execute('Modify course(credits := 9) Where title = "Algebra"')
        client.abort()
        client.close()
        assert db.query('From course Retrieve credits'
                        ' Where title = "Algebra"').scalar() == 3

    def test_null_and_nonprimitive_values_serialize(self, db, server):
        db.execute('Insert person(name := "Jo", soc-sec-no := 1,'
                   ' birthdate := "1980-02-01")')
        with connect(server) as client:
            row = client.query('From person Retrieve name, birthdate, spouse'
                               ' Where soc-sec-no = 1').rows[0]
        assert row[0] == "Jo"
        assert isinstance(row[1], str) and "1980" in row[1]
        assert row[2] is None  # NULL crosses the wire as JSON null

    def test_server_errors_are_relayed_with_type(self, server):
        with connect(server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("From nowhere Retrieve nothing")
            assert excinfo.value.remote_type
            # The connection survives the failed statement.
            assert client.ping()

    def test_malformed_request_line(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            sock.sendall(b"this is not json\n")
            reply = sock.makefile("rb").readline()
            assert b'"ok": false' in reply
        finally:
            sock.close()


class TestConcurrency:
    def test_concurrent_clients_each_get_a_session(self, db, server):
        db.execute('Insert course(course-no := 102, title := "Sets",'
                   ' credits := 1)')
        errors = []

        def worker(i):
            try:
                with connect(server) as client:
                    for _ in range(5):
                        rows = client.query("From course Retrieve title").rows
                        assert len(rows) == 2
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert server.statistics()["connections_served"] == 4

    def test_closed_connections_leave_no_bookkeeping_behind(self, server):
        for _ in range(50):
            with connect(server) as client:
                assert client.ping()
        # A handler drops its own entries on the way out — after the
        # client's close() has returned, so give the last ones a moment.
        deadline = time.monotonic() + 10.0
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.statistics()["connections_served"] == 50
        assert server.statistics()["open_connections"] == 0
        # ... and nothing else on the server kept one entry per connection
        # (it used to keep every connection's Thread until stop()).
        assert [name for name, value in vars(server).items()
                if isinstance(value, (list, dict, set)) and value] == []

    def test_disconnect_aborts_and_releases_locks(self, db, server):
        client = connect(server)
        client.execute('Modify course(credits := 9) Where title = "Algebra"')
        # Drop the connection without commit: the server must abort the
        # session and free its exclusive lock.
        client._sock.shutdown(socket.SHUT_RDWR)
        client._sock.close()
        # A blocking local writer rides out the server-side abort: once
        # the dead session's lock is released, the statement proceeds.
        local = Session(db, lock_timeout=10.0)
        local.execute('Modify course(credits := 4) Where title = "Algebra"')
        local.commit()
        assert db.query('From course Retrieve credits'
                        ' Where title = "Algebra"').scalar() == 4


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, db):
        server = db.serve(max_sessions=1, queue_depth=0)
        holder = Session(db)  # holds course exclusively, outside the server
        holder.execute('Modify course(credits := 9) Where title = "Algebra"')
        try:
            blocked = connect(server)
            shed = connect(server)
            # The first client's statement occupies the only slot while
            # it waits for the class lock.
            result = {}

            def run_blocked():
                try:
                    blocked.execute('Modify course(credits := 1)'
                                    ' Where title = "Algebra"', timeout=2.0)
                    result["outcome"] = "ran"
                except (ServerError, ServerOverloaded) as exc:
                    result["outcome"] = exc

            background = threading.Thread(target=run_blocked)
            background.start()
            time.sleep(0.3)  # let it enter the slot and start waiting
            with pytest.raises(ServerOverloaded):
                shed.execute("From course Retrieve title")
            holder.abort()  # free the lock; the queued statement finishes
            background.join(timeout=10.0)
            assert not background.is_alive()
            assert result["outcome"] == "ran"
            blocked.commit()
            assert server.statistics()["shed"] == 1
            blocked.close()
            shed.close()
        finally:
            holder.abort()
            server.stop()

    def test_statement_timeout_bounds_lock_waits(self, db):
        server = db.serve(statement_timeout=0.3)
        holder = Session(db)
        holder.execute('Modify course(credits := 9) Where title = "Algebra"')
        try:
            client = connect(server)
            started = time.monotonic()
            with pytest.raises(ServerError) as excinfo:
                client.execute('Modify course(credits := 1)'
                               ' Where title = "Algebra"')
            assert excinfo.value.remote_type == "LockTimeout"
            assert time.monotonic() - started < 5.0
            client.close()
        finally:
            holder.abort()
            server.stop()


class TestShutdown:
    def test_graceful_stop_aborts_open_transactions(self, db):
        server = db.serve()
        client = connect(server)
        client.execute('Modify course(credits := 9) Where title = "Algebra"')
        server.stop()
        # The uncommitted update is gone and its lock released.
        assert db.query('From course Retrieve credits'
                        ' Where title = "Algebra"').scalar() == 3
        local = Session(db, lock_timeout=1.0)
        local.execute('Modify course(credits := 2) Where title = "Algebra"')
        local.commit()

    def test_stop_drains_in_flight_statement(self, db, monkeypatch):
        """stop() is called only once the statement is provably inside
        Session.execute, and must let it finish and deliver its rows."""
        in_flight, stopping = threading.Event(), threading.Event()
        real_execute = Session.execute

        def held_execute(session, text, timeout=None):
            in_flight.set()
            assert stopping.wait(10.0)
            return real_execute(session, text, timeout)

        monkeypatch.setattr(Session, "execute", held_execute)
        server = db.serve()
        client = connect(server)
        outcome = {}

        def statement():
            try:
                outcome["rows"] = client.query(
                    "From course Retrieve title").rows
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=statement)
        thread.start()
        assert in_flight.wait(10.0)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        # The drain is now waiting on the held statement; let it run.
        assert server._stopping.wait(10.0)
        stopping.set()
        thread.join(timeout=10.0)
        stopper.join(timeout=10.0)
        assert not thread.is_alive() and not stopper.is_alive()
        assert outcome == {"rows": [("Algebra",)]}
        client.close()
