"""The four workloads: set-up, the operation each client repeats, and the
answer oracle that checks every result.

Two databases are used.  The analytic workloads run the six
``scale_queries`` as one *round* per operation over ``scale_schema(3)``;
they differ only in what fits in memory.  The OLTP workloads run one
seeded statement mix over UNIVERSITY, once through an in-process
``Session`` and once through ``SimServer``, whose clients live in a
process of their own (``client_process.py``) so that they do not share
the server's interpreter lock.

Every size is a constant here and is stamped into the result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.database import Database
from repro.errors import SimError
from repro.interfaces.server import SimServer
from repro.types.tvl import is_null
from repro.workloads.generators import (
    populate_scale,
    scale_queries,
    scale_schema,
)
from repro.workloads.university import UNIVERSITY_DDL, populate_university

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

#: seeds with committed analytic goldens (the first is the default seed)
GOLDEN_SEEDS = (1, 2)

CHAIN_DEPTH = 3
ANALYTIC_ENTITIES = 10_000
#: buffer-pool frames of ``analytic_cold``: 12 % of the 839 blocks the
#: 10 000-entity database occupies
COLD_POOL_FRAMES = 104
#: buffer-pool frames of ``analytic_warm`` and of the OLTP workloads: the
#: whole database (839 and ~800 blocks) fits, so operations pay for
#: their layers, not for eviction
FITTING_POOL_FRAMES = 2048

UNIVERSITY_SIZES = dict(departments=20, instructors=200, students=4000,
                        courses=400)
#: ``--smoke`` divides every data size by this
SMOKE_DIVISOR = 10
FIRST_EMPLOYEE_NBR = 1001
FIRST_COURSE_NO = 101
#: course numbers of inserted courses start here; each client owns a
#: block of ``INSERT_KEYS_PER_CLIENT`` numbers (course-no tops out at 9999)
FIRST_INSERT_COURSE_NO = 5000
INSERT_KEYS_PER_CLIENT = 2000

#: interpreter switch interval of the process that hosts ``SimServer``,
#: as a threaded server that cares for latency would set it.  At the
#: default 5 ms a connection's short request waits out the other
#: connection's long statement: write latency is then bimodal, its
#: median sits on the cliff between the modes and spreads 10-15 % from
#: run to run (3-5 % at 0.5 ms); throughput is the same.
SERVER_SWITCH_INTERVAL_S = 0.0005

READ, WRITE = "read", "write"

#: span ids of the client process are shifted clear of the harness's
CLIENT_SPAN_ID_BASE = 1 << 40


def closed_loop(clients, tracer, seconds=None, operations=None):
    """Drive every client in a closed loop, one thread each (the calling
    thread when there is one client), for ``seconds`` or for a fixed
    number of ``operations`` per client.

    Returns ({kind: [latency ns]}, failed, elapsed seconds).
    """
    failed = [0] * len(clients)
    collected = [None] * len(clients)
    barrier = threading.Barrier(len(clients))

    def drive(index: int) -> None:
        step = clients[index].step
        mine = {READ: [], WRITE: []}
        barrier.wait()
        deadline = None if seconds is None \
            else time.perf_counter() + seconds
        count = 0
        while (count < operations if deadline is None
               else time.perf_counter() < deadline or count == 0):
            # Operation ids interleave so they are unique across clients.
            kind, elapsed_ns, correct = step(
                count * len(clients) + index + 1, tracer)
            mine[kind].append(elapsed_ns)
            failed[index] += not correct
            count += 1
        collected[index] = mine

    gc.collect()
    threads = [threading.Thread(target=drive, args=(index,),
                                name=f"bench-client-{index}")
               for index in range(1, len(clients))]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    drive(0)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    samples = {kind: [value for mine in collected for value in mine[kind]]
               for kind in (READ, WRITE)}
    return samples, sum(failed), elapsed


def _cell(value):
    """One result cell in a form that reads the same in process and off
    the wire (the server sends nulls as ``None`` and decimals as text)."""
    if value is None or is_null(value):
        return None
    return str(value)


def _rows(result) -> List[tuple]:
    return [tuple(_cell(value) for value in row) for row in result.rows]


# ---------------------------------------------------------------- analytic

class AnalyticWorkload:
    """``scale_queries`` over a ``scale_schema`` database, one round of
    all six statements per operation, through ``Database.execute``."""

    clients = 1
    client_threads: List[str] = []
    min_traced_ops = 2

    def __init__(self, name: str, seed: int, cold: bool, entities: int):
        self.name = name
        self.seed = seed
        self.cold = cold
        self.entities = entities
        #: untraced rounds per second on the reference box; fixes the
        #: operation count of the traced pass
        self.nominal_ops_per_second = 0.9 if cold else 7.0
        self.queries = scale_queries(CHAIN_DEPTH)
        self.database: Optional[Database] = None
        self.server = None
        self.entities_loaded = 0
        self.populate_s = 0.0
        self.pool_frames = COLD_POOL_FRAMES if cold else FITTING_POOL_FRAMES
        self.rows_returned = 0
        self.errors: List[str] = []
        self._expected: Optional[List[str]] = None

    # -- Set-up -----------------------------------------------------------

    def build(self) -> None:
        """Schema, populate, flush, size the pool."""
        database = Database(scale_schema(CHAIN_DEPTH), constraint_mode="off")
        started = time.perf_counter()
        created = populate_scale(database, self.entities,
                                 chain_depth=CHAIN_DEPTH, seed=self.seed)
        self.populate_s = time.perf_counter() - started
        self.entities_loaded = sum(len(v) for v in created.values())
        database.store.pool.flush()
        database.store.pool.resize(self.pool_frames)
        self.database = database

    def warm_up(self) -> None:
        """One round: fills the caches on ``analytic_warm`` and fixes the
        answers every later round must repeat — the committed golden's
        when this seed has one."""
        digests = self._digests(self._round())
        golden = GOLDEN_DIR / f"analytic-seed{self.seed}.json"
        if self.entities == ANALYTIC_ENTITIES and golden.exists():
            self._expected = json.loads(golden.read_text())["digests"]
        else:
            self._expected = digests

    def op_counts(self) -> Dict[str, int]:
        return {"entities": self.entities_loaded,
                "statements_per_round": len(self.queries)}

    # -- Operations -------------------------------------------------------

    def _round(self) -> List:
        execute = self.database.execute
        return [execute(text) for text in self.queries]

    @staticmethod
    def _digests(results) -> List[str]:
        return [f"{len(result.rows)}:"
                + hashlib.sha256(repr(result.rows).encode()).hexdigest()[:16]
                for result in results]

    def open_clients(self) -> None:
        pass

    def close_clients(self) -> None:
        pass

    def loop(self, tracer, seconds=None, operations=None):
        return closed_loop([self], tracer, seconds, operations)

    def step(self, op_id: int, tracer) -> Tuple[str, int, bool]:
        if self.cold:
            self.database.cold_cache()
        token = tracer.operation(op_id, "round") if tracer else None
        started = time.perf_counter_ns()
        results = self._round()
        elapsed = time.perf_counter_ns() - started
        if tracer:
            tracer.end(token)
        self.rows_returned += sum(len(result.rows) for result in results)
        digests = self._digests(results)
        if digests != self._expected:
            self.errors.append(f"round {op_id}: digests {digests} are not "
                               f"{self._expected}")
        return READ, elapsed, digests == self._expected

    # -- End of run -------------------------------------------------------

    def final_oracle(self) -> Tuple[int, int, float]:
        """(checks, failures, recovery ms) — nothing was written, so there
        is nothing to recover or re-read."""
        return 0, 0, 0.0

    def golden(self) -> Dict:
        """The content of this seed's golden file."""
        return {"seed": self.seed, "entities": self.entities,
                "queries": self.queries,
                "digests": self._digests(self._round())}


# -------------------------------------------------------------------- OLTP

class Ledger:
    """What the harness knows must be in the database: the values it
    read once before timing for attributes nothing writes, and the value
    of every write it has seen commit."""

    def __init__(self):
        #: employee-nbr -> (name, department name)
        self.instructor_static: Dict[int, Tuple[str, str]] = {}
        self.salary: Dict[int, Decimal] = {}
        #: course-no -> [(teacher name, student name)] in answer order
        self.course_pairs: Dict[int, List[Tuple]] = {}
        self.title: Dict[int, str] = {}
        self.deleted: set = set()
        # Two clients write disjoint keys, but the dicts are shared.
        self.lock = threading.Lock()

    def to_json(self) -> Dict:
        return {"instructor_static": self.instructor_static,
                "salary": {key: str(v) for key, v in self.salary.items()},
                "course_pairs": self.course_pairs, "title": self.title,
                "deleted": sorted(self.deleted)}

    @classmethod
    def from_json(cls, data: Dict) -> "Ledger":
        ledger = cls()
        ledger.instructor_static = {
            int(key): tuple(v) for key, v in data["instructor_static"].items()}
        ledger.salary = {int(key): Decimal(v)
                         for key, v in data["salary"].items()}
        ledger.course_pairs = {
            int(key): [tuple(pair) for pair in pairs]
            for key, pairs in data["course_pairs"].items()}
        ledger.title = {int(key): v for key, v in data["title"].items()}
        ledger.deleted = set(data["deleted"])
        return ledger


def instructor_query(key: int) -> str:
    return ("From instructor Retrieve name, salary, name of "
            f"assigned-department Where employee-nbr = {key}")


def course_query(key: int) -> str:
    return ("From course Retrieve title, name of teachers, name of "
            f"students-enrolled Where course-no = {key}")


def check_instructor(ledger: Ledger, key: int, rows, mutable: bool) -> bool:
    if len(rows) != 1:
        return False
    name, salary, department = rows[0]
    if (name, department) != ledger.instructor_static[key]:
        return False
    return not mutable or Decimal(salary) == ledger.salary[key]


def check_course(ledger: Ledger, key: int, rows, mutable: bool) -> bool:
    if key not in ledger.title:
        return rows == []
    pairs = ledger.course_pairs.get(key, [(None, None)])
    if [row[1:] for row in rows] != pairs:
        return False
    return not mutable or all(row[0] == ledger.title[key] for row in rows)


class OltpClient:
    """One closed-loop client: a seeded statement stream over its own
    partition of the write keys, checked against the shared ledger.
    ``handle`` is a ``Session`` or a ``SimClient``."""

    def __init__(self, seed: int, index: int, clients: int,
                 sizes: Dict[str, int], ledger: Ledger, errors: List[str],
                 handle):
        self.index = index
        self.clients = clients
        self.handle = handle
        self.ledger = ledger
        self.errors = errors
        self.rng = random.Random(seed * 1_000_003 + index)
        self.all_instructors = range(
            FIRST_EMPLOYEE_NBR, FIRST_EMPLOYEE_NBR + sizes["instructors"])
        self.all_courses = range(FIRST_COURSE_NO,
                                 FIRST_COURSE_NO + sizes["courses"])
        self.own_instructors = self.all_instructors[index::clients]
        self.own_courses = self.all_courses[index::clients]
        self.inserted: List[int] = []
        self._next_insert = 0
        self.rows_returned = 0

    def owns(self, key: int, first: int) -> bool:
        return (key - first) % self.clients == self.index

    # -- Statement stream -------------------------------------------------

    def next_operation(self):
        """(kind, text, check(rows) for a read, apply() for a write)."""
        rng = self.rng
        draw = rng.random()
        ledger = self.ledger
        if draw < 0.60:
            key = rng.choice(self.all_instructors)
            mutable = self.owns(key, FIRST_EMPLOYEE_NBR)
            return (READ, instructor_query(key),
                    lambda rows: check_instructor(ledger, key, rows, mutable))
        if draw < 0.80:
            key = rng.choice(self.all_courses)
            mutable = self.owns(key, FIRST_COURSE_NO)
            return (READ, course_query(key),
                    lambda rows: check_course(ledger, key, rows, mutable))
        choice = rng.randrange(5)
        if choice < 2:
            key = rng.choice(self.own_instructors)
            salary = Decimal(30000 + rng.randrange(50000))
            return (WRITE, f"Modify instructor(salary := {salary}) "
                           f"Where employee-nbr = {key}",
                    lambda: ledger.salary.__setitem__(key, salary))
        if choice == 4 and self.inserted:
            key = self.inserted[0]

            def deleted():
                self.inserted.pop(0)
                del ledger.title[key]
                ledger.deleted.add(key)
            return WRITE, f"Delete course Where course-no = {key}", deleted
        if choice == 3:
            pool = self.inserted if self.inserted and rng.random() < 0.5 \
                else self.own_courses
            key = rng.choice(pool)
            title = f"Seminar {rng.randrange(1_000_000)}"
            return (WRITE, f'Modify course(title := "{title}") '
                           f"Where course-no = {key}",
                    lambda: ledger.title.__setitem__(key, title))
        key = (FIRST_INSERT_COURSE_NO + self.index * INSERT_KEYS_PER_CLIENT
               + self._next_insert % INSERT_KEYS_PER_CLIENT)
        self._next_insert += 1
        title = f"Inserted {key}"

        def inserted():
            self.inserted.append(key)
            ledger.title[key] = title
            ledger.deleted.discard(key)
        return (WRITE, f"Insert course(course-no := {key}, "
                       f'title := "{title}", credits := 3)', inserted)

    def step(self, op_id: int, tracer) -> Tuple[str, int, bool]:
        kind, text, settle = self.next_operation()
        handle = self.handle
        token = tracer.operation(op_id, kind) if tracer else None
        started = time.perf_counter_ns()
        try:
            result = handle.execute(text)
            if kind == WRITE:
                handle.commit()
            error = None
        except SimError as exc:
            error = exc
        elapsed = time.perf_counter_ns() - started
        if tracer:
            tracer.end(token)
        if error is not None:
            self.errors.append(f"{text}: {error!r}")
            return kind, elapsed, False
        if kind == WRITE:
            if result != 1:
                self.errors.append(f"{text}: affected {result}")
                return kind, elapsed, False
            with self.ledger.lock:
                settle()
            return kind, elapsed, True
        rows = _rows(result)
        self.rows_returned += len(rows)
        with self.ledger.lock:
            correct = settle(rows)
        if not correct:
            self.errors.append(f"{text}: unexpected {rows[:3]}")
        return kind, elapsed, correct


class OltpWorkload:
    """UNIVERSITY under a 60/20/20 mix of indexed point reads, short
    indexed traversals and one-statement write transactions."""

    min_traced_ops = 50

    def __init__(self, name: str, seed: int, clients: int, served: bool,
                 sizes: Dict[str, int], nominal_ops_per_second: float):
        self.name = name
        self.seed = seed
        self.clients = clients
        self.served = served
        self.sizes = sizes
        #: untraced operations per second on the reference box, all
        #: clients together; fixes the operation count of the traced pass
        self.nominal_ops_per_second = nominal_ops_per_second
        self.database: Optional[Database] = None
        self.server: Optional[SimServer] = None
        self.ledger = Ledger()
        self.errors: List[str] = []
        self.entities_loaded = 0
        self.populate_s = 0.0
        self.pool_frames = FITTING_POOL_FRAMES
        self.rows_returned = 0
        #: names of the client process's threads, in connection order
        self.client_threads = (
            ["MainThread"] + [f"bench-client-{index}"
                              for index in range(1, clients)]
            if served else [])
        self._clients: List[OltpClient] = []
        self._process: Optional[subprocess.Popen] = None

    # -- Set-up -----------------------------------------------------------

    def build(self) -> None:
        database = Database(UNIVERSITY_DDL, constraint_mode="immediate")
        started = time.perf_counter()
        created = populate_university(database, seed=self.seed, **self.sizes)
        self.populate_s = time.perf_counter() - started
        # Teaching assistants are students promoted in place, not loaded.
        self.entities_loaded = sum(
            len(v) for k, v in created.items() if k != "teaching-assistant")
        database.store.pool.flush()
        database.store.pool.resize(self.pool_frames)
        self.database = database

    def warm_up(self) -> None:
        """Read every key once through a snapshot session: fills the
        ledger with what nothing writes and warms the caches."""
        ledger = self.ledger
        with self.database.session(mvcc=True) as session:
            for index in range(self.sizes["instructors"]):
                key = FIRST_EMPLOYEE_NBR + index
                (name, salary, department), = _rows(
                    session.execute(instructor_query(key)))
                ledger.instructor_static[key] = (name, department)
                ledger.salary[key] = Decimal(salary)
            for index in range(self.sizes["courses"]):
                key = FIRST_COURSE_NO + index
                rows = _rows(session.execute(course_query(key)))
                ledger.title[key] = rows[0][0]
                ledger.course_pairs[key] = [row[1:] for row in rows]

    def op_counts(self) -> Dict[str, int]:
        return {"entities": self.entities_loaded, "clients": self.clients,
                **self.sizes}

    # -- Clients ----------------------------------------------------------

    def open_clients(self) -> None:
        if not self.served:
            self._clients = [
                OltpClient(self.seed, index, self.clients, self.sizes,
                           self.ledger, self.errors,
                           self.database.session(mvcc=True))
                for index in range(self.clients)]
            return
        self._switch_interval_s = sys.getswitchinterval()
        sys.setswitchinterval(SERVER_SWITCH_INTERVAL_S)
        self.server = self.database.serve()
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "client_process.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._ask({"port": self.server.port, "seed": self.seed,
                   "clients": self.clients, "sizes": self.sizes,
                   "ledger": self.ledger.to_json()})

    def _ask(self, request: Dict) -> Dict:
        """One request/reply pair with the client process."""
        process = self._process
        process.stdin.write(json.dumps(request) + "\n")
        process.stdin.flush()
        reply = process.stdout.readline()
        if not reply:
            raise RuntimeError(
                f"client process ended (exit {process.wait()})")
        return json.loads(reply)

    def loop(self, tracer, seconds=None, operations=None):
        if not self.served:
            result = closed_loop(self._clients, tracer, seconds, operations)
            self.rows_returned = sum(c.rows_returned for c in self._clients)
            return result
        gc.collect()
        reply = self._ask({"seconds": seconds, "operations": operations,
                           "trace": tracer is not None})
        self.rows_returned = reply["rows_returned"]
        if tracer is not None:
            base = CLIENT_SPAN_ID_BASE
            tracer.spans.extend(
                (span[0] + base, span[1] and span[1] + base, *span[2:])
                for span in reply["spans"])
        return reply["samples"], reply["failed"], reply["elapsed"]

    def close_clients(self) -> None:
        if not self.served:
            return
        try:
            final = self._ask({"finish": True})
            self.ledger = Ledger.from_json(final["ledger"])
            self.errors.extend(final["errors"])
        finally:
            self._process.stdin.close()
            try:
                if self._process.wait(timeout=30) != 0:
                    self.errors.append("client process failed")
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
                self.errors.append("client process did not end")
            self._process.stdout.close()
            self.server.stop()
            sys.setswitchinterval(self._switch_interval_s)

    # -- End of run -------------------------------------------------------

    def final_oracle(self) -> Tuple[int, int, float]:
        """Crash, recover, re-read the whole ledger, run the checker.
        Returns (checks made, checks failed, recovery ms)."""
        database = self.database
        ledger = self.ledger
        started = time.perf_counter()
        database.simulate_crash()
        recovery_ms = (time.perf_counter() - started) * 1000.0
        checks = failures = 0

        def expect(text: str, correct) -> None:
            nonlocal checks, failures
            checks += 1
            rows = _rows(database.execute(text))
            if not correct(rows):
                failures += 1
                self.errors.append(
                    f"after recovery, {text}: unexpected {rows[:3]}")

        for key in ledger.instructor_static:
            expect(instructor_query(key),
                   lambda rows: check_instructor(ledger, key, rows, True))
        for key in list(ledger.title) + sorted(ledger.deleted):
            expect(course_query(key),
                   lambda rows: check_course(ledger, key, rows, True))
        checks += 1
        report = database.check()
        if not report.ok:
            failures += 1
            self.errors.append(f"Database.check(): {report.summary()}")
        return checks, failures, recovery_ms


def make_workload(name: str, seed: int, cpu_count: int, smoke: bool):
    divisor = SMOKE_DIVISOR if smoke else 1
    entities = ANALYTIC_ENTITIES // divisor
    sizes = {key: value // divisor
             for key, value in UNIVERSITY_SIZES.items()}
    if name == "analytic_warm":
        return AnalyticWorkload(name, seed, cold=False, entities=entities)
    if name == "analytic_cold":
        return AnalyticWorkload(name, seed, cold=True, entities=entities)
    if name == "oltp_session":
        return OltpWorkload(name, seed, clients=1, served=False,
                            sizes=sizes, nominal_ops_per_second=1600.0)
    if name == "server_mixed":
        return OltpWorkload(name, seed, clients=min(2, cpu_count),
                            served=True, sizes=sizes,
                            nominal_ops_per_second=600.0)
    raise ValueError(f"unknown workload {name!r}")


if __name__ == "__main__":
    # PYTHONPATH=src python3 benchmarks/e2e/workloads.py rewrites the
    # analytic goldens; do it only when the answers are meant to change.
    for golden_seed in GOLDEN_SEEDS:
        analytic = AnalyticWorkload("analytic_warm", golden_seed, cold=False,
                                    entities=ANALYTIC_ENTITIES)
        analytic.build()
        (GOLDEN_DIR / f"analytic-seed{golden_seed}.json").write_text(
            json.dumps(analytic.golden(), indent=1) + "\n")
