"""Chaos/load harness: seeded multi-client contention with fault
injection, verified against a committed-prefix oracle.

Each writer thread runs two-statement transactions over two classes in
a *seeded random order*, so lock acquisition order differs between
sessions and the mix is deadlock-prone.  Every transaction that commits
records its deltas in a thread-local ledger; at the end the database
must equal the initial state plus exactly the committed ledgers — no
lost updates, no phantom effects from aborted victims.  Transient
storage faults (repeat 2, below the retry policy's 4 attempts) fire
during the run and must be absorbed invisibly.

Whether a fleet actually deadlocks is up to the scheduler, so the fleets
assert invariants only (oracle, checker, nobody left waiting, every
transaction committed or aborted, lockdep clean).  That deadlocks are
detected and resolved is shown by construction instead: two sessions, a
barrier between their first and second lock, opposite class order.

The unmarked test is the fast tier-1 smoke; ``-m chaos`` selects the
heavier seeded soak (the CI chaos lane / ``make chaos``).
"""

import random
import sys
import threading

import pytest

from repro import Database
from repro.engine import lockdep
from repro.engine.sessions import DeadlockError, LockConflict, Session


@pytest.fixture(autouse=True)
def _zero_lock_order_violations():
    """Every chaos scenario must finish with a clean lockdep report —
    the whole point of running the soak instrumented (`make chaos` sets
    REPRO_LOCKDEP=1; under pytest it is on by default anyway)."""
    yield
    assert lockdep.violations() == [], lockdep.violations()

CHAOS_DDL = """
Class Account (
  nbr: integer (1..99) unique required;
  balance: integer );

Class Audit (
  nbr: integer (1..99) unique required;
  total: integer );
"""

ACCOUNTS = 4


def build_bank(accounts=ACCOUNTS):
    db = Database(CHAOS_DDL, constraint_mode="off")
    for nbr in range(1, accounts + 1):
        db.execute(f"Insert account(nbr := {nbr}, balance := 0)")
        db.execute(f"Insert audit(nbr := {nbr}, total := 0)")
    return db


class Writer(threading.Thread):
    """One chaos client: seeded deadlock-prone update mix.  Commits are
    recorded in ``self.committed`` only after ``commit()`` returns —
    the committed-prefix oracle."""

    def __init__(self, db, seed, transactions, lock_timeout=5.0,
                 entity_locks=False):
        super().__init__(name=f"chaos-writer-{seed}")
        # entity_locks defaults OFF here: these scenarios contend on
        # class-granularity locks; the entity-granular path has its own
        # scenarios below.
        self.session = Session(db, lock_timeout=lock_timeout,
                               entity_locks=entity_locks)
        self.rng = random.Random(seed)
        self.transactions = transactions
        self.accounts = ACCOUNTS
        self.committed = []  # [(class_name, nbr, delta), ...] per commit
        self.aborted = 0
        self.error = None

    def run(self):
        try:
            for _ in range(self.transactions):
                self._one_transaction()
        except Exception as exc:  # pragma: no cover — fail the test
            self.error = exc

    def _one_transaction(self):
        nbr_a = self.rng.randint(1, self.accounts)
        nbr_b = self.rng.randint(1, self.accounts)
        delta = self.rng.randint(1, 5)
        # Half the sessions lock account→audit, half audit→account:
        # opposite orders are what makes the mix deadlock-prone.
        steps = [("account", "balance", nbr_a, delta),
                 ("audit", "total", nbr_b, delta)]
        if self.rng.random() < 0.5:
            steps.reverse()
        try:
            for class_name, attr, nbr, step_delta in steps:
                self.session.execute(
                    f"Modify {class_name}({attr} := {attr} + {step_delta})"
                    f" Where nbr = {nbr}")
            self.session.commit()
        except LockConflict:
            # Deadlock victim (transaction already aborted) or timeout:
            # abort is idempotent; nothing from this txn may survive.
            self.session.abort()
            self.aborted += 1
        else:
            for class_name, _attr, nbr, step_delta in steps:
                self.committed.append((class_name, nbr, step_delta))


class DisjointWriter(threading.Thread):
    """Entity-granularity client: every transaction updates ONE fixed
    account, disjoint from every other writer's.  Under entity locks,
    none of these sessions may ever block, time out, or deadlock."""

    def __init__(self, db, nbr, seed, transactions):
        super().__init__(name=f"chaos-disjoint-{nbr}")
        self.session = Session(db, entity_locks=True)
        self.nbr = nbr
        self.rng = random.Random(seed)
        self.transactions = transactions
        self.committed = []
        self.aborted = 0
        self.error = None

    def run(self):
        try:
            for _ in range(self.transactions):
                delta = self.rng.randint(1, 5)
                self.session.execute(
                    f"Modify account(balance := balance + {delta})"
                    f" Where nbr = {self.nbr}")
                self.session.commit()
                self.committed.append(("account", self.nbr, delta))
        except Exception as exc:  # pragma: no cover — fail the test
            self.error = exc


class ScanWriter(threading.Thread):
    """Entity-granularity client whose qualification no index serves
    (``nbr > k-1 and nbr < k+1``): the re-selection under the class IX
    lock decodes every account, including ones other sessions hold
    X-locked and have written but not committed.  Three transactions
    in ten abort on purpose, so never-committed values exist to leak."""

    def __init__(self, db, seed, transactions, accounts):
        super().__init__(name=f"chaos-scan-{seed}")
        self.session = Session(db, lock_timeout=5.0, entity_locks=True)
        self.rng = random.Random(seed)
        self.transactions = transactions
        self.accounts = accounts
        self.committed = []
        self.aborted = 0
        self.error = None

    def run(self):
        try:
            for _ in range(self.transactions):
                nbr = self.rng.randint(1, self.accounts)
                delta = self.rng.randint(1, 5)
                try:
                    self.session.execute(
                        f"Modify account(balance := balance + {delta})"
                        f" Where nbr > {nbr - 1} and nbr < {nbr + 1}")
                    if self.rng.random() < 0.3:
                        raise LockConflict("voluntary abort")
                    self.session.commit()
                except LockConflict:
                    self.session.abort()
                    self.aborted += 1
                else:
                    self.committed.append(("account", nbr, delta))
        except Exception as exc:  # pragma: no cover — fail the test
            self.error = exc


def run_chaos(db, writers, readers=0, fault_every=0, seed=1234,
              accounts=ACCOUNTS):
    """Drive the writer fleet (plus optional snapshot readers), arming
    transient faults from the controller thread while they run."""
    injector = db.install_faults(seed=seed) if fault_every else None
    reader_errors = []
    stop_readers = threading.Event()

    def read_loop(i):
        session = Session(db)
        try:
            while not stop_readers.is_set():
                rows = session.query("From account Retrieve balance").rows
                if len(rows) != accounts:
                    raise AssertionError(f"snapshot saw {len(rows)} rows")
        except Exception as exc:  # pragma: no cover
            reader_errors.append(exc)

    reader_threads = [threading.Thread(target=read_loop, args=(i,))
                      for i in range(readers)]
    rounds = 0

    def arm_when_idle():
        nonlocal rounds
        if injector is not None and injector.armed == 0:
            # transient, repeat 2 < RetryPolicy max_attempts 4: the
            # retry layer must absorb every one of these invisibly
            injector.fail_write(fault_every, error="transient", repeat=2)
            rounds += 1

    # Armed before the fleet starts: this thread may not run again
    # until the writers are nearly done, so a first arming left to the
    # loop can come too late for any fault to fire.
    arm_when_idle()
    for thread in writers + reader_threads:
        thread.start()
    while any(w.is_alive() for w in writers):
        arm_when_idle()
        for w in writers:
            w.join(timeout=0.05)
    for w in writers:
        w.join(timeout=30.0)
    stop_readers.set()
    for thread in reader_threads:
        thread.join(timeout=30.0)
    assert not any(w.is_alive() for w in writers), "writer hang"
    assert not any(t.is_alive() for t in reader_threads), "reader hang"
    assert reader_errors == []
    for w in writers:
        if w.error is not None:
            raise w.error
    return rounds


def assert_committed_prefix(db, writers, accounts=ACCOUNTS):
    """The database state must equal initial + exactly the committed
    ledgers — aborted transactions leave no trace."""
    expected = {("account", nbr): 0 for nbr in range(1, accounts + 1)}
    expected.update({("audit", nbr): 0 for nbr in range(1, accounts + 1)})
    for w in writers:
        for class_name, nbr, delta in w.committed:
            expected[(class_name, nbr)] += delta
    for (class_name, nbr), total in expected.items():
        attr = "balance" if class_name == "account" else "total"
        actual = db.query(f"From {class_name} Retrieve {attr}"
                          f" Where nbr = {nbr}").scalar()
        assert actual == total, (
            f"{class_name} {nbr}: stored {actual}, committed {total}")
    report = db.check()
    assert report.ok, report


class TestChaosSmoke:
    def test_contention_smoke(self):
        """Fast tier-1 lane: 8 writers, deadlock-prone mix, oracle +
        checker verification, no faults."""
        db = build_bank()
        writers = [Writer(db, seed=i, transactions=12) for i in range(8)]
        run_chaos(db, writers, readers=2)
        assert_committed_prefix(db, writers)
        stats = db._lock_manager.statistics()
        assert stats["waiting_now"] == 0
        total_commits = sum(len(w.committed) // 2 for w in writers)
        total_aborts = sum(w.aborted for w in writers)
        assert total_commits + total_aborts == 8 * 12

    @pytest.mark.parametrize("entity_locks", [False, True])
    def test_constructed_deadlock_dooms_the_youngest(self, entity_locks):
        """Two sessions take their first lock, meet at a barrier, then
        ask for the other's: a certain 2-cycle, whatever the scheduler
        does.  Exactly one DeadlockError, the victim is the youngest
        session, the survivor commits, and only its writes remain — at
        class granularity and on (class, entity) keys alike."""
        db = build_bank(accounts=1)
        sessions = [Session(db, lock_timeout=30.0, entity_locks=entity_locks)
                    for _ in range(2)]
        barrier = threading.Barrier(2, timeout=10.0)
        outcomes = {}

        def run(session, first, second):
            try:
                session.execute(first)
                barrier.wait()
                session.execute(second)
                session.commit()
                outcomes[session.session_id] = "committed"
            except DeadlockError:
                session.abort()
                outcomes[session.session_id] = "deadlock"
            except Exception as exc:  # pragma: no cover — fail the test
                session.abort()
                outcomes[session.session_id] = exc

        account = "Modify account(balance := balance + 1) Where nbr = 1"
        audit = "Modify audit(total := total + 1) Where nbr = 1"
        threads = [
            threading.Thread(target=run, args=(sessions[0], account, audit)),
            threading.Thread(target=run, args=(sessions[1], audit, account)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        older, younger = sorted(s.session_id for s in sessions)
        assert outcomes == {older: "committed", younger: "deadlock"}
        stats = db._lock_manager.statistics()
        assert stats["deadlocks"] == 1
        assert stats["waiting_now"] == 0
        assert db.query("From account Retrieve balance").scalar() == 1
        assert db.query("From audit Retrieve total").scalar() == 1
        assert db.check().ok

    def test_snapshot_readers_never_blocked(self):
        """Readers alongside the full writer fleet finish with the
        writers: they never queue behind exclusive class locks."""
        db = build_bank()
        writers = [Writer(db, seed=100 + i, transactions=8)
                   for i in range(4)]
        run_chaos(db, writers, readers=4)
        assert_committed_prefix(db, writers)

    def test_disjoint_entity_writers_never_conflict(self):
        """Eight writers updating disjoint entities of ONE class: under
        entity-granularity locking their IX class locks are compatible
        and their entity X locks never collide — zero lock conflicts,
        zero aborts, every transaction commits, oracle intact."""
        db = build_bank(accounts=8)
        writers = [DisjointWriter(db, nbr=i + 1, seed=i, transactions=15)
                   for i in range(8)]
        run_chaos(db, writers, readers=2, accounts=8)
        assert_committed_prefix(db, writers, accounts=8)
        stats = db._lock_manager.statistics()
        assert stats["deadlocks"] == 0
        assert stats["timeouts"] == 0
        assert all(w.aborted == 0 for w in writers)
        assert all(len(w.committed) == 15 for w in writers)
        # Every key released AND pruned: the holder map must be empty,
        # not full of empty per-entity husks.
        assert stats["tracked_keys"] == 0

    def test_same_entity_contention_keeps_the_oracle(self):
        """Entity-granular sessions hammering the SAME entities in
        opposite class orders: whatever mix of waits, deadlock victims
        and commits the scheduler produces, the oracle holds over
        two-level keys and nobody is left waiting."""
        db = build_bank(accounts=1)
        writers = [Writer(db, seed=200 + i, transactions=12,
                          entity_locks=True) for i in range(8)]
        for w in writers:
            w.accounts = 1      # every txn collides on entity nbr=1
        run_chaos(db, writers, accounts=1)
        assert_committed_prefix(db, writers, accounts=1)
        stats = db._lock_manager.statistics()
        assert stats["waiting_now"] == 0
        total_commits = sum(len(w.committed) // 2 for w in writers)
        total_aborts = sum(w.aborted for w in writers)
        assert total_commits + total_aborts == 8 * 12


@pytest.mark.chaos
class TestChaosSoak:
    def test_faulted_soak(self):
        """The heavier seeded soak: 8 writers, transient write faults
        arming continuously, snapshot readers throughout."""
        db = build_bank()
        writers = [Writer(db, seed=1000 + i, transactions=30)
                   for i in range(8)]
        rounds = run_chaos(db, writers, readers=2, fault_every=25)
        assert_committed_prefix(db, writers)
        # Transient faults actually fired and were absorbed: no writer
        # surfaced a storage error and the oracle still holds.
        assert db.perf.transient_retries >= 1
        assert db.perf.transient_giveups == 0
        assert rounds >= 1

    @pytest.mark.parametrize("fleet", ["same-entity", "scan-predicate"])
    def test_fine_grained_switching_never_loses_an_update(self, fleet,
                                                          request):
        """The two fleets that a late read-cache fill made lose or leak
        updates, rescheduled every 0.1 ms so unlocked readers and
        writers interleave inside each other's statements; the
        invariant is the oracle, round after round.  The forced form of
        the same interleaving is tier-1 (tests/test_read_cache.py)."""
        if "chaos" not in request.config.getoption("markexpr"):
            pytest.skip("scheduler-driven soak: `-m chaos` lane only")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for round_no in range(40):
                seed = 5000 + 8 * round_no
                if fleet == "same-entity":
                    accounts = 1
                    db = build_bank(accounts)
                    writers = [Writer(db, seed=seed + i, transactions=12,
                                      entity_locks=True) for i in range(8)]
                    for w in writers:
                        w.accounts = 1
                else:
                    accounts = 2
                    db = build_bank(accounts)
                    writers = [ScanWriter(db, seed + i, 12, accounts)
                               for i in range(8)]
                run_chaos(db, writers, accounts=accounts)
                assert_committed_prefix(db, writers, accounts=accounts)
        finally:
            sys.setswitchinterval(previous)
