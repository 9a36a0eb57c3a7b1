"""Deterministic fault injection for the storage substrate.

The paper delegates durability and recovery to DMSII (§1, §6); the
credibility of this reproduction's DMSII substitute rests on the WAL/undo
machinery actually surviving failure, not just passing happy-path tests.
This module supplies the failure half of that argument:

* :class:`FaultInjector` — a seeded, deterministic fault plan wired into
  :meth:`Disk.read <repro.storage.buffer.Disk.read>`,
  :meth:`Disk.write <repro.storage.buffer.Disk.write>` and
  :meth:`WriteAheadLog.force <repro.storage.wal.WriteAheadLog.force>`.
  Supported faults: transient I/O errors (succeed when retried),
  permanent I/O errors, torn/partial block writes (only a prefix of the
  slot directory reaches the platter), and crash triggers (the machine
  dies mid-operation and every further I/O fails until ``reboot``).
  A crash can also be armed on a log append, which is no device
  operation: the machine dies with the record in the log's volatile tail.
* :class:`RetryPolicy` — the Mapper's bounded retry-with-backoff loop for
  transient faults, counting retries and give-ups into the store's
  :class:`~repro.perf.PerfCounters` (``transient_retries`` /
  ``transient_giveups``), which ``Database.statistics()`` reports.

Determinism matters more than realism here: every plan fires on an exact
operation ordinal (the Nth read/write/force counted from arming), so a
seeded torture run replays bit-identically and a failing crash point can
be re-run in isolation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import InjectedCrash, StorageError, TransientStorageError
from repro.perf import PerfCounters

#: operation kinds the injector counts
READ = "read"
WRITE = "write"
FORCE = "force"
APPEND = "append"

#: fault actions
TRANSIENT = "transient"
PERMANENT = "permanent"
TORN = "torn"
CRASH = "crash"

_ACTIONS = (TRANSIENT, PERMANENT, TORN, CRASH)


@dataclass
class _Fault:
    """One armed fault: fires while the op ordinal is in
    ``[at, at + repeat - 1]``, then disarms."""

    op: str
    at: int
    action: str
    repeat: int = 1
    keep: float = 0.5      # torn writes: fraction of slots that land


class FaultInjector:
    """A deterministic, seeded fault plan for the simulated device.

    All trigger ordinals are *relative to the moment of arming*: an
    ``nth`` of 1 means "the next operation of that kind".  This lets a
    torture harness arm a second crash *during recovery* without knowing
    absolute operation counts.

    After a crash trigger fires the injector enters the ``crashed``
    state, in which every device operation raises :class:`InjectedCrash`
    — the machine is dead until :meth:`reboot` (called automatically by
    ``MapperStore.simulate_crash``).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.crashed = False
        #: operations observed, by kind (monotonic across reboots)
        self.ops: Dict[str, int] = {READ: 0, WRITE: 0, FORCE: 0, APPEND: 0}
        #: faults actually delivered, by action
        self.injected: Dict[str, int] = {a: 0 for a in _ACTIONS}
        self.reboots = 0
        self._plans: List[_Fault] = []

    # -- Arming ------------------------------------------------------------------

    def fail_write(self, nth: int, error: str = TRANSIENT,
                   repeat: int = 1) -> None:
        """Fail the ``nth`` write from now (``error``: transient/permanent).

        ``repeat`` > 1 fails that many *consecutive* writes — the way to
        exhaust a bounded retry policy, since each retry is a new write."""
        self._arm(WRITE, nth, error, repeat)

    def fail_read(self, nth: int, error: str = TRANSIENT,
                  repeat: int = 1) -> None:
        self._arm(READ, nth, error, repeat)

    def fail_force(self, nth: int, error: str = TRANSIENT,
                   repeat: int = 1) -> None:
        """Fail the ``nth`` WAL force from now."""
        self._arm(FORCE, nth, error, repeat)

    def torn_write(self, nth: int, keep: float = 0.5) -> None:
        """Tear the ``nth`` write from now: only the first ``keep``
        fraction of the block's slots reaches the platter.  The write
        reports success (silent corruption — the checker's problem)."""
        if not 0.0 <= keep < 1.0:
            raise StorageError(f"torn-write keep fraction {keep} not in [0,1)")
        fault = _Fault(WRITE, self.ops[WRITE] + nth, TORN, 1, keep)
        self._plans.append(fault)

    def crash_after_writes(self, n: int) -> None:
        """Kill the machine on the ``n``-th write from now; that write
        never reaches the platter."""
        self._arm(WRITE, n, CRASH)

    def crash_after_appends(self, n: int) -> None:
        """Kill the machine right after the ``n``-th log append from now
        (and any compaction that append ran): the record is in the log,
        but not durable unless a force already covered it."""
        self._arm(APPEND, n, CRASH)

    def _arm(self, op: str, nth: int, action: str, repeat: int = 1) -> None:
        if nth < 1:
            raise StorageError(f"fault ordinal must be >= 1, got {nth}")
        if action not in _ACTIONS:
            raise StorageError(f"unknown fault action {action!r}")
        self._plans.append(_Fault(op, self.ops[op] + nth, action, repeat))

    @property
    def armed(self) -> int:
        """Number of faults still waiting to fire."""
        return len(self._plans)

    # -- Device hooks ------------------------------------------------------------

    def on_read(self, file_id: int, block_no: int) -> None:
        self._operation(READ)

    def on_write(self, file_id: int, block_no: int, block):
        """May raise, or return a (possibly torn) replacement image."""
        return self._operation(WRITE, block)

    def on_force(self) -> None:
        self._operation(FORCE)

    def on_append(self) -> None:
        # Not a device operation: a dead machine's appends (an undo run
        # before recovery) neither count nor fail.
        if not self.crashed:
            self._operation(APPEND)

    def _operation(self, op: str, block=None):
        if self.crashed:
            raise InjectedCrash(f"{op} on crashed device")
        self.ops[op] += 1
        ordinal = self.ops[op]
        result = block
        for fault in list(self._plans):
            if fault.op != op:
                continue
            if not fault.at <= ordinal < fault.at + fault.repeat:
                continue
            if ordinal == fault.at + fault.repeat - 1:
                self._plans.remove(fault)
            if fault.action == TRANSIENT:
                self.injected[TRANSIENT] += 1
                raise TransientStorageError(
                    f"injected transient fault on {op} #{ordinal}")
            if fault.action == PERMANENT:
                self.injected[PERMANENT] += 1
                raise StorageError(
                    f"injected permanent fault on {op} #{ordinal}")
            if fault.action == CRASH:
                self.injected[CRASH] += 1
                self.crashed = True
                raise InjectedCrash(
                    f"injected crash on {op} #{ordinal}")
            if fault.action == TORN:
                self.injected[TORN] += 1
                result = self._tear(block, fault.keep)
        return result

    @staticmethod
    def _tear(block, keep: float):
        """The torn image: a prefix of the slot directory.  The ``used``
        header is left as written — stale, exactly the inconsistency a
        semantic checker (not a page checksum) must catch."""
        torn = block.copy()
        torn.slots = torn.slots[:int(len(torn.slots) * keep)]
        return torn

    # -- Lifecycle ---------------------------------------------------------------

    def reboot(self) -> None:
        """Bring the machine back up.  Armed plans survive (a second
        crash can target recovery I/O); counters keep running."""
        if self.crashed:
            self.reboots += 1
        self.crashed = False

    def statistics(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "crashed": self.crashed,
            "reboots": self.reboots,
            "ops": dict(self.ops),
            "injected": dict(self.injected),
            "armed": self.armed,
        }

    def __repr__(self):
        return (f"<FaultInjector seed={self.seed} crashed={self.crashed} "
                f"armed={self.armed} injected={self.injected}>")


class RetryPolicy:
    """Bounded retry-with-backoff for transient storage faults.

    ``max_attempts`` counts the first try; a transient fault on the final
    attempt is a *give-up* and re-raises.  Backoff is simulated by
    default (``backoff_ticks`` accumulates the exponential schedule
    2, 4, 8... without sleeping) so torture suites stay fast; set
    ``delay`` > 0 for wall-clock backoff.

    Retries and give-ups are counted into ``perf`` (the store's
    :class:`~repro.perf.PerfCounters`; a fresh one when none is given).
    """

    def __init__(self, max_attempts: int = 4, delay: float = 0.0,
                 perf: Optional[PerfCounters] = None):
        if max_attempts < 1:
            raise StorageError(
                f"retry policy needs max_attempts >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.delay = delay
        self.perf = perf if perf is not None else PerfCounters()
        #: optional trace recorder (repro.trace.attach_tracing)
        self.trace = None
        self.backoff_ticks = 0

    def call(self, operation, *args, **kwargs):
        """Run ``operation``, retrying transient faults with backoff.
        Permanent faults (any other :class:`StorageError`) propagate
        immediately — retrying cannot help them."""
        attempt = 1
        while True:
            try:
                return operation(*args, **kwargs)
            except TransientStorageError as fault:
                trace = self.trace
                if attempt >= self.max_attempts:
                    self.perf.bump("transient_giveups")
                    if trace is not None and trace.enabled:
                        trace.event("transient_giveup", attempt=attempt,
                                    fault=str(fault))
                    raise
                self.perf.bump("transient_retries")
                if trace is not None and trace.enabled:
                    trace.event("transient_retry", attempt=attempt,
                                fault=str(fault))
                self.backoff_ticks += 2 ** attempt
                if self.delay:
                    time.sleep(self.delay * (2 ** (attempt - 1)))
                attempt += 1

    def statistics(self) -> Dict[str, int]:
        return {"max_attempts": self.max_attempts,
                "retries": self.perf.transient_retries,
                "giveups": self.perf.transient_giveups,
                "backoff_ticks": self.backoff_ticks}

    def __repr__(self):
        return (f"<RetryPolicy max_attempts={self.max_attempts} "
                f"retries={self.perf.transient_retries} "
                f"giveups={self.perf.transient_giveups}>")
