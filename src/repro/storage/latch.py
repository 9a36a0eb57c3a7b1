"""Construction-time indirection for ranked locks.

Storage and mapper modules cannot import :mod:`repro.engine.lockdep` at
module top level: importing any ``repro.engine`` submodule executes the
engine package ``__init__``, which imports ``engine.access``, which
imports ``repro.mapper.store`` — a cycle when the mapper/storage module
is itself mid-import.  This module imports nothing of the package, so
any layer can import it; the lockdep import happens at *construction*
time, by which point the package graph is complete.
"""

from __future__ import annotations

import threading


def ranked_lock(name: str):
    """A re-entrant lock of lock class ``name``: a lockdep
    ``RankedLock`` when lockdep is enabled at construction, else a plain
    ``threading.RLock`` — an unchecked lock costs no Python frame."""
    from repro.engine import lockdep
    if lockdep.enabled():
        return lockdep.RankedLock(name)
    return threading.RLock()


def ranked_condition(lock):
    """A condition variable over a :func:`ranked_lock` lock."""
    from repro.engine.lockdep import RankedCondition
    return RankedCondition(lock)
