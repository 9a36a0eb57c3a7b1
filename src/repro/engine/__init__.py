"""The Query Driver: executing DML over the Mapper (paper Figure 1).

* :mod:`repro.engine.access` — entity access helpers and range-variable
  domains (including the dummy-instance rule for TYPE 3 variables);
* :mod:`repro.engine.expressions` — 3-valued expression evaluation
  compiled to set-at-a-time column functions: aggregates with delimited
  scope, quantifiers, ISA, pattern matching;
* :mod:`repro.engine.executor` — the nested-loop semantics program of
  §4.5 over the labelled query tree;
* :mod:`repro.engine.output` — fully tabular and fully structured output;
* :mod:`repro.engine.updates` — INSERT / MODIFY / DELETE semantics (§4.8);
* :mod:`repro.engine.constraints` — VERIFY enforcement via trigger
  detection (§3.3).
"""

from repro.engine.access import DUMMY, EntityAccessor
from repro.engine.executor import QueryExecutor
from repro.engine.output import ResultSet, StructuredRecord
from repro.engine.updates import UpdateEngine
from repro.engine.constraints import ConstraintManager
from repro.engine.sessions import (DeadlockError, LockConflict, LockManager,
                                   LockTimeout, Session)

__all__ = [
    "DUMMY",
    "EntityAccessor",
    "QueryExecutor",
    "ResultSet",
    "StructuredRecord",
    "UpdateEngine",
    "ConstraintManager",
    "LockConflict",
    "LockTimeout",
    "DeadlockError",
    "LockManager",
    "Session",
]
