"""Block-structured storage substrate (the DMSII stand-in).

The paper's SIM is built on DMSII, which supplies "transaction, cursor and
I/O management" (§1) on Unisys A-Series hardware.  We substitute a pure-
Python block-structured store with:

* a simulated disk and an LRU buffer pool that counts logical and physical
  block accesses (:mod:`repro.storage.buffer`) — the unit the paper's
  §5.1/§5.2 cost discussion is written in;
* record files with fixed-width, variable-format records, slotted blocks,
  free-space tracking and clustered placement (:mod:`repro.storage.files`);
* hash, ordered (index-sequential) and direct-key indexes
  (:mod:`repro.storage.index`);
* an undo-log transaction manager (:mod:`repro.storage.transactions`).
"""

from repro.storage.buffer import BufferPool, Disk
from repro.storage.records import RecordFormat, RID
from repro.storage.files import RecordFile
from repro.storage.index import DirectIndex, HashIndex, OrderedIndex
from repro.storage.transactions import TransactionManager, Transaction

__all__ = [
    "BufferPool",
    "Disk",
    "RecordFormat",
    "RID",
    "RecordFile",
    "DirectIndex",
    "HashIndex",
    "OrderedIndex",
    "TransactionManager",
    "Transaction",
]
