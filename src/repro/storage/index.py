"""Access methods: hash, ordered (index-sequential) and direct-key indexes.

§5.2: "The surrogates can be direct keys (record number), random keys
(based on hashing) or index sequential keys."  We provide all three.
Probe accounting: each index carries a ``probes`` counter and an estimated
I/O cost per probe used by the optimizer's cost model (a hash probe ≈ 1
block access; an index-sequential probe ≈ tree height; a direct key ≈ 1).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.records import RID


class _BaseIndex:
    """Common bookkeeping for all index kinds."""

    kind = "abstract"

    def __init__(self, name: str, unique: bool = False):
        self.name = name
        self.unique = unique
        self.probes = 0
        self.entries = 0
        # Index *structures* only mutate on the (serial) write path, so
        # concurrent lookups read them safely; the probes counter is the
        # one read-path write and `+= 1` is not atomic under threads.
        self._probe_lock = threading.Lock()

    def _count_probe(self) -> None:
        with self._probe_lock:
            self.probes += 1

    def probe_cost(self) -> float:
        """Estimated block accesses for one probe (optimizer parameter)."""
        raise NotImplementedError

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name} entries={self.entries} "
                f"unique={self.unique}>")


class HashIndex(_BaseIndex):
    """Equality index ("random keys based on hashing")."""

    kind = "hash"

    def __init__(self, name: str, unique: bool = False):
        super().__init__(name, unique)
        self._buckets: Dict[object, List[RID]] = {}

    def insert(self, key, rid: RID) -> None:
        bucket = self._buckets.setdefault(key, [])
        if self.unique and bucket:
            raise StorageError(
                f"duplicate key {key!r} in unique index {self.name!r}")
        bucket.append(rid)
        self.entries += 1

    def delete(self, key, rid: RID) -> None:
        bucket = self._buckets.get(key)
        if not bucket or rid not in bucket:
            raise StorageError(
                f"key {key!r}/{rid} not present in index {self.name!r}")
        bucket.remove(rid)
        if not bucket:
            del self._buckets[key]
        self.entries -= 1

    def lookup(self, key) -> List[RID]:
        self._count_probe()
        return list(self._buckets.get(key, ()))

    def lookup_one(self, key) -> Optional[RID]:
        rids = self.lookup(key)
        return rids[0] if rids else None

    def keys(self) -> Iterator:
        return iter(self._buckets)

    def items(self) -> Iterator[Tuple[object, RID]]:
        """Every (key, rid) entry — the checker's view; charges no probe."""
        for key, bucket in self._buckets.items():
            for rid in bucket:
                yield key, rid

    def probe_cost(self) -> float:
        return 1.0


class OrderedIndex(_BaseIndex):
    """Ordered index ("index sequential keys"): equality plus range scans."""

    kind = "ordered"

    #: assumed fan-out of one index node, for height estimation
    FANOUT = 64

    def __init__(self, name: str, unique: bool = False):
        super().__init__(name, unique)
        self._keys: List = []
        self._rids: List[List[RID]] = []

    def insert(self, key, rid: RID) -> None:
        pos = bisect.bisect_left(self._keys, key)
        if pos < len(self._keys) and self._keys[pos] == key:
            if self.unique:
                raise StorageError(
                    f"duplicate key {key!r} in unique index {self.name!r}")
            self._rids[pos].append(rid)
        else:
            self._keys.insert(pos, key)
            self._rids.insert(pos, [rid])
        self.entries += 1

    def delete(self, key, rid: RID) -> None:
        pos = bisect.bisect_left(self._keys, key)
        if pos >= len(self._keys) or self._keys[pos] != key:
            raise StorageError(
                f"key {key!r} not present in index {self.name!r}")
        bucket = self._rids[pos]
        if rid not in bucket:
            raise StorageError(
                f"{rid} not present under key {key!r} in {self.name!r}")
        bucket.remove(rid)
        if not bucket:
            del self._keys[pos]
            del self._rids[pos]
        self.entries -= 1

    def lookup(self, key) -> List[RID]:
        self._count_probe()
        pos = bisect.bisect_left(self._keys, key)
        if pos < len(self._keys) and self._keys[pos] == key:
            return list(self._rids[pos])
        return []

    def lookup_one(self, key) -> Optional[RID]:
        rids = self.lookup(key)
        return rids[0] if rids else None

    def range(self, low=None, high=None, include_low: bool = True,
              include_high: bool = True) -> Iterator[Tuple[object, RID]]:
        """Yield (key, rid) pairs with low <= key <= high (bounds optional)."""
        self._count_probe()
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        for pos in range(start, len(self._keys)):
            key = self._keys[pos]
            if high is not None:
                if include_high and key > high:
                    break
                if not include_high and key >= high:
                    break
            for rid in self._rids[pos]:
                yield key, rid

    def items(self) -> Iterator[Tuple[object, RID]]:
        """Every (key, rid) entry in key order; charges no probe."""
        for key, bucket in zip(self._keys, self._rids):
            for rid in bucket:
                yield key, rid

    def height(self) -> int:
        if self.entries <= 1:
            return 1
        height = 1
        span = self.FANOUT
        while span < self.entries:
            span *= self.FANOUT
            height += 1
        return height

    def probe_cost(self) -> float:
        return float(self.height())


class DirectIndex(_BaseIndex):
    """Direct keys (record numbers): key is an integer position.

    Models §5.2's "direct keys (record number)" surrogate option — lookup
    is arithmetic, cost one block access for the data block only.
    """

    kind = "direct"

    def __init__(self, name: str):
        super().__init__(name, unique=True)
        self._slots: Dict[int, RID] = {}

    def insert(self, key, rid: RID) -> None:
        if not isinstance(key, int):
            raise StorageError(f"direct index {self.name!r} needs integer keys")
        if key in self._slots:
            raise StorageError(
                f"duplicate key {key!r} in direct index {self.name!r}")
        self._slots[key] = rid
        self.entries += 1

    def delete(self, key, rid: RID) -> None:
        if self._slots.get(key) != rid:
            raise StorageError(
                f"key {key!r}/{rid} not present in index {self.name!r}")
        del self._slots[key]
        self.entries -= 1

    def lookup(self, key) -> List[RID]:
        self._count_probe()
        rid = self._slots.get(key)
        return [rid] if rid is not None else []

    def lookup_one(self, key) -> Optional[RID]:
        rids = self.lookup(key)
        return rids[0] if rids else None

    def items(self) -> Iterator[Tuple[object, RID]]:
        """Every (key, rid) entry — the checker's view; charges no probe."""
        return iter(self._slots.items())

    def probe_cost(self) -> float:
        return 0.0


def make_index(kind: str, name: str, unique: bool = False) -> _BaseIndex:
    """Index factory: ``kind`` in {'hash', 'ordered', 'direct'}."""
    if kind == "hash":
        return HashIndex(name, unique)
    if kind == "ordered":
        return OrderedIndex(name, unique)
    if kind == "direct":
        return DirectIndex(name)
    raise StorageError(f"unknown index kind {kind!r}")
