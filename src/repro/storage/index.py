"""Access methods: hash, ordered (index-sequential) and direct-key indexes.

§5.2: "The surrogates can be direct keys (record number), random keys
(based on hashing) or index sequential keys."  We provide all three.
Each index states the estimated I/O cost of one probe, which the
optimizer's cost model reads (``probe_cost``: a hash probe ≈ 1 block
access; an index-sequential probe ≈ tree height; a direct key ≈ 0).

A hash index holds one object per entry: a key with one entry maps to
its RID bare, and only a non-unique key with several entries maps to a
list of them.  A unique index therefore maps each key to one RID.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import StorageError
from repro.storage.records import RID


class _BaseIndex:
    """Common bookkeeping for all index kinds."""

    kind = "abstract"

    def __init__(self, name: str, unique: bool = False):
        self.name = name
        self.unique = unique
        self.entries = 0

    def probe_cost(self) -> float:
        """Estimated block accesses for one probe (optimizer parameter)."""
        raise NotImplementedError

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name} entries={self.entries} "
                f"unique={self.unique}>")


class HashIndex(_BaseIndex):
    """Equality index ("random keys based on hashing").  ``_map`` holds
    key → RID, or key → list of RIDs once a non-unique key has two; a
    RID is a tuple, so the type tells them apart."""

    kind = "hash"

    def __init__(self, name: str, unique: bool = False):
        super().__init__(name, unique)
        self._map: Dict[object, Union[RID, List[RID]]] = {}

    def insert(self, key, rid: RID) -> None:
        held = self._map.get(key)
        if held is None:
            self._map[key] = rid
        elif self.unique:
            raise StorageError(
                f"duplicate key {key!r} in unique index {self.name!r}")
        elif type(held) is list:
            held.append(rid)
        else:
            self._map[key] = [held, rid]
        self.entries += 1

    def delete(self, key, rid: RID) -> None:
        held = self._map.get(key)
        if type(held) is list and rid in held:
            held.remove(rid)
            if len(held) == 1:
                self._map[key] = held[0]
        elif held is not None and held == rid:
            del self._map[key]
        else:
            raise StorageError(
                f"key {key!r}/{rid} not present in index {self.name!r}")
        self.entries -= 1

    def lookup(self, key) -> List[RID]:
        held = self._map.get(key)
        if held is None:
            return []
        return list(held) if type(held) is list else [held]

    def lookup_one(self, key) -> Optional[RID]:
        held = self._map.get(key)
        return held[0] if type(held) is list else held

    def items(self) -> Iterator[Tuple[object, RID]]:
        """Every (key, rid) entry — the checker's view."""
        for key, held in self._map.items():
            if type(held) is list:
                for rid in held:
                    yield key, rid
            else:
                yield key, held

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
        """Every (key, rid) entry in key order."""
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


class DirectIndex(HashIndex):
    """Direct keys (record numbers): the key is an integer position.

    Models §5.2's "direct keys (record number)" surrogate option: a
    unique map whose probe costs no index block, only the data block."""

    kind = "direct"

    def __init__(self, name: str):
        super().__init__(name, unique=True)

    def insert(self, key, rid: RID) -> None:
        if not isinstance(key, int):
            raise StorageError(f"direct index {self.name!r} needs integer keys")
        super().insert(key, rid)

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
