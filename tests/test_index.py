"""Index tests: hash, ordered (index-sequential) and direct keys (§5.2)."""

import importlib.util
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import DirectIndex, HashIndex, OrderedIndex, RID
from repro.storage.index import make_index


#: every unordered index kind: a unique and a non-unique hash index and
#: a direct-key index, which is a unique hash index on integer keys
HASH_KINDS = {
    "unique": lambda: HashIndex("h", unique=True),
    "non-unique": lambda: HashIndex("h"),
    "direct": lambda: DirectIndex("d"),
}


@pytest.fixture(params=sorted(HASH_KINDS))
def hash_index(request):
    return HASH_KINDS[request.param]()


class TestHashIndex:
    def test_insert_lookup_delete(self, hash_index):
        hash_index.insert(1, RID(0, 0))
        hash_index.insert(2, RID(0, 1))
        assert hash_index.lookup(1) == [RID(0, 0)]
        assert hash_index.lookup_one(2) == RID(0, 1)
        hash_index.delete(1, RID(0, 0))
        assert hash_index.lookup(1) == []
        assert hash_index.lookup_one(1) is None
        assert list(hash_index.items()) == [(2, RID(0, 1))]
        assert hash_index.entries == 1

    def test_second_entry_under_a_key(self, hash_index):
        """Unique kinds refuse it.  A non-unique key holds its one RID
        bare, a list from the second entry, and a bare RID again once
        it is back to one; every view sees the same entries."""
        hash_index.insert(7, RID(0, 3))
        if hash_index.unique:
            with pytest.raises(StorageError):
                hash_index.insert(7, RID(1, 1))
            assert hash_index._map == {7: RID(0, 3)}
            return
        assert hash_index._map == {7: RID(0, 3)}
        hash_index.insert(7, RID(1, 1))
        assert hash_index._map == {7: [RID(0, 3), RID(1, 1)]}
        assert hash_index.lookup(7) == [RID(0, 3), RID(1, 1)]
        assert hash_index.lookup_one(7) == RID(0, 3)
        assert sorted(hash_index.items()) == [(7, RID(0, 3)), (7, RID(1, 1))]
        hash_index.delete(7, RID(0, 3))
        assert type(hash_index._map[7]) is RID
        assert hash_index.lookup(7) == [RID(1, 1)]
        hash_index.delete(7, RID(1, 1))
        assert hash_index._map == {} and hash_index.entries == 0

    def test_delete_missing(self, hash_index):
        with pytest.raises(StorageError):
            hash_index.delete(1, RID(0, 0))
        hash_index.insert(1, RID(0, 0))
        with pytest.raises(StorageError):
            hash_index.delete(1, RID(0, 1))
        assert hash_index.lookup(1) == [RID(0, 0)]

    def test_lookup_hands_out_a_copy(self, hash_index):
        """Callers delete while they iterate a lookup's result."""
        hash_index.insert(1, RID(0, 0))
        hash_index.lookup(1).append(RID(9, 9))
        assert hash_index.lookup(1) == [RID(0, 0)]


def test_rid_is_a_named_pair():
    rid = RID(3, 4)
    assert (rid.block, rid.slot) == (3, 4) and rid == (3, 4)
    assert repr(rid) == "RID(3:4)"
    assert sorted([RID(1, 0), RID(0, 9), RID(0, 2)]) == [
        RID(0, 2), RID(0, 9), RID(1, 0)]


class TestOrderedIndex:
    def test_range_scan_inclusive(self):
        index = OrderedIndex("o")
        for i in range(10):
            index.insert(i, RID(0, i))
        keys = [k for k, _ in index.range(3, 6)]
        assert keys == [3, 4, 5, 6]

    def test_range_exclusive_bounds(self):
        index = OrderedIndex("o")
        for i in range(10):
            index.insert(i, RID(0, i))
        keys = [k for k, _ in index.range(3, 6, include_low=False,
                                          include_high=False)]
        assert keys == [4, 5]

    def test_open_ended_ranges(self):
        index = OrderedIndex("o")
        for i in range(5):
            index.insert(i, RID(0, i))
        assert [k for k, _ in index.range(low=3)] == [3, 4]
        assert [k for k, _ in index.range(high=1)] == [0, 1]

    def test_duplicates_under_one_key(self):
        index = OrderedIndex("o")
        index.insert(5, RID(0, 0))
        index.insert(5, RID(0, 1))
        assert len(index.lookup(5)) == 2

    def test_unique_mode(self):
        index = OrderedIndex("o", unique=True)
        index.insert(5, RID(0, 0))
        with pytest.raises(StorageError):
            index.insert(5, RID(0, 1))

    def test_height_grows_with_entries(self):
        index = OrderedIndex("o")
        assert index.height() == 1
        for i in range(100):
            index.insert(i, RID(0, i))
        assert index.height() == 2
        assert index.probe_cost() == 2.0

    def test_delete_removes_key(self):
        index = OrderedIndex("o")
        index.insert(1, RID(0, 0))
        index.delete(1, RID(0, 0))
        assert index.lookup(1) == []
        with pytest.raises(StorageError):
            index.delete(1, RID(0, 0))


class TestDirectIndex:
    def test_integer_keys_only(self):
        index = DirectIndex("d")
        with pytest.raises(StorageError):
            index.insert("a", RID(0, 0))

    def test_direct_lookup_free(self):
        index = DirectIndex("d")
        index.insert(7, RID(0, 3))
        assert index.lookup_one(7) == RID(0, 3)
        assert index.probe_cost() == 0.0 < HashIndex("h").probe_cost()


class TestFactory:
    def test_make_index_kinds(self):
        assert make_index("hash", "x").kind == "hash"
        assert make_index("ordered", "x").kind == "ordered"
        assert make_index("direct", "x").kind == "direct"
        with pytest.raises(StorageError):
            make_index("btree", "x")


def test_index_dicts_hold_one_small_object_per_entry():
    """``make rss``'s index rows, on a small scale database: a unique
    key maps to a bare RID, a RID is a tuple and an EVA structure index
    keys on the surrogate alone.  One RID list per unique key, a RID
    with a ``__dict__`` and ``(rel-id, surrogate)`` keys took ~1 055
    B/entity here; the compact structures take ~600."""
    from repro import Database
    from repro.workloads.generators import populate_scale, scale_schema
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "rss_by_owner.py")
    spec = importlib.util.spec_from_file_location("rss_by_owner", path)
    rss = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rss)
    db = Database(scale_schema(3), constraint_mode="off")
    created = populate_scale(db, 600, chain_depth=3, seed=1)
    entities = sum(len(made) for made in created.values())
    seen = set()
    held = sum(rss.claim(roots, seen)
               for _, roots in rss.index_owners(db.store))
    assert held / entities < 800


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)),
                min_size=1, max_size=80))
def test_ordered_index_matches_sorted_model(operations):
    """Property: the ordered index agrees with a sorted-dict model and its
    range scans return keys in order."""
    index = OrderedIndex("o")
    model = {}
    for insert, key in operations:
        if insert:
            if key not in model:
                model[key] = RID(0, key)
                index.insert(key, model[key])
        elif key in model:
            index.delete(key, model.pop(key))
    scanned = [k for k, _ in index.range()]
    assert scanned == sorted(model)
    for key, rid in model.items():
        assert index.lookup(key) == [rid]
