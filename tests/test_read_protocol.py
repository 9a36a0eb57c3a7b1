"""Differential test of the Mapper's one read protocol over every
physical mapping.

``MapperStore`` serves every read through one protocol (``_read_many``,
and ``_read`` its one-key case: probe the version map, read, probe
again) over three physical primitives, and
"latest" is that protocol with no snapshot pinned.  For each combination
of EVA mapping x MV DVA mapping x hierarchy mapping this suite drives
*every* public read method and asserts

(a) latest == a snapshot pinned at the current epoch, which goes on
    reading that state beside auto-committed (transaction-less) writes;
(b) a snapshot pinned before a batch of committed inserts / modifies /
    includes / excludes / deletes, plus one transaction still open,
    reads exactly the state saved before the batch — index-served
    finds included, by the bare probe in (a) and by probe + changed
    records here;
(c) the open transaction reads its own writes;
(d) once everything has committed or aborted, the read cache equals a
    fresh physical read and the consistency checker is clean — and a
    crash after a flush reads back every answer, in the same order
    (recovery rebuilds each mapping's indexes from the disk image);
(e) with the version chains retained, ``as_of(E)`` reads exactly the
    state that was latest at ``E``, for every committed epoch ``E``;
(f) a find on an indexed attribute stays index-served beside writers:
    pinned before a committed, an aborted and a still-open transaction
    (or ``as_of`` the epoch before them) it returns the saved answer
    without one ``scan_class`` call, in an order that no writer's
    timing decides — also when the writer is forced in between the
    reader's two ``versions.changed`` reads;
(g) a writer that stages, mutates AND aborts wholly inside one read —
    between its two version probes, where no chain entry is left to
    find — is seen by none of ``_read``, ``_read_many``, ``_find`` and
    ``scan_class``;
(h) a batch (``fetch_many``, ``traverse_eva_batch``) read cold through
    a 2-frame pool returns what its keys return read one at a time,
    with the same cache and decode counts, touching each of its blocks
    once and in block order.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
import threading
import time

import pytest

from repro.mapper.store import MapperStore

from repro import IntegrityError, SimError, parse_ddl
from repro.errors import StorageError
from repro.mapper.mappings import ForeignKeyEva, PointerEva
from repro.mapper import (
    EvaMapping,
    HierarchyMapping,
    MapperStore,
    MvDvaMapping,
    PhysicalDesign,
)
from tests.test_read_cache import (
    assert_cache_matches_physical,
    parked_after,
    race,
)

DDL = """
Class Person (
  name: string[20];
  ssn: integer, unique, required;
  age: integer;
  phones: integer mv (max 4);
  spouse: person inverse is spouse );

Subclass Worker of Person (
  badge: integer unique required;
  employer: company inverse is staff;
  skills: skill inverse is holders mv );

Class Company (
  title: string[20] required;
  staff: worker inverse is employer mv );

Class Skill (
  label: string[20] required;
  holders: worker inverse is skills mv );
"""

CLASSES = ("person", "worker", "company", "skill")

#: (EVA the override applies to, its mapping).  ``employer`` is many:1,
#: so every mapping is legal for it; the last entry maps the self-inverse
#: ``spouse`` through a structure instead of its default foreign key.
EVA_CASES = [("employer", mapping) for mapping in EvaMapping] \
    + [("spouse", EvaMapping.DEDICATED)]


def build(eva_case, mv_mapping, hierarchy):
    schema = parse_ddl(DDL)
    design = PhysicalDesign(schema, default_hierarchy=hierarchy)
    eva_name, mapping = eva_case
    design.override_eva("person" if eva_name == "spouse" else "worker",
                        eva_name, mapping)
    design.override_mv_dva("person", "phones", mv_mapping)
    design.add_value_index("person", "age", kind="ordered")
    return MapperStore(schema, design.finalize())


CONFIGS = list(itertools.product(EVA_CASES, MvDvaMapping, HierarchyMapping))


@pytest.fixture(params=CONFIGS, ids=lambda config: "-".join(
    [config[0][0], config[0][1].value, config[1].value, config[2].value]))
def store(request):
    return build(*request.param)


class World:
    """A small population plus the handles the scenarios mutate."""

    def __init__(self, store):
        self.store = store
        schema = store.schema
        person, worker = schema.get_class("person"), schema.get_class("worker")
        self.attrs = {name: person.attribute(name)
                      for name in ("name", "ssn", "age", "phones", "spouse")}
        self.attrs.update({name: worker.attribute(name)
                           for name in ("badge", "employer", "skills")})
        self.attrs["staff"] = schema.get_class("company").attribute("staff")
        self.attrs["holders"] = schema.get_class("skill").attribute("holders")
        self.companies = [store.insert_entity("company", {"title": f"C{i}"})
                          for i in range(2)]
        self.skills = [store.insert_entity("skill", {"label": f"S{i}"})
                       for i in range(3)]
        self.people = [store.insert_entity("person", {
            "name": f"P{i}", "ssn": 100 + i, "age": 20 + i,
            "phones": [i, i + 10]}) for i in range(4)]
        self.workers = [store.insert_entity("worker", {
            "name": f"W{i}", "ssn": 200 + i, "age": 30 + i, "badge": i,
            "phones": [i]}) for i in range(4)]
        a = self.attrs
        store.eva_include(self.people[0], a["spouse"], self.workers[0])
        store.eva_include(self.workers[1], a["spouse"], self.people[1])
        for i, w in enumerate(self.workers[:3]):
            store.eva_include(w, a["employer"], self.companies[i % 2])
            store.eva_include(w, a["skills"], self.skills[i])
            store.eva_include(w, a["skills"], self.skills[(i + 1) % 3])
        #: every surrogate the scenarios ever mention, dead or unborn
        self.watched = (self.companies + self.skills + self.people
                        + self.workers + list(range(20, 24)))

    # -- every public read method, as one comparable value ------------------

    def observe(self):
        store, a = self.store, self.attrs
        seen = {}
        extents = {}
        for cls in CLASSES:
            extents[cls] = members = list(store.scan_class(cls))
            seen["scan", cls] = sorted(members)
            seen["count", cls] = store.class_count(cls)
            seen["fetch", cls] = store.fetch_many(cls, members)
            for s in self.watched:
                seen["has", cls, s] = store.has_role(s, cls)
        for s in self.watched:
            seen["roles", s] = store.roles_of(s, "person")
        for s in extents["person"]:
            seen["record", s] = store.record_of(s, "person")
            for name in ("name", "ssn", "age", "phones"):
                seen["dva", name, s] = store.read_dva(s, a[name])
        for s in extents["worker"]:
            seen["dva", "badge", s] = store.read_dva(s, a["badge"])
        for cls, names in (("person", ("spouse",)),
                           ("worker", ("spouse", "employer", "skills")),
                           ("company", ("staff",)),
                           ("skill", ("holders",))):
            for name in names:
                for s in extents[cls]:
                    seen["eva", name, s] = store.eva_targets(s, a[name])
                seen["batch", cls, name] = store.traverse_eva_batch(
                    extents[cls], a[name])
        for cls in ("person", "worker"):
            for ssn in (100, 101, 200, 201, 300, 999):
                seen["find", cls, "ssn", ssn] = store.find_by_dva(
                    cls, "ssn", ssn)             # unique index
            for age in (20, 31, 77):
                seen["find", cls, "age", age] = sorted(store.find_by_dva(
                    cls, "age", age))            # ordered value index
            seen["find", cls, "name"] = store.find_by_dva(
                cls, "name", "W1")               # no index: scan
            for low, high in ((None, 25), (21, 32), (31, None)):
                seen["range", cls, low, high] = sorted(
                    store.find_by_dva_range(cls, "age", low, high))
        return seen

    def finds(self):
        """Every find an index serves (unique ``ssn`` / ``badge``,
        ordered ``age``; ``worker`` reaches the first and last through
        its superclass's index), each sorted: beside a writer the
        overlay's order rule applies, which has a test of its own."""
        store = self.store
        seen = {("badge", badge): store.find_by_dva("worker", "badge", badge)
                for badge in (0, 1, 2, 9, 10, 60, 61)}
        for cls in ("person", "worker"):
            for ssn in (100, 101, 102, 200, 201, 202, 300, 301, 310, 311,
                        800, 801, 900, 901):
                seen[cls, "ssn", ssn] = store.find_by_dva(cls, "ssn", ssn)
            for age in (20, 21, 30, 31, 77):
                seen[cls, "age", age] = store.find_by_dva(cls, "age", age)
            for low, high in ((None, 25), (21, 32), (31, None)):
                seen[cls, "range", low, high] = store.find_by_dva_range(
                    cls, "age", low, high)
        return {key: sorted(found) for key, found in seen.items()}

    def observe_at(self, snap):
        with self.store.snapshot_scope(snap):
            return self.observe()

    # -- writes ---------------------------------------------------------------

    def in_transaction(self, body, finish="commit"):
        """Run ``body`` in a detached transaction; ``finish`` is
        ``"commit"``, ``"abort"`` or ``None`` (leave it open)."""
        transactions = self.store.transactions
        txn = transactions.begin_detached()
        with transactions.activate(txn):
            body()
        if finish is not None:
            self.finish(txn, finish)
        return txn

    def finish(self, txn, how):
        transactions = self.store.transactions
        with transactions.activate(txn):
            if how == "commit":
                transactions.commit_detached(txn)
            else:
                transactions.abort_detached(txn)

    # Five kinds of committed change; ``committed_batch`` is all of them.

    def insert_batch(self):
        self.store.insert_entity("person", {"name": "New", "ssn": 300,
                                            "age": 20, "phones": [7]})
        self.store.insert_entity("worker", {"name": "W1", "ssn": 301,
                                            "age": 31, "badge": 9})

    def modify_batch(self):
        store, a = self.store, self.attrs
        store.write_dva(self.people[0], a["name"], "Renamed")
        store.write_dva(self.people[1], a["age"], 77)    # moves in the index
        store.write_dva(self.workers[1], a["ssn"], 999)  # moves in the index
        store.write_dva(self.workers[2], a["phones"], [5, 6, 7])

    def exclude_batch(self):
        store, a = self.store, self.attrs
        store.mv_exclude(self.people[3], a["phones"], 3)
        store.eva_exclude(self.people[0], a["spouse"], self.workers[0])
        store.eva_exclude(self.workers[0], a["employer"], self.companies[0])
        store.eva_exclude(self.workers[1], a["skills"], self.skills[1])

    def include_batch(self):
        store, a = self.store, self.attrs
        store.mv_include(self.people[2], a["phones"], 42)
        store.eva_include(self.workers[0], a["spouse"], self.people[3])
        store.eva_include(self.workers[0], a["employer"], self.companies[1])
        store.eva_include(self.workers[3], a["employer"], self.companies[0])
        store.eva_include(self.workers[3], a["skills"], self.skills[0])

    def delete_batch(self):
        self.store.remove_role(self.workers[2], "worker")  # cascades its EVAs
        self.store.remove_role(self.people[2], "person")

    def batches(self):
        return (self.insert_batch, self.modify_batch, self.exclude_batch,
                self.include_batch, self.delete_batch)

    def committed_batch(self):
        for batch in self.batches():
            batch()

    def open_batch(self):
        store, a = self.store, self.attrs
        store.insert_entity("worker", {"name": "Pending", "ssn": 302,
                                       "age": 21, "badge": 10})
        store.write_dva(self.people[1], a["name"], "Uncommitted")
        store.write_dva(self.workers[0], a["age"], 20)
        store.mv_include(self.people[0], a["phones"], 99)
        store.eva_exclude(self.workers[1], a["spouse"], self.people[1])
        store.eva_include(self.workers[1], a["skills"], self.skills[0])
        store.remove_role(self.workers[3], "person")


def assert_snapshot_fills_are_physical(store):
    """After snapshot reads from a cleared cache: the structure
    mappings' traversals filled the fan-out cache, the field-held ones'
    (which read the holder through the view) filled nothing, and every
    entry equals a physical traversal now."""
    kinds = {info.rel_id: isinstance(info, (ForeignKeyEva, PointerEva))
             for info in store._evas.values()}
    filled = {kinds[rel_id] for rel_id, _, _ in store.read_cache._fanout}
    assert filled == {False}
    assert_cache_matches_physical(store)


def test_snapshot_at_the_current_epoch_equals_latest(store):
    world = World(store)
    latest = world.observe()
    snap = store.begin_snapshot()
    store.read_cache.clear()
    try:
        # Nothing has been written since the pin: indexes may answer.
        assert store.versions.changed(snap, CLASSES) == set()
        assert world.observe_at(snap) == latest
        assert_snapshot_fills_are_physical(store)
        # Auto-committed writes (no transaction, as population makes
        # them) stage their pre-images for a pinned reader; the ones
        # World made with nothing pinned read none.
        world.committed_batch()
        written = world.observe()
        assert written != latest
        assert world.observe_at(snap) == latest
    finally:
        store.end_snapshot(snap)
    assert world.observe() == written
    assert_cache_matches_physical(store)


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_pinned_snapshot_survives_writes_it_must_not_see(store, outcome):
    world = World(store)
    before = world.observe()
    pinned = store.begin_snapshot()
    try:
        world.in_transaction(world.committed_batch)
        committed = world.observe()
        assert committed != before
        txn = world.in_transaction(world.open_batch, finish=None)

        # (b) the pinned view is the saved pre-state; records of the
        # touched classes have changed for it, so index-served finds
        # re-read those through the version chains.
        assert store.versions.changed(pinned, ("person",))
        store.read_cache.clear()
        assert world.observe_at(pinned) == before
        assert_snapshot_fills_are_physical(store)

        # a view pinned now sees the committed batch, not the open one
        fresh = store.begin_snapshot()
        try:
            assert world.observe_at(fresh) == committed
        finally:
            store.end_snapshot(fresh)

        # (c) the open transaction reads its own writes: pinned to its
        # id, a snapshot shows exactly what its latest reads show.
        with store.transactions.activate(txn):
            own = world.observe()
            mine = store.begin_snapshot(txn.transaction_id)
            try:
                assert world.observe_at(mine) == own
            finally:
                store.end_snapshot(mine)
        assert own != committed

        world.finish(txn, outcome)
        # (d) at rest: one truth, in the cache and on the pages
        assert world.observe() == (own if outcome == "commit" else committed)
        assert world.observe_at(pinned) == before
        assert_cache_matches_physical(store)
    finally:
        store.end_snapshot(pinned)
    assert store.check().ok
    # This store never called enable_history(): with no snapshot open the
    # chains drain, and what they held can no longer be asked for.
    assert store.versions.statistics()["chained_keys"] == 0
    with pytest.raises(SimError, match="older than the retained"):
        store.as_of(pinned.epoch)
    assert_survives_a_crash(world)


def assert_survives_a_crash(world):
    store = world.store
    store.pool.flush()
    at_rest = world.observe()
    store.simulate_crash()
    assert world.observe() == at_rest
    assert store.check().ok


def test_pointer_many_to_many_reads_back_in_order_after_a_crash():
    """A field-held mapping's index side answers in holder-RID order —
    the order recovery's rebuild reproduces — not in include order: a
    seeded include/exclude sequence on a POINTER-mapped many:many pair,
    committed, reads back identically after a crash."""
    world = World(build(("skills", EvaMapping.POINTER), MvDvaMapping.ARRAY,
                        HierarchyMapping.VARIABLE_FORMAT))
    store, skills, rng = world.store, world.attrs["skills"], random.Random(7)

    def shuffle():
        for _ in range(12):
            worker = rng.choice(world.workers)
            skill = rng.choice(world.skills)
            if skill in store.eva_targets(worker, skills):
                store.eva_exclude(worker, skills, skill)
            else:
                store.eva_include(worker, skills, skill)
    world.in_transaction(shuffle)
    assert_survives_a_crash(world)


#: (holder class, EVA) of every fan-out the batch tests read
BATCHED_EVAS = (("person", "spouse"), ("worker", "employer"),
                ("worker", "skills"), ("company", "staff"),
                ("skill", "holders"))
#: what a batch counts exactly as its keys read one at a time do
READ_COUNTERS = ("record_cache_hits", "record_cache_misses",
                 "role_cache_hits", "role_cache_misses",
                 "fanout_cache_hits", "fanout_cache_misses",
                 "records_decoded")


def cold_reads(world, batched):
    """Every class's records and every EVA's fan-outs over
    ``world.watched`` from a cold 2-frame pool — so blocks are evicted
    mid-batch — a batch at a time or one key at a time: ``(rows,
    counters moved)``, the block touches (``logical_reads``) included."""
    store, watched = world.store, world.watched
    store.pool.resize(2)
    store.cold_cache()
    before = store.perf.as_dict()
    rows = {}
    for cls in CLASSES:
        if batched:
            rows[cls] = store.fetch_many(cls, watched)
            continue
        rows[cls] = {}
        for s in watched:
            with contextlib.suppress(IntegrityError):   # not a holder
                rows[cls][s] = store.record_of(s, cls)
    for cls, name in BATCHED_EVAS:
        eva = world.attrs[name]
        rows[name] = (store.traverse_eva_batch(watched, eva) if batched
                      else {s: store.eva_targets(s, eva) for s in watched
                            if store.has_role(s, eva.owner_name)})
    after = store.perf.as_dict()
    return rows, {name: after[name] - before[name]
                  for name in READ_COUNTERS + ("logical_reads",)}


@pytest.mark.parametrize("eva_case", EVA_CASES, ids=lambda case: "-".join(
    [case[0], case[1].value]))
def test_a_cold_batch_reads_what_its_keys_read_one_at_a_time(eva_case):
    """(h) for every physical mapping, both hierarchy mappings, latest
    and under a snapshot pinned at the current epoch."""
    for hierarchy in HierarchyMapping:
        world = World(build(eva_case, MvDvaMapping.ARRAY, hierarchy))
        store = world.store
        pinned = store.begin_snapshot()
        try:
            for snap in (None, pinned):
                with store.snapshot_scope(snap):
                    rows, one = cold_reads(world, batched=False)
                    batch_rows, batch = cold_reads(world, batched=True)
                assert batch_rows == rows, (hierarchy, snap)
                touched = one.pop("logical_reads"), batch.pop(
                    "logical_reads")
                assert batch == one, (hierarchy, snap)
                assert touched[1] <= touched[0], (hierarchy, snap)
        finally:
            store.end_snapshot(pinned)


def test_a_cold_fetch_touches_each_block_once_in_block_order():
    """(h) ``fetch_many`` of N records spread over B blocks, asked for
    in reverse: exactly B ``BufferPool.get`` calls, ascending."""
    world = World(build(EVA_CASES[0], MvDvaMapping.ARRAY,
                        HierarchyMapping.SEPARATE_UNITS))
    store = world.store
    people = world.people + [
        store.insert_entity("person", {"name": f"X{i}", "ssn": 1000 + i})
        for i in range(60)]
    index = store._surrogate_index["person"]
    blocks = sorted({index.lookup_one(s).block for s in people})
    assert 1 < len(blocks) < len(people)
    store.cold_cache()
    real, gets = store.pool.get, []

    def counted(file_id, block_no):
        gets.append((file_id, block_no))
        return real(file_id, block_no)
    store.pool.get = counted
    try:
        records = store.fetch_many("person", people[::-1])
    finally:
        del store.pool.get
    assert sorted(records) == sorted(people)
    file_id = store._class_file["person"].file_id
    assert gets == [(file_id, block) for block in blocks]


def test_a_batch_primitive_that_raises_reads_the_keys_left_again():
    """Under a snapshot a unit reshaped by a writer can make the batch's
    one read raise.  A key whose second probe hits takes its pre-image
    and the keys left are read again; the error is the answer only when
    every key missed both probes and nothing aborted — here one that
    every read repeats."""
    world = World(build(EVA_CASES[0], MvDvaMapping.ARRAY,
                        HierarchyMapping.SEPARATE_UNITS))
    store, people, name = world.store, world.people, world.attrs["name"]
    unit = store._class_file["person"]
    real, calls, always = unit.read_many, [], []

    def torn(rids):
        calls.append(len(rids))
        if len(calls) == 1:
            del unit.read_many              # the writer reads it too
            TestWriterThatAbortsBetweenTheProbes.on_a_thread(
                lambda: world.in_transaction(
                    lambda: store.write_dva(people[1], name, "Renamed")))
            unit.read_many = torn
        if len(calls) == 1 or always:
            raise StorageError("a unit reshaped under the batch")
        return real(rids)
    expected = store.fetch_many("person", people)
    pinned = store.begin_snapshot()
    try:
        with store.snapshot_scope(pinned):
            store.read_cache.clear()
            unit.read_many = torn
            assert store.fetch_many("person", people) == expected
            assert calls == [4, 3]      # the batch, then the keys left
            always.append(True)
            store.read_cache.clear()
            with pytest.raises(StorageError, match="reshaped"):
                store.fetch_many("person", people)
            assert calls == [4, 3, 3]   # the renamed key hits at once
    finally:
        del unit.read_many
        store.end_snapshot(pinned)
    assert store.read_dva(people[1], name) == "Renamed"
    assert store.check().ok


def test_every_retained_epoch_reads_back_as_it_was(store):
    """(e) with the chains retained (``enable_history``) the state after
    each committed batch stays readable: ``as_of(E)`` is the read
    protocol pinned at ``E`` and must return exactly what every public
    read returned when ``E`` was the latest epoch — whatever committed,
    aborted or is still open since."""
    store.enable_history()
    world = World(store)
    versions = store.versions
    seen = {versions.epoch: world.observe()}
    for number, batch in enumerate(world.batches()):
        world.in_transaction(batch)
        assert versions.epoch not in seen     # one transaction, one epoch
        seen[versions.epoch] = world.observe()
        if number == 1:
            world.in_transaction(world.open_batch, finish="abort")
            assert versions.epoch in seen     # an abort is not an event
            assert world.observe() == seen[versions.epoch]
    txn = world.in_transaction(world.open_batch, finish=None)
    with store.transactions.activate(txn):
        assert world.observe() != seen[versions.epoch]

    assert len(seen) == 6
    opened = versions.statistics()["snapshots_opened"]
    for epoch, state in seen.items():
        with store.as_of(epoch):
            assert world.observe() == state, epoch
    assert versions.statistics()["snapshots_opened"] == opened
    assert versions.statistics()["active_snapshots"] == 0

    world.finish(txn, "abort")
    assert world.observe() == seen[versions.epoch]
    assert_cache_matches_physical(store)
    assert store.check().ok


# ------------------------------------------ (f) finds beside writers: no scan
#
# One kind of change per function, on the ``k``-th person/worker, so that
# a committed (k=0), a still-open (k=1) and an aborted (k=2) transaction
# can each make it on entities of their own — and, in ``CHANGES`` order,
# one after the other on the same ones.


def key_changed_away(world, k):
    a = world.attrs
    world.store.write_dva(world.people[k], a["age"], 77)
    world.store.write_dva(world.workers[k], a["ssn"], 900 + k)


def key_changed_to_a_probed_value(world, k):
    a = world.attrs
    world.store.write_dva(world.people[k], a["age"], 30)
    world.store.write_dva(world.workers[k], a["age"], 20)
    world.store.write_dva(world.workers[k], a["badge"], 60 + k)


def unique_key_moved_to_another_entity(world, k):
    ssn = world.attrs["ssn"]
    world.store.write_dva(world.people[k], ssn, 800 + k)
    world.store.write_dva(world.workers[k], ssn, 100 + k)


def inserted(world, k):
    world.store.insert_entity("person", {"name": "New", "ssn": 300 + k,
                                         "age": 20})
    world.store.insert_entity("worker", {"name": "New", "ssn": 310 + k,
                                         "age": 31, "badge": 9 + k})


def deleted(world, k):
    world.store.remove_role(world.workers[k], "person")    # both roles
    world.store.remove_role(world.people[k], "person")


def subclass_role_changed_under_a_superclass_index(world, k):
    """``worker`` finds by ``ssn``/``age`` probe person's index and
    filter by role: here only the role changes, person's records (and
    so its indexes) do not."""
    world.store.remove_role(world.workers[k], "worker")
    world.store.add_role(world.people[k], "worker", {"badge": 60 + k})


CHANGES = [key_changed_away, key_changed_to_a_probed_value,
           unique_key_moved_to_another_entity, inserted,
           subclass_role_changed_under_a_superclass_index, deleted]


@pytest.fixture()
def scans(monkeypatch):
    """Every ``scan_class`` call from here on, by class name."""
    calls = []
    real_scan = MapperStore.scan_class

    def counting_scan(self, class_name):
        calls.append(class_name)
        return real_scan(self, class_name)
    monkeypatch.setattr(MapperStore, "scan_class", counting_scan)
    return calls


@pytest.mark.parametrize("change", CHANGES, ids=lambda change: change.__name__)
def test_pinned_find_beside_writers_never_scans(store, change, scans):
    world = World(store)
    before = world.finds()
    pinned = store.begin_snapshot()
    try:
        world.in_transaction(lambda: change(world, 0))
        world.in_transaction(lambda: change(world, 2), finish="abort")
        committed = world.finds()
        assert committed != before
        txn = world.in_transaction(lambda: change(world, 1), finish=None)
        assert scans == []                   # latest finds never did scan

        with store.snapshot_scope(pinned):
            assert world.finds() == before
        assert store.perf.snapshot_find_overlays > 0
        world.finish(txn, "abort")
        with store.snapshot_scope(pinned):
            assert world.finds() == before
        assert scans == []
        assert store.perf.snapshot_find_scans == 0
    finally:
        store.end_snapshot(pinned)
    assert store.check().ok


def test_as_of_find_beside_writers_never_scans(store, scans):
    """The same under ``as_of``: every epoch between the changes, read
    back beside all of them committed, aborted and open once more."""
    store.enable_history()
    world = World(store)
    seen = {store.versions.epoch: world.finds()}
    for change in CHANGES:
        world.in_transaction(lambda: change(world, 0))
        world.in_transaction(lambda: change(world, 2), finish="abort")
        seen[store.versions.epoch] = world.finds()
    assert len({repr(finds) for finds in seen.values()}) == len(CHANGES) + 1

    def every_change():
        for change in CHANGES:
            change(world, 1)
    txn = world.in_transaction(every_change, finish=None)
    for epoch, finds in seen.items():
        with store.as_of(epoch):
            assert world.finds() == finds, epoch
    assert scans == []
    assert store.perf.snapshot_find_overlays > 0
    assert store.perf.snapshot_find_scans == 0
    world.finish(txn, "abort")
    assert store.check().ok


def test_find_order_is_decided_by_the_snapshot_not_by_writers(store):
    """Index survivors in probe order, then matches only the changed
    records supply, in surrogate order — so a writer that leaves the
    matching entities' keys alone cannot reorder a pinned find, however
    it is timed (the scan fallback this replaces answered in physical
    order whenever a writer happened to be open)."""
    world = World(store)
    a, people, workers = world.attrs, world.people, world.workers
    store.write_dva(people[0], a["age"], 50)    # key order != physical order
    store.write_dva(workers[3], a["age"], 21)

    def finds():
        return [store.find_by_dva("person", "age", 21),
                store.find_by_dva_range("person", "age", None, 60),
                store.find_by_dva_range("worker", "age", 21, 50)]

    pinned = store.begin_snapshot()
    try:
        with store.snapshot_scope(pinned):
            quiet = finds()
        assert quiet[0] == [people[1], workers[3]]
        assert quiet[1][-1] == people[0] and quiet[1] != sorted(quiet[1])

        def bystander():
            store.write_dva(people[1], a["name"], "Renamed")
            store.write_dva(workers[0], a["badge"], 70)
            store.insert_entity("person", {"name": "New", "ssn": 300,
                                           "age": 21})
        txn = world.in_transaction(bystander, finish=None)
        with store.snapshot_scope(pinned):
            assert finds() == quiet
        world.finish(txn, "commit")
        with store.snapshot_scope(pinned):
            assert finds() == quiet

        # Entities whose own key has left the probed range are no longer
        # where the index would have listed them: they follow, by
        # surrogate.
        def movers():
            store.write_dva(workers[3], a["age"], 90)
            store.write_dva(people[1], a["age"], 91)
        world.in_transaction(movers)
        with store.snapshot_scope(pinned):
            moved = finds()
        assert moved[0] == sorted(quiet[0])
        assert moved[1] == [s for s in quiet[1]
                            if s not in (people[1], workers[3])] \
            + [people[1], workers[3]]
        assert sorted(moved[2]) == sorted(quiet[2])
    finally:
        store.end_snapshot(pinned)


@contextlib.contextmanager
def parked_mid_range(index):
    """Wrap ``index.range`` so that the first range probe iterated off
    the main thread parks after its first entry until released — the
    probe is half run: ``(parked, resume)``, as :func:`parked_after`."""
    real = index.range
    parked, resume = threading.Event(), threading.Event()
    main = threading.get_ident()

    def wrapper(*args, **kwargs):
        for number, entry in enumerate(real(*args, **kwargs)):
            yield entry
            if (number == 0 and threading.get_ident() != main
                    and not parked.is_set()):
                parked.set()
                assert resume.wait(10.0), "reader never released"

    index.range = wrapper
    try:
        yield parked, resume
    finally:
        resume.set()
        del index.range                 # the instance shadow only


class TestFindBesideARacingWriter:
    """The writer runs — stage, mutate, commit or not — at a chosen
    point INSIDE the reader's find: once between the first
    ``versions.changed`` read and the index probe, once between the
    probe and the second read.  Forced (``parked_after``), never
    scheduler luck: a find that trusted either half alone would return
    the writer's state."""

    @pytest.fixture()
    def world(self):
        return World(build(*CONFIGS[0]))

    @staticmethod
    def racing(world, park, method, write):
        """What a find and ``World.finds`` return under a snapshot
        pinned now, when ``write`` runs as the first ``park.method``
        call of the reading thread returns."""
        store = world.store
        pinned = store.begin_snapshot()

        def read():
            with store.snapshot_scope(pinned):
                first = store.find_by_dva("person", "ssn", 101)
                return first, world.finds()

        try:
            with parked_after(park, method) as gates:
                return race(read, *gates, write=write)
        finally:
            store.end_snapshot(pinned)

    @staticmethod
    def writes(world):      # people[1] gives up ssn 101, workers[1] takes it
        unique_key_moved_to_another_entity(world, 1)
        world.store.write_dva(world.people[2], world.attrs["age"], 77)
        world.store.remove_role(world.workers[3], "person")

    @pytest.mark.parametrize("finish", ["commit", None])
    @pytest.mark.parametrize("point", ["before the probe", "after the probe"])
    def test_writer_inside_the_find(self, world, scans, point, finish):
        store = world.store
        before = world.finds()
        index = store._unique_index["person", "ssn"]
        park, method = ((store.versions, "changed")
                        if point == "before the probe" else (index, "lookup"))
        first, rest = self.racing(
            world, park, method, lambda: world.in_transaction(
                lambda: self.writes(world), finish=finish))
        assert first == [world.people[1]]
        assert rest == before
        assert scans == []
        assert store.perf.snapshot_find_overlays >= 1
        assert store.perf.snapshot_find_scans == 0

    def test_writer_that_aborts_before_the_probe(self, world, scans):
        """The first ``changed`` read names the open writer's records;
        by the probe the abort has put them back and taken its
        pre-images away.  (It cannot come any later: with a writer in
        the class the probe and the second read run under the unit
        latch, which the abort's undo needs.)"""
        store = world.store
        before = world.finds()
        txn = world.in_transaction(lambda: self.writes(world), finish=None)
        first, rest = self.racing(
            world, store.versions, "changed",
            lambda: world.finish(txn, "abort"))
        assert first == [world.people[1]]
        assert rest == before
        assert scans == []

    @pytest.mark.parametrize("finish", ["commit", None])
    def test_writer_that_shifts_the_index_under_a_range_probe(
            self, world, scans, finish):
        """An ordered index is two parallel lists read by position: a
        writer that empties a LOWER key's bucket shifts them, and a
        range probe already past that position skips a neighbour no
        writer touched — one ``changed`` cannot name.  The reader parks
        inside the range probe, after its first entry; the probe it
        resumes is torn, so it must be thrown away and taken again as
        one physical state."""
        store, age = world.store, world.attrs["age"]
        pinned = store.begin_snapshot()

        def read():
            with store.snapshot_scope(pinned):
                return store.find_by_dva_range("person", "age", None, 60)

        def write():    # ages 20 21 22 … lose their first key
            world.in_transaction(
                lambda: store.write_dva(world.people[0], age, 99),
                finish=finish)

        try:
            quiet = read()
            with parked_mid_range(store._value_index["person", "age"]) \
                    as gates:
                raced = race(read, *gates, write=write)
        finally:
            store.end_snapshot(pinned)
        # All eight; the one whose key moved follows the survivors.
        assert quiet[0] == world.people[0] and len(quiet) == 8
        assert raced == quiet[1:] + quiet[:1]
        assert scans == []
        assert store.perf.snapshot_find_overlays == 1
        assert store.perf.snapshot_find_scans == 0

    def test_probe_beside_a_writer_in_sight_holds_the_unit_latch(
            self, world, scans):
        """With a change to the class already pending there is no
        unlatched first try: parked mid-range, the reader owns the latch
        every index move needs, so nothing can shift under it."""
        store, age = world.store, world.attrs["age"]
        latch = store._class_file["person"].latch
        txn = world.in_transaction(
            lambda: store.write_dva(world.people[0], age, 99), finish=None)
        pinned = store.begin_snapshot()
        held = []

        def read():
            with store.snapshot_scope(pinned):
                return store.find_by_dva_range("person", "age", None, 60)

        def write():
            held.append(not latch.acquire(blocking=False))

        try:
            with parked_mid_range(store._value_index["person", "age"]) \
                    as gates:
                raced = race(read, *gates, write=write)
        finally:
            store.end_snapshot(pinned)
        assert held == [True]
        assert raced[-1] == world.people[0] and len(raced) == 8
        assert latch.acquire(blocking=False)
        latch.release()
        world.finish(txn, "abort")
        assert scans == []

    def test_readers_beside_a_committing_writer_never_see_half_a_swap(
            self, world):
        """The scheduler-driven form, time-boxed: one writer keeps
        swapping two people's unique keys (three index moves a
        transaction, committed and aborted in turn), more readers than
        cores pin and probe both keys.  Whatever the interleaving, a
        pinned view holds each key exactly once, on different people."""
        store, ssn = world.store, world.attrs["ssn"]
        a, b = world.people[0], world.people[1]
        stop, failures = threading.Event(), []

        def swap():
            mine, theirs = store.read_dva(a, ssn), store.read_dva(b, ssn)
            store.write_dva(a, ssn, 999)
            store.write_dva(b, ssn, mine)
            store.write_dva(a, ssn, theirs)

        def write():
            for finish in itertools.cycle(("commit", "abort")):
                if stop.is_set():
                    break
                world.in_transaction(swap, finish=finish)

        def read():
            while not stop.is_set():
                pinned = store.begin_snapshot()
                try:
                    with store.snapshot_scope(pinned):
                        for _ in range(3):
                            found = (store.find_by_dva("person", "ssn", 100),
                                     store.find_by_dva("person", "ssn", 101),
                                     store.find_by_dva("person", "ssn", 999))
                            if (sorted(found[0] + found[1]) != [a, b]
                                    or found[2]):
                                failures.append(found)
                except Exception as exc:    # surfaced below
                    failures.append(exc)
                finally:
                    store.end_snapshot(pinned)

        threads = [threading.Thread(target=write)] \
            + [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert store.perf.snapshot_find_overlays > 0
        assert store.perf.snapshot_find_scans == 0
        assert store.check().ok

    def test_probe_that_keeps_failing_falls_back_to_one_counted_scan(
            self, world, scans, monkeypatch):
        store = world.store
        before = world.finds()
        world.in_transaction(lambda: key_changed_away(world, 0), finish=None)

        def torn(rids):
            raise KeyError("slot reused under the reader")
        pinned = store.begin_snapshot()
        try:
            with store.snapshot_scope(pinned):
                monkeypatch.setattr(store, "_surrogates_at",
                                    lambda owner, rids: torn(rids))
                assert store.find_by_dva("person", "age", 20) \
                    == before["person", "age", 20]
                assert scans == ["person"]
                assert store.perf.snapshot_find_scans == 1
                # With no writer in the class there is nobody to blame
                # the failure on: it is the caller's to see.
                with pytest.raises(KeyError):
                    store.find_by_dva("worker", "badge", 0)
        finally:
            store.end_snapshot(pinned)


class TestWriterThatAbortsBetweenTheProbes:
    """The writer stages, mutates and aborts INSIDE the reader's
    physical read: after the first version probe missed, around the one
    call that reads the mutated unit, before the second probe.  An abort
    leaves no pending pre-image and no chain entry — both probes miss,
    and only ``versions.aborts`` says the value in hand was never
    committed.  Forced from inside the read, each writer step run to
    completion on a thread of its own.  (A batch's control: a writer
    that commits there is its second probe's hit.)  With no writer in
    sight when the read starts there is no first probe: the read runs
    once and is kept only if the version map is still untouched and
    ``versions.aborts`` has not moved — the writer's commit leaves a
    chain entry, its abort a count."""

    @pytest.fixture()
    def world(self):
        return World(build(*CONFIGS[0]))

    @staticmethod
    def on_a_thread(step):
        outcome = []
        thread = threading.Thread(target=lambda: outcome.append(step()))
        thread.start()
        thread.join(10.0)
        assert outcome, "the writer's step blocked or raised"
        return outcome[0]

    @classmethod
    @contextlib.contextmanager
    def writer_inside(cls, world, target, method_name, write,
                      result_of=lambda returned: returned, finish="abort"):
        """The first ``target.method_name`` call runs between an open
        transaction's ``write`` and its ``finish`` (``result_of=list``
        when it returns a generator: the reading is in the
        iteration)."""
        real = getattr(target, method_name)
        calls = []

        def wrapper(*args, **kwargs):
            delattr(target, method_name)    # the writer reads it too
            txn = cls.on_a_thread(
                lambda: world.in_transaction(write, finish=None))
            result = result_of(real(*args, **kwargs))
            cls.on_a_thread(lambda: world.finish(txn, finish))
            calls.append(result)
            return result

        setattr(target, method_name, wrapper)
        yield calls
        assert len(calls) == 1, "the read never reached the parked call"

    @pytest.mark.parametrize("finish", ["abort", "commit"])
    def test_read_takes_the_unit_again(self, world, finish):
        """The read starts with the map untouched; the writer stages,
        mutates and commits or aborts inside its one ``read_many``."""
        store, name = world.store, world.attrs["name"]
        person = world.people[1]
        pinned = store.begin_snapshot()
        store.read_cache.clear()
        try:
            assert store.versions.untouched()
            with self.writer_inside(
                    world, store._class_file["person"], "read_many",
                    lambda: store.write_dva(person, name, "Never"),
                    finish=finish) as read:
                with store.snapshot_scope(pinned):
                    assert store.read_dva(person, name) == "P1"
            at = store.field_positions("person")["name"]
            [slot] = read[0]
            assert slot[1][at] == "Never"       # the dirty value was read
        finally:
            store.end_snapshot(pinned)
        assert store.read_dva(person, name) == (
            "Never" if finish == "commit" else "P1")
        assert store.check().ok

    @pytest.mark.parametrize("finish", ["abort", "commit"])
    def test_batch_between_its_probes(self, world, finish):
        """The writer runs inside the batch's one ``read_many``: aborted,
        every key missed both probes and the abort count moved, so the
        batch reads again; committed, the renamed key's second probe
        hits its pre-image.  Either way the batch is the pinned state."""
        store, name = world.store, world.attrs["name"]
        people = world.people
        at = store.field_positions("person")["name"]
        pinned = store.begin_snapshot()
        store.read_cache.clear()
        try:
            with self.writer_inside(
                    world, store._class_file["person"], "read_many",
                    lambda: store.write_dva(people[1], name, "Never"),
                    finish=finish) as read:
                with store.snapshot_scope(pinned):
                    records = store.fetch_many("person", people)
            assert "Never" in [slot[1][at] for slot in read[0]]
        finally:
            store.end_snapshot(pinned)
        assert [records[s][1][at] for s in people] == [
            "P0", "P1", "P2", "P3"]
        assert store.read_dva(people[1], name) == (
            "Never" if finish == "commit" else "P1")
        assert store.check().ok

    def test_find_takes_the_probe_again_under_the_latch(self, world, scans):
        store, ssn = world.store, world.attrs["ssn"]
        person = world.people[1]
        pinned = store.begin_snapshot()
        try:
            with self.writer_inside(
                    world, store._unique_index["person", "ssn"], "lookup",
                    lambda: store.write_dva(person, ssn, 555)) as probed:
                with store.snapshot_scope(pinned):
                    assert store.find_by_dva("person", "ssn", 101) == [person]
            assert list(probed[0]) == []            # the key had moved away
        finally:
            store.end_snapshot(pinned)
        assert scans == []
        assert store.perf.snapshot_find_scans == 0
        assert store.check().ok

    @pytest.mark.parametrize("write, extra", [
        (lambda world: world.store.insert_entity("person", {
            "name": "Never", "ssn": 555, "age": 1}), 1),   # a phantom
        (lambda world: world.store.remove_role(world.people[0], "person"),
         -1),                                             # a gap
    ], ids=["insert", "remove"])
    def test_scan_takes_the_extent_again(self, world, write, extra):
        """The scan reads the writer's extent; the abort comes before
        the changed records are read, so they are empty and only
        ``versions.aborts`` sends the scan back to the extent."""
        store = world.store
        before = list(store.scan_class("person"))
        pinned = store.begin_snapshot()
        try:
            with self.writer_inside(
                    world, store._class_file["person"], "scan_blocks",
                    lambda: write(world), result_of=list) as scanned:
                with store.snapshot_scope(pinned):
                    assert list(store.scan_class("person")) == before
            assert sum(map(len, scanned[0])) == len(before) + extra
        finally:
            store.end_snapshot(pinned)
        assert store.check().ok
