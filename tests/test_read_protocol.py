"""Differential test of the Mapper's one read protocol over every
physical mapping.

``MapperStore`` serves every read through one protocol (``_read``: probe
the version map, read, probe again) over three physical primitives, and
"latest" is that protocol with no snapshot pinned.  For each combination
of EVA mapping x MV DVA mapping x hierarchy mapping this suite drives
*every* public read method and asserts

(a) latest == a snapshot pinned at the current epoch;
(b) a snapshot pinned before a batch of committed inserts / modifies /
    includes / excludes / deletes, plus one transaction still open,
    reads exactly the state saved before the batch — index-served
    finds included, through the index fast path in (a) and through the
    dirty-class fallback here;
(c) the open transaction reads its own writes;
(d) once everything has committed or aborted, the read cache equals a
    fresh physical read and the consistency checker is clean;
(e) with the version chains retained, ``as_of(E)`` reads exactly the
    state that was latest at ``E``, for every committed epoch ``E``.
"""

from __future__ import annotations

import itertools

import pytest

from repro import SimError, parse_ddl
from repro.mapper import (
    EvaMapping,
    HierarchyMapping,
    MapperStore,
    MvDvaMapping,
    PhysicalDesign,
)
from tests.test_read_cache import assert_cache_matches_physical

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
    design.override_eva("worker" if eva_name == "employer" else "person",
                        eva_name, mapping)
    design.override_mv_dva("person", "phones", mv_mapping)
    design.add_value_index("person", "age", kind="ordered")
    store = MapperStore(schema, design.finalize())
    store.enable_mvcc()
    return store


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


def test_snapshot_at_the_current_epoch_equals_latest(store):
    world = World(store)
    latest = world.observe()
    snap = store.begin_snapshot()
    try:
        # Nothing has been written since the pin: indexes may answer.
        assert store.versions.class_clean(snap, CLASSES)
        assert world.observe_at(snap) == latest
    finally:
        store.end_snapshot(snap)
    assert world.observe() == latest
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

        # (b) the pinned view is the saved pre-state; the touched classes
        # are dirty for it, so index-served finds take the fallback.
        assert not store.versions.class_clean(pinned, ("person",))
        assert world.observe_at(pinned) == before

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
