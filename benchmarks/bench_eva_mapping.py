"""E4 — EVA mapping options (paper §5.2).

"The mapping of EVAs is the key factor in determining SIM's performance."

Workload: ``owners`` owner entities with a 1:many EVA of ``fanout``
members, plus an interleaved noise EVA sharing the Common EVA Structure.
Unit operation: from one owner, traverse the relationship and materialize
every member record (cold cache), the access pattern §5.1's first/next
instance costs describe.

Shape claims asserted:
* the Common structure does at least as much physical I/O as a dedicated
  structure (interleaving destroys locality);
* clustered relationship records make the *relationship access itself*
  free once the owner's block is in memory (first-instance cost 0);
* every mapping returns identical answers.

Ablations: surrogate key kind and buffer-pool size.
"""

import pytest

from repro import Database, EvaMapping, PhysicalDesign, SurrogateKeyKind
from repro.workloads import fanout_schema, populate_fanout

from _harness import attach, cold_io

OWNERS = 60
FANOUT = 10

MAPPINGS = [EvaMapping.COMMON, EvaMapping.DEDICATED, EvaMapping.CLUSTERED,
            EvaMapping.POINTER, EvaMapping.FOREIGN_KEY]


def build(mapping: EvaMapping, owners: int = OWNERS, fanout: int = FANOUT,
          pool: int = 24, key_kind: SurrogateKeyKind = SurrogateKeyKind.HASH):
    schema = fanout_schema()
    design = PhysicalDesign(schema, pool_capacity=pool,
                            surrogate_key_kind=key_kind)
    design.override_eva("owner", "members", mapping)
    db = Database(schema, design=design.finalize(), constraint_mode="off",
                  use_optimizer=False)
    owners_surrs, _ = populate_fanout(db, owners, fanout)
    return db, owners_surrs


def traverse_all(db, owner_surrs, with_members: bool = True):
    """The unit operation, repeated over every owner."""
    store = db.store
    members = db.schema.get_class("owner").attribute("members")
    data_attr = db.schema.get_class("member").attribute("member-data")
    total = 0
    for owner in owner_surrs:
        store.record_of(owner, "owner")
        for member in store.eva_targets(owner, members):
            if with_members:
                store.read_dva(member, data_attr)
            total += 1
    return total


@pytest.mark.parametrize("mapping", MAPPINGS, ids=lambda m: m.value)
def test_e4_traversal(benchmark, mapping):
    db, owner_surrs = build(mapping)

    def operation():
        db.cold_cache()
        return traverse_all(db, owner_surrs)

    count = benchmark(operation)
    assert count == OWNERS * FANOUT
    io = cold_io(db, lambda: traverse_all(db, owner_surrs))
    attach(benchmark, mapping=mapping.value, owners=OWNERS, fanout=FANOUT,
           **io)


def _physical(mapping, with_members=True, fanout=FANOUT):
    db, owner_surrs = build(mapping, fanout=fanout)
    return cold_io(db, lambda: traverse_all(db, owner_surrs,
                                            with_members))["physical"]


def test_e4_common_pays_for_interleaving(benchmark):
    """Dedicated beats the shared Common structure on the same traversal."""
    common = _physical(EvaMapping.COMMON)
    dedicated = _physical(EvaMapping.DEDICATED)
    assert dedicated <= common
    attach(benchmark, common=common, dedicated=dedicated)
    benchmark(lambda: None)


def first_instances(db, owner_surrs):
    """§5.1's unit operation: read each owner's record, then access the
    FIRST instance of the relationship (not the whole fan-out)."""
    store = db.store
    members = db.schema.get_class("owner").attribute("members")
    info = store.eva_info(members)
    touched = 0
    for owner in owner_surrs:
        store.record_of(owner, "owner")
        rid = info.forward.lookup_one(owner)
        if rid is not None:
            info.file.read(rid)
            touched += 1
    return touched


def test_e4_clustered_first_instance_free(benchmark):
    """§5.1: "the I/O cost of accessing the first instance of a
    relationship will be 0 if the relationship is implemented by
    clustering" — the clustered mapping's first-instance sweep costs no
    more than reading the owner records alone, while the structure-based
    mappings pay extra block accesses."""
    results = {}
    for mapping in (EvaMapping.CLUSTERED, EvaMapping.DEDICATED,
                    EvaMapping.COMMON):
        db, owner_surrs = build(mapping, owners=40, fanout=2, pool=16)
        baseline = cold_io(db, lambda: [db.store.record_of(o, "owner")
                                        for o in owner_surrs])["physical"]
        total = cold_io(db,
                        lambda: first_instances(db, owner_surrs))["physical"]
        results[mapping.value] = total - baseline
    assert results["clustered"] == 0
    assert results["clustered"] <= results["dedicated"]
    assert results["clustered"] <= results["common"]
    attach(benchmark, **results)
    benchmark(lambda: None)


@pytest.mark.parametrize("fanout", [1, 10, 40])
def test_e4_fanout_sweep(benchmark, fanout):
    """The common-vs-dedicated gap grows with fan-out."""
    db, owner_surrs = build(EvaMapping.COMMON, owners=30, fanout=fanout)
    benchmark(lambda: (db.cold_cache(),
                       traverse_all(db, owner_surrs))[1])
    io = cold_io(db, lambda: traverse_all(db, owner_surrs))
    attach(benchmark, fanout=fanout, **io)


@pytest.mark.parametrize("key_kind", list(SurrogateKeyKind),
                         ids=lambda k: k.value)
def test_e4_surrogate_key_kinds(benchmark, key_kind):
    """§5.2 ablation: direct / hashed / index-sequential surrogates all
    support the same traversal; timing differs, answers do not."""
    db, owner_surrs = build(EvaMapping.DEDICATED, key_kind=key_kind)

    def operation():
        db.cold_cache()
        return traverse_all(db, owner_surrs)

    count = benchmark(operation)
    assert count == OWNERS * FANOUT
    attach(benchmark, key_kind=key_kind.value)


@pytest.mark.parametrize("pool", [4, 16, 64])
def test_e4_buffer_pool_sweep(benchmark, pool):
    """Ablation: physical reads fall as the buffer pool grows."""
    db, owner_surrs = build(EvaMapping.COMMON, pool=pool)

    def operation():
        db.cold_cache()
        return traverse_all(db, owner_surrs)

    benchmark(operation)
    io = cold_io(db, lambda: traverse_all(db, owner_surrs))
    attach(benchmark, pool=pool, **io)


def test_e4_buffer_pool_monotone(benchmark):
    numbers = {}
    for pool in (4, 16, 64):
        db, owner_surrs = build(EvaMapping.COMMON, pool=pool)
        numbers[pool] = cold_io(
            db, lambda: traverse_all(db, owner_surrs))["physical"]
    assert numbers[64] <= numbers[16] <= numbers[4]
    attach(benchmark, **{str(k): v for k, v in numbers.items()})
    benchmark(lambda: None)


def test_e4_all_mappings_same_answers(benchmark):
    reference = None
    for mapping in MAPPINGS:
        db, owner_surrs = build(mapping, owners=10, fanout=5)
        rows = db.query("From owner Retrieve owner-key, member-key of"
                        " members Order By owner-key,"
                        " member-key of members").rows
        if reference is None:
            reference = rows
        assert rows == reference
    benchmark(lambda: None)
