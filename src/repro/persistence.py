"""Saving and opening databases as files.

The simulated disk lives in memory; this module gives it a life across
processes.  A saved database file carries:

* the schema, rendered to DDL (round-trippable, including the §6
  extensions: derived attributes, views, EVA ordering);
* the physical design choices, as a plain dictionary;
* the disk's block images and the durable write-ahead-log prefix, with
  the LSN and transaction-id watermarks that stay monotonic past it;
* the surrogate high-water mark.

:func:`open_database` rebuilds everything volatile — buffer pool, every
index, free-space maps, sequence counters — by the same scan-and-rebuild
path crash recovery uses, so opening a file is literally a restart.

The format is Python pickle wrapped with a magic header and a format
version; it is a simulation artifact, not an interchange format.
Version 2 stores each record as a tuple in its format's field order;
a version 1 file (records as name → value dicts) is refused, not
converted.
"""

from __future__ import annotations

import pickle

from repro.errors import SimError, TransactionError

MAGIC = b"SIMREPRO"
VERSION = 2


def design_to_dict(design) -> dict:
    """Serializable description of a PhysicalDesign."""
    return {
        "block_size": design.block_size,
        "pool_capacity": design.pool_capacity,
        "surrogate_key_kind": design.surrogate_key_kind.value,
        "default_hierarchy": design.default_hierarchy.value,
        "hierarchy_overrides": {
            base: mapping.value
            for base, mapping in design._hierarchy_overrides.items()},
        "eva_overrides": {
            f"{owner}.{name}": mapping.value
            for (owner, name), mapping in design._eva_overrides.items()},
        "mvdva_overrides": {
            f"{owner}.{name}": mapping.value
            for (owner, name), mapping in design._mvdva_overrides.items()},
        "value_indexes": [f"{owner}.{name}"
                          for owner, name in design.value_indexes()],
        "value_index_kinds": {
            f"{owner}.{name}": kind
            for (owner, name), kind in design._value_index_kinds.items()},
    }


def design_from_dict(schema, spec: dict):
    """Rebuild a finalized PhysicalDesign from its dictionary form."""
    from repro.mapper.physical import (
        EvaMapping,
        HierarchyMapping,
        MvDvaMapping,
        PhysicalDesign,
        SurrogateKeyKind,
    )
    design = PhysicalDesign(
        schema,
        block_size=spec["block_size"],
        pool_capacity=spec["pool_capacity"],
        surrogate_key_kind=SurrogateKeyKind(spec["surrogate_key_kind"]),
        default_hierarchy=HierarchyMapping(spec["default_hierarchy"]))
    for base, mapping in spec["hierarchy_overrides"].items():
        design.override_hierarchy(base, HierarchyMapping(mapping))
    for key, mapping in spec["eva_overrides"].items():
        owner, name = key.split(".", 1)
        design.override_eva(owner, name, EvaMapping(mapping))
    for key, mapping in spec["mvdva_overrides"].items():
        owner, name = key.split(".", 1)
        design.override_mv_dva(owner, name, MvDvaMapping(mapping))
    kinds = spec.get("value_index_kinds", {})   # absent in older files
    for key in spec["value_indexes"]:
        owner, name = key.split(".", 1)
        design.add_value_index(owner, name, kind=kinds.get(key, "hash"))
    return design.finalize()


def save_database(database, path: str) -> None:
    """Persist a database to ``path``.

    Requires no open transaction on the database's default session;
    flushes all dirty pages first so the disk image is complete.
    """
    store = database.store
    if database._session.in_transaction():
        raise TransactionError(
            "commit or abort the open transaction before saving")
    store.pool.flush()
    store.wal.force()
    payload = {
        "version": VERSION,
        "ddl": database.schema.ddl(),
        "schema_name": database.schema.name,
        "design": design_to_dict(store.design),
        "disk_blocks": store.disk._blocks,
        "wal": store.wal.durable_image(),
        "constraint_mode": database.constraints.mode,
        "use_optimizer": database.use_optimizer,
        "rewrite": database.rewrite,
        "track_history": store.versions.retain,
        # Declarations only: content is recomputed on open (a restart).
        "materializations": (store.materialized.specs()
                             if store.materialized is not None else []),
    }
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def open_database(path: str):
    """Open a database previously written by :func:`save_database`."""
    from repro.database import Database
    from repro.schema.ddl_parser import parse_ddl

    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise SimError(f"{path!r} is not a SIM database file")
        payload = pickle.load(handle)
    if payload.get("version") != VERSION:
        raise SimError(
            f"{path!r} is a version {payload.get('version')} database "
            f"file; this build opens version {VERSION} only")

    schema = parse_ddl(payload["ddl"])
    schema.name = payload["schema_name"]
    design = design_from_dict(schema, payload["design"])
    database = Database(schema, design=design,
                        constraint_mode=payload["constraint_mode"],
                        use_optimizer=payload["use_optimizer"],
                        rewrite=payload.get("rewrite", True),
                        track_history=payload["track_history"])
    store = database.store
    store.disk._blocks = payload["disk_blocks"]
    # A file saved before the log carried its counters has only records.
    store.wal.restore(payload.get("wal")
                      or {"records": payload["wal_records"]})
    # Opening is a restart: recover (undoing any losers the file carried)
    # and rebuild all volatile state from the disk image.
    store.simulate_crash()
    # Re-declare materializations after recovery so their content is
    # rebuilt from the recovered physical state.
    for spec in payload.get("materializations", []):
        database.materialize(spec["name"], spec["kind"],
                             spec["class_name"], spec["eva_names"])
    return database
