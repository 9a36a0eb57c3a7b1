"""Synthetic schema/data generators for the design-claim benchmarks.

* :func:`fanout_schema` / :func:`populate_fanout` — a 1:many EVA between
  two classes with a configurable fan-out, for the EVA-mapping experiment
  (E4): "The mapping of EVAs is the key factor in determining SIM's
  performance" (§5.2).
* :func:`hierarchy_chain_schema` / :func:`populate_hierarchy_chain` — a
  generalization chain of configurable depth, for the variable-format vs
  separate-units experiment (E5).
* :func:`scale_schema` / :func:`populate_scale` / :func:`scale_queries` —
  the 10^4-10^6-entity workload of ``benchmarks/e2e``'s analytic cells: a
  long 1:many EVA chain (``tier0 → tier1 → ...``), a heavy many:many EVA
  into a ``part`` class, and a generalization diamond (``asset`` ←
  ``tracked``/``costed`` ← ``part``) so traversal-heavy queries exercise
  chained fan-out, many:many probes and inherited DVA reads at scale.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.database import Database
from repro.schema.attribute import (
    AttributeOptions,
    DataValuedAttribute,
    EntityValuedAttribute,
)
from repro.schema.klass import SimClass
from repro.schema.schema import Schema
from repro.types.domain import IntegerType, StringType


def fanout_schema() -> Schema:
    """Two classes, ``owner`` and ``member``, with a 1:many EVA
    ``members``/``owner-of`` between them (plus filler DVAs so records have
    realistic width)."""
    schema = Schema("fanout")
    owner = SimClass("owner")
    owner.add_attribute(DataValuedAttribute(
        "owner-key", IntegerType(), AttributeOptions(unique=True,
                                                     required=True)))
    owner.add_attribute(DataValuedAttribute("owner-data", StringType(40)))
    owner.add_attribute(EntityValuedAttribute(
        "members", "member", "owned-by", AttributeOptions(mv=True)))
    # A second 1:many EVA between the same classes: under the default
    # mapping both share the Common EVA Structure, so their instance
    # records interleave — the locality effect the dedicated mapping
    # avoids.
    owner.add_attribute(EntityValuedAttribute(
        "backups", "member", "backup-of", AttributeOptions(mv=True)))
    schema.add_class(owner)

    member = SimClass("member")
    member.add_attribute(DataValuedAttribute(
        "member-key", IntegerType(), AttributeOptions(unique=True,
                                                      required=True)))
    member.add_attribute(DataValuedAttribute("member-data", StringType(40)))
    member.add_attribute(EntityValuedAttribute(
        "owned-by", "owner", "members", AttributeOptions()))
    member.add_attribute(EntityValuedAttribute(
        "backup-of", "owner", "backups", AttributeOptions()))
    schema.add_class(member)
    return schema.resolve()


def populate_fanout(database: Database, owners: int, fanout: int,
                    seed: int = 3) -> Tuple[List[int], List[int]]:
    """Insert ``owners`` owner entities with ``fanout`` members each.

    The includes of ``members`` and the noise EVA ``backups`` alternate
    across owners, so instance records of the two relationships interleave
    wherever they share a storage unit (the Common EVA Structure).
    """
    rng = random.Random(seed)
    store = database.store
    members_eva = database.schema.get_class("owner").attribute("members")
    backups_eva = database.schema.get_class("owner").attribute("backups")
    owner_surrs: List[int] = []
    member_surrs: List[int] = []
    key = 0
    for owner_index in range(owners):
        owner_surr = store.insert_entity("owner", {
            "owner-key": owner_index,
            "owner-data": f"owner {owner_index} {rng.random():.6f}"})
        owner_surrs.append(owner_surr)
    # Members are inserted after all owners so that member records do NOT
    # accidentally share blocks with their owner (except under the
    # clustered mapping, which places relationship records deliberately).
    backup_pool: List[int] = []
    for owner_index, owner_surr in enumerate(owner_surrs):
        for member_index in range(fanout):
            member_surr = store.insert_entity("member", {
                "member-key": key,
                "member-data": f"member {key} {rng.random():.6f}"})
            key += 1
            store.eva_include(owner_surr, members_eva, member_surr)
            member_surrs.append(member_surr)
            # Interleave noise-EVA instances with the measured EVA's.
            if backup_pool:
                backup = backup_pool.pop(rng.randrange(len(backup_pool)))
                store.eva_include(owner_surr, backups_eva, backup)
            if member_index % 2 == 0 and owner_index + 1 < len(owner_surrs):
                backup_pool.append(member_surr)
    return owner_surrs, member_surrs


def hierarchy_chain_schema(depth: int) -> Schema:
    """A chain ``level0`` ← ``level1`` ← ... ← ``level<depth-1>``, each
    level declaring two DVAs (one inherited-read target per level)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    schema = Schema(f"chain-{depth}")
    for level in range(depth):
        supers = [f"level{level - 1}"] if level else []
        sim_class = SimClass(f"level{level}", supers)
        sim_class.add_attribute(DataValuedAttribute(
            f"key{level}", IntegerType(),
            AttributeOptions(unique=(level == 0), required=(level == 0))))
        sim_class.add_attribute(DataValuedAttribute(
            f"data{level}", StringType(24)))
        schema.add_class(sim_class)
    return schema.resolve()


def populate_hierarchy_chain(database: Database, depth: int, entities: int,
                             seed: int = 5) -> List[int]:
    """Insert ``entities`` entities holding every role down the chain."""
    rng = random.Random(seed)
    store = database.store
    leaf = f"level{depth - 1}"
    surrogates: List[int] = []
    for index in range(entities):
        values: Dict[str, object] = {}
        for level in range(depth):
            if level == 0:
                values["key0"] = index
            else:
                values[f"key{level}"] = index * depth + level
            values[f"data{level}"] = f"row {index} level {level} " \
                                      f"{rng.random():.4f}"
        surrogates.append(store.insert_entity(leaf, values))
    return surrogates


def scale_schema(chain_depth: int = 3) -> Schema:
    """The scale schema: a ``chain_depth``-long 1:many EVA chain
    ``tier0 → tier1 → ...`` (EVA ``feeds``, inverse ``fed-by``), a heavy
    many:many EVA ``links`` between the last tier and ``part``, and a
    generalization diamond ``asset`` ← ``tracked``/``costed`` ← ``part``
    so part reads resolve DVAs through multiple inheritance."""
    if chain_depth < 2:
        raise ValueError("chain_depth must be >= 2")
    schema = Schema(f"scale-{chain_depth}")

    asset = SimClass("asset")
    asset.add_attribute(DataValuedAttribute(
        "asset-key", IntegerType(), AttributeOptions(unique=True,
                                                     required=True)))
    schema.add_class(asset)
    tracked = SimClass("tracked", ["asset"])
    tracked.add_attribute(DataValuedAttribute("site-code", IntegerType()))
    schema.add_class(tracked)
    costed = SimClass("costed", ["asset"])
    costed.add_attribute(DataValuedAttribute("cost", IntegerType()))
    schema.add_class(costed)
    part = SimClass("part", ["tracked", "costed"])
    part.add_attribute(DataValuedAttribute(
        "part-key", IntegerType(), AttributeOptions(unique=True,
                                                    required=True)))
    part.add_attribute(EntityValuedAttribute(
        "linked-from", f"tier{chain_depth - 1}", "links",
        AttributeOptions(mv=True)))
    schema.add_class(part)

    for level in range(chain_depth):
        tier = SimClass(f"tier{level}")
        tier.add_attribute(DataValuedAttribute(
            f"key{level}", IntegerType(), AttributeOptions(unique=True,
                                                           required=True)))
        tier.add_attribute(DataValuedAttribute(f"load{level}",
                                               IntegerType()))
        if level + 1 < chain_depth:
            tier.add_attribute(EntityValuedAttribute(
                "feeds", f"tier{level + 1}", "fed-by",
                AttributeOptions(mv=True)))
        if level:
            tier.add_attribute(EntityValuedAttribute(
                "fed-by", f"tier{level - 1}", "feeds", AttributeOptions()))
        if level == chain_depth - 1:
            tier.add_attribute(EntityValuedAttribute(
                "links", "part", "linked-from", AttributeOptions(mv=True)))
        schema.add_class(tier)
    return schema.resolve()


def populate_scale(database: Database, entities: int, chain_depth: int = 3,
                   fanout: int = 8, link_degree: int = 4,
                   seed: int = 9) -> Dict[str, List[int]]:
    """Insert roughly ``entities`` entities against :func:`scale_schema`.

    Tier populations grow geometrically by ``fanout`` down the chain and
    the remainder becomes ``part`` entities, each linked into the
    many:many EVA with ``link_degree`` distinct last-tier partners —
    traversals from ``tier0`` therefore fan out by ``fanout`` per hop and
    end in a dense probe set.  Returns surrogates keyed by class name.
    """
    rng = random.Random(seed)
    store = database.store
    schema = database.schema

    weights = [fanout ** level for level in range(chain_depth)]
    total_weight = sum(weights) + weights[-1]
    counts = [max(1, entities * weight // total_weight)
              for weight in weights]
    part_count = max(1, entities - sum(counts))

    created: Dict[str, List[int]] = {}
    for level, count in enumerate(counts):
        name = f"tier{level}"
        fed_by = (schema.get_class(name).attribute("fed-by")
                  if level else None)
        parents = created[f"tier{level - 1}"] if level else []
        surrogates: List[int] = []
        for index in range(count):
            surrogate = store.insert_entity(name, {
                f"key{level}": index,
                f"load{level}": rng.randint(0, 99)})
            if fed_by is not None:
                store.eva_include(surrogate, fed_by,
                                  parents[rng.randrange(len(parents))])
            surrogates.append(surrogate)
        created[name] = surrogates

    last_tier = created[f"tier{chain_depth - 1}"]
    linked_from = schema.get_class("part").attribute("linked-from")
    degree = min(link_degree, len(last_tier))
    parts: List[int] = []
    for index in range(part_count):
        surrogate = store.insert_entity("part", {
            "asset-key": index,
            "site-code": rng.randint(0, 9),
            "cost": rng.randint(10, 9999),
            "part-key": index})
        for position in rng.sample(range(len(last_tier)), degree):
            store.eva_include(surrogate, linked_from, last_tier[position])
        parts.append(surrogate)
    created["part"] = parts
    return created


def scale_queries(chain_depth: int = 3) -> List[str]:
    """The scale query set: chained traversal, many:many probes
    with selection and aggregation, and inherited-DVA reads through the
    generalization diamond.

    The selection-form queries (WHERE over a traversal path) are TYPE 2
    existentials: their scopes expand in rounds until a witness, so the
    first (witness in the first rounds) reads a fraction of its scope
    and the last (rarely a witness) nearly all of it.  They do their
    record reads in the selection stage; the target-path and aggregate
    forms deliberately keep that work in the Project/Aggregate
    consumers, so the set exercises both ends of the pipeline.
    ``make profile-analytic`` prints each statement's
    warm time and traced TYPE 2 bindings.
    """
    last = chain_depth - 1
    chain_path = " of ".join(["feeds"] * last)
    return [
        f"From tier0 Retrieve key0"
        f" Where load{last} of {chain_path} > 10",
        f"From tier0 Retrieve key0, key{last} of {chain_path}",
        f"From tier{last} Retrieve key{last}"
        f" Where cost of links > 5000",
        f"From tier{last} Retrieve key{last}, sum(cost of links)",
        "From part Retrieve part-key Where site-code = 7",
        f"From tier1 Retrieve key1 Where load{last} of feeds > 95",
    ]
