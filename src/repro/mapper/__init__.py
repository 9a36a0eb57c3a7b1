"""The LUC Mapper (paper §5.1–§5.2).

"The LUC Mapper is a key module of SIM's implementation.  It extends the
capabilities of any underlying physical or logical data source and
presents a uniform, simplified view of data and operations associated
with it."

This package provides:

* the LUC model — Logical Underlying Components and the three relationship
  flavours (class–subclass links, MV-DVA links, EVA links)
  (:mod:`repro.mapper.luc`);
* the standard translation of a SIM schema into a LUC schema
  (:mod:`repro.mapper.translate`);
* physical mapping options — variable-format records for tree
  hierarchies, arrays vs. separate units for MV DVAs, foreign-key /
  common-structure / dedicated / clustered / pointer EVA mappings, and
  surrogate key kinds (:mod:`repro.mapper.physical`), each EVA / MV DVA
  option realized by one storage object (:mod:`repro.mapper.mappings`);
* the runtime store implementing entity/attribute/relationship operations
  with structural-integrity maintenance over the storage substrate
  (:mod:`repro.mapper.store`).
"""

from repro.mapper.luc import LUC, LUCRelationship, LUCSchema
from repro.mapper.translate import translate_schema
from repro.mapper.physical import (
    EvaMapping,
    HierarchyMapping,
    MvDvaMapping,
    PhysicalDesign,
    SurrogateKeyKind,
)
from repro.mapper.store import MapperStore
from repro.mapper.cursors import (
    LUCCursor,
    RelationshipCursor,
    open_luc_cursor,
    open_relationship_cursor,
)

__all__ = [
    "LUC",
    "LUCRelationship",
    "LUCSchema",
    "translate_schema",
    "EvaMapping",
    "HierarchyMapping",
    "MvDvaMapping",
    "PhysicalDesign",
    "SurrogateKeyKind",
    "MapperStore",
    "LUCCursor",
    "RelationshipCursor",
    "open_luc_cursor",
    "open_relationship_cursor",
]
