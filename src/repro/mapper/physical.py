"""Physical mapping options (paper §5.2).

The high-level objects of the model are mapped into record-based storage
units by "a carefully balanced set of rules"; the user can override any
default.  A :class:`PhysicalDesign` captures all the choices:

* **Hierarchy mapping** — a tree-shaped generalization hierarchy defaults
  to ONE storage unit with variable-format records (one record type per
  class); a class with two or more immediate superclasses always gets a
  separate unit joined by 1:1 subclass links.  ``SEPARATE_UNITS`` (one
  file per class) is the ablation baseline.
* **MV DVA mapping** — with MAX: an array inside the owner's record;
  unbounded: a separate storage unit.
* **EVA mapping** — ``FOREIGN_KEY`` (default for 1:1),
  ``COMMON`` (the Common EVA Structure ``<surrogate1, rel-id, surrogate2>``,
  default for 1:many and non-distinct many:many), ``DEDICATED`` (own
  structure, default for distinct many:many), plus the override options the
  paper names: ``CLUSTERED`` (relationship records stored in the domain
  entity's block) and ``POINTER`` (absolute addresses embedded in the
  owner's record).
* **Surrogate key kind** — ``direct``, ``hash`` or ``ordered``
  (index-sequential).

This module decides; :mod:`repro.mapper.mappings` realizes.  Its class
tables turn each EVA and MV DVA decision into one storage object that
every operation asks (``docs/INTERNALS.md`` §2 has the table: mapping →
class → where an instance lives → first/next cost → what recovery scans).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Set, Tuple

from repro.errors import SchemaError
from repro.mapper.translate import canonical_eva
from repro.naming import canon
from repro.schema.schema import Schema


class HierarchyMapping(enum.Enum):
    """How a generalization hierarchy maps to storage units."""

    VARIABLE_FORMAT = "variable-format"   # one unit, record type per class
    SEPARATE_UNITS = "separate-units"     # one unit per class (ablation)


class MvDvaMapping(enum.Enum):
    """How a multi-valued DVA is stored."""

    ARRAY = "array"                  # inside the owner record (MAX only)
    SEPARATE_UNIT = "separate-unit"  # dependent storage unit


class EvaMapping(enum.Enum):
    """How an EVA/inverse pair is stored."""

    FOREIGN_KEY = "foreign-key"   # surrogate field in the owner record
    COMMON = "common"             # shared Common EVA Structure
    DEDICATED = "dedicated"       # dedicated <s1, rel, s2> structure
    CLUSTERED = "clustered"       # dedicated, records placed in owner blocks
    POINTER = "pointer"           # absolute record addresses in owner record


class SurrogateKeyKind(enum.Enum):
    """Surrogate access method (§5.2)."""

    DIRECT = "direct"     # record numbers
    HASH = "hash"         # random keys based on hashing
    ORDERED = "ordered"   # index sequential keys


class PhysicalDesign:
    """All physical choices for one schema; defaults follow §5.2.

    Overrides are applied *before* :meth:`finalize`; afterwards the design
    is read-only and every question has a definite answer.
    """

    def __init__(self, schema: Schema,
                 block_size: int = 1024,
                 pool_capacity: int = 256,
                 surrogate_key_kind: SurrogateKeyKind = SurrogateKeyKind.HASH,
                 default_hierarchy: HierarchyMapping =
                 HierarchyMapping.VARIABLE_FORMAT):
        if not schema.resolved:
            raise SchemaError("physical design needs a resolved schema")
        self.schema = schema
        self.block_size = block_size
        self.pool_capacity = pool_capacity
        self.surrogate_key_kind = surrogate_key_kind
        self.default_hierarchy = default_hierarchy
        self._hierarchy_overrides: Dict[str, HierarchyMapping] = {}
        self._eva_overrides: Dict[Tuple[str, str], EvaMapping] = {}
        self._mvdva_overrides: Dict[Tuple[str, str], MvDvaMapping] = {}
        self._value_indexes: Set[Tuple[str, str]] = set()
        self._value_index_kinds: Dict[Tuple[str, str], str] = {}
        self._finalized = False

    # -- Overrides ------------------------------------------------------------

    def override_hierarchy(self, base_class: str,
                           mapping: HierarchyMapping) -> "PhysicalDesign":
        self._mutable()
        base = canon(base_class)
        if not self.schema.get_class(base).is_base:
            raise SchemaError(f"{base_class!r} is not a base class")
        self._hierarchy_overrides[base] = mapping
        return self

    def override_eva(self, class_name: str, eva_name: str,
                     mapping: EvaMapping) -> "PhysicalDesign":
        """Override the mapping of the EVA pair containing this EVA."""
        self._mutable()
        eva = self.schema.get_class(class_name).attribute(eva_name)
        if not eva.is_eva:
            raise SchemaError(f"{class_name}.{eva_name} is not an EVA")
        canonical = canonical_eva(eva)
        if (mapping is EvaMapping.FOREIGN_KEY and canonical.multi_valued
                and canonical.inverse.multi_valued):
            raise SchemaError(
                "foreign-key mapping requires a single-valued EVA side")
        self._eva_overrides[(canonical.owner_name, canonical.name)] = mapping
        return self

    def override_mv_dva(self, class_name: str, attr_name: str,
                        mapping: MvDvaMapping) -> "PhysicalDesign":
        self._mutable()
        attr = self.schema.get_class(class_name).attribute(attr_name)
        if attr.is_eva or not attr.multi_valued:
            raise SchemaError(f"{class_name}.{attr_name} is not an MV DVA")
        if (mapping is MvDvaMapping.ARRAY
                and attr.options.max_cardinality is None):
            raise SchemaError(
                f"array mapping needs a MAX bound on {class_name}.{attr_name}")
        self._mvdva_overrides[(canon(attr.owner_name), canon(attr_name))] = mapping
        return self

    def add_value_index(self, class_name: str, attr_name: str,
                        kind: str = "hash") -> "PhysicalDesign":
        """Request a secondary value index on a single-valued DVA.

        ``kind`` is ``"hash"`` (equality lookups) or ``"ordered"`` (also
        serves range predicates on the update/VERIFY selection path)."""
        self._mutable()
        if kind not in ("hash", "ordered"):
            raise SchemaError(
                f"value index kind must be 'hash' or 'ordered', "
                f"not {kind!r}")
        attr = self.schema.get_class(class_name).attribute(attr_name)
        if attr.is_eva or attr.multi_valued:
            raise SchemaError(
                f"value index needs a single-valued DVA, not "
                f"{class_name}.{attr_name}")
        key = (canon(attr.owner_name), canon(attr_name))
        self._value_indexes.add(key)
        if kind == "ordered":
            self._value_index_kinds[key] = kind
        else:
            self._value_index_kinds.pop(key, None)
        return self

    def finalize(self) -> "PhysicalDesign":
        self._finalized = True
        return self

    def _mutable(self):
        if self._finalized:
            raise SchemaError("physical design already finalized")

    # -- Decisions -----------------------------------------------------------

    def hierarchy_mapping(self, base_class: str) -> HierarchyMapping:
        return self._hierarchy_overrides.get(
            canon(base_class), self.default_hierarchy)

    def class_in_shared_unit(self, class_name: str) -> bool:
        """True when the class's records live in its hierarchy's shared
        variable-format unit.

        §5.2: classes with two or more immediate superclasses always get a
        separate unit, even inside a variable-format hierarchy.
        """
        sim_class = self.schema.get_class(class_name)
        if len(sim_class.superclass_names) >= 2:
            return False
        mapping = self.hierarchy_mapping(sim_class.base_class_name)
        if mapping is not HierarchyMapping.VARIABLE_FORMAT:
            return False
        # Every ancestor on the (single) chain must itself be in the shared
        # unit; a multi-inheritance ancestor breaks the chain.
        current = sim_class
        while current.superclass_names:
            if len(current.superclass_names) >= 2:
                return False
            current = self.schema.get_class(current.superclass_names[0])
        return True

    def eva_mapping(self, eva) -> EvaMapping:
        """The mapping of the EVA pair containing ``eva`` (schema object)."""
        canonical = canonical_eva(eva)
        override = self._eva_overrides.get(
            (canonical.owner_name, canonical.name))
        if override is not None:
            return override
        kind = canonical.relationship_kind()
        if kind == "1:1":
            return EvaMapping.FOREIGN_KEY
        if kind == "many:many" and (canonical.options.distinct
                                    or canonical.inverse.options.distinct):
            return EvaMapping.DEDICATED
        # 1:many, many:1 and non-distinct many:many default to the Common
        # EVA Structure, "to avoid the additional index structure that will
        # be needed with a foreign-key based mapping".
        return EvaMapping.COMMON

    def mv_dva_mapping(self, attr) -> MvDvaMapping:
        override = self._mvdva_overrides.get(
            (canon(attr.owner_name), canon(attr.name)))
        if override is not None:
            return override
        if attr.options.max_cardinality is not None:
            return MvDvaMapping.ARRAY
        return MvDvaMapping.SEPARATE_UNIT

    def value_indexes(self) -> List[Tuple[str, str]]:
        return sorted(self._value_indexes)

    def value_index_kind(self, owner_name: str, attr_name: str) -> str:
        """Index kind for one requested value index ('hash' default)."""
        return self._value_index_kinds.get(
            (canon(owner_name), canon(attr_name)), "hash")

    def describe(self) -> str:
        """Human-readable summary of every mapping decision (for examples)."""
        lines = [f"block size {self.block_size}, buffer pool "
                 f"{self.pool_capacity} blocks, surrogate keys "
                 f"{self.surrogate_key_kind.value}"]
        for base in self.schema.base_classes():
            lines.append(f"hierarchy {base.name}: "
                         f"{self.hierarchy_mapping(base.name).value}")
        seen = set()
        for sim_class in self.schema.classes():
            for eva in sim_class.immediate_evas():
                canonical = canonical_eva(eva)
                key = (canonical.owner_name, canonical.name)
                if key in seen:
                    continue
                seen.add(key)
                lines.append(
                    f"eva {canonical.owner_name}.{canonical.name} "
                    f"({canonical.relationship_kind()}): "
                    f"{self.eva_mapping(canonical).value}")
            for attr in sim_class.immediate_attributes.values():
                if attr.multi_valued and not attr.is_eva and not attr.is_subrole:
                    lines.append(
                        f"mv dva {sim_class.name}.{attr.name}: "
                        f"{self.mv_dva_mapping(attr).value}")
        return "\n".join(lines)
