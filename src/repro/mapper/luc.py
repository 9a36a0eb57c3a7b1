"""Logical Underlying Components (LUCs) and their relationships.

Paper §5.1: "A LUC is a collection of records all of whose fields are
single-valued.  Relationships between LUCs come in three flavors, based on
the SIM objects they represent: class-subclass links (always 1:1),
Multi-valued DVAs (1:many between an independent LUC and a dependent LUC)
and EVAs (1:1, 1:many or many:many between two independent LUCs)."
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SchemaError
from repro.naming import canon


class LUC:
    """One Logical Underlying Component: flat single-valued records.

    ``kind`` is ``"class"`` for class/subclass LUCs (independent) or
    ``"mvdva"`` for the dependent LUC of a multi-valued DVA.
    """

    def __init__(self, name: str, kind: str, class_name: str,
                 fields: Dict[str, object],
                 mv_attribute_name: Optional[str] = None):
        if kind not in ("class", "mvdva"):
            raise SchemaError(f"unknown LUC kind {kind!r}")
        self.name = canon(name)
        self.kind = kind
        #: the SIM class this LUC belongs to (owner class for MV-DVA LUCs)
        self.class_name = canon(class_name)
        #: field name -> DataType
        self.fields = dict(fields)
        #: for mvdva LUCs, the attribute they materialize
        self.mv_attribute_name = (canon(mv_attribute_name)
                                  if mv_attribute_name else None)

    @property
    def independent(self) -> bool:
        return self.kind == "class"

    def __repr__(self):
        return f"<LUC {self.name} ({self.kind}, {len(self.fields)} fields)>"


class LUCRelationship:
    """A relationship between two LUCs.

    ``flavor`` ∈ {"subclass", "mvdva", "eva"}:

    * ``subclass`` — 1:1 link from superclass LUC to subclass LUC;
    * ``mvdva`` — 1:many link from an independent LUC to its dependent
      MV-DVA LUC;
    * ``eva`` — 1:1, 1:many or many:many between two independent LUCs;
      carries the EVA/inverse attribute names.
    """

    def __init__(self, name: str, flavor: str, domain_luc: str,
                 range_luc: str, multiplicity: str,
                 eva_name: Optional[str] = None,
                 inverse_name: Optional[str] = None):
        if flavor not in ("subclass", "mvdva", "eva"):
            raise SchemaError(f"unknown relationship flavor {flavor!r}")
        if multiplicity not in ("1:1", "1:many", "many:1", "many:many"):
            raise SchemaError(f"unknown multiplicity {multiplicity!r}")
        self.name = canon(name)
        self.flavor = flavor
        self.domain_luc = canon(domain_luc)
        self.range_luc = canon(range_luc)
        self.multiplicity = multiplicity
        self.eva_name = canon(eva_name) if eva_name else None
        self.inverse_name = canon(inverse_name) if inverse_name else None

    def __repr__(self):
        return (f"<LUCRelationship {self.name} {self.flavor} "
                f"{self.domain_luc}->{self.range_luc} {self.multiplicity}>")


class LUCSchema:
    """The complete LUC translation of one SIM schema."""

    def __init__(self):
        self._lucs: Dict[str, LUC] = {}
        self._relationships: Dict[str, LUCRelationship] = {}

    def add_luc(self, luc: LUC) -> LUC:
        if luc.name in self._lucs:
            raise SchemaError(f"LUC {luc.name!r} defined twice")
        self._lucs[luc.name] = luc
        return luc

    def add_relationship(self, rel: LUCRelationship) -> LUCRelationship:
        if rel.name in self._relationships:
            raise SchemaError(f"LUC relationship {rel.name!r} defined twice")
        if rel.domain_luc not in self._lucs or rel.range_luc not in self._lucs:
            raise SchemaError(
                f"relationship {rel.name!r} references unknown LUCs")
        self._relationships[rel.name] = rel
        return rel

    def luc(self, name: str) -> LUC:
        try:
            return self._lucs[canon(name)]
        except KeyError:
            raise SchemaError(f"unknown LUC {name!r}") from None

    def relationship(self, name: str) -> LUCRelationship:
        try:
            return self._relationships[canon(name)]
        except KeyError:
            raise SchemaError(f"unknown LUC relationship {name!r}") from None

    def lucs(self) -> List[LUC]:
        return list(self._lucs.values())

    def relationships(self, flavor: Optional[str] = None
                      ) -> List[LUCRelationship]:
        rels = list(self._relationships.values())
        if flavor is not None:
            rels = [r for r in rels if r.flavor == flavor]
        return rels

    def eva_relationship_for(self, owner_class: str,
                             eva_name: str) -> LUCRelationship:
        """Find the EVA relationship carrying ``owner_class.eva_name`` on
        either end."""
        owner = canon(owner_class)
        eva = canon(eva_name)
        for rel in self._relationships.values():
            if rel.flavor != "eva":
                continue
            if rel.domain_luc == owner and rel.eva_name == eva:
                return rel
            if rel.range_luc == owner and rel.inverse_name == eva:
                return rel
        raise SchemaError(
            f"no EVA relationship for {owner_class}.{eva_name}")

    def layout_summary(self) -> Dict[str, object]:
        """Compact layout description of the LUC translation — the
        metadata header of a trace export (``python -m repro trace``), so
        offline analysis can resolve decoded-record and relationship
        counts back to the Directory's view of the schema."""
        return {
            "lucs": {
                luc.name: {"kind": luc.kind,
                           "class": luc.class_name,
                           "fields": len(luc.fields)}
                for luc in self._lucs.values()},
            "relationships": {
                rel.name: {"flavor": rel.flavor,
                           "domain": rel.domain_luc,
                           "range": rel.range_luc,
                           "multiplicity": rel.multiplicity}
                for rel in self._relationships.values()},
        }

    def __repr__(self):
        return (f"<LUCSchema {len(self._lucs)} LUCs, "
                f"{len(self._relationships)} relationships>")
