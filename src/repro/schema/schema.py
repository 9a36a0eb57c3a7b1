"""The Schema object: classes, named types, constraints, and resolution.

A schema is built (programmatically or by the DDL parser), then *resolved*.
Resolution validates the generalization DAG, pairs every EVA with its
inverse (synthesizing unnamed inverses), checks subrole declarations,
plants surrogates on base classes, and computes the inherited attribute
set of every class.  A resolved schema is immutable by convention and is
what the Mapper, optimizer and engine consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SchemaError
from repro.naming import canon
from repro.schema.attribute import (
    Attribute,
    AttributeOptions,
    EntityValuedAttribute,
    SubroleAttribute,
    SurrogateAttribute,
)
from repro.schema.graph import GeneralizationGraph
from repro.schema.klass import (
    DerivedAttribute,
    SimClass,
    VerifyConstraint,
    ViewDefinition,
)
from repro.types.domain import DataType, SubroleType, TypeRegistry


class Schema:
    """A complete SIM schema for one database."""

    def __init__(self, name: str = "schema"):
        self.name = canon(name)
        self.types = TypeRegistry()
        #: source positions of named-type declarations (DDL parser)
        self.type_spans: Dict[str, object] = {}
        self._classes: Dict[str, SimClass] = {}
        self.constraints: List[VerifyConstraint] = []
        self.graph = GeneralizationGraph()
        self._derived: Dict[tuple, DerivedAttribute] = {}
        self._views: Dict[str, ViewDefinition] = {}
        self._resolved = False

    # -- Construction ---------------------------------------------------------

    def define_type(self, name: str, data_type: DataType) -> DataType:
        """Declare a named type (``Type id-number = integer (...)``)."""
        self._mutable()
        self.types.define(name, data_type)
        return data_type

    def add_class(self, sim_class: SimClass) -> SimClass:
        self._mutable()
        if sim_class.name in self._classes:
            raise SchemaError(f"class {sim_class.name!r} declared twice")
        self._classes[sim_class.name] = sim_class
        return sim_class

    def add_constraint(self, constraint: VerifyConstraint) -> VerifyConstraint:
        self._mutable()
        self.constraints.append(constraint)
        return constraint

    def define_derived(self, name: str, class_name: str,
                       expression_text: str) -> DerivedAttribute:
        """Declare a derived attribute (paper §6)."""
        self._mutable()
        derived = DerivedAttribute(name, class_name, expression_text)
        key = (derived.class_name, derived.name)
        if key in self._derived:
            raise SchemaError(
                f"derived attribute {name!r} declared twice on "
                f"{class_name!r}")
        self._derived[key] = derived
        return derived

    def define_view(self, name: str, class_name: str,
                    where_text: Optional[str] = None) -> ViewDefinition:
        """Declare a subcollection view (paper §6)."""
        self._mutable()
        view = ViewDefinition(name, class_name, where_text)
        if view.name in self._views:
            raise SchemaError(f"view {name!r} declared twice")
        self._views[view.name] = view
        return view

    def _mutable(self):
        if self._resolved:
            raise SchemaError("schema already resolved; it is immutable")

    # -- Lookup ---------------------------------------------------------------

    @property
    def resolved(self) -> bool:
        return self._resolved

    def get_class(self, name: str) -> SimClass:
        try:
            return self._classes[canon(name)]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def has_class(self, name: str) -> bool:
        return canon(name) in self._classes

    def classes(self) -> List[SimClass]:
        return list(self._classes.values())

    def class_names(self) -> List[str]:
        return list(self._classes)

    def base_classes(self) -> List[SimClass]:
        return [c for c in self._classes.values() if c.is_base]

    def find_derived(self, class_name: str,
                     attr_name: str) -> Optional[DerivedAttribute]:
        """Derived attribute visible on a class (declared there or
        inherited from an ancestor)."""
        class_name = canon(class_name)
        attr_name = canon(attr_name)
        hit = self._derived.get((class_name, attr_name))
        if hit is not None:
            return hit
        for ancestor in self.graph.ancestors(class_name):
            hit = self._derived.get((ancestor, attr_name))
            if hit is not None:
                return hit
        return None

    def derived_attributes(self) -> List[DerivedAttribute]:
        return list(self._derived.values())

    def view(self, name: str) -> Optional[ViewDefinition]:
        return self._views.get(canon(name))

    def views(self) -> List[ViewDefinition]:
        return list(self._views.values())

    def statistics(self) -> Dict[str, int]:
        """Schema-shape statistics in the form the paper reports for ADDS
        (§6): base classes, subclasses, EVA–inverse pairs, DVAs, max depth."""
        self._require_resolved()
        eva_pairs = set()
        dva_count = 0
        for c in self._classes.values():
            for a in c.immediate_attributes.values():
                if a.is_eva:
                    pair = frozenset({(c.name, a.name),
                                      (a.inverse.owner_name, a.inverse.name)})
                    eva_pairs.add(pair)
                elif not a.is_surrogate and not a.is_subrole:
                    dva_count += 1
        depth = max((self.graph.hierarchy_depth(b.name)
                     for b in self.base_classes()), default=0)
        return {
            "base_classes": sum(1 for c in self._classes.values() if c.is_base),
            "subclasses": sum(1 for c in self._classes.values() if not c.is_base),
            "eva_inverse_pairs": len(eva_pairs),
            "dvas": dva_count,
            "max_hierarchy_depth": depth,
        }

    def _require_resolved(self):
        if not self._resolved:
            raise SchemaError("schema not resolved yet")

    # -- Resolution -------------------------------------------------------------

    def resolve(self, synthesize_subroles: bool = True) -> "Schema":
        """Validate and derive; returns self for chaining.

        ``synthesize_subroles`` — when a class with subclasses lacks the
        subrole attribute the paper requires (§3.2), synthesize one named
        ``<class>-roles`` instead of rejecting the schema.  Declared subrole
        attributes are always validated against the immediate subclass set.
        """
        self._mutable()
        for sim_class in self._classes.values():
            self.graph.add_class(sim_class.name, sim_class.superclass_names)
        self.graph.finalize()

        self._pair_inverses()
        self._resolve_subroles(synthesize_subroles)
        self._plant_surrogates()
        self._compute_inherited_attributes()
        self._attach_constraints()
        self._validate_derived_and_views()

        for sim_class in self._classes.values():
            sim_class.base_class_name = self.graph.base_class_of(sim_class.name)
            sim_class.subclass_names = self.graph.subclasses(sim_class.name)
            sim_class.level = self.graph.level(sim_class.name)

        self._resolved = True
        return self

    def _pair_inverses(self) -> None:
        """Pair every EVA with its inverse; synthesize missing inverses.

        Paper §3.2: "SIM automatically maintains the inverse of every
        declared EVA and guarantees that an EVA and its inverse will stay
        synchronized at all times.  An inverse can also be explicitly named
        by the user."
        """
        for sim_class in list(self._classes.values()):
            for eva in list(sim_class.immediate_attributes.values()):
                if not eva.is_eva or eva.inverse is not None:
                    continue
                if not self.has_class(eva.range_class_name):
                    raise SchemaError(
                        f"EVA {sim_class.name}.{eva.name} names unknown range "
                        f"class {eva.range_class_name!r}")
                range_class = self.get_class(eva.range_class_name)

                if eva.inverse_name is None:
                    self._synthesize_inverse(sim_class, eva, range_class)
                    continue

                # Reflexive self-inverse: spouse: person inverse is spouse.
                if (eva.inverse_name == eva.name
                        and range_class.name == sim_class.name):
                    eva.inverse = eva
                    continue

                declared = range_class.immediate_attributes.get(eva.inverse_name)
                if declared is None:
                    # One-sided declaration: materialize the named inverse.
                    self._synthesize_inverse(sim_class, eva, range_class,
                                             name=eva.inverse_name)
                    continue
                if not declared.is_eva:
                    raise SchemaError(
                        f"inverse of {sim_class.name}.{eva.name} is "
                        f"{range_class.name}.{declared.name}, which is not an EVA")
                if declared.range_class_name != sim_class.name:
                    raise SchemaError(
                        f"inverse pair {sim_class.name}.{eva.name} / "
                        f"{range_class.name}.{declared.name} disagree on range "
                        f"({declared.range_class_name!r} != {sim_class.name!r})")
                if (declared.inverse_name is not None
                        and declared.inverse_name != eva.name):
                    raise SchemaError(
                        f"{range_class.name}.{declared.name} names inverse "
                        f"{declared.inverse_name!r}, not {eva.name!r}")
                eva.inverse = declared
                declared.inverse = eva

    def _synthesize_inverse(self, owner: SimClass, eva: EntityValuedAttribute,
                            range_class: SimClass,
                            name: Optional[str] = None) -> None:
        inverse_name = name or f"inverse-of-{eva.name}"
        if inverse_name in range_class.immediate_attributes:
            raise SchemaError(
                f"cannot synthesize inverse {inverse_name!r} on "
                f"{range_class.name!r}: name already in use")
        inverse = EntityValuedAttribute(
            inverse_name, owner.name, inverse_name=eva.name,
            options=AttributeOptions(mv=True))
        inverse.synthesized_inverse = name is None
        range_class.add_attribute(inverse)
        eva.inverse_name = inverse_name
        eva.inverse = inverse
        inverse.inverse = eva

    def _resolve_subroles(self, synthesize: bool) -> None:
        for sim_class in self._classes.values():
            immediate_subs = sorted(self.graph.subclasses(sim_class.name))
            declared = [a for a in sim_class.immediate_attributes.values()
                        if a.is_subrole]
            if len(declared) > 1:
                raise SchemaError(
                    f"class {sim_class.name!r} declares more than one subrole "
                    f"attribute")
            if declared:
                subrole = declared[0]
                value_set = sorted(canon(n) for n in subrole.subclass_names)
                if value_set != immediate_subs:
                    raise SchemaError(
                        f"subrole {sim_class.name}.{subrole.name} lists "
                        f"{value_set}, but immediate subclasses are "
                        f"{immediate_subs}")
                sim_class.subrole_attribute = subrole
            elif immediate_subs:
                if not synthesize:
                    raise SchemaError(
                        f"class {sim_class.name!r} has subclasses but no "
                        f"subrole attribute (paper §3.2 requires one)")
                subrole = SubroleAttribute(
                    f"{sim_class.name}-roles", SubroleType(immediate_subs))
                sim_class.add_attribute(subrole)
                sim_class.subrole_attribute = subrole

    def _plant_surrogates(self) -> None:
        for sim_class in self._classes.values():
            if sim_class.is_base:
                existing = [a for a in sim_class.immediate_attributes.values()
                            if a.is_surrogate]
                if not existing:
                    sim_class.add_attribute(SurrogateAttribute())

    def _compute_inherited_attributes(self) -> None:
        for name in self.graph.topological_order():
            sim_class = self._classes[name]
            merged: Dict[str, Attribute] = {}
            for super_name in sim_class.superclass_names:
                for attr_name, attr in self._classes[super_name].all_attributes.items():
                    present = merged.get(attr_name)
                    if present is not None and present is not attr:
                        raise SchemaError(
                            f"class {name!r} inherits conflicting attributes "
                            f"named {attr_name!r} from multiple superclasses")
                    merged[attr_name] = attr
            for attr_name, attr in sim_class.immediate_attributes.items():
                if attr_name in merged:
                    raise SchemaError(
                        f"attribute {attr_name!r} of class {name!r} clashes "
                        f"with an inherited attribute")
                merged[attr_name] = attr
            sim_class.all_attributes = merged
            for attr in merged.values():
                if attr.is_surrogate:
                    sim_class.surrogate_attribute = attr

    def _attach_constraints(self) -> None:
        for constraint in self.constraints:
            self.get_class(constraint.class_name).constraints.append(constraint)

    def _validate_derived_and_views(self) -> None:
        for (class_name, attr_name), derived in self._derived.items():
            sim_class = self.get_class(class_name)
            if sim_class.has_attribute(attr_name):
                raise SchemaError(
                    f"derived attribute {attr_name!r} shadows a stored "
                    f"attribute of {class_name!r}")
        for view in self._views.values():
            if self.has_class(view.name):
                raise SchemaError(
                    f"view {view.name!r} collides with a class name")
            self.get_class(view.class_name)
        # EVA ordering attributes must exist on the range class.
        for sim_class in self._classes.values():
            for eva in sim_class.immediate_evas():
                order_attr = eva.options.ordered_by
                if order_attr is None:
                    continue
                range_class = self.get_class(eva.range_class_name)
                if not range_class.has_attribute(order_attr):
                    raise SchemaError(
                        f"EVA {sim_class.name}.{eva.name} is ORDERED BY "
                        f"{order_attr!r}, which {eva.range_class_name!r} "
                        f"does not have")

    # -- Rendering ---------------------------------------------------------------

    def ddl(self) -> str:
        """Render the whole schema back to §7-style DDL text."""
        parts = []
        for type_name in self.types.names():
            parts.append(f"type {type_name} = {self.types.lookup(type_name).ddl()};")
        for sim_class in self._classes.values():
            parts.append(sim_class.ddl())
            for constraint in sim_class.constraints:
                parts.append(constraint.ddl())
        for derived in self._derived.values():
            parts.append(derived.ddl())
        for view in self._views.values():
            parts.append(view.ddl())
        return "\n\n".join(parts)

    def __repr__(self):
        state = "resolved" if self._resolved else "unresolved"
        return f"<Schema {self.name} ({len(self._classes)} classes, {state})>"
