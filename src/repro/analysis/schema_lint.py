"""Schema lint: structural diagnostics for SIM DDL (rules SIM0xx).

Works on an *unresolved* schema so one run can report many problems —
:meth:`Schema.resolve` stops at the first.  The checks mirror resolution
(generalization DAG, inverse pairing, subrole declarations, inherited
attribute computation) but collect :class:`Diagnostic` records instead of
raising, then re-run the resolver + qualifier on a clean schema for the
deep checks (VERIFY assertions, derived attributes, views).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Union

from repro.errors import (
    DDLSyntaxError,
    DMLSyntaxError,
    QualificationError,
    SchemaError,
)
from repro.lexer import Span
from repro.naming import canon
from repro.analysis.diagnostics import Diagnostic, DiagnosticSink
from repro.dml.ast import Aggregate, Path, walk
from repro.dml.parser import parse_expression
from repro.schema.ddl_parser import parse_ddl
from repro.schema.schema import Schema


def lint_schema(source: Union[str, Schema]) -> List[Diagnostic]:
    """Lint DDL text (or a Schema object) and return all diagnostics.

    A resolved Schema is re-rendered to DDL and re-parsed, since several
    checks need the pre-resolution declaration shape (synthesized inverses
    and subroles are indistinguishable from declared ones afterwards).
    """
    sink = DiagnosticSink(source="schema")
    if isinstance(source, Schema):
        if source.resolved:
            source = source.ddl()
        else:
            _lint_unresolved(source, sink)
            return sink.sorted()
    try:
        schema = parse_ddl(source, resolve=False)
    except DDLSyntaxError as exc:
        sink.emit("SIM000", str(exc), Span(exc.line, exc.column))
        return sink.sorted()
    _lint_unresolved(schema, sink)
    if not sink.errors():
        _lint_resolved(source, sink)
    return sink.sorted()


# -- Structural pass (unresolved schema) --------------------------------------

def _lint_unresolved(schema: Schema, sink: DiagnosticSink) -> None:
    _check_generalization(schema, sink)
    _check_evas(schema, sink)
    _check_subroles(schema, sink)
    _check_shadowing(schema, sink)
    _check_constraint_classes(schema, sink)
    _check_unused_types(schema, sink)


def _check_generalization(schema: Schema, sink: DiagnosticSink) -> None:
    """SIM001 unknown superclass, SIM002 cycles, SIM003 >1 base ancestor."""
    known: Dict[str, List[str]] = {}
    for sim_class in schema.classes():
        supers = []
        for name in sim_class.superclass_names:
            if name == sim_class.name:
                sink.emit("SIM002",
                          f"class {sim_class.name!r} is its own superclass",
                          sim_class.span)
            elif not schema.has_class(name):
                sink.emit("SIM001",
                          f"class {sim_class.name!r} names unknown "
                          f"superclass {name!r}", sim_class.span,
                          hint="declare the superclass or fix the spelling")
            else:
                supers.append(name)
        known[sim_class.name] = supers

    # Kahn's algorithm over the known edges finds cycles.
    indegree = {name: len(supers) for name, supers in known.items()}
    queue = [name for name, degree in indegree.items() if degree == 0]
    seen = 0
    while queue:
        name = queue.pop()
        seen += 1
        for other, supers in known.items():
            if name in supers:
                indegree[other] -= 1
                if indegree[other] == 0:
                    queue.append(other)
    if seen != len(known):
        cyclic = sorted(n for n, d in indegree.items() if d > 0)
        for name in cyclic:
            sink.emit("SIM002",
                      f"generalization cycle through class {name!r}",
                      schema.get_class(name).span)
        return

    # Base-class ancestors, memoized bottom-up.
    bases: Dict[str, Set[str]] = {}

    def base_ancestors(name: str) -> Set[str]:
        if name not in bases:
            supers = known[name]
            if not supers:
                bases[name] = {name}
            else:
                merged: Set[str] = set()
                for super_name in supers:
                    merged |= base_ancestors(super_name)
                bases[name] = merged
        return bases[name]

    for sim_class in schema.classes():
        ancestors = base_ancestors(sim_class.name)
        if len(ancestors) > 1:
            sink.emit("SIM003",
                      f"class {sim_class.name!r} has more than one "
                      f"base-class ancestor: {sorted(ancestors)}",
                      sim_class.span,
                      hint="a class's ancestors may contain at most one "
                           "base class (paper section 3.1)")


def _check_evas(schema: Schema, sink: DiagnosticSink) -> None:
    """SIM010-SIM016: range classes, inverse symmetry, REQUIRED pairs."""
    for sim_class in schema.classes():
        for eva in sim_class.immediate_attributes.values():
            if not eva.is_eva:
                continue
            if not schema.has_class(eva.range_class_name):
                sink.emit("SIM010",
                          f"EVA {sim_class.name}.{eva.name} names unknown "
                          f"range class {eva.range_class_name!r}", eva.span,
                          hint="declare the class, or declare a Type if a "
                               "data type was meant")
                continue
            range_class = schema.get_class(eva.range_class_name)
            if eva.inverse_name is None:
                sink.emit("SIM011",
                          f"EVA {sim_class.name}.{eva.name} has no declared "
                          f"inverse; the system will synthesize "
                          f"{'inverse-of-' + eva.name!r} on "
                          f"{range_class.name!r}", eva.span,
                          hint=f"declare '... inverse is <name>' and the "
                               f"matching EVA on {range_class.name!r}")
                continue
            # Reflexive self-inverse (spouse) is its own mutual pair.
            if (eva.inverse_name == eva.name
                    and range_class.name == sim_class.name):
                if eva.options.required:
                    sink.emit("SIM016",
                              f"reflexive EVA {sim_class.name}.{eva.name} is "
                              f"REQUIRED; no first entity could ever be "
                              f"inserted", eva.span)
                continue
            declared = range_class.immediate_attributes.get(eva.inverse_name)
            if declared is None:
                sink.emit("SIM012",
                          f"EVA {sim_class.name}.{eva.name} names inverse "
                          f"{eva.inverse_name!r}, but {range_class.name!r} "
                          f"does not declare it; the system will materialize "
                          f"a one-sided inverse", eva.span,
                          hint=f"declare {eva.inverse_name}: "
                               f"{sim_class.name} inverse is {eva.name} on "
                               f"{range_class.name!r}")
                continue
            if not declared.is_eva:
                sink.emit("SIM015",
                          f"inverse of {sim_class.name}.{eva.name} is "
                          f"{range_class.name}.{declared.name}, which is not "
                          f"an EVA", eva.span)
                continue
            if declared.range_class_name != sim_class.name:
                hierarchy_note = (
                    "" if _same_declared_hierarchy(
                        schema, declared.range_class_name, sim_class.name)
                    else "; the classes are in different hierarchies, so "
                         "this is also an illegal narrowing")
                sink.emit("SIM014",
                          f"inverse pair {sim_class.name}.{eva.name} / "
                          f"{range_class.name}.{declared.name} disagree on "
                          f"range ({declared.range_class_name!r} != "
                          f"{sim_class.name!r}){hierarchy_note}", eva.span)
            if (declared.inverse_name is not None
                    and declared.inverse_name != eva.name):
                sink.emit("SIM013",
                          f"{range_class.name}.{declared.name} names inverse "
                          f"{declared.inverse_name!r}, not {eva.name!r}",
                          eva.span,
                          hint="inverse declarations must name each other")
            if eva.options.required and declared.options.required:
                # Ordered pair emitted once (owner-name order breaks the tie).
                if (sim_class.name, eva.name) <= (range_class.name,
                                                  declared.name):
                    sink.emit("SIM016",
                              f"both {sim_class.name}.{eva.name} and its "
                              f"inverse {range_class.name}.{declared.name} "
                              f"are REQUIRED; neither class could ever "
                              f"receive its first entity", eva.span,
                              hint="drop REQUIRED from one direction")


def _same_declared_hierarchy(schema: Schema, a: str, b: str) -> bool:
    """Loose ancestor test usable before resolution (declared edges only)."""
    def ancestors(name: str, seen: Set[str]) -> Set[str]:
        if name in seen or not schema.has_class(name):
            return set()
        seen.add(name)
        result = {name}
        for super_name in schema.get_class(name).superclass_names:
            result |= ancestors(super_name, seen)
        return result
    return bool(ancestors(a, set()) & ancestors(b, set()))


def _check_subroles(schema: Schema, sink: DiagnosticSink) -> None:
    """SIM021 value-set mismatch, SIM022 multiple subrole attributes."""
    immediate_subs: Dict[str, List[str]] = {c.name: []
                                            for c in schema.classes()}
    for sim_class in schema.classes():
        for super_name in sim_class.superclass_names:
            if super_name in immediate_subs:
                immediate_subs[super_name].append(sim_class.name)
    for sim_class in schema.classes():
        declared = [a for a in sim_class.immediate_attributes.values()
                    if a.is_subrole]
        if len(declared) > 1:
            sink.emit("SIM022",
                      f"class {sim_class.name!r} declares more than one "
                      f"subrole attribute "
                      f"({', '.join(a.name for a in declared)})",
                      declared[1].span)
        if declared:
            subrole = declared[0]
            value_set = sorted(canon(n) for n in subrole.subclass_names)
            expected = sorted(immediate_subs[sim_class.name])
            if value_set != expected:
                sink.emit("SIM021",
                          f"subrole {sim_class.name}.{subrole.name} lists "
                          f"{value_set}, but the immediate subclasses are "
                          f"{expected}", subrole.span,
                          hint="the subrole value set must name exactly the "
                               "immediate subclasses")


def _check_shadowing(schema: Schema, sink: DiagnosticSink) -> None:
    """SIM020: immediate attributes clashing with inherited ones, and
    conflicting inheritance from multiple superclasses."""
    order = _safe_topological_order(schema)
    if order is None:        # graph is broken; SIM001/002 already emitted
        return
    visible: Dict[str, Dict[str, object]] = {}
    for name in order:
        sim_class = schema.get_class(name)
        merged: Dict[str, object] = {}
        for super_name in sim_class.superclass_names:
            for attr_name, attr in visible.get(super_name, {}).items():
                present = merged.get(attr_name)
                if present is not None and present is not attr:
                    sink.emit("SIM020",
                              f"class {name!r} inherits conflicting "
                              f"attributes named {attr_name!r} from multiple "
                              f"superclasses", sim_class.span,
                              hint="rename one of the superclass attributes")
                merged[attr_name] = attr
        for attr_name, attr in sim_class.immediate_attributes.items():
            if attr_name in merged:
                inherited = merged[attr_name]
                owner = getattr(inherited, "owner_name", None) or "a superclass"
                sink.emit("SIM020",
                          f"attribute {attr_name!r} of class {name!r} shadows "
                          f"the attribute inherited from {owner!r}; "
                          f"re-declaration (type narrowing) is illegal",
                          attr.span,
                          hint="inherited attributes are already visible; "
                               "remove the re-declaration")
            merged[attr_name] = attr
        visible[name] = merged


def _safe_topological_order(schema: Schema) -> Optional[List[str]]:
    known = {c.name: [s for s in c.superclass_names if schema.has_class(s)]
             for c in schema.classes()}
    order: List[str] = []
    placed: Set[str] = set()
    pending = dict(known)
    while pending:
        ready = [n for n, supers in pending.items()
                 if all(s in placed for s in supers)]
        if not ready:
            return None
        for name in sorted(ready):
            order.append(name)
            placed.add(name)
            del pending[name]
    return order


def _check_constraint_classes(schema: Schema, sink: DiagnosticSink) -> None:
    """SIM032: VERIFY (and derived/view) declarations on unknown classes."""
    for constraint in schema.constraints:
        if not schema.has_class(constraint.class_name):
            sink.emit("SIM032",
                      f"verify {constraint.name} is declared on unknown "
                      f"class {constraint.class_name!r}", constraint.span)
    for derived in schema.derived_attributes():
        if not schema.has_class(derived.class_name):
            sink.emit("SIM032",
                      f"derived attribute {derived.name!r} is declared on "
                      f"unknown class {derived.class_name!r}", derived.span)
    for view in schema.views():
        if not schema.has_class(view.class_name):
            sink.emit("SIM032",
                      f"view {view.name!r} is declared on unknown class "
                      f"{view.class_name!r}", view.span)


def _check_unused_types(schema: Schema, sink: DiagnosticSink) -> None:
    """SIM040: named types no attribute refers to."""
    used: Set[str] = set()
    for sim_class in schema.classes():
        for attr in sim_class.immediate_attributes.values():
            type_name = getattr(attr, "type_name", None)
            if type_name:
                used.add(type_name)
    for type_name, span in schema.type_spans.items():
        if type_name not in used:
            sink.emit("SIM040",
                      f"named type {type_name!r} is never used by any "
                      f"attribute", span,
                      hint="remove the declaration or use the type")


# -- Deep pass (resolved schema) ----------------------------------------------

def _lint_resolved(text: str, sink: DiagnosticSink) -> None:
    """SIM030/031/033 for VERIFY assertions, derived attributes and view
    predicates, using a freshly resolved schema and the real qualifier."""
    from repro.dml.qualification import Qualifier
    try:
        schema = parse_ddl(text)
    except SchemaError as exc:
        # Resolution found something the structural pass does not model;
        # surface it rather than silently passing a broken schema.
        sink.emit("SIM000", f"schema does not resolve: {exc}")
        return
    qualifier = Qualifier(schema)

    for constraint in schema.constraints:
        _lint_assertion(qualifier, sink,
                        f"verify {constraint.name}",
                        constraint.class_name, constraint.assertion_text,
                        constraint.span, constraint.assertion_span,
                        check_vacuous=True)
    for derived in schema.derived_attributes():
        _lint_assertion(qualifier, sink,
                        f"derived attribute {derived.name!r}",
                        derived.class_name, derived.expression_text,
                        derived.span, derived.span, check_vacuous=False)
    for view in schema.views():
        if view.where_text:
            _lint_assertion(qualifier, sink, f"view {view.name!r}",
                            view.class_name, view.where_text,
                            view.span, view.span, check_vacuous=True)


def _lint_assertion(qualifier, sink: DiagnosticSink, what: str,
                    class_name: str, text: str, decl_span: Span,
                    body_span: Span, check_vacuous: bool) -> None:
    try:
        expression = parse_expression(text)
    except DMLSyntaxError as exc:
        sink.emit("SIM033",
                  f"{what} on {class_name!r} does not parse: {exc}",
                  Span(exc.line, exc.column).offset(body_span))
        return
    if check_vacuous and not _references_attributes(expression):
        sink.emit("SIM030",
                  f"{what} on {class_name!r} does not reference any "
                  f"attribute; it is constant", decl_span,
                  hint="a constraint that never varies is either always "
                       "satisfied or always violated")
    try:
        qualifier.resolve_selection(class_name, expression)
    except QualificationError as exc:
        sink.emit("SIM031",
                  f"{what} on {class_name!r} does not resolve: {exc}",
                  body_span)


def _references_attributes(expression) -> bool:
    return any(isinstance(node, Path)
               or (isinstance(node, Aggregate) and node.outer)
               for node in walk(expression))
