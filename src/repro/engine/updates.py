"""INSERT / MODIFY / DELETE semantics (paper §4.8).

* INSERT without FROM creates a new entity with all superclass roles up to
  the base class; INSERT ... FROM extends an existing entity's roles
  downward, adding intermediate roles "as needed".
* MODIFY updates immediate and inherited attributes; EVA assignment uses
  ``<object> WITH (<bool>)`` selectors and INCLUDE/EXCLUDE for MV
  attributes.
* DELETE removes the entity's role in the named class and all its subclass
  roles; superclass roles survive.  Immediate EVAs of removed roles are
  automatically deleted (structural integrity lives in the Mapper).

Every statement runs under a savepoint: an integrity failure (type,
REQUIRED, UNIQUE, MAX, or a VERIFY assertion) rolls the statement back and
re-raises, leaving the database exactly as before the statement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import (
    CardinalityViolation,
    CatalogError,
    IntegrityError,
    RequiredViolation,
)
from repro.dml.ast import (
    Assignment,
    DeleteStatement,
    EntitySelector,
    InsertStatement,
    Literal,
    ModifyStatement,
    Path,
)
from repro.dml.query_tree import QueryTree
from repro.engine.executor import QueryExecutor
from repro.engine.expressions import Batch, compile_single_valued
from repro.engine.operators import ExecContext
from repro.naming import canon
from repro.types.tvl import is_null


class _Touches:
    """What one statement touched, for trigger detection (§3.3)."""

    def __init__(self):
        self.keys: set = set()
        self.entities: set = set()

    def dva(self, owner: str, attr: str, surrogate: int) -> None:
        self.keys.add(("attr", owner, attr))
        self.entities.add(surrogate)

    def eva(self, eva_attr, source: int, target: int) -> None:
        self.keys.add(("attr", eva_attr.owner_name, eva_attr.name))
        inverse = eva_attr.inverse
        self.keys.add(("attr", inverse.owner_name, inverse.name))
        self.entities.add(source)
        self.entities.add(target)

    def role(self, class_name: str, surrogate: int) -> None:
        self.keys.add(("class", class_name))
        self.entities.add(surrogate)


class UpdateEngine:
    """Executes update statements over a Mapper store."""

    def __init__(self, executor: QueryExecutor, constraints=None):
        self.executor = executor
        self.store = executor.store
        self.schema = executor.schema
        self.qualifier = executor.qualifier
        self.constraints = constraints  # ConstraintManager or None
        #: the running statement's bound literal values (None: as written)
        self._params = None

    # -- Compile-once artefacts ---------------------------------------------------

    def prepare(self, statement) -> None:
        """Compile what every execution of ``statement`` reuses — its
        selections and scalar assignment values — onto the AST, which
        resolution annotates in place anyway.  Run once, by the
        statement's compile (or the first :meth:`execute` of a hand-built
        one), so that executing never edits an AST the plan cache shares
        between sessions."""
        if getattr(statement, "prepared", False):
            return
        sim_class = self.schema.get_class(statement.class_name)
        if isinstance(statement, InsertStatement):
            selections = [(statement.from_class, statement.from_where)]
        else:
            selections = [(sim_class.name, statement.where)]
        for assignment in getattr(statement, "assignments", ()):
            if not sim_class.has_attribute(assignment.attribute):
                continue            # execution reports it
            attr = sim_class.attribute(assignment.attribute)
            value = assignment.value
            if isinstance(value, EntitySelector):
                # EXCLUDE names the EVA itself: it selects range members.
                own = assignment.op == "exclude" and value.name == attr.name
                selections.append((attr.range_class_name if own and attr.is_eva
                                   else value.name, value.where))
            elif not attr.is_eva and not isinstance(value, Literal):
                # A Modify reads the entity through the statement's
                # class; inserts and MV operations through the owner's.
                scalar_modify = (isinstance(statement, ModifyStatement)
                                 and not attr.multi_valued)
                value.compiled = self._compile_rhs(
                    sim_class.name if scalar_modify else attr.owner_name,
                    value)
        for class_name, where in selections:
            if where is not None and self.schema.has_class(class_name or ""):
                self.executor.prepare_selection(class_name, where)
        statement.prepared = True

    def _compile_rhs(self, class_name: str, expression):
        """Compile an assignment value, resolved in a fresh scope
        anchored at the entity (so ``salary := 1.1 * salary`` reads the
        entity's own salary); a multi-instance value is an error unless
        all instances agree."""
        tree = QueryTree()
        root = tree.add_root(canon(class_name), canon(class_name))
        scope_nodes = self.qualifier.resolve_anchored(tree, root, expression)
        return compile_single_valued(
            expression, scope_nodes, {root.id: 0}, 1,
            lambda batch, index: IntegrityError(
                "assignment expression yields multiple distinct values"))

    # -- Dispatch ---------------------------------------------------------------

    def execute(self, statement, restrict_to=None, params=None) -> int:
        """Run one update statement in the transaction active on this
        thread (its session's); returns the number of affected
        entities.  Atomic per statement: a failure rolls back to the
        statement's savepoint and leaves the transaction to its session.

        ``restrict_to`` — optional set of surrogates a concurrent session
        entity-locked for this statement: MODIFY/DELETE only touch the
        selected entities that are also in the set, shielding writes from
        entities whose membership changed between lock resolution and
        execution (see :mod:`repro.engine.sessions`).  ``params`` — the
        literal values this execution binds to a cached statement's slots.
        """
        self.prepare(statement)
        self._params = params
        transaction = self.store.transactions.current
        savepoint = transaction.savepoint()
        touches = _Touches()
        try:
            if isinstance(statement, InsertStatement):
                count = self._insert(statement, touches)
            elif isinstance(statement, ModifyStatement):
                count = self._modify(statement, touches, restrict_to)
            elif isinstance(statement, DeleteStatement):
                count = self._delete(statement, touches, restrict_to)
            else:
                raise CatalogError(f"not an update statement: {statement!r}")
            if self.constraints is not None:
                self.constraints.after_statement(touches,
                                                 executor=self.executor)
        except Exception as exc:
            try:
                transaction.rollback_to(savepoint)
            except Exception:
                # The cleanup itself failed (e.g. the device died mid
                # statement).  The statement's own error is the diagnosis
                # the caller needs; re-raising it here keeps the rollback
                # failure reachable as its __context__ instead of letting
                # it mask the original.
                raise exc
            raise
        return count

    # -- INSERT ------------------------------------------------------------------

    def _insert(self, statement: InsertStatement, touches: _Touches) -> int:
        sim_class = self.schema.get_class(statement.class_name)
        if statement.from_class is None:
            surrogate = self.store.new_surrogate()
            base = sim_class.base_class_name
            chain = [base]
            if statement.class_name != base:
                chain += self.schema.graph.insertion_path(
                    base, statement.class_name)
            self._extend_roles(surrogate, chain, statement.assignments,
                               touches, new_entity=True)
            return 1

        # Role extension: INSERT <class1> FROM <class2> WHERE ...
        from_class = self.schema.get_class(statement.from_class)
        if not self.schema.graph.is_ancestor(from_class.name, sim_class.name):
            raise IntegrityError(
                f"{from_class.name!r} is not an ancestor of "
                f"{sim_class.name!r}")
        selected = self.executor.select_entities(
            from_class.name, statement.from_where, self._params)
        chain_all = self.schema.graph.insertion_path(from_class.name,
                                                     sim_class.name)
        count = 0
        for surrogate in selected:
            chain = [c for c in chain_all
                     if not self.store.has_role(surrogate, c)]
            if sim_class.name not in chain:
                raise IntegrityError(
                    f"entity {surrogate} already has role "
                    f"{sim_class.name!r}")
            self._extend_roles(surrogate, chain, statement.assignments,
                               touches, new_entity=False)
            count += 1
        return count

    def _extend_roles(self, surrogate: int, chain: List[str],
                      assignments: List[Assignment], touches: _Touches,
                      new_entity: bool) -> None:
        chain_set = set(chain)
        dva_values: Dict[str, Dict[str, object]] = {c: {} for c in chain}
        eva_assignments: List[Tuple[Assignment, object]] = []

        for assignment in assignments:
            attr = self._assignable_attribute(chain_set, assignment.attribute)
            if attr.is_eva:
                eva_assignments.append((assignment, attr))
                continue
            if assignment.op != "set":
                if not attr.multi_valued:
                    raise IntegrityError(
                        f"INCLUDE/EXCLUDE need a multi-valued attribute, "
                        f"not {attr.name!r}")
                eva_assignments.append((assignment, attr))
                continue
            value = self._scalar_rhs(attr.owner_name, surrogate,
                                     assignment.value)
            if attr.multi_valued:
                values = value if isinstance(value, (list, tuple)) else [value]
                validated = [attr.data_type.validate(v) for v in values]
                self._check_mv_bounds(attr, validated)
                dva_values[attr.owner_name][attr.name] = \
                    self.store.mv_info(attr).encode(validated)
            else:
                dva_values[attr.owner_name][attr.name] = \
                    attr.data_type.validate(value)

        for class_name in chain:
            self.store.add_role(surrogate, class_name, dva_values[class_name])
            touches.role(class_name, surrogate)
            for attr_name in dva_values[class_name]:
                touches.dva(class_name, attr_name, surrogate)

        for assignment, attr in eva_assignments:
            self._apply_collection_assignment(surrogate, attr, assignment,
                                              touches)

        self._check_required(surrogate, chain)

    def _assignable_attribute(self, chain_set, attr_name: str):
        for class_name in chain_set:
            sim_class = self.schema.get_class(class_name)
            attr = sim_class.immediate_attributes.get(canon(attr_name))
            if attr is not None:
                if attr.system_maintained:
                    raise IntegrityError(
                        f"attribute {attr.name!r} is system-maintained")
                return attr
        raise IntegrityError(
            f"attribute {attr_name!r} is not an immediate attribute of the "
            f"inserted classes {sorted(chain_set)}")

    def _check_required(self, surrogate: int, chain: List[str]) -> None:
        for class_name in chain:
            sim_class = self.schema.get_class(class_name)
            for attr in sim_class.immediate_attributes.values():
                if not attr.options.required or attr.system_maintained:
                    continue
                if attr.is_eva:
                    if not self.store.eva_targets(surrogate, attr):
                        raise RequiredViolation(
                            f"EVA {class_name}.{attr.name} is REQUIRED")
                else:
                    value = self.store.read_dva(surrogate, attr)
                    empty = (value == [] if attr.multi_valued
                             else is_null(value))
                    if empty:
                        raise RequiredViolation(
                            f"attribute {class_name}.{attr.name} is REQUIRED")

    # -- MODIFY -------------------------------------------------------------------

    def _modify(self, statement: ModifyStatement, touches: _Touches,
                restrict_to=None) -> int:
        sim_class = self.schema.get_class(statement.class_name)
        selected = self.executor.select_entities(
            sim_class.name, statement.where, self._params)
        if restrict_to is not None:
            allowed = set(restrict_to)
            selected = [s for s in selected if s in allowed]
        for surrogate in selected:
            for assignment in statement.assignments:
                self._apply_modify_assignment(sim_class, surrogate,
                                              assignment, touches)
        return len(selected)

    def _apply_modify_assignment(self, sim_class, surrogate: int,
                                 assignment: Assignment,
                                 touches: _Touches) -> None:
        attr = sim_class.attribute(assignment.attribute)
        if attr.system_maintained:
            raise IntegrityError(
                f"attribute {attr.name!r} is system-maintained")
        if attr.is_eva or attr.multi_valued:
            self._apply_collection_assignment(surrogate, attr, assignment,
                                              touches)
            return
        if assignment.op != "set":
            raise IntegrityError(
                f"INCLUDE/EXCLUDE need a multi-valued attribute, not "
                f"{attr.name!r}")
        value = self._scalar_rhs(sim_class.name, surrogate, assignment.value)
        validated = attr.data_type.validate(value)
        if attr.options.required and is_null(validated):
            raise RequiredViolation(
                f"attribute {attr.owner_name}.{attr.name} is REQUIRED")
        self.store.write_dva(surrogate, attr, validated)
        touches.dva(attr.owner_name, attr.name, surrogate)

    # -- Collection (EVA / MV DVA) assignments ---------------------------------------

    def _apply_collection_assignment(self, surrogate: int, attr,
                                     assignment: Assignment,
                                     touches: _Touches) -> None:
        if attr.is_eva:
            self._apply_eva_assignment(surrogate, attr, assignment, touches)
        else:
            self._apply_mv_dva_assignment(surrogate, attr, assignment,
                                          touches)

    def _apply_eva_assignment(self, surrogate: int, eva,
                              assignment: Assignment,
                              touches: _Touches) -> None:
        op = assignment.op
        targets = self._selector_targets(surrogate, eva, assignment.value,
                                         excluding=(op == "exclude"))
        current = self.store.eva_targets(surrogate, eva)

        if op == "set" and not eva.multi_valued:
            if len(targets) != 1:
                raise IntegrityError(
                    f"assignment to single-valued EVA {eva.name!r} selected "
                    f"{len(targets)} entities")
            for old in current:
                self.store.eva_exclude(surrogate, eva, old)
                touches.eva(eva, surrogate, old)
            self._include_checked(surrogate, eva, targets[0], touches)
            return

        if op == "set":
            for old in current:
                self.store.eva_exclude(surrogate, eva, old)
                touches.eva(eva, surrogate, old)
            for target in targets:
                self._include_checked(surrogate, eva, target, touches)
            return

        if op == "include":
            if not eva.multi_valued and (current or len(targets) > 1):
                raise IntegrityError(
                    f"INCLUDE would give single-valued EVA {eva.name!r} "
                    f"multiple values")
            for target in targets:
                if target not in current:
                    self._include_checked(surrogate, eva, target, touches)
            return

        if op == "exclude":
            removed_any = False
            for target in targets:
                if self.store.eva_exclude(surrogate, eva, target):
                    removed_any = True
                    touches.eva(eva, surrogate, target)
            if removed_any and eva.options.required \
                    and not self.store.eva_targets(surrogate, eva):
                raise RequiredViolation(
                    f"EVA {eva.owner_name}.{eva.name} is REQUIRED")
            return
        raise IntegrityError(f"unknown assignment op {op!r}")

    def _include_checked(self, surrogate: int, eva, target: int,
                         touches: _Touches) -> None:
        """Include an EVA instance, then enforce MAX on both sides."""
        current = self.store.eva_targets(surrogate, eva)
        if target in current:
            return
        self.store.eva_include(surrogate, eva, target)
        touches.eva(eva, surrogate, target)
        maximum = eva.options.max_cardinality
        if maximum is not None and \
                len(self.store.eva_targets(surrogate, eva)) > maximum:
            raise CardinalityViolation(
                f"EVA {eva.owner_name}.{eva.name} exceeds MAX {maximum}")
        inverse = eva.inverse
        maximum = inverse.options.max_cardinality
        if maximum is not None and \
                len(self.store.eva_targets(target, inverse)) > maximum:
            raise CardinalityViolation(
                f"EVA {inverse.owner_name}.{inverse.name} exceeds MAX "
                f"{maximum}")
        if not inverse.multi_valued:
            partners = self.store.eva_targets(target, inverse)
            if len(partners) > 1:
                raise CardinalityViolation(
                    f"EVA {inverse.owner_name}.{inverse.name} is "
                    f"single-valued; entity {target} would have "
                    f"{len(partners)} values")

    def _apply_mv_dva_assignment(self, surrogate: int, attr,
                                 assignment: Assignment,
                                 touches: _Touches) -> None:
        if isinstance(assignment.value, EntitySelector):
            raise IntegrityError(
                f"{attr.name!r} is data-valued; WITH selectors apply to "
                f"EVAs")
        value = self._scalar_rhs(attr.owner_name, surrogate, assignment.value)
        op = assignment.op
        if op == "set":
            values = value if isinstance(value, (list, tuple)) else [value]
            validated = [attr.data_type.validate(v) for v in values]
            self._check_mv_bounds(attr, validated)
            self.store.write_dva(surrogate, attr, validated)
        elif op == "include":
            validated = attr.data_type.validate(value)
            current = self.store.read_dva(surrogate, attr)
            if attr.options.distinct and validated in current:
                return
            self._check_mv_bounds(attr, current + [validated])
            self.store.mv_include(surrogate, attr, validated)
        elif op == "exclude":
            validated = attr.data_type.validate(value)
            self.store.mv_exclude(surrogate, attr, validated)
        else:
            raise IntegrityError(f"unknown assignment op {op!r}")
        touches.dva(attr.owner_name, attr.name, surrogate)

    def _check_mv_bounds(self, attr, values) -> None:
        maximum = attr.options.max_cardinality
        if maximum is not None and len(values) > maximum:
            raise CardinalityViolation(
                f"attribute {attr.owner_name}.{attr.name} exceeds MAX "
                f"{maximum}")
        if attr.options.distinct and len(set(values)) != len(values):
            raise IntegrityError(
                f"attribute {attr.owner_name}.{attr.name} is DISTINCT")

    # -- Selectors and RHS evaluation --------------------------------------------------

    def _selector_targets(self, surrogate: int, eva, value,
                          excluding: bool) -> List[int]:
        """Resolve the target entities of an EVA assignment.

        ``<class> WITH (<bool>)`` selects members of the EVA's range class;
        for exclusions the object name is the EVA itself and the candidates
        are the entity's current targets (paper §4.8).  A bare path naming
        the range class selects all its members.
        """
        if isinstance(value, EntitySelector):
            selector = value
        elif isinstance(value, Path) and len(value.steps) == 1:
            selector = EntitySelector(value.steps[0].name, None)
        else:
            raise IntegrityError(
                f"EVA {eva.name!r} assignment needs a WITH selector")

        range_class = self.schema.get_class(eva.range_class_name)
        if excluding and selector.name == eva.name:
            candidates = self.store.eva_targets(surrogate, eva)
            if selector.where is None:
                return list(candidates)
            matched = set(self.executor.select_entities(
                range_class.name, selector.where, self._params))
            return [c for c in candidates if c in matched]
        if selector.name != range_class.name and \
                not self.schema.graph.is_ancestor(range_class.name,
                                                  selector.name):
            raise IntegrityError(
                f"selector class {selector.name!r} is not the range class "
                f"of EVA {eva.name!r} ({range_class.name!r})")
        return self.executor.select_entities(selector.name, selector.where,
                                             self._params)

    def _scalar_rhs(self, class_name: str, surrogate: int, expression):
        """Evaluate an assignment's scalar value for one entity of
        ``class_name`` (see :meth:`_compile_rhs`)."""
        if isinstance(expression, EntitySelector):
            raise IntegrityError(
                "WITH selectors only apply to entity-valued attributes")
        if isinstance(expression, Literal):
            return expression.bound(self._params)
        compiled = getattr(expression, "compiled", None)
        if compiled is None:        # an attribute prepare() did not know
            compiled = self._compile_rhs(class_name, expression)
        ctx = ExecContext(self.executor, params=self._params)
        return compiled(ctx, Batch({0: [surrogate]}, 1))[0]

    # -- DELETE ---------------------------------------------------------------------

    def _delete(self, statement: DeleteStatement, touches: _Touches,
                restrict_to=None) -> int:
        sim_class = self.schema.get_class(statement.class_name)
        selected = self.executor.select_entities(
            sim_class.name, statement.where, self._params)
        if restrict_to is not None:
            allowed = set(restrict_to)
            selected = [s for s in selected if s in allowed]
        for surrogate in selected:
            partners = self._partners_of(surrogate, sim_class.name)
            roles = [sim_class.name] + [
                d for d in self.schema.graph.descendants(sim_class.name)
                if self.store.has_role(surrogate, d)]
            self.store.remove_role(surrogate, sim_class.name)
            for role in roles:
                touches.role(role, surrogate)
            touches.entities.add(surrogate)
            self._check_partner_required(partners)
            touches.entities.update(s for s, _ in partners)
        return len(selected)

    def _partners_of(self, surrogate: int, class_name: str
                     ) -> List[Tuple[int, object]]:
        """Entities related to ``surrogate`` through EVAs of the roles
        about to be removed, with the partner-side EVA (for REQUIRED
        re-checks after the cascade)."""
        partners: List[Tuple[int, object]] = []
        roles = [class_name] + [
            d for d in self.schema.graph.descendants(class_name)
            if self.store.has_role(surrogate, d)]
        for role in roles:
            sim_class = self.schema.get_class(role)
            for eva in sim_class.immediate_evas():
                for target in self.store.eva_targets(surrogate, eva):
                    partners.append((target, eva.inverse))
        return partners

    def _check_partner_required(self, partners) -> None:
        for surrogate, inverse_eva in partners:
            if not inverse_eva.options.required:
                continue
            if not self.store.has_role(surrogate, inverse_eva.owner_name):
                continue
            if not self.store.eva_targets(surrogate, inverse_eva):
                raise RequiredViolation(
                    f"deleting would leave entity {surrogate} without the "
                    f"REQUIRED EVA {inverse_eva.owner_name}."
                    f"{inverse_eva.name}")
