"""Executable access plans chosen by the optimizer.

A plan decides, per perspective root, how its domain is produced: a full
extent scan (the canonical strategy, which preserves the surrogate
ordering the DML implies), an equality index lookup, or one of the
semantic-rewrite shapes — a pruned subclass extent, a provably-empty
domain, or an EVA-inverse flip.  Any non-scan path re-sorts its matches
by surrogate so the perspective-implied ordering is preserved (the
semantics-preservation rule of §5.1 with its sort cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dml.query_tree import QTNode


@dataclass
class AccessPath:
    """How one root variable's domain is produced.

    ``kind``:

    * ``"scan"`` — full extent scan of ``class_name``;
    * ``"index"`` — equality lookup of ``attr_name = value``;
    * ``"subclass"`` — scan the pruned ``subclass`` extent, keep entities
      holding the ``class_name`` role (semantic rewrite);
    * ``"empty"`` — the domain is provably empty; ``proof`` carries the
      schema facts the verifier re-checks (semantic rewrite);
    * ``"eva_flip"`` — index-probe ``flip_class.attr_name = value`` on the
      far side of ``eva``, then traverse the EVA's inverse back to
      candidate roots (semantic rewrite).
    """

    kind: str       # "scan" | "index" | "subclass" | "empty" | "eva_flip"
    class_name: str
    attr_name: Optional[str] = None
    value: object = None
    estimated_cost: float = 0.0
    estimated_rows: float = 0.0
    preserves_order: bool = True
    #: for "subclass": the pruned extent's class
    subclass: Optional[str] = None
    #: for "eva_flip": the EVA traversed root -> target, and the target class
    eva: object = None
    flip_class: Optional[str] = None
    #: for "empty": ("disjoint", other) or ("contradiction", pos, neg)
    proof: Optional[Tuple] = None
    #: the Literal ``value`` was written as: a cached plan probes with
    #: each execution's binding of it
    literal: object = None

    def bound_value(self, params):
        return (self.value if self.literal is None
                else self.literal.bound(params))

    def describe(self) -> str:
        if self.kind == "scan":
            return (f"scan {self.class_name} "
                    f"(cost {self.estimated_cost:.1f})")
        if self.kind == "subclass":
            return (f"subclass-prune {self.class_name} -> {self.subclass} "
                    f"(cost {self.estimated_cost:.1f})")
        if self.kind == "empty":
            return (f"empty {self.class_name} "
                    f"[{' '.join(str(p) for p in self.proof or ())}] (cost 0.0)")
        if self.kind == "eva_flip":
            return (f"eva-flip {self.class_name} via inverse({self.eva.name}) "
                    f"from {self.flip_class}.{self.attr_name} = "
                    f"{self.value!r} (cost {self.estimated_cost:.1f})")
        return (f"index {self.class_name}.{self.attr_name} = "
                f"{self.value!r} (cost {self.estimated_cost:.1f})")


@dataclass
class Plan:
    """A full strategy: one access path per root plus bookkeeping.

    ``root_order`` — evaluation order of the perspective variables.  When
    it differs from the FROM-list order, the transformation is not
    semantics-preserving (§5.1): the executor re-sorts the output into the
    perspective-implied order, and the optimizer charges that sort to the
    strategy.
    """

    root_access: Dict[str, AccessPath] = field(default_factory=dict)
    root_order: Optional[List[str]] = None
    estimated_cost: float = 0.0
    description: str = "canonical nested loops"
    #: node id -> estimated instance count (EXPLAIN ANALYZE's "est" column;
    #: filled in by Optimizer.choose_plan for the winning strategy)
    node_estimates: Dict[int, float] = field(default_factory=dict)
    #: human-readable summary of the semantic rewrites applied to the
    #: statement ("none" when the rewrite phase ran but found nothing;
    #: None when the phase was disabled)
    rewrite: Optional[str] = None
    #: what the ``optimize`` trace span says about the winning strategy
    #: (and the ``compile`` span of a plan-cache hit repeats)
    trace_attrs: Dict[str, object] = field(default_factory=dict)

    def root_domain(self, node: QTNode, ctx) -> Optional[List[int]]:
        """The domain (a list) of a root node in the execution ``ctx``,
        or None for the default scan."""
        access = self.root_access.get(node.var_name)
        if access is None or access.kind == "scan":
            return None
        store = ctx.store
        if access.kind == "empty":
            return []
        if access.kind == "subclass":
            surrogates = [s for s in store.scan_class(access.subclass)
                          if store.has_role(s, access.class_name)]
            return sorted(surrogates)
        if access.kind == "eva_flip":
            matches = store.find_by_dva(access.flip_class, access.attr_name,
                                        access.bound_value(ctx.params))
            candidates = set()
            inverse = access.eva.inverse
            for target in matches:
                for source in store.eva_targets(target, inverse):
                    if store.has_role(source, access.class_name):
                        candidates.add(source)
            return sorted(candidates)
        surrogates = store.find_by_dva(access.class_name, access.attr_name,
                                       access.bound_value(ctx.params))
        # Re-sort by surrogate: preserves the perspective-implied ordering
        # the index lookup broke (the plan's cost includes this sort).
        return sorted(surrogates)

    def describe(self) -> str:
        lines = [f"plan: {self.description} "
                 f"(estimated cost {self.estimated_cost:.1f})"]
        if self.rewrite is not None:
            lines.append(f"  rewrite: {self.rewrite}")
        if self.root_order is not None:
            lines.append("  loop order: " + " > ".join(self.root_order)
                         + "  [re-sorted to perspective order]")
        for var, access in self.root_access.items():
            lines.append(f"  {var}: {access.describe()}")
        return "\n".join(lines)
