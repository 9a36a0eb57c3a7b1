"""The optimizer's cost model (paper §5.1).

"Cardinality of LUCs and relationships, blocking factors, indexes and the
cost of accessing the first and subsequent instances of a relationship are
some of the optimization parameters used."

Costs are in block accesses.  The first/subsequent-instance parameters
follow the paper's own example: a clustered relationship costs 0 block
accesses for its first instance, a pointer (absolute-address) mapping
costs 1.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.mapper.store import MapperStore

#: default selectivity of an equality predicate on a non-unique attribute
DEFAULT_EQ_SELECTIVITY = 0.1
#: cost of sorting n records, in block accesses (external-sort flavoured)
SORT_FACTOR = 0.02


class CostModel:
    """Cost estimates over one Mapper store's statistics.

    With collected :class:`~repro.optimizer.statistics.TableStatistics`
    (the ANALYZE pass), selectivities come from real distributions; the
    fixed defaults below are the fallback — the paper's own state
    ("statistical optimization is not fully implemented yet").
    """

    def __init__(self, store: MapperStore, statistics=None,
                 fanout_feedback=None):
        self.store = store
        self.schema = store.schema
        self.design = store.design
        self.statistics = statistics
        #: (owner, attr) -> observed mean fan-out, learned from traced
        #: executions (EXPLAIN ANALYZE actuals fed back by the Optimizer)
        self.fanout_feedback = fanout_feedback

    # -- Base statistics ---------------------------------------------------------

    def class_cardinality(self, class_name: str) -> int:
        """Entities in the class, from the latest O(1) index count: an
        estimate never pays for (or needs) a snapshot-exact scan."""
        return self.store.latest_class_count(class_name)

    def class_blocks(self, class_name: str) -> int:
        """Blocks a full extent scan of the class touches.

        In a shared variable-format unit the scan visits the whole unit.
        """
        return max(1, self.store.class_block_count(class_name))

    def blocking_factor(self, class_name: str) -> int:
        return self.store.blocking_factor(class_name)

    def eva_fanout(self, eva) -> float:
        if self.fanout_feedback:
            observed = self.fanout_feedback.get((eva.owner_name, eva.name))
            if observed is not None:
                return max(observed, 0.0)
        fanout = self.store.avg_fanout(eva)
        return max(fanout, 0.0)

    # -- Relationship access costs --------------------------------------------------

    def relationship_costs(self, eva) -> Tuple[float, float]:
        """(first-instance, next-instance) block-access costs of
        traversing ``eva`` from one source entity, *excluding* the cost of
        materializing target records: §5.2's table, as the pair's storage
        object (``repro.mapper.mappings``) states it."""
        info = self.store.eva_info(eva)
        return info.first_cost, info.next_cost

    def target_record_cost(self, class_name: str) -> float:
        """Materializing one target record: one block access, discounted
        by expected buffer residency for small classes and by the
        read-path cache hit rate observed so far."""
        blocks = self.class_blocks(class_name)
        base = 0.3 if blocks <= self.design.pool_capacity // 4 else 1.0
        return base * (1.0 - self.cached_read_discount())

    def cached_read_discount(self) -> float:
        """Learned discount on record-materialization cost: the store's
        observed decoded-record / fan-out cache hit rate, capped so no
        access is ever estimated free.  A uniform multiplier preserves
        strategy rankings while shrinking absolute estimates toward the
        measured warm-cache behaviour."""
        perf = getattr(self.store, "perf", None)
        if perf is None:
            return 0.0
        return min(perf.read_hit_rate(), 0.9)

    def traversal_cost(self, eva, source_count: float,
                       existential: bool = False) -> float:
        """Cost of expanding one EVA edge for ``source_count`` sources."""
        first, following = self.relationship_costs(eva)
        fanout = self.eva_fanout(eva)
        per_target = self.target_record_cost(eva.range_class_name)
        if existential:
            # Existential (TYPE 2) subtrees stop at the first witness.
            fanout = min(fanout, 1.0)
        if fanout <= 0:
            return source_count * first
        return source_count * (
            first + max(fanout - 1.0, 0.0) * following + fanout * per_target)

    # -- Root access costs -------------------------------------------------------------

    def scan_cost(self, class_name: str) -> float:
        return float(self.class_blocks(class_name))

    def subclass_scan_cost(self, root_class: str, subclass: str) -> float:
        """Scan of a pruned subclass extent (semantic rewrite).

        In a shared variable-format unit the scan still visits every
        block, but only the subclass's own role records are decoded and
        qualified — the dominant per-block work — so the block cost is
        scaled by the extent fraction relative to the perspective class.
        """
        blocks = float(self.class_blocks(subclass))
        total = max(1, self.class_cardinality(root_class))
        pruned = self.class_cardinality(subclass)
        return max(0.5, blocks * min(1.0, pruned / total))

    def index_lookup_cost(self, class_name: str, attr_name: str,
                          unique: bool, literal=None) -> Tuple[float, float]:
        """(cost, expected matches) of an equality index lookup of the
        query Literal ``literal``."""
        cardinality = max(1, self.class_cardinality(class_name))
        if unique:
            matches = 1.0
        else:
            matches = max(1.0, cardinality * self.equality_selectivity(
                class_name, attr_name, literal))
        probe = 1.0
        return probe + matches * 1.0, matches

    def equality_selectivity(self, class_name: str, attr_name: str,
                             literal=None) -> float:
        sim_class = self.schema.get_class(class_name)
        attr = sim_class.attribute(attr_name)
        if attr.options.unique:
            return 1.0 / max(1, self.class_cardinality(class_name))
        if self.statistics is not None:
            collected = self.statistics.attribute(attr.owner_name,
                                                  attr.name)
            if collected is not None and collected.row_count:
                if literal is None:
                    return collected.equality_selectivity()
                literal.pin()   # its value is read: it joins the cache key
                return collected.equality_selectivity(literal.value)
        return DEFAULT_EQ_SELECTIVITY

    def sort_cost(self, record_count: float) -> float:
        """Cost of re-sorting output whose order a strategy broke (§5.1:
        "the cost of reordering/sorting output is added to the cost of a
        strategy")."""
        if record_count <= 1:
            return 0.0
        return SORT_FACTOR * record_count * math.log2(max(record_count, 2.0))
