"""Entity access and range-variable domains.

Wraps the Mapper with the semantics the DML needs:

* reads through role views return NULL / no targets when the entity lacks
  the role (AS conversion, paper §4.2);
* TYPE 3 variables get a dummy all-null instance when their domain is
  empty (§4.5), represented by the :data:`DUMMY` sentinel;
* transitive closure over cyclic EVA chains (§4.7) with level numbers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Tuple

from repro.mapper.store import MapperStore
from repro.types.tvl import NULL, is_null


class _Dummy:
    """Sentinel instance for empty TYPE 3 domains (all attributes null)."""

    def __repr__(self):
        return "DUMMY"

    def __bool__(self):
        return False


DUMMY = _Dummy()


#: memo dictionaries are cleared wholesale past this many entries — memos
#: are cheap to rebuild and an unbounded map would defeat the LRU caches
MEMO_LIMIT = 100_000


class EntityAccessor:
    """Role-aware attribute and relationship access for the engine.

    Reads are memoized per view: the Mapper's read cache bumps its
    ``epoch`` on every invalidation, and a snapshot pinned on this
    thread fixes a commit epoch and a transaction, so one compare per
    *batch call* decides whether the memos are still current.  Repeated
    qualification paths (``Name of Advisor of Student``) therefore decode
    each record once per query — and stay warm across the read-only
    statements of one session, snapshot statements included.
    """

    def __init__(self, store: MapperStore):
        self.store = store
        self.schema = store.schema
        self.perf = store.perf
        self._memo_view = None
        #: one memo per (kind, role/attribute/EVA/node identity), each
        #: mapping an instance to its role record ("rec"), its value
        #: ("dva", subroles and MV DVAs), its value tuple ("mv"), its
        #: target tuple ("eva") or its domain tuple ("domain")
        self._memos = {}
        self._memo_entries = 0
        #: role -> the all-NULL record a non-holder (or the dummy) reads
        self._null_records = {}

    def begin_query(self) -> None:
        """Hook for the executor at query start: revalidate the memos."""
        self._sync()

    def _sync(self) -> None:
        """Drop every memo when the view differs from the last read's —
        the store has mutated, or another snapshot is pinned — or when
        the memos have grown past :data:`MEMO_LIMIT`."""
        snap = self.store.current_snapshot()
        view = (self.store.read_cache.epoch,
                snap and (snap.epoch, snap.txn_id))
        if view != self._memo_view or self._memo_entries > MEMO_LIMIT:
            self._memos.clear()
            self._memo_entries = 0
            self._memo_view = view

    def _lookup(self, kind, key_id, instances, absent):
        """Memo probe shared by the batched readers.

        Returns the cached entry per instance — ``absent`` for dummy and
        null instances, ``None`` where a read is still owed — then
        ``pending``, the distinct uncached instances mapped to the
        positions awaiting them, and the memo to record them in.
        Accounts one hit per cached or repeated instance and one miss
        per pending one: the totals of reading the column one instance
        at a time.  A batch whose every instance is cached — the warm
        path — is one ``itemgetter(*instances)(memo)``, or for a batch
        of one (a point read) one ``memo.get``."""
        memo = self._memos.get((kind, key_id))
        if memo is None:
            memo = self._memos[(kind, key_id)] = {}
        elif len(instances) > 1:
            try:    # no per-instance Python
                found = list(itemgetter(*instances)(memo))
            except KeyError:    # a miss, the dummy or a null instance
                pass
            else:
                self.perf.bump("memo_hits", len(found))
                return found, {}, memo
        found = list(map(memo.get, instances))
        if found and None not in found:     # a batch of one, cached
            self.perf.bump("memo_hits", len(found))
            return found, {}, memo
        pending = {}
        hits = len(found)
        for position, entry in enumerate(found):
            if entry is None:
                instance = instances[position]
                if instance is DUMMY or instance is NULL or instance is None:
                    found[position] = absent
                    hits -= 1
                elif instance in pending:
                    pending[instance].append(position)
                else:
                    pending[instance] = [position]
                    hits -= 1
        if hits:
            self.perf.bump("memo_hits", hits)
        if pending:
            self.perf.bump("memo_misses", len(pending))
            self._memo_entries += len(pending)
        return found, pending, memo

    # -- Attribute access -----------------------------------------------------------

    def dva(self, surrogate, attr):
        """Read a single-valued DVA (or subrole) through a role view.

        Returns NULL for the dummy instance and for entities that do not
        currently hold the attribute's declaring role.
        """
        return self.dva_batch(attr, [surrogate])[0]

    def dva_batch(self, attr, instances) -> List:
        """:meth:`dva` over a column of instances: one epoch check, and
        the field at the attribute's position of each instance's role
        record (:meth:`_records`; §5.2: a role is one record of its
        unit, so every DVA of one role a statement reads, in any
        operator, shares one memo entry per entity).  Subroles, MV
        and entity-valued attributes are memoized per attribute and
        read one by one, holders first."""
        if attr.is_surrogate:
            return [NULL if inst is DUMMY or is_null(inst) else inst
                    for inst in instances]
        self._sync()
        store = self.store
        owner = attr.owner_name
        if not (attr.is_subrole or attr.multi_valued or attr.is_eva):
            position = store.field_positions(owner)[attr.name]
            return list(map(itemgetter(position),
                            self._records(owner, instances)))
        values, pending, memo = self._lookup("dva", id(attr), instances,
                                             NULL)
        if pending:
            resolved = {surrogate: store.read_dva(surrogate, attr)
                        for surrogate in pending
                        if store.has_role(surrogate, owner)}
            for surrogate, positions in pending.items():
                value = resolved.get(surrogate, NULL)
                if isinstance(value, list):
                    # List values (MV subroles) are mutable; leave them
                    # unmemoized, so every read of one is a miss.
                    self.perf.bump("memo_hits", 1 - len(positions))
                    self.perf.bump("memo_misses", len(positions) - 1)
                else:
                    memo[surrogate] = value
                for position in positions:
                    values[position] = value
        return values

    def _records(self, class_name, instances) -> List[tuple]:
        """Each instance's role record in ``class_name`` (canonical), a
        shared tuple — one all-NULL tuple for the dummy, null instances
        and non-holders — the misses through one
        :meth:`MapperStore.fetch_many`.  Callers :meth:`_sync` first."""
        nulls = self._null_records.get(class_name)
        if nulls is None:
            nulls = self._null_records[class_name] = (NULL,) * len(
                self.store.field_positions(class_name))
        records, pending, memo = self._lookup("rec", class_name, instances,
                                              nulls)
        if pending:
            fetched = self.store.fetch_many(class_name, pending)
            for surrogate, positions in pending.items():
                entry = fetched.get(surrogate)
                record = memo[surrogate] = nulls if entry is None \
                    else entry[1]
                for position in positions:
                    records[position] = record
        return records

    def _holders(self, class_name, instances):
        """The ``instances`` (distinct entities) holding the role
        ``class_name``, told by their memoized role records; None
        unless every one is memoized."""
        memo = self._memos.get(("rec", class_name))
        if memo is None:
            return None
        records = list(map(memo.get, instances))
        if None in records:
            return None
        nulls = self._null_records[class_name]
        return [instance for instance, record in zip(instances, records)
                if record is not nulls]

    def _mv_values(self, surrogate, attr) -> tuple:
        """The value multiset of an MV DVA (empty for dummy / missing role)."""
        values, pending, memo = self._lookup("mv", id(attr), [surrogate], ())
        if pending:
            values[0] = memo[surrogate] = tuple(
                self.store.read_dva(surrogate, attr)
                if self.store.has_role(surrogate, attr.owner_name) else ())
        return values[0]

    def eva_targets_batch(self, sources, eva) -> List[tuple]:
        """Target surrogates of an EVA per source entity (empty for dummy
        / missing role), as shared tuples the caller must not mutate.

        Misses traverse the store through one
        :meth:`MapperStore.traverse_eva_batch` call, which also omits
        the sources that do not hold the role — known already when the
        statement memoized their role records.  An EVA declared
        ``ordered by <attr>`` (paper §6: system-maintained ordering)
        returns its targets sorted by that range-class DVA, nulls first;
        ties fall back to surrogate order."""
        self._sync()
        results, pending, memo = self._lookup("eva", id(eva), sources, ())
        if pending:
            holders = self._holders(eva.owner_name, pending)
            traversed = self.store.traverse_eva_batch(
                pending if holders is None else holders, eva,
                held=holders is not None)
            for source, positions in pending.items():
                targets = traversed.get(source, ())
                if eva.options.ordered_by is not None and len(targets) > 1:
                    targets = self._ordered(eva, targets)
                targets = memo[source] = tuple(targets)
                for position in positions:
                    results[position] = targets
        return results

    def _ordered(self, eva, targets) -> List[int]:
        order_attr = self.schema.get_class(
            eva.range_class_name).attribute(eva.options.ordered_by)
        values = dict(zip(targets, self.dva_batch(order_attr, targets)))
        return sorted(targets, key=lambda target: (
            (0, 0, target) if is_null(values[target])
            else (1, values[target], target)))

    def has_role(self, surrogate, class_name: str):
        if surrogate is DUMMY or is_null(surrogate):
            return None  # unknown, not false: dummy has no identity
        return self.store.has_role(surrogate, class_name)

    # -- Transitive closure ------------------------------------------------------------

    def transitive(self, surrogate, evas) -> List[Tuple[int, int]]:
        """Breadth-first transitive closure of an EVA hop chain.

        ``evas`` is one EVA or a list applied in order (§4.7: "any cyclic
        chain of EVAs"; the single reflexive EVA is a chain one element
        long).  Returns (target, level) pairs, level 1 for the first
        composite hop; the start entity is excluded and cycles are cut.
        """
        if surrogate is DUMMY or is_null(surrogate):
            return []
        chain = evas if isinstance(evas, (list, tuple)) else [evas]
        mats = self.store.materialized
        if mats is not None and self.store.current_snapshot() is None:
            served = mats.serve_closure(chain, surrogate)
            if served is not None:
                return list(served)

        def hop(entities):
            for eva in chain:
                entities = [target for targets
                            in self.eva_targets_batch(entities, eva)
                            for target in targets]
            return entities

        results: List[Tuple[int, int]] = []
        visited = {surrogate}
        frontier = [surrogate]
        level = 0
        while frontier:
            level += 1
            next_frontier: List[int] = []
            for target in hop(frontier):
                if target in visited:
                    continue
                visited.add(target)
                results.append((target, level))
                next_frontier.append(target)
            frontier = next_frontier
        return results

    # -- Domains -----------------------------------------------------------------------

    def class_extent(self, class_name: str) -> List[int]:
        return self.store.scan_class(class_name)

    def node_domain(self, node, env):
        """The domain of a non-root query-tree node given its parent's
        instance in ``env`` (paper §4.5: "every other domain is defined
        based on an attribute and a given instance of the range variable of
        its parent node") — :meth:`node_domains_batch` for one binding."""
        return self.node_domains_batch(node, [env[node.parent.id]])[0]

    def node_domains_batch(self, node, parent_instances) -> List[tuple]:
        """The domain of ``node`` per parent instance (the parent node's
        slot values, no env dicts), as shared tuples the caller must not
        mutate.

        A plain EVA node's domain *is* :meth:`eva_targets_batch`, whose
        memo shares a hop across nodes and statements by (EVA, source);
        role conversion (``as_class``) does not narrow it — attribute
        access through the converted view yields NULL instead.  MV-DVA
        and transitive domains are memoized by (``domain_key``, source):
        a hoisted TYPE 2 existential re-entered per outer row, say, is
        enumerated once."""
        parent = node.parent
        if parent.kind == "eva" and parent.transitive:
            # a transitive variable's instances are (value, level) pairs
            parent_instances = [instance[0] if isinstance(instance, tuple)
                                else instance
                                for instance in parent_instances]
        if node.kind != "mvdva" and not node.transitive:
            return self.eva_targets_batch(parent_instances, node.eva)
        self._sync()
        domains, pending, memo = self._lookup(
            "domain", getattr(node, "domain_key", node.id),
            parent_instances, ())
        if pending:
            self.perf.bump("domain_enumerations", len(pending))
            if node.kind == "mvdva":
                resolved = [self._mv_values(source, node.mv_attr)
                            for source in pending]
            else:
                resolved = [tuple(self.transitive(
                    source, node.transitive_evas or node.eva))
                    for source in pending]
            for (source, positions), domain in zip(pending.items(),
                                                   resolved):
                memo[source] = domain
                for position in positions:
                    domains[position] = domain
        return domains

    def root_domain(self, node) -> List[int]:
        return self.class_extent(node.class_name)
