"""Named, incrementally-maintained materialized derived relations.

Litwin's *Stored and Inherited Relations* motivates the shape: a derived
relation (a hot EVA join like ``advisor`` of ``student``, or the
transitive closure of ``prerequisites``) is worth storing when it is
read far more often than its base relations change.  A
:class:`Materialization` holds the fully-computed relation as plain
dictionaries; the manager serves traversals from it on the read path, and
the store keeps it current with one call per relationship change.

Two kinds:

* ``"join"`` — one EVA's full instance set, both directions
  (``forward``: canonical-side source -> targets, ``reverse``: the
  inverse direction).  Maintained *incrementally*: the store calls
  :meth:`MaterializationManager.eva_changed` for each instance it
  includes or excludes, which applies the single-pair delta under the
  manager's lock.  A delta that disagrees with the stored state (the
  pair already present on add, absent on remove — possible when a
  refresh races a writer) marks the materialization stale instead of
  guessing; staleness converges through the next lazy refresh.
* ``"closure"`` — the transitive closure of an EVA hop chain from every
  entity of the anchor class, stored as the engine's exact
  ``(target, level)`` pair lists.  Any change to a chain relationship
  marks it stale; the next probe refreshes it in place.

Transactional story (tentpole layer 3): deltas apply at write time
inside the owning transaction's statement.  If that transaction aborts
or a statement rolls back, the rollback surgery fires
``TransactionManager.invalidation_hooks``; there, and when the store
crash-recovers, the store clears its read cache and then calls
:meth:`MaterializationManager.mark_all_stale`.  The next read recomputes
from the recovered physical state, which makes maintenance idempotent
through WAL replay.
Snapshot (MVCC) Retrieves never consult materializations at all — the
serve paths check ``store.current_snapshot() is None`` — so epoch
consistency is preserved trivially: snapshot readers pay the version-
chain fold they already paid before this module existed.

Locking: ``mapper.materialized`` is rank 22 — below the unit latches
(42) whose holders call :meth:`eva_changed`, and above
``mapper.read_cache`` (20), which refresh acquires through the store's
read path.  Both orders are descending, so lockdep stays green.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CatalogError
from repro.naming import canon
from repro.storage.latch import ranked_lock


@dataclass
class Materialization:
    """One named derived relation and its stored content."""

    name: str
    kind: str                       # "join" | "closure"
    class_name: str                 # anchor (perspective) class
    eva_names: Tuple[str, ...]      # one EVA (join) or the hop chain (closure)
    #: resolved schema EVAs, anchor-out (set by the manager)
    evas: tuple = ()
    #: canonical rel_ids of every EVA involved (staleness triggers)
    rel_ids: frozenset = frozenset()
    #: join: canonical rel_id this materialization serves
    rel_id: Optional[int] = None
    self_inverse: bool = False
    fresh: bool = False
    refreshes: int = 0
    #: join: canonical-direction source -> target tuple
    forward: Dict[int, tuple] = field(default_factory=dict)
    #: join: inverse-direction source -> target tuple
    reverse: Dict[int, tuple] = field(default_factory=dict)
    #: closure: anchor surrogate -> ((target, level), ...)
    closure: Dict[int, tuple] = field(default_factory=dict)

    def spec(self) -> dict:
        """The declaration, as persisted (content is always recomputed)."""
        return {"name": self.name, "kind": self.kind,
                "class_name": self.class_name,
                "eva_names": list(self.eva_names)}

    def describe(self) -> str:
        chain = " of ".join(reversed(self.eva_names))
        state = "fresh" if self.fresh else "stale"
        if self.kind == "join":
            pairs = sum(len(t) for t in self.forward.values())
            detail = f"{pairs} pairs"
        else:
            chain = f"transitive({chain})"
            pairs = sum(len(t) for t in self.closure.values())
            detail = f"{len(self.closure)} sources, {pairs} reachable"
        return (f"{self.name}: {chain} of {self.class_name} "
                f"[{self.kind}, {state}, {detail}, "
                f"refreshes {self.refreshes}]")


class MaterializationManager:
    """Declares, serves, and maintains a store's materializations.

    The store calls :meth:`eva_changed` for every relationship change
    and :meth:`mark_all_stale` after undo surgery; its hot traversal
    paths probe :meth:`serve_eva` /
    :meth:`serve_closure`, which answer only from *fresh* content and
    bump the ``materialized_hits`` / ``materialized_misses`` counters
    the trace layer renders per statement.
    """

    def __init__(self, store):
        self.store = store
        self.schema = store.schema
        self.perf = store.perf
        self.enabled = True
        self._mats: Dict[str, Materialization] = {}
        #: canonical rel_id -> join materialization (read lock-free on
        #: the hot path; rebuilt-and-swapped under the lock)
        self._by_rel: Dict[int, Materialization] = {}
        #: hop-chain id() signature -> closure materialization
        self._by_chain: Dict[tuple, Materialization] = {}
        #: canonical rel_id -> closure mats invalidated by that rel
        #: (rebuilt wholesale under the lock, read lock-free)
        self._closure_triggers: Dict[int, tuple] = {}
        # Rank 22: above read_cache (20), below the unit latches (42)
        # whose holders make the eva_changed calls applied here.
        self._lock = ranked_lock("mapper.materialized")

    # ---------------------------------------------------------------- lifecycle

    def declare(self, name: str, kind: str, class_name: str,
                eva_names) -> Materialization:
        """Declare (and eagerly build) a named materialization."""
        name = canon(name)
        kind = kind.lower()
        if kind not in ("join", "closure"):
            raise CatalogError(f"unknown materialization kind {kind!r}")
        class_name = canon(class_name)
        if not self.schema.has_class(class_name):
            raise CatalogError(f"unknown class {class_name!r}")
        eva_names = tuple(canon(n) for n in (
            eva_names if isinstance(eva_names, (list, tuple))
            else [eva_names]))
        if kind == "join" and len(eva_names) != 1:
            raise CatalogError("a join materialization names exactly one EVA")
        if not eva_names:
            raise CatalogError("a materialization needs at least one EVA")
        evas = self._resolve_chain(class_name, eva_names)
        mat = Materialization(name, kind, class_name, eva_names, evas=evas)
        mat.rel_ids = frozenset(self.store.eva_info(eva).rel_id
                                for eva in evas)
        if kind == "join":
            info = self.store.eva_info(evas[0])
            mat.rel_id = info.rel_id
            mat.self_inverse = bool(info.self_inverse)
        with self._lock:
            if name in self._mats:
                raise CatalogError(f"materialization {name!r} already exists")
            if kind == "join" and mat.rel_id in self._by_rel:
                raise CatalogError(
                    f"EVA {eva_names[0]!r} is already materialized as "
                    f"{self._by_rel[mat.rel_id].name!r}")
            self._mats[name] = mat
            if kind == "join":
                self._by_rel[mat.rel_id] = mat
            else:
                self._by_chain[self._chain_key(evas)] = mat
                self._rebuild_triggers()
        self.refresh(name)
        return mat

    def _rebuild_triggers(self) -> None:
        triggers: Dict[int, list] = {}
        for mat in self._mats.values():
            if mat.kind != "closure":
                continue
            for rel_id in mat.rel_ids:
                triggers.setdefault(rel_id, []).append(mat)
        self._closure_triggers = {rel_id: tuple(mats)  # noqa: SIM303
                                  for rel_id, mats in triggers.items()}

    def _resolve_chain(self, class_name: str, eva_names) -> tuple:
        evas = []
        cursor = class_name
        for eva_name in eva_names:
            sim_class = self.schema.get_class(cursor)
            if not sim_class.has_attribute(eva_name):
                raise CatalogError(
                    f"class {cursor!r} has no attribute {eva_name!r}")
            attr = sim_class.attribute(eva_name)
            if not attr.is_eva:
                raise CatalogError(
                    f"{eva_name!r} of {cursor!r} is not an EVA")
            evas.append(attr)
            cursor = attr.range_class_name
        return tuple(evas)

    @staticmethod
    def _chain_key(evas) -> tuple:
        return tuple(id(eva) for eva in evas)

    def drop(self, name: str) -> None:
        name = canon(name)
        with self._lock:
            mat = self._mats.pop(name, None)
            if mat is None:
                raise CatalogError(f"unknown materialization {name!r}")
            if mat.kind == "join":
                self._by_rel.pop(mat.rel_id, None)
            else:
                self._by_chain.pop(self._chain_key(mat.evas), None)
                self._rebuild_triggers()

    def get(self, name: str) -> Materialization:
        mat = self._mats.get(canon(name))
        if mat is None:
            raise CatalogError(f"unknown materialization {canon(name)!r}")
        return mat

    def list(self) -> List[Materialization]:
        with self._lock:
            return sorted(self._mats.values(), key=lambda m: m.name)

    def specs(self) -> List[dict]:
        """Declarations for persistence (content never persists: opening
        a database is a restart, and stale-on-restart + lazy refresh is
        what makes maintenance idempotent through WAL replay)."""
        return [mat.spec() for mat in self.list()]

    # ------------------------------------------------------------------ refresh

    def refresh(self, name: str) -> Materialization:
        """Recompute one materialization from the current physical state."""
        mat = self.get(name)
        with self._lock:
            if mat.kind == "join":
                self._refresh_join(mat)
            else:
                self._refresh_closure(mat)
            mat.fresh = True
            mat.refreshes += 1
        trace = self.store.trace
        if trace is not None and trace.enabled:
            trace.event("materialized_refresh", name=mat.name,
                        kind=mat.kind)
        return mat

    def _refresh_join(self, mat: Materialization) -> None:
        store = self.store
        info = store.eva_info(mat.evas[0])
        canonical = info.canonical
        forward: Dict[int, tuple] = {}
        reverse: Dict[int, tuple] = {}
        for source in list(store.scan_class(canonical.owner_name)):
            targets = info.targets(True, source)
            if targets:
                forward[source] = tuple(targets)
                for target in targets:
                    reverse[target] = reverse.get(target, ()) + (source,)
        mat.forward = forward
        mat.reverse = reverse

    def _refresh_closure(self, mat: Materialization) -> None:
        # Recompute with the engine's own BFS so served pair lists are
        # bit-identical to uncached evaluation (ordered-by EVAs included).
        # Serving is disabled for the recompute: the BFS itself probes
        # serve_closure, and answering from the still-stale (or
        # half-built) content here would recurse or lie.
        from repro.engine.access import EntityAccessor
        accessor = EntityAccessor(self.store)
        closure: Dict[int, tuple] = {}
        chain = list(mat.evas)
        with self.disabled():
            for source in list(self.store.scan_class(mat.class_name)):
                closure[source] = tuple(accessor.transitive(source, chain))
        mat.closure = closure

    def mark_all_stale(self) -> None:
        with self._lock:
            for mat in self._mats.values():
                mat.fresh = False

    # ------------------------------------------------------------------ serving

    def serve_eva(self, rel_id: int, side: bool,
                  surrogate: int) -> Optional[tuple]:
        """Targets of one traversal, or None (stale / not materialized).

        Only sound outside snapshot scopes — the *callers* guard on
        ``current_snapshot() is None`` so the check is not paid twice.
        """
        if not self.enabled:
            return None
        mat = self._by_rel.get(rel_id)
        if mat is None:
            return None
        with self._lock:
            if not mat.fresh:
                self.perf.bump("materialized_misses")
                return None
            if mat.self_inverse or side:
                targets = mat.forward.get(surrogate, ())
            else:
                targets = mat.reverse.get(surrogate, ())
        self.perf.bump("materialized_hits")
        return targets

    def serve_closure(self, evas, surrogate: int) -> Optional[tuple]:
        """(target, level) pairs of a closure probe, or None.

        Stale closures auto-refresh on first probe (lazy maintenance):
        the refresh runs under the manager's lock, so concurrent probes
        converge on one recomputation.
        """
        if not self.enabled:
            return None
        mat = self._by_chain.get(self._chain_key(evas))
        if mat is None:
            return None
        with self._lock:
            if not mat.fresh:
                self.perf.bump("materialized_misses")
                self._refresh_closure(mat)
                mat.fresh = True
                mat.refreshes += 1
            pairs = mat.closure.get(surrogate)
        if pairs is None:
            # Entity outside the anchor extent at refresh time (e.g. just
            # inserted): fall back to direct evaluation.
            self.perf.bump("materialized_misses")
            return None
        self.perf.bump("materialized_hits")
        return pairs

    @contextlib.contextmanager
    def disabled(self):
        """Bypass every materialization for the block (the consistency
        checker's sweep must observe physical state only)."""
        # A racing reader that observes the transient False simply falls
        # back to direct evaluation — sound, just a missed hit.
        previous = self.enabled
        self.enabled = False  # noqa: SIM303
        try:
            yield self
        finally:
            self.enabled = previous  # noqa: SIM303

    # ------------------------------------------------------------- maintenance

    def eva_changed(self, rel_id: int, domain_surr: int, range_surr: int,
                    added: bool) -> None:
        """A relationship instance was included (``added``) or excluded.
        DVA writes and role changes reach no materialization: an entity's
        pairs arrive as calls of their own."""
        mat = self._by_rel.get(rel_id)
        if mat is not None:
            with self._lock:
                if mat.fresh:
                    self._apply_join_delta(mat, domain_surr, range_surr,
                                           added)
        for closure_mat in self._closure_triggers.get(rel_id, ()):
            closure_mat.fresh = False

    def _apply_join_delta(self, mat: Materialization, domain_surr: int,
                          range_surr: int, added: bool) -> None:
        if mat.self_inverse:
            # Both directions live in one map; orientation of a removal
            # is ambiguous from the event alone.  Converge via refresh.
            mat.fresh = False
            return
        forward = mat.forward.get(domain_surr, ())
        reverse = mat.reverse.get(range_surr, ())
        if added:
            if range_surr in forward or domain_surr in reverse:
                # The pair exists already: this delta raced a refresh (or
                # the base state drifted).  Guessing would double-count.
                mat.fresh = False
                return
            mat.forward[domain_surr] = forward + (range_surr,)
            mat.reverse[range_surr] = reverse + (domain_surr,)
        else:
            if range_surr not in forward or domain_surr not in reverse:
                mat.fresh = False
                return
            mat.forward[domain_surr] = tuple(t for t in forward
                                             if t != range_surr)
            mat.reverse[range_surr] = tuple(t for t in reverse
                                            if t != domain_surr)

    def __repr__(self):
        fresh = sum(1 for m in self._mats.values() if m.fresh)
        return (f"<MaterializationManager mats={len(self._mats)} "
                f"fresh={fresh}>")
