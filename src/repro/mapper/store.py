"""The Mapper runtime: entities, roles, attributes and relationships.

This is the operational half of the LUC Mapper (paper §5.1): it owns the
storage files built from a :class:`~repro.mapper.physical.PhysicalDesign`,
hands out surrogates, and implements the record-level operations the
engine uses — with *structural integrity* maintained here, exactly as the
paper assigns it: "when a record of a superclass LUC is deleted, the
Mapper will automatically delete corresponding subclass records and delete
instances of all EVAs the deleted records participate in."

All mutations register undo closures with the transaction manager, so a
statement or transaction abort restores records and indexes alike.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Tuple

from repro.errors import CatalogError, IntegrityError, UniquenessViolation
from repro.mapper.luc import LUCSchema
from repro.mapper.mappings import (
    EVA_MAPPINGS,
    MV_MAPPINGS,
    SURROGATE_WIDTH,
    EvaStorage,
)
from repro.mapper.materialized import MaterializationManager
from repro.mapper.read_cache import ReadCache
from repro.mapper.physical import PhysicalDesign
from repro.mapper.translate import canonical_eva, translate_schema
from repro.mapper.versions import ABSENT, VersionManager
from repro.naming import canon
from repro.perf import PerfCounters
from repro.storage.latch import ranked_lock
from repro.schema.attribute import EntityValuedAttribute
from repro.schema.schema import Schema
from repro.storage.buffer import BufferPool, Disk
from repro.storage.faults import FaultInjector, RetryPolicy
from repro.storage.files import RecordFile
from repro.storage.index import HashIndex, make_index
from repro.storage.records import RID, RecordFormat, field_width_for_type
from repro.storage.transactions import TransactionManager
from repro.storage.wal import WriteAheadLog, undo_losers
from repro.types.tvl import NULL, is_null

#: index probes a snapshot find tries (the first unlatched, when no
#: writer is in sight) before it scans: ``snapshot_find_scans``
_PROBE_ATTEMPTS = 2
_NO_LATCH = nullcontext()
#: position of the surrogate in every role record (``_build_layout``
#: declares it first)
_SURROGATE = 0


def _in_range(value, low, high, include_low: bool, include_high: bool) -> bool:
    """Range-predicate semantics of the ordered-index path: NULL never
    matches; open bounds are None."""
    if is_null(value):
        return False
    if low is not None:
        if value < low or (value == low and not include_low):
            return False
    if high is not None:
        if value > high or (value == high and not include_high):
            return False
    return True


class _PinnedSnapshot(threading.local):
    """This thread's pinned Snapshot.  With a class-level default the
    unpinned read is a plain attribute load, not a caught AttributeError."""

    snap = None


class MapperStore:
    """Entity-level storage over the block substrate.

    Parameters
    ----------
    schema:
        a resolved :class:`~repro.schema.schema.Schema`.
    design:
        a :class:`PhysicalDesign`; defaults to the paper's default rules.
    """

    def __init__(self, schema: Schema, design: Optional[PhysicalDesign] = None):
        if not schema.resolved:
            raise CatalogError("MapperStore needs a resolved schema")
        self.schema = schema
        self.design = design or PhysicalDesign(schema).finalize()
        self.luc_schema: LUCSchema = translate_schema(schema)
        self.disk = Disk()
        self.wal = WriteAheadLog()
        #: the one counter table of every layer (repro.perf)
        self.perf = PerfCounters()
        self.wal.perf = self.perf
        #: bounded retry-with-backoff for transient device faults; applied
        #: to every buffer-pool disk access, WAL force, and recovery I/O
        self.retry = RetryPolicy(perf=self.perf)
        self.wal.retry = self.retry
        #: optional fault injector (see install_faults)
        self.faults: Optional[FaultInjector] = None
        #: optional trace recorder (see repro.trace.attach_tracing); None
        #: by default so the hot-path guard is a single identity test
        self.trace = None
        #: decoded-record / role / EVA fan-out caches (see read_cache.py)
        self.read_cache = ReadCache(self.perf)
        #: named materialized derived relations; attached lazily by the
        #: first declaration so undeclared stores pay one None test
        self.materialized: Optional[MaterializationManager] = None
        #: MVCC version chains backing snapshot Retrieves (versions.py)
        self.versions = VersionManager()
        self.versions.perf = self.perf
        self._new_pool_and_transactions()
        #: the commit critical section (rank 36): Session.commit takes
        #: this latch around commit_detached so the MVCC epoch bump
        #: (versions.commit), the data-page flush, and the WAL commit
        #: record publish atomically with respect to other commits.
        #: Statement execution does NOT take it — physical safety there
        #: comes from per-unit latches (``RecordFile.latch``, rank 42)
        #: held per mutating operation, plus the session lock protocol:
        #: statements whose unit sets could overlap hold conflicting
        #: class/entity locks and never run concurrently.
        self.commit_latch = ranked_lock("store.commit_latch")
        #: guards the surrogate counter (rank 38): concurrent inserts to
        #: unrelated classes are otherwise free to race the allocator.
        self._surrogate_mutex = ranked_lock("store.surrogates")
        self._snapshots = _PinnedSnapshot()

        self._file_counter = 0
        self._format_counter = 0
        self._files: Dict[str, RecordFile] = {}

        self._class_file: Dict[str, RecordFile] = {}
        self._class_format: Dict[str, int] = {}
        #: class -> field name -> position in its role record tuple
        self._positions: Dict[str, Dict[str, int]] = {}
        self._surrogate_index: Dict[str, object] = {}
        self._unique_index: Dict[Tuple[str, str], HashIndex] = {}
        self._value_index: Dict[Tuple[str, str], HashIndex] = {}
        #: class -> [(attr, position, index)] over both dicts above, for
        #: the role mutators that maintain every index of one class
        self._class_indexes: Dict[str, List[Tuple[str, int, object]]] = {}
        #: (class, attr) -> its MV DVA's storage object (mappings.py)
        self._mvs: Dict[Tuple[str, str], object] = {}
        #: canonical (owner, name) -> the EVA pair's storage object
        self._evas: Dict[Tuple[str, str], EvaStorage] = {}
        self._next_surrogate = 1
        self._build_layout()

    # ------------------------------------------------------------------ layout

    def _new_pool_and_transactions(self, start_after: int = 0) -> None:
        """The buffer pool and the transaction manager with every hook
        the store hangs on them — at open, and afresh after a crash."""
        self.pool = BufferPool(self.disk, self.design.pool_capacity)
        self.pool.wal = self.wal
        self.pool.retry = self.retry
        self.pool.trace = self.trace
        self.pool.perf = self.perf
        self.transactions = TransactionManager(
            self.pool, wal=self.wal, start_after=start_after)
        self.transactions.perf = self.perf
        # Rollback surgery (abort or statement-level rollback_to) restores
        # state through raw file/index operations; the hook guarantees no
        # cached or materialized state survives it.
        self.transactions.invalidation_hooks.append(self._discard_derived)
        self.transactions.commit_hooks.append(self.versions.commit)
        self.transactions.abort_hooks.append(self.versions.abort)

    def _new_file(self, name: str) -> RecordFile:
        self._file_counter += 1
        record_file = RecordFile(self._file_counter, name, self.pool,
                                 self.design.block_size)
        record_file.wal = self.wal
        record_file.txn_context = self.transactions.txn_context
        self._files[name] = record_file
        return record_file

    def _new_format(self, record_file: RecordFile, name: str,
                    fields: Dict[str, int]) -> int:
        self._format_counter += 1
        record_file.register_format(
            RecordFormat(self._format_counter, name, fields))
        return self._format_counter

    def _build_layout(self) -> None:
        # Storage units for classes.
        for base in self.schema.base_classes():
            shared_file = None
            for class_name in [base.name] + self.schema.graph.descendants(base.name):
                if self.design.class_in_shared_unit(class_name):
                    if shared_file is None:
                        shared_file = self._new_file(f"unit--{base.name}")
                    self._class_file[class_name] = shared_file
                else:
                    self._class_file[class_name] = self._new_file(
                        f"unit--{class_name}")

        # Record formats and MV DVA units.
        for sim_class in self.schema.classes():
            class_name = sim_class.name
            fields = {"surrogate": SURROGATE_WIDTH}
            for attr in sim_class.immediate_attributes.values():
                if attr.is_eva or attr.is_subrole or attr.is_surrogate:
                    continue
                if attr.single_valued:
                    fields[attr.name] = field_width_for_type(attr.data_type)
                    continue
                mv = MV_MAPPINGS[self.design.mv_dva_mapping(attr)](
                    self, class_name, attr)
                mv.build(fields)
                self._mvs[(class_name, attr.name)] = mv
            # Foreign-key / pointer fields are added when EVAs are laid
            # out below, so the format is registered afterwards.
            sim_class._scratch_fields = fields

        # EVA structures (may add fields to class formats).
        for sim_class in self.schema.classes():
            for eva in sim_class.immediate_evas():
                canonical = canonical_eva(eva)
                key = (canonical.owner_name, canonical.name)
                if key not in self._evas:
                    self._evas[key] = info = EVA_MAPPINGS[
                        self.design.eva_mapping(canonical)](
                            self, canonical, len(self._evas) + 1)
                    info.build()

        # Now freeze class formats.
        for sim_class in self.schema.classes():
            class_name = sim_class.name
            record_file = self._class_file[class_name]
            format_id = self._new_format(record_file, f"rec--{class_name}",
                                         sim_class._scratch_fields)
            self._class_format[class_name] = format_id
            self._positions[class_name] = record_file.formats[
                format_id].positions
            del sim_class._scratch_fields
        self._build_indexes()

    def _build_indexes(self) -> None:
        """(Re)create every volatile index, empty, and zero the counters
        kept beside them.  Layout and crash recovery both come through
        here, so they can never disagree about an index's name or kind."""
        kind = self.design.surrogate_key_kind.value
        for sim_class in self.schema.classes():
            class_name = sim_class.name
            self._surrogate_index[class_name] = make_index(
                kind, f"surr--{class_name}", unique=True)
            for attr in sim_class.immediate_attributes.values():
                if (attr.options.unique and not attr.is_eva
                        and not attr.is_subrole and not attr.is_surrogate):
                    self._unique_index[(class_name, attr.name)] = HashIndex(
                        f"uniq--{class_name}--{attr.name}", unique=True)
        for key in self.design.value_indexes():
            if key not in self._unique_index:
                self._value_index[key] = make_index(
                    self.design.value_index_kind(*key),
                    f"val--{key[0]}--{key[1]}")
        self._class_indexes = {name: [] for name in self._class_file}
        for group in (self._unique_index, self._value_index):
            for (class_name, attr_name), index in group.items():
                self._class_indexes[class_name].append(
                    (attr_name, self._positions[class_name][attr_name],
                     index))
        for storage in (*self._mvs.values(), *self._evas.values()):
            storage.new_indexes()

    # ------------------------------------------------------------- identities

    def new_surrogate(self) -> int:
        """Allocate the next system surrogate (unique, never reused)."""
        with self._surrogate_mutex:
            surrogate = self._next_surrogate
            self._next_surrogate += 1
        self.transactions.record_undo(lambda: None)
        return surrogate

    def eva_info(self, eva: EntityValuedAttribute) -> EvaStorage:
        """The pair's storage object (one per pair, for the store's life)."""
        canonical = canonical_eva(eva)
        return self._evas[(canonical.owner_name, canonical.name)]

    def mv_info(self, attr):
        """The MV DVA's storage object (``ArrayMv`` or ``UnitMv``)."""
        return self._mvs[(attr.owner_name, attr.name)]

    def class_file(self, class_name: str) -> RecordFile:
        return self._class_file[canon(class_name)]

    # ---------------------------------------------------------- MVCC snapshots

    def begin_snapshot(self, txn_id: Optional[int] = None):
        """Pin a read view at the current commit epoch.  ``txn_id`` is
        the reader's own open transaction, so it sees its uncommitted
        writes."""
        return self.versions.begin_snapshot(txn_id)

    def end_snapshot(self, snap) -> None:
        self.versions.end_snapshot(snap)

    def enable_history(self) -> None:
        """Temporal data (paper §6): stage pre-images and never prune
        them, so every commit epoch from here on stays readable through
        :meth:`as_of`.  Like the chains themselves the history is
        volatile: a crash loses it."""
        self.versions.retain = True

    def as_of(self, epoch: int):
        """Route this thread's reads through the state committed at
        ``epoch`` — the read protocol under a pin, nothing else."""
        return self.snapshot_scope(self.versions.pin(epoch))

    def change_epochs(self, surrogate: int) -> List[int]:
        """The commit epochs at which any read unit of this entity — a
        role record, a separate-unit MV DVA, a side of an EVA — changed."""
        keys = [("rec", name, surrogate) for name in self._class_file]
        keys += [("mv", owner, name, surrogate) for owner, name in self._mvs]
        keys += [("fan", info.rel_id, side, surrogate)
                 for info in self._evas.values() for side in (True, False)]
        return self.versions.change_epochs(keys)

    def current_snapshot(self):
        """The Snapshot pinned on this thread, or None (physical reads)."""
        return self._snapshots.snap

    @contextmanager
    def snapshot_scope(self, snap):
        """Route this thread's reads through ``snap`` for the duration of
        the block (nestable: the enclosing scope is restored on exit)."""
        previous = self._snapshots.snap
        self._snapshots.snap = snap
        try:
            yield snap
        finally:
            self._snapshots.snap = previous

    # -- the read protocol -------------------------------------------------------
    #
    # Every read of versioned state is ``_read_many`` (``_read`` is its
    # one-key case) over one of three physical batch primitives —
    # ``_role_records``/``_role_rids``, ``UnitMv.values``, ``_fanouts`` —
    # and the writers' pre-image staging (``_stage``) calls the same
    # primitives, so whoever asks, a unit is read by one piece of code.

    def _read(self, prefix: tuple, surrogate: int, primitive, *args):
        """:meth:`_read_many` for the one key ``prefix + (surrogate,)``."""
        return self._read_many(prefix, (surrogate,), primitive,
                               *args)[surrogate]

    def _read_many(self, prefix: tuple, surrogates, primitive,
                   *args) -> dict:
        """``surrogate -> what primitive(*args, surrogates)`` reads for
        it, as of this thread's view, under the version keys ``prefix +
        (surrogate,)``.  ``surrogates`` are distinct; the batch
        primitive answers for every one of them.

        With no snapshot pinned that is the primitive's own answer.
        Under a snapshot: probe every key; run the primitive once on
        the misses; probe those again.  Writers stage a unit's
        pre-image BEFORE mutating it, so a mutation racing the read is
        always visible to the second probe: a hit is the staged
        pre-image, the primitive's answer at staging, and a second miss
        proves that what was read is the snapshot's state — or that its
        writer aborted, which leaves no entry but moves
        ``versions.aborts``: then the double misses are read again.
        When the primitive raises (a writer reshaped a unit), the keys
        left after the second probe are read again if it resolved any
        of them; the error is the answer only when every key missed
        both probes and nothing aborted."""
        snap = self.current_snapshot()
        if snap is None:
            return primitive(*args, surrogates)
        versions = self.versions
        found = {}
        pending = surrogates
        while True:
            aborts = versions.aborts
            missed = []
            for surrogate in pending:
                hit, pre = versions.lookup(snap, prefix + (surrogate,))
                if hit:
                    found[surrogate] = pre
                else:
                    missed.append(surrogate)
            if not missed:
                return found
            read = error = None
            try:
                read = primitive(*args, missed)
            except Exception as exc:    # a writer reshaped a unit
                error = exc
            pending = []
            for surrogate in missed:
                hit, pre = versions.lookup(snap, prefix + (surrogate,))
                if hit:
                    found[surrogate] = pre
                else:
                    pending.append(surrogate)
            if versions.aborts != aborts:
                continue
            if error is None:
                for surrogate in pending:
                    found[surrogate] = read[surrogate]
                return found
            if len(pending) == len(missed):
                raise error

    def _role_rids(self, class_name: str, surrogates) -> dict:
        """Batch primitive: each entity's role membership, ``(rid,
        None)`` or :data:`ABSENT` — one role-cache probe for the batch,
        the surrogate index for its misses only, one fill.  Like every
        fill, it is validated against the epoch captured before the
        first read it depends on."""
        cache = self.read_cache
        epoch = cache.epoch
        rids, missing = cache.get_role_batch(class_name, surrogates)
        if missing:
            lookup = self._surrogate_index[class_name].lookup_one
            looked = {surrogate: lookup(surrogate) for surrogate in missing}
            cache.put_role_batch(class_name, looked, epoch)
            rids.update(looked)
        return {surrogate: ABSENT if rid is None else (rid, None)
                for surrogate, rid in rids.items()}

    def _role_records(self, class_name: str, surrogates) -> dict:
        """Batch primitive: each entity's role record, ``(rid, record)``
        or :data:`ABSENT` — one record-cache probe for the batch,
        :meth:`_role_rids` for its misses, one
        :meth:`RecordFile.read_many` over the holders' RIDs (a block at
        a time, in block order) and one fill."""
        cache = self.read_cache
        epoch = cache.epoch
        found, missing = cache.get_record_batch(class_name, surrogates)
        if not missing:
            return found
        held = []
        for surrogate, entry in self._role_rids(class_name,
                                                missing).items():
            if entry is ABSENT:
                found[surrogate] = ABSENT
            else:
                held.append((surrogate, entry[0]))
        if held:
            slots = self._class_file[class_name].read_many(
                [rid for _, rid in held])
            decoded = {surrogate: (rid, slot[1])
                       for (surrogate, rid), slot in zip(held, slots)}
            self.perf.bump("records_decoded", len(decoded))
            trace = self.trace
            if trace is not None and trace.enabled:
                trace.count(f"mapper.decoded[{class_name}]", len(decoded))
            cache.put_record_batch(class_name, decoded, epoch)
            found.update(decoded)
        return found

    def _fanouts(self, info: EvaStorage, side: bool, surrogates) -> dict:
        """Batch primitive: one side of an EVA's fan-out per surrogate,
        whatever its physical mapping — one fan-out cache probe for the
        batch, then fresh join materializations, then one
        :meth:`EvaStorage.targets_many` over what is left, one fill."""
        cache = self.read_cache
        epoch = cache.epoch
        found, missing = cache.get_fanout_batch(info.rel_id, side,
                                                surrogates)
        if not missing:
            return found
        # A traversal that reads through this thread's view
        # (``info.reads_view``) may describe a snapshot's epoch, not
        # physical state: under a snapshot it is returned, not cached.
        # Materializations track the latest state only.
        latest = self.current_snapshot() is None
        if latest and self.materialized is not None:
            serve, unserved = self.materialized.serve_eva, []
            for surrogate in missing:
                served = serve(info.rel_id, side, surrogate)
                if served is None:
                    unserved.append(surrogate)
                else:
                    found[surrogate] = served
            missing = unserved
        if missing:
            traversed = {surrogate: tuple(targets) for surrogate, targets
                         in info.targets_many(side, missing).items()}
            if latest or not info.reads_view:
                cache.put_fanout_batch(info.rel_id, side, traversed, epoch)
            found.update(traversed)
        return found

    # -- pre-image staging (writer side) -----------------------------------------

    def _stage(self, prefix: tuple, surrogate: int, primitive, *args) -> None:
        """Stage the pre-image of the key ``prefix + (surrogate,)`` —
        what its batch primitive reads for it now — ahead of this
        transaction's first mutation of the unit.  That ordering is
        what makes :meth:`_read_many`'s second probe sufficient.

        Skipped during rollback: undo compensation restores exactly the
        physical state the pending pre-images describe, so staging it
        would be circular.  An auto-committed write (no transaction
        active) that nobody is pinned to watch reads no pre-image
        (``VersionManager.unwatched_commit``)."""
        txn_id, rolling_back = self.transactions.txn_context()
        if rolling_back or txn_id is None and self.versions.unwatched_commit():
            return
        key = prefix + (surrogate,)
        if self.versions.is_staged(key):
            return
        self.versions.stage(txn_id, key,
                            primitive(*args, (surrogate,))[surrogate])

    def _stage_record(self, class_name: str, surrogate: int) -> None:
        """Stage a role record — and with it the entity's membership of
        the class, which a record's presence is."""
        self._stage(("rec", class_name), surrogate, self._role_records,
                    class_name)

    def _stage_fan(self, info: EvaStorage, domain_surr: int,
                   range_surr: int) -> None:
        """Stage the fan-out pre-images an include/exclude is about to
        change — one key per affected (side, surrogate)."""
        # Self-inverse EVAs serve both directions from one cache side.
        for side, surrogate in dict.fromkeys((
                (True, domain_surr), (info.self_inverse, range_surr))):
            try:
                self._stage(("fan", info.rel_id, side), surrogate,
                            self._fanouts, info, side)
            except IntegrityError:
                # The entity has no record on the side that holds the key
                # (e.g. EXCLUDE against a missing role): its fan cannot
                # change, so there is nothing to stage.
                pass

    # ------------------------------------------------------------------- roles

    def has_role(self, surrogate: int, class_name: str) -> bool:
        """Does the entity hold the role?  ``class_name`` must be
        canonical, as every schema-resolved name is."""
        return self._read(("rec", class_name), surrogate, self._role_rids,
                          class_name) is not ABSENT

    def roles_of(self, surrogate: int, base_class: str) -> List[str]:
        """All classes in the hierarchy where the entity currently has a
        record, superclasses first."""
        base = canon(base_class)
        names = [base] + self.schema.graph.descendants(base)
        return [n for n in names if self.has_role(surrogate, n)]

    def add_role(self, surrogate: int, class_name: str,
                 values: Optional[Dict[str, object]] = None) -> RID:
        """Create the entity's record in ``class_name``'s LUC.

        ``values`` maps *immediate* single-valued DVA names (and array MV
        DVAs, as tuples) to values; unset fields are null.  Superclass
        roles must already exist (the engine inserts them in topological
        order).
        """
        class_name = canon(class_name)
        sim_class = self.schema.get_class(class_name)
        if self.has_role(surrogate, class_name):
            raise IntegrityError(
                f"entity {surrogate} already has role {class_name!r}")
        for super_name in sim_class.superclass_names:
            if not self.has_role(surrogate, super_name):
                raise IntegrityError(
                    f"entity {surrogate} lacks superclass role {super_name!r}")
        record_file = self._class_file[class_name]
        format_id = self._class_format[class_name]
        positions = self._positions[class_name]
        record = [NULL] * len(positions)
        record[_SURROGATE] = surrogate
        for attr_name, value in (values or {}).items():
            attr_name = canon(attr_name)
            if attr_name not in positions:
                raise CatalogError(
                    f"{class_name!r} record has no field {attr_name!r}")
            record[positions[attr_name]] = value
        record = tuple(record)

        near = self._cluster_anchor(surrogate, sim_class)
        with record_file.latch:
            # Check, then mutate (as _write_field does): when a unique
            # value is taken nothing has been staged or stored, so there
            # is nothing for the statement's rollback to miss.
            for attr_name, position, index in self._class_indexes[class_name]:
                value = record[position]
                if (index.unique and not is_null(value)
                        and index.lookup_one(value) is not None):
                    raise UniquenessViolation(
                        f"{class_name}.{attr_name} = {value!r} already used")
            self._stage_record(class_name, surrogate)
            rid = record_file.insert(format_id, record, near=near)
            self._surrogate_index[class_name].insert(surrogate, rid)
            # The role check above cached a negative membership.
            self.read_cache.invalidate_role(class_name, surrogate)
            self._index_record(class_name, record, rid)

        def undo():
            self._drop_role_record(surrogate, class_name)
        self.transactions.record_undo(undo)
        return rid

    def _cluster_anchor(self, surrogate: int, sim_class) -> Optional[RID]:
        """When the class shares a unit with its superclass chain, place the
        new role record next to the entity's nearest existing record."""
        record_file = self._class_file[sim_class.name]
        current = sim_class
        while current.superclass_names:
            parent = self.schema.get_class(current.superclass_names[0])
            if self._class_file.get(parent.name) is not record_file:
                break
            rid = self._surrogate_index[parent.name].lookup_one(surrogate)
            if rid is not None:
                return rid
            current = parent
        return None

    def remove_role(self, surrogate: int, class_name: str) -> None:
        """Remove a role; cascades to subclass roles, EVA instances and MV
        DVA values (structural integrity, paper §5.1)."""
        class_name = canon(class_name)
        if not self.has_role(surrogate, class_name):
            raise IntegrityError(
                f"entity {surrogate} has no role {class_name!r}")
        affected = [class_name] + [
            d for d in self.schema.graph.descendants(class_name)
            if self.has_role(surrogate, d)]
        # Subclasses first.
        for name in sorted(affected, key=lambda n: -self.schema.get_class(n).level):
            self._remove_single_role(surrogate, name)

    def _remove_single_role(self, surrogate: int, class_name: str) -> None:
        sim_class = self.schema.get_class(class_name)
        # Drop EVA instances where a removed role is either endpoint.
        for eva in sim_class.immediate_evas():
            for target in list(self.eva_targets(surrogate, eva)):
                self.eva_exclude(surrogate, eva, target)
        # Drop MV DVA values stored outside the record.
        for attr_name in sim_class.immediate_attributes:
            mv = self._mvs.get((class_name, attr_name))
            if mv is not None:
                mv.clear(surrogate)
        rid, format_id, record = self._drop_role_record(surrogate, class_name)

        def undo():
            self._restore_role_record(surrogate, class_name, rid, format_id,
                                      record)
        self.transactions.record_undo(undo)

    def _drop_role_record(self, surrogate: int, class_name: str
                          ) -> Tuple[RID, int, tuple]:
        self._stage_record(class_name, surrogate)
        record_file = self._class_file[class_name]
        index = self._surrogate_index[class_name]
        with record_file.latch:
            rid = index.lookup_one(surrogate)
            if rid is None:
                raise IntegrityError(
                    f"entity {surrogate} has no role {class_name!r}")
            record = record_file.delete(rid)
            index.delete(surrogate, rid)
            self.read_cache.invalidate_role(class_name, surrogate)
            for _, position, index in self._class_indexes[class_name]:
                if not is_null(record[position]):
                    index.delete(record[position], rid)
        return rid, self._class_format[class_name], record

    def _index_record(self, class_name: str, record: tuple,
                      rid: RID) -> None:
        """Enter a role record into every unique and value index of its
        class (NULLs are not indexed)."""
        for _, position, index in self._class_indexes[class_name]:
            if not is_null(record[position]):
                index.insert(record[position], rid)

    def _restore_role_record(self, surrogate: int, class_name: str, rid: RID,
                             format_id: int, record: tuple) -> None:
        """Undo path: put a dropped role record back at its original RID so
        that RIDs held by indexes and undo closures stay valid."""
        record_file = self._class_file[class_name]
        with record_file.latch:
            record_file.undelete(rid, format_id, record)
            self._surrogate_index[class_name].insert(surrogate, rid)
            self.read_cache.invalidate_role(class_name, surrogate)
            self._index_record(class_name, record, rid)

    def insert_entity(self, class_name: str,
                      values: Optional[Dict[str, object]] = None) -> int:
        """Convenience: create a new entity with all roles from the base
        class down to ``class_name``, distributing ``values`` to the classes
        that declare them.  EVAs and engine-level checks are NOT handled
        here — this is the Mapper-level path used by tests and benchmarks;
        DML INSERT goes through the engine."""
        class_name = canon(class_name)
        sim_class = self.schema.get_class(class_name)
        base = sim_class.base_class_name
        chain = ([base] + list(self.schema.graph.insertion_path(
                     base, class_name))
                 if class_name != base else [base])
        by_class: Dict[str, Dict[str, object]] = {c: {} for c in chain}
        deferred_mv: List[Tuple[object, List[object]]] = []
        for attr_name, value in (values or {}).items():
            attr = sim_class.attribute(attr_name)
            if attr.is_eva:
                raise CatalogError(
                    "insert_entity handles DVAs only; use eva_include")
            owner = canon(attr.owner_name)
            if owner not in by_class:
                raise CatalogError(
                    f"attribute {attr_name!r} belongs to {owner!r}, outside "
                    f"the insertion chain {chain}")
            mv = self._mvs.get((owner, attr.name))
            if mv is None:
                by_class[owner][attr.name] = value
            elif mv.in_record:
                by_class[owner][attr.name] = mv.encode(value)
            else:
                deferred_mv.append((mv, list(value)))
        surrogate = self.new_surrogate()
        for name in chain:
            self.add_role(surrogate, name, by_class[name])
        for mv, items in deferred_mv:
            for item in items:
                mv.include(surrogate, item)
        return surrogate

    # ------------------------------------------------------------------ DVAs

    def record_of(self, surrogate: int, class_name: str
                  ) -> Tuple[RID, tuple]:
        """The entity's role record ``(rid, record)``: the tuple its slot
        holds, in field order (:meth:`field_positions`), shared with the
        block, the cache and any version chain — no copy is needed,
        because no one can change it."""
        class_name = canon(class_name)
        entry = self._read(("rec", class_name), surrogate,
                           self._role_records, class_name)
        if entry is ABSENT:
            raise IntegrityError(
                f"entity {surrogate} has no role {class_name!r}")
        return entry

    def fetch_many(self, class_name: str, surrogates
                   ) -> Dict[int, Tuple[RID, tuple]]:
        """Batched :meth:`record_of` over the holders of the role: the
        decoded records of the ``surrogates`` that hold it, the others
        omitted.  The misses resolve as one set (:meth:`_read_many`
        over :meth:`_role_records`): one cache probe, then their role
        records a block at a time — the read that decodes a record is
        the one that says whether the entity holds the role.
        ``class_name`` must be canonical."""
        entries = self._read_many(("rec", class_name),
                                  list(dict.fromkeys(surrogates)),
                                  self._role_records, class_name)
        return {surrogate: entry for surrogate, entry in entries.items()
                if entry is not ABSENT}

    def field_positions(self, class_name: str) -> Dict[str, int]:
        """Field name -> position in the class's role record tuple (one
        lookup per batch, then plain indexing per record).
        ``class_name`` must be canonical."""
        return self._positions[class_name]

    def read_dva(self, surrogate: int, attr):
        """Read a DVA (single value, or list for MV)."""
        owner = canon(attr.owner_name)
        if attr.is_subrole:
            return self._read_subrole(surrogate, attr)
        if attr.is_surrogate:
            return surrogate
        if attr.single_valued:
            _, record = self.record_of(surrogate, owner)
            return record[self._positions[owner][attr.name]]
        return self._mvs[(owner, attr.name)].read(surrogate)

    def _read_subrole(self, surrogate: int, attr):
        roles = [name for name in attr.subclass_names
                 if self.has_role(surrogate, canon(name))]
        if attr.multi_valued:
            return [canon(r) for r in roles]
        return canon(roles[0]) if roles else NULL

    def write_dva(self, surrogate: int, attr, value) -> None:
        """Write a single-valued DVA (or replace an array MV DVA)."""
        if attr.is_subrole or attr.is_surrogate:
            raise IntegrityError(
                f"attribute {attr.name!r} is system-maintained and read-only")
        if attr.multi_valued:
            self.mv_info(attr).write(surrogate, value)
            return
        self._write_field(surrogate, canon(attr.owner_name), attr.name, value,
                          maintain_indexes=True)

    def _write_field(self, surrogate: int, class_name: str, field: str,
                     value, maintain_indexes: bool = False) -> None:
        with self._class_file[class_name].latch:
            self._stage_record(class_name, surrogate)
            rid, record = self.record_of(surrogate, class_name)
            old = record[self._positions[class_name][field]]
            if maintain_indexes:
                unique_index = self._unique_index.get((class_name, field))
                if unique_index is not None:
                    if not is_null(value):
                        existing = unique_index.lookup_one(value)
                        if existing is not None and existing != rid:
                            raise UniquenessViolation(
                                f"{class_name}.{field} = {value!r} "
                                f"already used")
                    if not is_null(old):
                        unique_index.delete(old, rid)
                    if not is_null(value):
                        unique_index.insert(value, rid)
                value_index = self._value_index.get((class_name, field))
                if value_index is not None:
                    if not is_null(old):
                        value_index.delete(old, rid)
                    if not is_null(value):
                        value_index.insert(value, rid)
            self._class_file[class_name].update(rid, {field: value})
            self.read_cache.invalidate_record(class_name, surrogate)

        def undo():
            self._write_field(surrogate, class_name, field, old,
                              maintain_indexes=maintain_indexes)
        self.transactions.record_undo(undo)

    def mv_include(self, surrogate: int, attr, value) -> None:
        """INCLUDE one value into an MV DVA."""
        self.mv_info(attr).include(surrogate, value)

    def mv_exclude(self, surrogate: int, attr, value) -> bool:
        """EXCLUDE one occurrence of ``value``; returns True when found."""
        return self.mv_info(attr).exclude(surrogate, value)

    # ------------------------------------------- materialized derived relations

    def attach_materializations(self) -> MaterializationManager:
        """Return the store's materialization manager, creating it on
        first use."""
        if self.materialized is None:
            self.materialized = MaterializationManager(self)
        return self.materialized

    def _discard_derived(self) -> None:
        """Undo surgery or crash recovery rewrote state under every
        derived representation: drop the read cache, then mark every
        materialization stale (the cache first, so no materialization
        refreshes from entries the cache still serves stale)."""
        self.read_cache.clear()
        if self.materialized is not None:
            self.materialized.mark_all_stale()

    # ------------------------------------------------------------------- EVAs

    def eva_targets(self, surrogate: int, eva: EntityValuedAttribute
                    ) -> List[int]:
        """Surrogates related to ``surrogate`` through ``eva``.

        Works from either side of the pair; the Mapper "assumes the
        responsibility of traversing a relationship, no matter how it is
        physically mapped" (§5.1).
        """
        info, side = self._eva_side(eva)
        return list(self._read(("fan", info.rel_id, side), surrogate,
                               self._fanouts, info, side))

    def _eva_side(self, eva: EntityValuedAttribute
                  ) -> Tuple[EvaStorage, bool]:
        """The pair's bookkeeping and which of its cache sides ``eva``
        reads (a self-inverse EVA has only the one)."""
        info = self.eva_info(eva)
        return info, bool(info.self_inverse or eva is info.canonical)

    def traverse_eva_batch(self, surrogates, eva: EntityValuedAttribute
                           ) -> Dict[int, List[int]]:
        """Batched :meth:`eva_targets` over the holders of ``eva``'s
        role among ``surrogates`` (the others omitted, as
        :meth:`fetch_many` omits them): one membership read and one
        fan-out read for the batch (:meth:`_read_many` over
        :meth:`_role_rids` and :meth:`_fanouts`).  Cache counters are
        identical to individual calls."""
        info, side = self._eva_side(eva)
        owner = eva.owner_name
        surrogates = list(dict.fromkeys(surrogates))
        roles = self._read_many(("rec", owner), surrogates,
                                self._role_rids, owner)
        holders = [surrogate for surrogate in surrogates
                   if roles[surrogate] is not ABSENT]
        fanouts = self._read_many(("fan", info.rel_id, side), holders,
                                  self._fanouts, info, side)
        return {surrogate: list(targets)
                for surrogate, targets in fanouts.items()}

    def _surrogates_at(self, class_name: str, rids) -> List[int]:
        """Surrogates of the ``class_name`` records at ``rids`` (what an
        index over the class's records selected), read a block at a
        time."""
        return [slot[1][_SURROGATE] for slot in
                self._class_file[class_name].read_many(list(rids))]

    def eva_include(self, surrogate: int, eva: EntityValuedAttribute,
                    target: int) -> None:
        """Add one relationship instance (from ``eva``'s side of the pair)."""
        info, side = self._eva_side(eva)
        domain_surr, range_surr = ((surrogate, target) if side
                                   else (target, surrogate))
        self._require_role(domain_surr, info.canonical.owner_name)
        self._require_role(range_surr, info.canonical.range_class_name)
        self._stage_fan(info, domain_surr, range_surr)
        info.include(domain_surr, range_surr)
        self._counted(info, domain_surr, range_surr, +1)

    def eva_exclude(self, surrogate: int, eva: EntityValuedAttribute,
                    target: int) -> bool:
        """Remove one relationship instance; returns True when one existed."""
        info, side = self._eva_side(eva)
        domain_surr, range_surr = ((surrogate, target) if side
                                   else (target, surrogate))
        self._stage_fan(info, domain_surr, range_surr)
        # A self-inverse instance is stored in whichever orientation it
        # was included.
        removed = (info.exclude(domain_surr, range_surr)
                   or (info.self_inverse
                       and info.exclude(range_surr, domain_surr)))
        if removed:
            self._counted(info, domain_surr, range_surr, -1)
        return removed

    def _counted(self, info: EvaStorage, domain_surr: int, range_surr: int,
                 delta: int) -> None:
        """Adjust the pair's instance count (an abort takes it back),
        drop the cached fan-outs of both endpoints and hand the change to
        the materializations."""
        info.instance_count += delta

        def undo():
            info.instance_count -= delta
        self.transactions.record_undo(undo)
        self.read_cache.invalidate_eva(info.rel_id, domain_surr, range_surr)
        if self.materialized is not None:
            self.materialized.eva_changed(info.rel_id, domain_surr,
                                          range_surr, added=delta > 0)

    def _require_role(self, surrogate: int, class_name: str) -> None:
        if not self.has_role(surrogate, class_name):
            raise IntegrityError(
                f"entity {surrogate} is not a member of {class_name!r}")

    # ------------------------------------------------------------------- scans

    def scan_class(self, class_name: str) -> List[int]:
        """All surrogates with the given role, in block (physical) order,
        as one list: a comprehension per block of
        :meth:`RecordFile.scan_blocks`, no generator frame per entity.

        Note that scanning a class in a shared variable-format unit visits
        every block of the hierarchy's unit — the space/scan trade-off of
        the merged mapping.
        """
        class_name = canon(class_name)
        record_file = self._class_file[class_name]
        format_id = self._class_format[class_name]
        snap = self.current_snapshot()
        while True:
            aborts = self.versions.aborts
            found = []
            for records in record_file.scan_blocks(format_id):
                found += [record[_SURROGATE] for record in records]
            if snap is None:
                return found
            # Scanned physically FIRST, now read the records changed
            # since the pin: writers stage before mutating, so a change
            # racing the scan is among them — or was aborted meanwhile:
            # scan again.  Unchanged survivors keep their physical order,
            # the changed ones the scan missed follow by surrogate, and
            # the versioned role read decides each changed one.
            changed = self.versions.changed(snap, (class_name,))
            if changed:
                found += sorted(changed.difference(found))
                found = [s for s in found if s not in changed
                         or self.has_role(s, class_name)]
            if self.versions.aborts == aborts:
                return found

    def class_count(self, class_name: str) -> int:
        """Entities holding the role in this thread's view: the
        surrogate index's entry count, and under a snapshot that count
        corrected by the records changed since the pin (``versions.
        changed``) — those the index holds leave it, those the snapshot
        still sees come back.  O(changes), never a scan."""
        class_name = canon(class_name)
        index = self._surrogate_index[class_name]
        snap = self.current_snapshot()
        if snap is None:
            return index.entries
        # Role writers stage, then mutate the index under the unit latch
        # (an abort restores it there before its pre-images go): inside,
        # ``changed`` covers all the index differs from the snapshot by.
        with self._class_file[class_name].latch:
            changed = self.versions.changed(snap, (class_name,))
            count = index.entries - sum(
                index.lookup_one(s) is not None for s in changed)
        return count + sum(self.has_role(s, class_name) for s in changed)

    def latest_class_count(self, class_name: str) -> int:
        """Entities holding the role in the *latest* state, in O(1) from
        the surrogate index — for estimates (cost model, plan-cache
        drift), which want no snapshot's exact answer.  ``class_name``
        must be canonical."""
        return self._surrogate_index[class_name].entries

    def _dva_index(self, class_name: str, attr_name: str):
        """``(class, owner class, attribute, index)`` for a DVA as seen
        from ``class_name`` (canonical); ``index`` is its unique or value
        index, or None."""
        attr = self.schema.get_class(class_name).attribute(attr_name)
        owner = attr.owner_name
        return class_name, owner, attr, (
            self._unique_index.get((owner, attr.name))
            or self._value_index.get((owner, attr.name)))

    def find_by_dva(self, class_name: str, attr_name: str, value
                    ) -> List[int]:
        """Entities of ``class_name`` whose DVA equals ``value``; uses a
        unique or value index when one exists, else scans the class."""
        class_name, owner, attr, index = self._dva_index(class_name,
                                                         attr_name)
        return self._find(
            class_name, owner, attr,
            None if index is None else lambda: index.lookup(value),
            lambda stored: stored == value)

    def find_by_dva_range(self, class_name: str, attr_name: str,
                          low=None, high=None, include_low: bool = True,
                          include_high: bool = True) -> List[int]:
        """Entities of ``class_name`` whose DVA falls inside the given
        bounds, served by an *ordered* value index (NULLs never match a
        range; an open bound is None)."""
        class_name, owner, attr, index = self._dva_index(class_name,
                                                         attr_name)
        if index is None or index.kind != "ordered":
            raise CatalogError(
                f"no ordered index on {class_name}.{attr_name}")
        return self._find(
            class_name, owner, attr,
            lambda: (rid for _key, rid in index.range(
                low, high, include_low, include_high)),
            lambda stored: _in_range(stored, low, high, include_low,
                                     include_high))

    def _find(self, class_name: str, owner: str, attr, probe,
              matches) -> List[int]:
        """Entities of ``class_name`` whose ``attr`` value ``matches``.
        ``probe()`` yields the RIDs an index on the owner class selects
        (None: no index, the class is scanned).

        Indexes hold the latest state only, but each of their entries
        derives from a role record and moves only inside a record write
        that staged the record first, under the owner's unit latch — so
        ONE physical state of the index is wrong only about the records
        ``versions.changed`` names.  In ``_read``'s shape: read that
        set, probe, read it again.  Empty both times and no abort in
        between (``_read``), the unlatched probe is exact.  A probe that
        ran unlatched beside a writer is not one state (an ordered index
        shifts under a range probe and loses a neighbour nobody
        changed): it is taken again under the latch, set read included.
        Then the candidates are the probe's surrogates in probe order,
        then the changed ones by surrogate; each one's versioned read
        decides."""
        snap = self.current_snapshot()
        classes = (owner,) if owner == class_name else (owner, class_name)
        for attempt in range(0 if probe is None else _PROBE_ATTEMPTS):
            aborts = self.versions.aborts
            changed = self.versions.changed(snap, classes)
            latched = bool(changed) or attempt > 0
            try:
                with (self._class_file[owner].latch if latched
                      else _NO_LATCH):
                    found = self._surrogates_at(owner, probe())
                    after = self.versions.changed(snap, classes)
            except Exception:       # reshaped under an unlatched probe?
                if not (changed or self.versions.changed(snap, classes)
                        or self.versions.aborts != aborts):
                    raise
                continue
            if not (changed or after) and (
                    latched or self.versions.aborts == aborts):
                return found if owner == class_name else [
                    s for s in found if self.has_role(s, class_name)]
            if not latched:         # a writer came: maybe a torn probe
                continue
            self.perf.bump("snapshot_find_overlays")
            found = list(dict.fromkeys(found))
            found += sorted((changed | after).difference(found))
            return [s for s in found if self.has_role(s, class_name)
                    and matches(self.read_dva(s, attr))]
        if probe is not None:       # last resort: failed under the latch
            self.perf.bump("snapshot_find_scans")
        return [surrogate for surrogate in self.scan_class(class_name)
                if matches(self.read_dva(surrogate, attr))]

    def has_index_on(self, class_name: str, attr_name: str) -> bool:
        return self._dva_index(class_name, attr_name)[3] is not None

    def has_ordered_index_on(self, class_name: str, attr_name: str) -> bool:
        """True when an *ordered* value index can serve range predicates
        on this DVA (the ``select_entities`` range fast path)."""
        index = self._dva_index(class_name, attr_name)[3]
        return index is not None and index.kind == "ordered"

    # -------------------------------------------------------------- statistics

    def relationship_cardinality(self, eva: EntityValuedAttribute) -> int:
        return self.eva_info(eva).instance_count

    def avg_fanout(self, eva: EntityValuedAttribute) -> float:
        """Average number of targets per source entity for this EVA side
        (an estimate: latest counts, never a scan)."""
        info = self.eva_info(eva)
        population = max(1, self.latest_class_count(eva.owner_name))
        return info.instance_count / population

    def blocking_factor(self, class_name: str) -> int:
        class_name = canon(class_name)
        return self._class_file[class_name].blocking_factor(
            self._class_format[class_name])

    def class_block_count(self, class_name: str) -> int:
        return self._class_file[canon(class_name)].block_count

    def cold_cache(self) -> None:
        """Flush and invalidate the buffer pool and the read-path caches
        (for cold-run benchmarks and deterministic I/O accounting)."""
        self.pool.invalidate()
        self.read_cache.clear()

    # ------------------------------------------------------- fault injection

    def install_faults(self, injector: Optional[FaultInjector] = None,
                       seed: int = 0) -> FaultInjector:
        """Wire a :class:`FaultInjector` into the disk and the WAL.

        Pass an injector with an armed plan, or let this create a fresh
        seeded one to arm afterwards.  Returns the installed injector."""
        if injector is None:
            injector = FaultInjector(seed=seed)
        self.faults = injector
        self.disk.faults = injector
        self.wal.faults = injector
        return injector

    # --------------------------------------------------------- crash recovery

    def simulate_crash(self) -> dict:
        """Lose all volatile state (buffer pool, indexes, open transaction),
        then recover from the disk image and the durable log prefix.

        Returns recovery statistics.  Durability guarantees apply to
        transactional work: COMMIT flushes data pages and then forces a
        commit record, so committed statements survive; in-flight
        transactions are undone from the log's before-images;
        auto-committed Mapper-level calls that were never flushed are
        lost consistently.

        Re-runnable: if a fault injector kills the machine *during*
        recovery, calling this again reboots the device and re-runs the
        whole pass, which converges to the same disk image (undo applies
        absolute before-images in a fixed order, the rebuild is a pure
        function of the disk, and nothing touches the log until the
        final checkpoint).
        """
        self.wal.crash()
        if self.faults is not None:
            self.faults.reboot()
        return self.recover()

    def recover(self) -> dict:
        """The recovery pass proper: undo losers, rebuild volatile state,
        then checkpoint the log.  Assumes ``wal.crash()`` has already
        established the durable prefix (``simulate_crash`` does both)."""
        formats_by_file = {f.file_id: f.formats for f in self._files.values()}
        undone = undo_losers(self.wal, self.disk, formats_by_file,
                             retry=self.retry)
        self._rebuild_volatile()
        checkpoint_lsn = self.wal.checkpoint()
        return {"undone_slots": undone, "checkpoint_lsn": checkpoint_lsn,
                "transient_retries": self.perf.transient_retries}

    def _rebuild_volatile(self) -> None:
        """Reconstruct the buffer pool, file metadata, every index, the
        sequence counters and the surrogate generator from the disk image.
        (A real system checkpoints these; rebuilding by scan is the
        simulator's equivalent and also validates that the disk image is
        self-describing.)"""
        self._discard_derived()
        # Seed the fresh manager's id counter past every id ever logged,
        # compacted records' included, so no id names two transactions.
        self._new_pool_and_transactions(start_after=self.wal.txn_watermark)
        # Versions and snapshots are volatile; the epoch stays monotonic.
        self.versions.reset()
        for record_file in self._files.values():
            record_file.pool = self.pool
            record_file.txn_context = self.transactions.txn_context
            record_file.rebuild_metadata(self.disk, retry=self.retry)

        self._build_indexes()

        max_surrogate = 0
        for class_name, record_file in self._class_file.items():
            format_id = self._class_format[class_name]
            for rid, _, record in record_file.scan(format_id):
                surrogate = record[_SURROGATE]
                max_surrogate = max(max_surrogate, surrogate)
                self._surrogate_index[class_name].insert(surrogate, rid)
                self._index_record(class_name, record, rid)

        for storage in (*self._evas.values(), *self._mvs.values()):
            storage.rebuild()

        self._next_surrogate = max_surrogate + 1

    # ---------------------------------------------------------- consistency

    def check(self, constraints: bool = True):
        """Run the semantic consistency checker over the physical state;
        returns a :class:`repro.checker.CheckReport` (see that module)."""
        from repro.checker import check_store
        return check_store(self, constraints=constraints)

    def storage_statistics(self) -> dict:
        """Durability-side counters: WAL, retries, injected faults."""
        stats = {
            "wal_records": self.perf.wal_records,
            "wal_records_held": len(self.wal),
            "wal_forces": self.perf.wal_forces,
            "wal_checkpoints": self.perf.wal_checkpoints,
            "commits": self.perf.commits,
            "aborts": self.perf.aborts,
            "retry": self.retry.statistics(),
            "mvcc": self.versions.statistics(),
        }
        if self.faults is not None:
            stats["faults"] = self.faults.statistics()
        return stats

    def __repr__(self):
        return (f"<MapperStore {self.schema.name}: "
                f"{len(self._class_file)} class units, "
                f"{len(self._evas)} EVA pairs>")
