"""One object per §5.2 mapping option: where an EVA instance or an MV DVA
value lives, and every operation whose code depends on it.

The paper states EVA storage as a table of options ("the mapping of EVAs
is the key factor in determining SIM's performance"): :data:`EVA_MAPPINGS`
and :data:`MV_MAPPINGS` are that table, and the only place outside
:mod:`repro.mapper.physical` that names a mapping member
(``tests/test_mapping_guard.py``).  ``docs/INTERNALS.md`` §2 tabulates
mapping → class → where an instance lives → first/next cost → what
``rebuild`` scans.

An EVA object owns its fields, files and indexes and answers ``build``
(layout), ``new_indexes`` (empty, at open and recovery),
``targets_many`` (the physical traversal of one fan-out cache side, for
a batch of surrogates; ``targets`` is its one-surrogate case),
``include`` / ``exclude``
(undo registered), ``rebuild`` (indexes and ``instance_count`` from the
disk image), ``check`` and §5.1's ``first_cost`` / ``next_cost``; an MV
object the same plus ``read`` / ``write`` / ``clear``.  The store keeps
the protocol around them — stage pre-images before an object mutates,
count, publish — and the rule that a self-inverse instance may be
excluded in either orientation.

``check`` is the oracle ``rebuild`` is tested against, so it re-derives
the expected index entries from the checker's own scan: it never calls
``rebuild`` nor shares an entry-computing helper with it (only the
decoding of a stored field) — merged, a rebuild bug would agree with
itself.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import IntegrityError
from repro.mapper.physical import EvaMapping, MvDvaMapping
from repro.storage.index import HashIndex
from repro.storage.records import RID, field_width_for_type
from repro.types.tvl import NULL, is_null

SURROGATE_WIDTH = 6
_POINTER_WIDTH = 12
_REL_FIELDS = {"surr1": SURROGATE_WIDTH, "rel": 2, "surr2": SURROGATE_WIDTH}
#: positions in a structure record (``_REL_FIELDS``) and an MV value row
_SURR1, _REL, _SURR2 = 0, 1, 2
_OWNER, _SEQ, _VALUE = 0, 1, 2
_COMMON_FILE = "common-eva-structure"


class EvaStorage:
    """One canonical EVA pair as stored; ``rel_id`` names it in the
    fan-out cache, version keys and write events."""

    #: does ``targets`` read through the reader's view, not physical
    #: state only?  Then a snapshot's traversal fills no fan-out cache
    reads_view = False

    def __init__(self, store, canonical, rel_id: int):
        self.store = store
        self.canonical = canonical
        self.rel_id = rel_id
        self.self_inverse = canonical.inverse is canonical
        self.instance_count = 0

    def _directions(self, side: bool) -> Tuple[bool, ...]:
        """The stored directions one cache side is traversed in.  A
        self-inverse EVA (SPOUSE) stores each instance once, in
        whichever orientation it was included, so its single side is
        both directions."""
        return (True, False) if self.self_inverse else (side,)

    def targets(self, side: bool, surrogate: int) -> List[int]:
        """Physical traversal of one cache side: :meth:`targets_many`
        for one surrogate."""
        return self.targets_many(side, (surrogate,))[surrogate]


class _FieldEva(EvaStorage):
    """A field in one side's own record — the *holder*'s — plus a reverse
    index from target surrogate to holder RID."""

    #: instances one holder record can take (None: unbounded)
    capacity: Optional[int] = None
    #: the holder's record is read through ``record_of``
    reads_view = True

    def __init__(self, store, canonical, rel_id: int, holder):
        super().__init__(store, canonical, rel_id)
        self.holder = holder
        #: "forward" is the canonical direction; plain side identity
        #: would break on a self-inverse EVA, whose sides are one object
        self.holds_forward = holder is canonical

    def build(self) -> None:
        holder = self.holder
        self.field = f"{self.prefix}--{holder.name}"
        self.store.schema.get_class(holder.owner_name)._scratch_fields[
            self.field] = self.width

    def _position(self) -> int:
        """The field's position in the holder's role record."""
        return self.store.field_positions(self.holder.owner_name)[self.field]

    def new_indexes(self) -> None:
        self.instance_count = 0
        self.reverse = HashIndex(f"{self.prefix}rev--"
                                 f"{self.holder.owner_name}--{self.holder.name}")

    def targets_many(self, side: bool, surrogates) -> Dict[int, List[int]]:
        """Physical traversal of one cache side per surrogate
        (distinct), for one batch: each one's holder record, or the
        reverse index to the holders."""
        directions = self._directions(side)
        return {surrogate: [target for forward in directions
                            for target in self._traverse(surrogate, forward)]
                for surrogate in surrogates}

    def _traverse(self, surrogate: int, forward: bool) -> List[int]:
        store, holder = self.store, self.holder.owner_name
        if forward != self.holds_forward:
            # Holder-RID order: the order rebuild's scan reinserts them
            # in, so a traversal reads the same before and after a crash.
            return store._surrogates_at(
                holder, sorted(self.reverse.lookup(surrogate)))
        _, record = store.record_of(surrogate, holder)
        entries = self._entries(record[self._position()])
        range_file = store._class_file[self.holder.range_class_name]
        for _, address in entries:
            if address is not None:     # absolute: fetch the block directly
                store.pool.get(range_file.file_id, address.block)
        return [target for target, _ in entries]

    def _orient(self, domain_surr: int, range_surr: int) -> Tuple[int, int]:
        """``(holder surrogate, target surrogate)`` of one instance."""
        return ((domain_surr, range_surr) if self.holds_forward
                else (range_surr, domain_surr))

    def include(self, domain_surr: int, range_surr: int) -> None:
        holder_surr, target = self._orient(domain_surr, range_surr)
        holder = self.holder
        rid, record = self.store.record_of(holder_surr, holder.owner_name)
        entries = self._entries(record[self._position()])
        if len(entries) == self.capacity:
            raise IntegrityError(
                f"{holder.owner_name}.{holder.name} of entity {holder_surr} "
                f"already set; exclude it first")
        entries.append((target, self._address(target)))
        self._store(holder_surr, rid, entries, target, added=True)

    def exclude(self, domain_surr: int, range_surr: int) -> bool:
        holder_surr, target = self._orient(domain_surr, range_surr)
        try:
            rid, record = self.store.record_of(holder_surr,
                                               self.holder.owner_name)
        except IntegrityError:
            return False
        entries = self._entries(record[self._position()])
        match = next((entry for entry in entries if entry[0] == target),
                     None)
        if match is None:
            return False
        entries.remove(match)
        self._store(holder_surr, rid, entries, target, added=False)
        return True

    def _store(self, holder_surr: int, rid: RID, entries, target: int,
               added: bool) -> None:
        """Write the holder's field (its own undo restores it), then move
        the reverse entry, undo registered after."""
        store, reverse = self.store, self.reverse
        store._write_field(holder_surr, self.holder.owner_name, self.field,
                           self._encode(entries))
        change, restore = ((reverse.insert, reverse.delete) if added
                           else (reverse.delete, reverse.insert))
        change(target, rid)
        store.transactions.record_undo(lambda: restore(target, rid))

    def rebuild(self) -> None:
        store, holder = self.store, self.holder.owner_name
        position = self._position()
        for rid, _, record in store._class_file[holder].scan(
                store._class_format[holder]):
            for target, _ in self._entries(record[position]):
                self.reverse.insert(target, rid)
                self.instance_count += 1

    def check(self, scans, report) -> int:
        holder, range_class = (self.holder.owner_name,
                               self.holder.range_class_name)
        name = f"{holder}.{self.holder.name}"
        targets = scans.get(range_class, {})
        count, expected, position = 0, set(), self._position()
        for surrogate, (rid, record) in scans.get(holder, {}).items():
            for target, address in self._entries(record[position]):
                count += 1
                expected.add((target, rid))
                found = targets.get(target)
                if found is None:
                    report.add("eva", f"{name}: entity {surrogate} "
                                      f"references absent {range_class!r} "
                                      f"entity {target}")
                elif address is not None and found[0] != address:
                    report.add("eva", f"{name}: stale absolute address for "
                                      f"{target} ({address} vs {found[0]})")
        report.compare_index(self.reverse, expected)
        return count


class ForeignKeyEva(_FieldEva):
    """The target's surrogate in a field of the single-valued side's
    record (the canonical side of a 1:1 pair)."""

    prefix, width, capacity = "fk", SURROGATE_WIDTH, 1
    #: the key is in the already-fetched source record; the reverse
    #: direction is one probe of the inverse index
    first_cost = next_cost = 0.0

    def __init__(self, store, canonical, rel_id: int):
        super().__init__(store, canonical, rel_id,
                         canonical if canonical.single_valued
                         else canonical.inverse)

    @staticmethod
    def _entries(stored) -> List[Tuple[int, None]]:
        return [] if is_null(stored) else [(stored, None)]

    @staticmethod
    def _encode(entries):
        return entries[0][0] if entries else NULL

    def _address(self, target: int) -> None:
        return None


class PointerEva(_FieldEva):
    """Absolute addresses ``(surrogate, block, slot)`` of the targets in a
    field of the canonical owner's record."""

    prefix = "ptr"
    #: absolute address: straight to the target block
    first_cost = next_cost = 1.0

    def __init__(self, store, canonical, rel_id: int):
        super().__init__(store, canonical, rel_id, canonical)
        slots = canonical.options.max_cardinality or 8
        self.width = _POINTER_WIDTH * (slots if canonical.multi_valued else 1)

    @staticmethod
    def _entries(stored) -> List[Tuple[int, RID]]:
        return [] if is_null(stored) else [
            (target, RID(block, slot)) for target, block, slot in stored]

    @staticmethod
    def _encode(entries):
        return tuple((target, address.block, address.slot)
                     for target, address in entries) or NULL

    def _address(self, target: int) -> RID:
        return self.store._surrogate_index[
            self.canonical.range_class_name].lookup_one(target)


class _RecordUnit:
    """Records in a file of their own kind, each entered in indexes by
    ``_index``.  The caller holds the unit's latch; an abort replays
    outside any statement-level latching, so each undo latches the unit
    itself, and a deleted record comes back at the SAME RID — re-inserted
    elsewhere it would be duplicated when crash recovery also restores
    the original slot from the log."""

    def _add(self, record, near: Optional[RID] = None) -> RID:
        rid = self.file.insert(self.format_id, record, near=near)
        self._index(rid, record, added=True)

        def undo():
            with self.file.latch:
                self.file.delete(rid)
                self._index(rid, record, added=False)
        self.store.transactions.record_undo(undo)
        return rid

    def _remove(self, rid: RID, record) -> None:
        self.file.delete(rid)
        self._index(rid, record, added=False)

        def undo():
            with self.file.latch:
                self.file.undelete(rid, self.format_id, record)
                self._index(rid, record, added=True)
        self.store.transactions.record_undo(undo)


class StructureEva(_RecordUnit, EvaStorage):
    """``<surr1, rel-id, surr2>`` records in a file, with a forward and a
    reverse index over them.  Common, dedicated and clustered differ only
    in ``placement``: which file, and whether a record is inserted next
    to its owner's.  The indexes belong to this one EVA, so they key on
    the surrogate alone; the record keeps its rel-id because the common
    file is shared, and ``rebuild`` and ``check`` filter on it."""

    def __init__(self, store, canonical, rel_id: int, placement: str,
                 first_cost: float, next_cost: float):
        super().__init__(store, canonical, rel_id)
        self.placement = placement
        self.first_cost, self.next_cost = first_cost, next_cost

    def build(self) -> None:
        store, owner = self.store, self.canonical.owner_name
        if self.placement == "common":
            self.file = store._files.get(_COMMON_FILE)
            if self.file is None:
                self.file = store._new_file(_COMMON_FILE)
                store._new_format(self.file, "common-eva", _REL_FIELDS)
            self.format_id = next(iter(self.file.formats))
            return
        if self.placement == "dedicated":
            self.file = store._new_file(f"eva--{owner}--{self.canonical.name}")
            format_name = "eva"
        else:
            # Clustered: in the domain class's own unit, next to the domain
            # entity's record; the unit holds back part of each block so
            # late-arriving relationship records still fit by their anchors.
            self.file = store._class_file[owner]
            self.file.cluster_reserve = max(self.file.cluster_reserve, 0.35)
            format_name = f"eva--{self.canonical.name}"
        self.format_id = store._new_format(self.file, format_name, _REL_FIELDS)

    def new_indexes(self) -> None:
        self.instance_count = 0
        prefix = f"{self.canonical.owner_name}--{self.canonical.name}"
        self.forward = HashIndex(f"fwd--{prefix}")
        self.reverse = HashIndex(f"rev--{prefix}")

    def targets_many(self, side: bool, surrogates) -> Dict[int, List[int]]:
        """:meth:`EvaStorage.targets_many` as the union of the index RID
        lists, read a block at a time by one
        :meth:`RecordFile.read_many`."""
        ways = [(self.forward, _SURR2) if forward else (self.reverse, _SURR1)
                for forward in self._directions(side)]
        spans, rids, outs = {}, [], []
        for surrogate in surrogates:
            start = len(rids)
            for index, out in ways:
                found = index.lookup(surrogate)
                rids += found
                outs += [out] * len(found)
            spans[surrogate] = start, len(rids)
        targets = [slot[1][out] for slot, out
                   in zip(self.file.read_many(rids), outs)]
        return {surrogate: targets[start:end]
                for surrogate, (start, end) in spans.items()}

    def _index(self, rid: RID, record, added: bool) -> None:
        for index, surrogate in ((self.forward, record[_SURR1]),
                                 (self.reverse, record[_SURR2])):
            (index.insert if added else index.delete)(surrogate, rid)

    def include(self, domain_surr: int, range_surr: int) -> None:
        near = None
        if self.placement == "clustered":
            near = self.store._surrogate_index[
                self.canonical.owner_name].lookup_one(domain_surr)
        # The unit may be the common file every relationship shares, so
        # its latch is mandatory even when class locks are disjoint.
        with self.file.latch:
            self._add((domain_surr, self.rel_id, range_surr), near=near)

    def exclude(self, domain_surr: int, range_surr: int) -> bool:
        with self.file.latch:
            for rid in self.forward.lookup(domain_surr):
                _, record = self.file.read(rid)
                if record[_SURR2] == range_surr:
                    self._remove(rid, record)
                    return True
        return False

    def rebuild(self) -> None:
        for rid, _, record in self.file.scan(self.format_id):
            if record[_REL] == self.rel_id:
                self._index(rid, record, added=True)
                self.instance_count += 1

    def check(self, scans, report) -> int:
        owner = self.canonical.owner_name
        ends = ((_SURR1, owner), (_SURR2, self.canonical.range_class_name))
        count, forward, reverse = 0, set(), set()
        for rid, _, record in self.file.scan(self.format_id):
            if record[_REL] != self.rel_id:
                continue
            count += 1
            pair = (record[_SURR1], record[_SURR2])
            for end, class_name in ends:
                if record[end] not in scans.get(class_name, {}):
                    report.add("eva", f"{owner}.{self.canonical.name}: "
                                      f"instance {pair} dangles — "
                                      f"{record[end]} has no "
                                      f"{class_name!r} role")
            forward.add((pair[0], rid))
            reverse.add((pair[1], rid))
        report.compare_index(self.forward, forward)
        report.compare_index(self.reverse, reverse)
        return count


class _MvStorage:
    """One multi-valued DVA of one class as stored."""

    def __init__(self, store, class_name: str, attr):
        self.store = store
        self.class_name = class_name
        self.attr = attr
        self.name = attr.name


class ArrayMv(_MvStorage):
    """MAX-bounded: a tuple in a field of the owner's own record."""

    in_record = True

    def _in_the_record(self, *args) -> None:
        """No index to build, rebuild or check and nothing to clear: the
        values are the owner record's, scanned and dropped with it."""

    new_indexes = rebuild = check = clear = _in_the_record

    def build(self, fields: Dict[str, int]) -> None:
        fields[self.name] = (field_width_for_type(self.attr.data_type)
                             * self.attr.options.max_cardinality)

    @staticmethod
    def encode(values) -> tuple:
        return tuple(values)

    def read(self, surrogate: int) -> list:
        store = self.store
        _, record = store.record_of(surrogate, self.class_name)
        stored = record[store.field_positions(self.class_name)[self.name]]
        return [] if is_null(stored) else list(stored)

    def write(self, surrogate: int, values) -> None:
        self.store._write_field(surrogate, self.class_name, self.name,
                                NULL if is_null(values) else tuple(values))

    def include(self, surrogate: int, value) -> None:
        self.write(surrogate, self.read(surrogate) + [value])

    def exclude(self, surrogate: int, value) -> bool:
        current = self.read(surrogate)
        if value not in current:
            return False
        current.remove(value)
        self.write(surrogate, current)
        return True


class UnitMv(_RecordUnit, _MvStorage):
    """Unbounded: ``<owner, seq, value>`` records in a dependent unit and
    an index owner → value RIDs; read through the store's read protocol
    under the version key ``("mv", class, attr, surrogate)``."""

    in_record = False

    def build(self, fields: Dict[str, int]) -> None:
        store, label = self.store, f"{self.class_name}--{self.name}"
        self.file = store._new_file(f"mv--{label}")
        self.format_id = store._new_format(self.file, f"mvrec--{label}", {
            "owner": SURROGATE_WIDTH, "seq": 4,
            "value": field_width_for_type(self.attr.data_type)})

    def new_indexes(self) -> None:
        self.index = HashIndex(f"mvidx--{self.class_name}--{self.name}")
        self.seq: Dict[int, int] = {}

    @staticmethod
    def encode(values):
        return values

    def prefix(self) -> tuple:
        """The version keys' prefix: ``prefix() + (surrogate,)``."""
        return ("mv", self.class_name, self.name)

    def values(self, surrogates) -> Dict[int, tuple]:
        """Batch primitive: each owner's values in insertion order
        (never cached)."""
        found = {}
        for surrogate in surrogates:
            records = [self.file.read(rid)[1]
                       for rid in self.index.lookup(surrogate)]
            found[surrogate] = tuple(record[_VALUE] for record in
                                     sorted(records, key=itemgetter(_SEQ)))
        return found

    def read(self, surrogate: int) -> list:
        return list(self.store._read(self.prefix(), surrogate, self.values))

    def write(self, surrogate: int, values) -> None:
        self.clear(surrogate)
        for value in (values or []):
            self.include(surrogate, value)

    def _index(self, rid: RID, record, added: bool) -> None:
        (self.index.insert if added else self.index.delete)(
            record[_OWNER], rid)

    def include(self, surrogate: int, value) -> None:
        with self.file.latch:
            self.store._stage(self.prefix(), surrogate, self.values)
            seq = self.seq[surrogate] = self.seq.get(surrogate, 0) + 1
            self._add((surrogate, seq, value))
        # Not cached here, but engine memos validated against the epoch
        # must still expire.
        self.store.read_cache.note_write()

    def exclude(self, surrogate: int, value) -> bool:
        with self.file.latch:
            self.store._stage(self.prefix(), surrogate, self.values)
            for rid in self.index.lookup(surrogate):
                record = self.file.read(rid)[1]
                if record[_VALUE] == value:
                    self._remove(rid, record)
                    self.store.read_cache.note_write()
                    return True
        return False

    def clear(self, surrogate: int) -> None:
        self.store.read_cache.note_write()
        with self.file.latch:
            self.store._stage(self.prefix(), surrogate, self.values)
            for rid in self.index.lookup(surrogate):
                self._remove(rid, self.file.read(rid)[1])

    def rebuild(self) -> None:
        for rid, _, record in self.file.scan(self.format_id):
            self._index(rid, record, added=True)
            owner = record[_OWNER]
            self.seq[owner] = max(self.seq.get(owner, 0), record[_SEQ])

    def check(self, scans, report) -> None:
        members = scans.get(self.class_name, {})
        expected = set()
        for rid, _, record in self.file.scan(self.format_id):
            expected.add((record[_OWNER], rid))
            if record[_OWNER] not in members:
                report.add("mvdva", f"{self.class_name}.{self.name}: value "
                                    f"row {rid} owned by absent entity "
                                    f"{record[_OWNER]}")
        report.compare_index(self.index, expected)
        report.bump("mvdva_rows", len(expected))


#: §5.2's table of EVA options.  Structure placements' costs: clustered
#: records live in the source's own block; one block of a dedicated
#: structure holds many instances of the same source; common instances
#: interleave with every other common-mapped EVA, so consecutive ones
#: rarely share a block.
EVA_MAPPINGS = {
    EvaMapping.FOREIGN_KEY: ForeignKeyEva,
    EvaMapping.POINTER: PointerEva,
    EvaMapping.COMMON: partial(StructureEva, placement="common",
                               first_cost=1.0, next_cost=0.6),
    EvaMapping.DEDICATED: partial(StructureEva, placement="dedicated",
                                  first_cost=1.0, next_cost=0.1),
    EvaMapping.CLUSTERED: partial(StructureEva, placement="clustered",
                                  first_cost=0.0, next_cost=0.0),
}

#: §5.2's MV DVA options
MV_MAPPINGS = {
    MvDvaMapping.ARRAY: ArrayMv,
    MvDvaMapping.SEPARATE_UNIT: UnitMv,
}
