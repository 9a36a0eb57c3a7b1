"""Semantic consistency checker — the crash-torture oracle.

SIM stores one entity's data split across base- and subclass records with
system-maintained EVA inverses (§5.1/§5.2; cf. Litwin's *Stored and
Inherited Relations*): a torn or lost block can break *semantic*
invariants — a subclass role without its base record, an EVA visible from
one side only, an index entry pointing at a ghost — that no page checksum
would notice.  :func:`check_store` sweeps the physical state and verifies:

* **surrogate indexes ↔ records** — every stored role record is indexed
  at its RID, and every index entry resolves to a live record;
* **hierarchy membership** — subclass-role ⊆ superclass-role, for every
  entity and every superclass edge;
* **EVA/inverse symmetry** — each relationship instance, however mapped
  (structure record, foreign key, pointer array), is reachable from both
  endpoints, both endpoints hold the participating roles, and the
  runtime ``instance_count`` matches the physical population;
* **secondary indexes** — unique/value/MV-DVA index entries agree
  exactly with record contents (and MV values have a living owner);
* **free-space accounting** — each block's used-width header and the
  file's free-space map match the slot directory, and record counts add
  up;
* **declared constraints** (optional) — REQUIRED attributes are
  non-null and UNIQUE attributes unduplicated *on disk*, independent of
  what the engine enforced on the way in.

The checker is deliberately white-box (it reads the Mapper's structures
directly) and runs with the read cache and any materialized derived
relations disabled — verdicts must come from physical state, never from
cached decodes or stored derivations.  It mutates nothing.  What depends
on a §5.2 mapping is the mapping object's ``check``
(:mod:`repro.mapper.mappings`), which re-derives from this sweep's scan
what recovery's ``rebuild`` is tested against.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.naming import canon
from repro.storage.records import RID
from repro.types.tvl import is_null


@dataclass
class CheckReport:
    """Outcome of one consistency sweep.

    ``problems`` — human-readable findings, each tagged ``[category]``;
    ``checked`` — how much ground the sweep covered (records, index
    entries, EVA instances...), so an "all clear" is auditable."""

    problems: List[str] = field(default_factory=list)
    checked: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def add(self, category: str, message: str) -> None:
        self.problems.append(f"[{category}] {message}")

    def bump(self, what: str, count: int = 1) -> None:
        self.checked[what] = self.checked.get(what, 0) + count

    def compare_index(self, index, expected) -> int:
        """Report where ``index``'s (key, rid) entries differ from those a
        physical scan ``expected``; returns how many it holds."""
        actual = set(index.items())
        for key, rid in expected - actual:
            self.add("index", f"{index.name}: missing entry {key!r} -> {rid}")
        for key, rid in actual - expected:
            self.add("index", f"{index.name}: stale entry {key!r} -> {rid}")
        return len(actual)

    def summary(self) -> str:
        ground = ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
        if self.ok:
            return f"consistent ({ground})"
        head = "; ".join(self.problems[:5])
        more = f" (+{len(self.problems) - 5} more)" if len(self.problems) > 5 \
            else ""
        return f"{len(self.problems)} problem(s): {head}{more} ({ground})"

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.problems)} problems"
        return f"<CheckReport {state}>"


def check_store(store, constraints: bool = True) -> CheckReport:
    """Sweep a :class:`~repro.mapper.store.MapperStore` for semantic
    consistency.  Read-only; returns a :class:`CheckReport`."""
    report = CheckReport()
    with contextlib.ExitStack() as stack:
        stack.enter_context(store.read_cache.disabled())
        if store.materialized is not None:
            stack.enter_context(store.materialized.disabled())
        scans = _scan_classes(store, report)
        _check_surrogate_indexes(store, scans, report)
        _check_hierarchy(store, scans, report)
        _check_secondary_indexes(store, scans, report)
        for mv in store._mvs.values():
            mv.check(scans, report)
        _check_evas(store, scans, report)
        _check_free_space(store, report)
        if constraints:
            _check_constraints(store, scans, report)
    return report


# ------------------------------------------------------------------ scanning

def _scan_classes(store, report) -> Dict[str, Dict[int, Tuple[RID, tuple]]]:
    """Physical scan of every class unit: class -> {surrogate: (rid,
    record)}.  Also flags surrogate duplication within one class."""
    scans: Dict[str, Dict[int, Tuple[RID, tuple]]] = {}
    for class_name, record_file in store._class_file.items():
        format_id = store._class_format[class_name]
        position = store.field_positions(class_name)["surrogate"]
        members: Dict[int, Tuple[RID, tuple]] = {}
        for rid, _, record in record_file.scan(format_id):
            surrogate = record[position]
            if surrogate in members:
                report.add("identity",
                           f"{class_name}: surrogate {surrogate} stored "
                           f"twice ({members[surrogate][0]} and {rid})")
            members[surrogate] = (rid, record)
        scans[class_name] = members
        report.bump("records", len(members))
    return scans


# ------------------------------------------------------------------- indexes

def _check_surrogate_indexes(store, scans, report) -> None:
    for class_name, members in scans.items():
        expected = {(surrogate, rid)
                    for surrogate, (rid, _) in members.items()}
        report.bump("surrogate_index_entries", report.compare_index(
            store._surrogate_index[class_name], expected))


def _check_hierarchy(store, scans, report) -> None:
    """Subclass-role membership must be contained in every superclass."""
    for class_name, members in scans.items():
        sim_class = store.schema.get_class(class_name)
        for super_name in sim_class.superclass_names:
            super_members = scans.get(canon(super_name), {})
            for surrogate in members:
                report.bump("hierarchy_edges")
                if surrogate not in super_members:
                    report.add("hierarchy",
                               f"entity {surrogate} has role {class_name!r} "
                               f"but no {super_name!r} record")


def _check_secondary_indexes(store, scans, report) -> None:
    for indexes in (store._unique_index, store._value_index):
        for (class_name, attr_name), index in indexes.items():
            position = store.field_positions(class_name)[attr_name]
            expected = {(record[position], rid) for rid, record
                        in scans.get(class_name, {}).values()
                        if not is_null(record[position])}
            report.bump("secondary_index_entries",
                        report.compare_index(index, expected))


def _check_evas(store, scans, report) -> None:
    for info in store._evas.values():
        count = info.check(scans, report)
        if info.instance_count != count:
            report.add("eva",
                       f"{info.canonical.owner_name}.{info.canonical.name}: "
                       f"instance_count {info.instance_count} != physical "
                       f"{count}")
        report.bump("eva_instances", count)


# ----------------------------------------------------------------- substrate

def _check_free_space(store, report) -> None:
    for record_file in store._files.values():
        records_seen = 0
        for block_no in range(record_file.block_count):
            block = record_file.pool.get(record_file.file_id, block_no)
            used = 0
            for entry in block.slots:
                if entry is None:
                    continue
                format_id, _ = entry
                fmt = record_file.formats.get(format_id)
                if fmt is None:
                    report.add("free-space",
                               f"{record_file.name}: block {block_no} holds "
                               f"a record of unknown format #{format_id}")
                    continue
                used += fmt.width
                records_seen += 1
            if block.used != used:
                report.add("free-space",
                           f"{record_file.name}: block {block_no} header "
                           f"says used={block.used}, slots say {used}")
            free = record_file.free_space(block_no)
            if free != record_file.block_size - used:
                report.add("free-space",
                           f"{record_file.name}: free-space map says "
                           f"{free} free in block {block_no}, actual "
                           f"{record_file.block_size - used}")
            report.bump("blocks")
        if record_file.record_count != records_seen:
            report.add("free-space",
                       f"{record_file.name}: record_count "
                       f"{record_file.record_count} != scanned "
                       f"{records_seen}")


# --------------------------------------------------------------- constraints

def _check_constraints(store, scans, report) -> None:
    """REQUIRED / UNIQUE as stored on disk — the declarative subset of the
    schema the checker can verify without running VERIFY assertions."""
    for class_name, members in scans.items():
        sim_class = store.schema.get_class(class_name)
        for attr in sim_class.immediate_attributes.values():
            if (attr.is_eva or attr.is_subrole or attr.is_surrogate
                    or attr.multi_valued):
                continue
            position = store.field_positions(class_name)[attr.name]
            if attr.options.required:
                for surrogate, (_, record) in members.items():
                    report.bump("required_checks")
                    if is_null(record[position]):
                        report.add("constraint",
                                   f"{class_name}.{attr.name} REQUIRED but "
                                   f"null for entity {surrogate}")
            if attr.options.unique:
                values = Counter(
                    record[position]
                    for _, record in members.values()
                    if not is_null(record[position]))
                report.bump("unique_checks", sum(values.values()))
                for value, occurrences in values.items():
                    if occurrences > 1:
                        report.add("constraint",
                                   f"{class_name}.{attr.name} UNIQUE but "
                                   f"{value!r} stored {occurrences} times")
