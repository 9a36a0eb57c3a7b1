"""Record formats and record identifiers.

§5.2 maps each generalization hierarchy into "a storage unit with
variable-format records based on record types": one file holds records of
several formats, each format corresponding to one node of the hierarchy
tree.  A :class:`RecordFormat` names its fields and carries a fixed width
(bytes) used to compute blocking factors; a :class:`RID` addresses a record
by (block number, slot).  A RID is a tuple: the indexes hold one per
entry, and a named tuple costs no ``__dict__``.  It therefore equals the
plain ``(block, slot)`` tuple, so a set or dict that holds RIDs must not
hold other pairs.

A stored record is a tuple of values in its format's field order: the
field names are schema, held once by the format (``positions``), not
data repeated in every record.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class RID(NamedTuple):
    """Record identifier: position of a record within one file."""

    block: int
    slot: int

    def __repr__(self):
        return f"RID({self.block}:{self.slot})"


class RecordFormat:
    """A fixed-width record layout.

    ``fields`` maps field name → width in (simulated) bytes.  The format
    width is the sum of the field widths plus a small per-record header,
    mirroring how a record-based system computes blocking factors.
    ``positions`` maps field name → index in a stored record's tuple.
    """

    HEADER_WIDTH = 4

    def __init__(self, format_id: int, name: str, fields: Dict[str, int]):
        if not fields:
            raise ValueError(f"record format {name!r} has no fields")
        self.format_id = format_id
        self.name = name
        self.fields = dict(fields)
        self.width = self.HEADER_WIDTH + sum(self.fields.values())
        self.positions = {name: index
                          for index, name in enumerate(self.fields)}

    def __repr__(self):
        return (f"<RecordFormat #{self.format_id} {self.name} "
                f"width={self.width}>")


def field_width_for_type(data_type) -> int:
    """Estimated storage width of one value of ``data_type``.

    The absolute numbers only matter relative to the block size; they are
    chosen to resemble a record-oriented system of the paper's era.
    """
    family = getattr(data_type, "family", "abstract")
    if family == "integer" or family == "surrogate":
        return 6
    if family == "number":
        # packed decimal: two digits per byte plus sign
        return max(2, (data_type.precision + 2) // 2)
    if family == "real":
        return 8
    if family == "string":
        length = data_type.max_length if data_type.max_length else 64
        return length
    if family == "boolean":
        return 1
    if family == "date":
        return 4
    if family == "time":
        return 4
    if family == "symbolic":
        return 2
    if family == "subrole":
        return 2
    return 8
