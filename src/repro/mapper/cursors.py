"""LUC and relationship cursors (paper §5.1).

"A cursor can be opened on a LUC or on a relationship and it delivers one
record of the LUC at a time.  Relationship cursors deliver one record of
the range LUC and the Mapper assumes the responsibility of traversing a
relationship, no matter how it is physically mapped."

These cursors are the formal Mapper interface the paper's Query Driver
consumes; the engine in this reproduction mostly calls the store's
entity-level operations directly, but the cursor layer is exposed for
host programs and tests, and behaves identically across every physical
mapping.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.errors import SimError
from repro.naming import canon


class LUCCursor:
    """Forward-only cursor over one class LUC's records.

    Each delivered record is the LUC's flat view: the surrogate plus the
    class's immediate single-valued DVAs (exactly the fields the standard
    translation gives the LUC).
    """

    def __init__(self, store, class_name: str):
        self.store = store
        self.class_name = canon(class_name)
        sim_class = store.schema.get_class(self.class_name)
        self._field_attrs = [
            attr for attr in sim_class.immediate_attributes.values()
            if not attr.is_eva and not attr.is_subrole
            and not attr.is_surrogate and attr.single_valued]
        self._iterator: Optional[Iterator[int]] = None
        self.closed = False

    def open(self) -> "LUCCursor":
        self._iterator = iter(self.store.scan_class(self.class_name))
        self.closed = False
        return self

    def fetch(self) -> Optional[Dict[str, object]]:
        """The next LUC record, or None at end of extent."""
        if self.closed:
            raise SimError("cursor is closed")
        if self._iterator is None:
            self.open()
        try:
            surrogate = next(self._iterator)
        except StopIteration:
            return None
        record = {"surrogate": surrogate}
        for attr in self._field_attrs:
            record[attr.name] = self.store.read_dva(surrogate, attr)
        return record

    def close(self) -> None:
        self.closed = True
        self._iterator = None

    def __iter__(self):
        while True:
            record = self.fetch()
            if record is None:
                return
            yield record

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc_info):
        self.close()
        return False


class RelationshipCursor:
    """Cursor over one relationship occurrence: delivers range-LUC records.

    Opened from a source entity over an EVA (either side of the pair); the
    physical mapping — foreign key, common structure, dedicated,
    clustered, pointer — is invisible, per the paper's contract.
    """

    def __init__(self, store, source_surrogate: int, eva):
        self.store = store
        self.source = source_surrogate
        self.eva = eva
        range_class = store.schema.get_class(eva.range_class_name)
        self._field_attrs = [
            attr for attr in range_class.immediate_attributes.values()
            if not attr.is_eva and not attr.is_subrole
            and not attr.is_surrogate and attr.single_valued]
        self._targets: Optional[Iterator[int]] = None
        self.closed = False

    def open(self) -> "RelationshipCursor":
        self._targets = iter(self.store.eva_targets(self.source, self.eva))
        self.closed = False
        return self

    def fetch(self) -> Optional[Dict[str, object]]:
        """The next range record, or None when the occurrence is done."""
        if self.closed:
            raise SimError("cursor is closed")
        if self._targets is None:
            self.open()
        try:
            target = next(self._targets)
        except StopIteration:
            return None
        record = {"surrogate": target}
        for attr in self._field_attrs:
            record[attr.name] = self.store.read_dva(target, attr)
        return record

    def close(self) -> None:
        self.closed = True
        self._targets = None

    def __iter__(self):
        while True:
            record = self.fetch()
            if record is None:
                return
            yield record

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc_info):
        self.close()
        return False


def open_luc_cursor(store, class_name: str) -> LUCCursor:
    """Open a cursor on a class LUC (paper §5.1)."""
    return LUCCursor(store, class_name).open()


def open_relationship_cursor(store, source_surrogate: int,
                             eva_owner: str,
                             eva_name: str) -> RelationshipCursor:
    """Open a cursor on a relationship occurrence from one entity."""
    eva = store.schema.get_class(eva_owner).attribute(eva_name)
    if not eva.is_eva:
        raise SimError(f"{eva_owner}.{eva_name} is not an EVA")
    return RelationshipCursor(store, source_surrogate, eva).open()
