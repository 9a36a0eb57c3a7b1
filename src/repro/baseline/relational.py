"""A small relational engine over the shared block-storage substrate.

This is the comparison baseline of experiment E7: the UNIVERSITY concepts
fragmented into flat relations (the fragmentation §1 of the paper
criticizes), queried with explicit scans, selections and joins.  Because
tables live in the same :class:`~repro.storage.files.RecordFile` /
:class:`~repro.storage.buffer.BufferPool` machinery as SIM's LUCs, block
I/O counts are directly comparable.

There is deliberately no SQL parser — queries are composed from the
operator methods (``scan``, ``select``, ``hash_join``, ``left_outer_join``,
``project``, ``sort``), which is all the benchmarks need.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, Disk
from repro.types.tvl import is_null
from repro.storage.files import RecordFile
from repro.storage.index import HashIndex
from repro.storage.records import RecordFormat

Row = Dict[str, object]


class Table:
    """One heap relation with optional hash indexes."""

    def __init__(self, name: str, record_file: RecordFile, format_id: int,
                 columns: List[str]):
        self.name = name
        self.file = record_file
        self.format_id = format_id
        self.columns = columns
        self.indexes: Dict[str, HashIndex] = {}
        self.row_count = 0

    def row(self, record: tuple) -> Row:
        """A stored record as the operators' column -> value row."""
        return dict(zip(self.columns, record))


class RelationalDatabase:
    """Heap tables + hash indexes + pull-based operators."""

    def __init__(self, block_size: int = 1024, pool_capacity: int = 256):
        self.disk = Disk()
        self.pool = BufferPool(self.disk, pool_capacity)
        self.block_size = block_size
        self._tables: Dict[str, Table] = {}
        self._file_counter = 0
        self._format_counter = 0

    # -- DDL --------------------------------------------------------------------

    def create_table(self, name: str, columns: Dict[str, int],
                     indexes: Iterable[str] = ()) -> Table:
        """``columns`` maps column name to byte width (for blocking)."""
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        self._file_counter += 1
        record_file = RecordFile(self._file_counter, name, self.pool,
                                 self.block_size)
        self._format_counter += 1
        record_file.register_format(
            RecordFormat(self._format_counter, name, dict(columns)))
        table = Table(name, record_file, self._format_counter,
                      list(columns))
        for column in indexes:
            if column not in columns:
                raise StorageError(
                    f"cannot index unknown column {column!r}")
            table.indexes[column] = HashIndex(f"{name}--{column}")
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"unknown table {name!r}") from None

    # -- DML --------------------------------------------------------------------

    def insert(self, table_name: str, row: Row) -> None:
        table = self.table(table_name)
        rid = table.file.insert(table.format_id, tuple(
            row.get(column) for column in table.columns))
        for column, index in table.indexes.items():
            if row.get(column) is not None:
                index.insert(row[column], rid)
        table.row_count += 1

    # -- Operators ----------------------------------------------------------------

    def scan(self, table_name: str) -> Iterator[Row]:
        table = self.table(table_name)
        for _, _, record in table.file.scan(table.format_id):
            yield table.row(record)

    def select(self, rows: Iterable[Row],
               predicate: Callable[[Row], bool]) -> Iterator[Row]:
        return (row for row in rows if predicate(row))

    def index_lookup(self, table_name: str, column: str,
                     value) -> List[Row]:
        table = self.table(table_name)
        index = table.indexes.get(column)
        if index is None:
            raise StorageError(f"no index on {table_name}.{column}")
        rows = []
        for rid in index.lookup(value):
            rows.append(table.row(table.file.read(rid)[1]))
        return rows

    def project(self, rows: Iterable[Row],
                columns: List[str]) -> Iterator[tuple]:
        return (tuple(row.get(c) for c in columns) for row in rows)

    def hash_join(self, left_rows: Iterable[Row], right_table: str,
                  left_column: str, right_column: str,
                  prefix: str = "") -> Iterator[Row]:
        """Equi-join; the right side is read through its hash index when
        one exists, else materialized into an in-memory hash table."""
        table = self.table(right_table)
        index = table.indexes.get(right_column)
        if index is not None:
            for left in left_rows:
                key = left.get(left_column)
                if key is None:
                    continue
                for rid in index.lookup(key):
                    right = table.row(table.file.read(rid)[1])
                    yield self._merge(left, right, prefix)
            return
        build: Dict[object, List[Row]] = {}
        for right in self.scan(right_table):
            build.setdefault(right.get(right_column), []).append(right)
        for left in left_rows:
            for right in build.get(left.get(left_column), ()):
                yield self._merge(left, right, prefix)

    def left_outer_join(self, left_rows: Iterable[Row], right_table: str,
                        left_column: str, right_column: str,
                        prefix: str = "") -> Iterator[Row]:
        """The directed outer join SIM's perspective semantics imply
        (paper §4.1 cites [Codd79])."""
        table = self.table(right_table)
        index = table.indexes.get(right_column)
        null_right = {f"{prefix}{c}": None for c in table.columns}
        if index is None:
            build: Dict[object, List[Row]] = {}
            for right in self.scan(right_table):
                build.setdefault(right.get(right_column), []).append(right)
        for left in left_rows:
            key = left.get(left_column)
            matches: List[Row] = []
            if key is not None:
                if index is not None:
                    matches = [table.row(table.file.read(rid)[1])
                               for rid in index.lookup(key)]
                else:
                    matches = build.get(key, [])
            if matches:
                for right in matches:
                    yield self._merge(left, right, prefix)
            else:
                merged = dict(left)
                merged.update(null_right)
                yield merged

    def sort(self, rows: Iterable[Row], key_columns: List[str]
             ) -> List[Row]:
        """Sort with nulls first, matching SIM's ordering semantics.

        Tuples never compare a None with a value: the leading flag decides
        before the value is inspected.
        """
        def key(row):
            parts = []
            for column in key_columns:
                value = row.get(column)
                parts.append((False, 0) if value is None else (True, value))
            return tuple(parts)
        return sorted(rows, key=key)

    @staticmethod
    def _merge(left: Row, right: Row, prefix: str) -> Row:
        merged = dict(left)
        for column, value in right.items():
            merged[f"{prefix}{column}"] = value
        return merged

    # -- Statistics ------------------------------------------------------------------

    @property
    def io_stats(self):
        return self.pool.perf

    def reset_io_stats(self) -> None:
        self.pool.perf.reset()

    def cold_cache(self) -> None:
        self.pool.invalidate()


# --------------------------------------------------------- university loader

def load_university_relational(sim_db, block_size: int = 1024,
                               pool_capacity: int = 256
                               ) -> RelationalDatabase:
    """Fragment a populated SIM UNIVERSITY database into flat relations.

    The schema follows the classic relational design for the same
    application: entity tables keyed by surrogate, foreign keys for 1:many
    relationships, junction tables for many:many.
    """
    rel = RelationalDatabase(block_size, pool_capacity)
    rel.create_table("person", {
        "id": 6, "name": 30, "ssn": 6, "birthdate": 4, "spouse_id": 6,
    }, indexes=["id", "ssn"])
    rel.create_table("student", {
        "id": 6, "student_nbr": 6, "advisor_id": 6, "major_dept_id": 6,
    }, indexes=["id", "advisor_id"])
    rel.create_table("instructor", {
        "id": 6, "employee_nbr": 6, "salary": 6, "bonus": 6, "dept_id": 6,
    }, indexes=["id", "dept_id"])
    rel.create_table("teaching_assistant", {"id": 6, "teaching_load": 6},
                     indexes=["id"])
    rel.create_table("course", {
        "id": 6, "course_no": 6, "title": 30, "credits": 6,
    }, indexes=["id", "course_no"])
    rel.create_table("department", {"id": 6, "dept_nbr": 6, "name": 30},
                     indexes=["id"])
    rel.create_table("enrollment", {"student_id": 6, "course_id": 6},
                     indexes=["student_id", "course_id"])
    rel.create_table("teaches", {"instructor_id": 6, "course_id": 6},
                     indexes=["instructor_id", "course_id"])
    rel.create_table("prerequisite", {"course_id": 6, "prereq_id": 6},
                     indexes=["course_id"])

    store = sim_db.store
    schema = sim_db.schema

    def attr(cls, name):
        return schema.get_class(cls).attribute(name)

    def value(surrogate, attribute):
        raw = store.read_dva(surrogate, attribute)
        return None if is_null(raw) else raw

    def one(surrogate, eva):
        targets = store.eva_targets(surrogate, eva)
        return targets[0] if targets else None

    for surrogate in store.scan_class("person"):
        rel.insert("person", {
            "id": surrogate,
            "name": value(surrogate, attr("person", "name")),
            "ssn": value(surrogate, attr("person", "soc-sec-no")),
            "birthdate": value(surrogate,
                                        attr("person", "birthdate")),
            "spouse_id": one(surrogate, attr("person", "spouse")),
        })
    for surrogate in store.scan_class("student"):
        rel.insert("student", {
            "id": surrogate,
            "student_nbr": value(surrogate,
                                          attr("student", "student-nbr")),
            "advisor_id": one(surrogate, attr("student", "advisor")),
            "major_dept_id": one(surrogate,
                                 attr("student", "major-department")),
        })
        for course_id in store.eva_targets(
                surrogate, attr("student", "courses-enrolled")):
            rel.insert("enrollment", {"student_id": surrogate,
                                      "course_id": course_id})
    for surrogate in store.scan_class("instructor"):
        rel.insert("instructor", {
            "id": surrogate,
            "employee_nbr": value(
                surrogate, attr("instructor", "employee-nbr")),
            "salary": value(surrogate,
                                     attr("instructor", "salary")),
            "bonus": value(surrogate, attr("instructor", "bonus")),
            "dept_id": one(surrogate,
                           attr("instructor", "assigned-department")),
        })
        for course_id in store.eva_targets(
                surrogate, attr("instructor", "courses-taught")):
            rel.insert("teaches", {"instructor_id": surrogate,
                                   "course_id": course_id})
    for surrogate in store.scan_class("teaching-assistant"):
        rel.insert("teaching_assistant", {
            "id": surrogate,
            "teaching_load": value(
                surrogate, attr("teaching-assistant", "teaching-load")),
        })
    for surrogate in store.scan_class("course"):
        rel.insert("course", {
            "id": surrogate,
            "course_no": value(surrogate,
                                        attr("course", "course-no")),
            "title": value(surrogate, attr("course", "title")),
            "credits": value(surrogate, attr("course", "credits")),
        })
        for prereq in store.eva_targets(surrogate,
                                        attr("course", "prerequisites")):
            rel.insert("prerequisite", {"course_id": surrogate,
                                        "prereq_id": prereq})
    for surrogate in store.scan_class("department"):
        rel.insert("department", {
            "id": surrogate,
            "dept_nbr": value(surrogate,
                                       attr("department", "dept-nbr")),
            "name": value(surrogate, attr("department", "name")),
        })
    return rel
