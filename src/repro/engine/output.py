"""Output forms: fully tabular and fully structured (paper §4.5).

Fully tabular: "one format describes every output record" — a flat table.

Fully structured: "the number of different output formats is equal to the
count of TYPE 1 and TYPE 3 variables in the query"; records carry level
numbers, and nesting follows the depth-first order of the loop variables —
the form the host-language interfaces consume.  Transitive closure
instances add their closure level to the record level, preserving the
tree structure of the closure (§4.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.types.tvl import is_null


@dataclass
class StructuredRecord:
    """One record of a fully structured result."""

    level: int
    format_name: str
    values: Dict[str, object]

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"<{'  ' * self.level}{self.format_name}: {inner}>"


class ResultSet:
    """The result of a Retrieve: rows plus presentation helpers."""

    def __init__(self, columns: Sequence[str], rows: List[tuple],
                 structured: Optional[List[StructuredRecord]] = None,
                 formats: Optional[List[str]] = None):
        self.columns = list(columns)
        self.rows = rows
        self._structured = structured
        self.formats = formats or []
        #: what this query's run counted (:class:`repro.perf.Tally`)
        self.perf = None
        #: non-error static-analysis diagnostics (warnings/notes) the
        #: front end attached — see :mod:`repro.analysis`
        self.diagnostics: List = []
        #: the statement's trace span tree when tracing was enabled
        #: (:mod:`repro.trace`); render with :meth:`explain_analyze`
        self.trace = None
        #: node id -> [loop entries, instances bound] from a traced run
        self.node_stats = None

    def explain_analyze(self) -> str:
        """The EXPLAIN ANALYZE view of this query's traced execution:
        the annotated query tree with per-node TYPE labels, estimated vs.
        actual cardinalities, and per-layer timings."""
        if self.trace is None:
            raise ValueError(
                "query was not traced; enable tracing "
                "(Database.enable_tracing()) and re-run it")
        return self.trace.render()

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    @property
    def structured(self) -> List[StructuredRecord]:
        if self._structured is None:
            raise ValueError(
                "query was not executed in STRUCTURE mode")
        return self._structured

    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def column(self, name_or_index) -> List:
        if isinstance(name_or_index, int):
            index = name_or_index
        else:
            index = self.columns.index(name_or_index)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def pretty(self, max_rows: int = 50) -> str:
        """Render the table the way IQF would print it; '?' is null."""
        def render(value):
            if is_null(value):
                return "?"
            return str(value)

        header = self.columns
        body = [[render(v) for v in row] for row in self.rows[:max_rows]]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for row in body:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self):
        return f"<ResultSet {len(self.rows)} rows x {len(self.columns)} cols>"


def build_structured(loop_nodes, node_targets: Dict[int, List[int]],
                     columns: Sequence[str],
                     snapshots: List[Tuple[tuple, tuple]]
                     ) -> List[StructuredRecord]:
    """Convert qualifying loop-variable snapshots into structured records.

    ``snapshots`` holds, per qualifying combination, the tuple of loop-node
    instances (in DF order) and the evaluated target values.  A record for
    node *i* is emitted whenever the instance of node *i* or any node
    before it differs from the previous snapshot — exactly the grouping the
    nested loops imply.
    """
    records: List[StructuredRecord] = []
    previous: Optional[tuple] = None
    for instances, values in snapshots:
        changed_from = 0
        if previous is not None:
            changed_from = len(instances)
            for i, (old, new) in enumerate(zip(previous, instances)):
                if old != new:
                    changed_from = i
                    break
        for i in range(changed_from, len(loop_nodes)):
            node = loop_nodes[i]
            targets = node_targets.get(node.id, [])
            if not targets:
                # Formats exist only for nodes carrying target items.
                continue
            level = _node_level(node, instances, loop_nodes, i)
            record_values = {columns[t]: values[t] for t in targets}
            records.append(StructuredRecord(
                level, _format_name(node), record_values))
        previous = instances
    return records


def _format_name(node) -> str:
    if node.kind == "root":
        return node.var_name
    if node.kind == "eva":
        return node.eva.name
    return node.mv_attr.name


def _node_level(node, instances, loop_nodes, index) -> int:
    """Structural level: tree depth plus transitive closure level."""
    level = 0
    current = node
    while current is not None:
        if current.kind != "root":
            level += 1
        if current.kind == "eva" and current.transitive:
            try:
                position = loop_nodes.index(current)
            except ValueError:
                position = None
            if position is not None:
                instance = instances[position]
                if isinstance(instance, tuple):
                    level += instance[1] - 1
        current = current.parent
    return level
