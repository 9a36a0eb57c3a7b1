"""An IQF-flavoured interactive query facility.

The paper's IQF is a menu-based query product; ours is a line-oriented
session suitable for terminals and scripts:

* DML statements (terminated by ``;`` or end of line block) run against
  the database;
* dot-commands provide catalog and tuning information:
  ``.schema``, ``.classes``, ``.stats``, ``.explain <query>``,
  ``.design``, ``.io``, ``.perf``, ``.help``.
"""

from __future__ import annotations

import io
import sys
from typing import Optional, TextIO

from repro.database import Database
from repro.errors import SimError
from repro.perf import IO_FIELDS


_HELP = """Commands:
  <DML statement>;        run Retrieve / Insert / Modify / Delete
  .schema                 print the schema DDL
  .classes                list classes with entity counts
  .stats                  schema and constraint statistics
  .design                 physical mapping decisions
  .explain <retrieve>     optimizer strategy report
  .trace <retrieve>       EXPLAIN ANALYZE: run traced, print the span tree
  .trace on|off           leave tracing on for following statements
  .analyze                collect optimizer statistics
  .lint                   run the schema linter (simcheck) on the schema
  .perf                   event counters of every layer
  .set [batch-size <n> | rewrite on|off]
                          show or change executor/optimizer knobs
  .materialize <name> join <class> <eva>
  .materialize <name> closure <class> <eva> [<eva> ...]
                          declare a materialized derived relation
  .materialized           list declared materializations
  .refresh <name>         recompute one materialization
  .dematerialize <name>   drop a materialization
  .save <path>            persist the database to a file
  .io                     block I/O counters (and reset)
  .help                   this text
  .quit                   leave the session
"""


class IQFSession:
    """One interactive session against a database."""

    def __init__(self, database: Database, out: Optional[TextIO] = None):
        self.database = database
        self.out = out or sys.stdout
        self.done = False

    # -- One command ----------------------------------------------------------------

    def handle(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        if line.startswith("."):
            self._command(line)
            return
        try:
            result = self.database.execute(line)
        except SimError as exc:
            self._print(f"error: {exc}")
            return
        if isinstance(result, int):
            self._print(f"{result} entities affected")
        else:
            for diagnostic in getattr(result, "diagnostics", []):
                if diagnostic.severity == "warning":
                    self._print(diagnostic.describe())
            self._print(result.pretty())
            self._print(f"({len(result)} rows)")

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        command = parts[0].lower()
        argument = parts[1] if len(parts) > 1 else ""
        if command in (".quit", ".exit"):
            self.done = True
        elif command == ".help":
            self._print(_HELP)
        elif command == ".schema":
            self._print(self.database.schema.ddl())
        elif command == ".classes":
            for sim_class in self.database.schema.classes():
                count = self.database.store.class_count(sim_class.name)
                kind = "base" if sim_class.is_base else "sub "
                self._print(f"  {kind} {sim_class.name:<28} {count} entities")
        elif command == ".stats":
            for key, value in self.database.statistics().items():
                self._print(f"  {key}: {value}")
        elif command == ".design":
            self._print(self.database.design.describe())
        elif command == ".explain":
            if not argument:
                self._print("usage: .explain <retrieve statement>")
                return
            try:
                self._print(self.database.explain(argument))
            except SimError as exc:
                self._print(f"error: {exc}")
        elif command == ".trace":
            if not argument:
                self._print("usage: .trace <retrieve statement> | on | off")
                return
            if argument.lower() in ("on", "off"):
                if argument.lower() == "on":
                    self.database.enable_tracing()
                    self._print("tracing on")
                else:
                    self.database.disable_tracing()
                    self._print("tracing off")
                return
            was_enabled = (self.database.trace is not None
                           and self.database.trace.enabled)
            self.database.enable_tracing()
            try:
                result = self.database.execute(argument.rstrip(";"))
            except SimError as exc:
                self._print(f"error: {exc}")
                return
            finally:
                if not was_enabled:
                    self.database.disable_tracing()
            if isinstance(result, int):
                self._print(self.database.trace.last().render())
                self._print(f"{result} entities affected")
            else:
                self._print(result.explain_analyze())
                self._print(f"({len(result)} rows)")
        elif command == ".lint":
            from repro.analysis import lint_schema
            diagnostics = lint_schema(self.database.schema)
            for diagnostic in diagnostics:
                self._print(diagnostic.describe())
            if not diagnostics:
                self._print("schema is clean")
        elif command == ".analyze":
            statistics = self.database.analyze()
            self._print(f"analyzed {len(statistics.class_cardinality)} "
                        f"classes, {len(statistics.attributes)} attributes,"
                        f" {len(statistics.evas)} EVA directions")
        elif command == ".save":
            if not argument:
                self._print("usage: .save <path>")
                return
            try:
                self.database.save(argument)
                self._print(f"saved to {argument}")
            except SimError as exc:
                self._print(f"error: {exc}")
        elif command == ".set":
            from repro.engine.operators import validate_batch_size
            executor = self.database.executor
            if not argument:
                self._print(f"  batch-size: {executor.batch_size}")
                state = "on" if self.database.rewrite else "off"
                self._print(f"  rewrite: {state}")
                return
            parts = argument.split()
            knob = parts[0].lower() if parts else ""
            if (len(parts) != 2
                    or knob not in ("batch-size", "rewrite")):
                self._print("usage: .set [batch-size <n> | rewrite on|off]")
                return
            if knob == "rewrite":
                if parts[1].lower() not in ("on", "off"):
                    self._print("usage: .set rewrite on|off")
                    return
                self.database.rewrite = parts[1].lower() == "on"
                self._print(f"rewrite {parts[1].lower()}")
                return
            try:
                value = int(parts[1])
                executor.batch_size = validate_batch_size(value)
            except (ValueError, SimError) as exc:
                self._print(f"error: {exc}")
                return
            self._print(f"{knob} set to {value}")
        elif command == ".materialize":
            parts = argument.split()
            if len(parts) < 4 or parts[1].lower() not in ("join", "closure"):
                self._print("usage: .materialize <name> join <class> <eva>"
                            " | .materialize <name> closure <class>"
                            " <eva> [<eva> ...]")
                return
            try:
                mat = self.database.materialize(parts[0], parts[1],
                                                parts[2], parts[3:])
                self._print(mat.describe())
            except SimError as exc:
                self._print(f"error: {exc}")
        elif command == ".materialized":
            mats = self.database.list_materializations()
            if not mats:
                self._print("no materializations declared")
            for mat in mats:
                self._print(f"  {mat.describe()}")
        elif command == ".refresh":
            if not argument:
                self._print("usage: .refresh <name>")
                return
            try:
                mat = self.database.refresh_materialization(argument.strip())
                self._print(mat.describe())
            except SimError as exc:
                self._print(f"error: {exc}")
        elif command == ".dematerialize":
            if not argument:
                self._print("usage: .dematerialize <name>")
                return
            try:
                self.database.drop_materialization(argument.strip())
                self._print(f"dropped {argument.strip()}")
            except SimError as exc:
                self._print(f"error: {exc}")
        elif command == ".io":
            counts = self.database.io_stats.as_dict()
            self._print(" ".join(f"{name}={counts[name]}"
                                 for name in IO_FIELDS))
            self.database.reset_io_stats()
        elif command == ".perf":
            self._print(self.database.perf.describe())
            recorder = self.database.trace
            if recorder is not None and recorder.statements:
                self._print(recorder.histograms.describe())
        else:
            self._print(f"unknown command {command!r}; try .help")

    def _print(self, text: str) -> None:
        print(text, file=self.out)

    # -- Loops -------------------------------------------------------------------------

    def run(self, source: Optional[TextIO] = None,
            prompt: str = "sim> ") -> None:
        """Interactive loop; reads from ``source`` (default stdin)."""
        source = source or sys.stdin
        interactive = source is sys.stdin and sys.stdin.isatty()
        buffered = ""
        while not self.done:
            if interactive:
                self.out.write(prompt if not buffered else "...> ")
                self.out.flush()
            line = source.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffered and stripped.startswith("."):
                self.handle(stripped)
                continue
            buffered += line
            if stripped.endswith(";") or not stripped:
                statement = buffered.strip()
                buffered = ""
                if statement:
                    self.handle(statement)
        if buffered.strip():
            self.handle(buffered.strip())


def run_script(database: Database, script: str) -> str:
    """Run an IQF script (statements and dot-commands) and return the
    transcript — used by the examples and tests."""
    out = io.StringIO()
    session = IQFSession(database, out)
    session.run(io.StringIO(script))
    return out.getvalue()
