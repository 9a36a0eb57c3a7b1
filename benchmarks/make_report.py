"""Regenerate the EXPERIMENTS.md measurement tables (E3–E12) from a
``make bench`` run.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python benchmarks/make_report.py bench.json > measured.md

The output groups benchmarks by experiment (the ``test_e<N>_`` prefix) and
prints, per benchmark, the mean wall time and every ``extra_info`` number
(the deterministic block-I/O measurements the experiments assert on).
EXPERIMENTS.md narrates these numbers; this report is the raw regeneration
path.  Times the repository *claims* come from ``benchmarks/e2e`` only.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict

_EXPERIMENT_TITLES = {
    "e3": "E3 — ADDS scale (§6)",
    "e4": "E4 — EVA mapping options (§5.2)",
    "e5": "E5 — variable-format records vs separate units (§5.2)",
    "e6": "E6 — optimizer (§5.1)",
    "e7": "E7 — semantic DML vs relational formulation (§1, §4.1)",
    "e8": "E8 — transitive closure (§4.7)",
    "e9": "E9 — VERIFY enforcement (§3.3)",
    "e10": "E10 — DMSII evolution path (§5)",
    "e11": "E11 — output forms (§4.5)",
    "e12": "E12 — MV DVA mapping (§5.2)",
}


def experiment_of(name: str) -> str:
    match = re.match(r"test_(e\d+)_", name)
    if match:
        return match.group(1)
    return "other"


def format_benchmark(entry: dict) -> str:
    name = entry["name"]
    mean_ms = entry["stats"]["mean"] * 1000.0
    extra = entry.get("extra_info", {})
    extras = "  ".join(f"{key}={value}" for key, value in extra.items())
    return f"| `{name}` | {mean_ms:10.3f} | {extras} |"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        data = json.load(handle)

    grouped = defaultdict(list)
    for entry in data["benchmarks"]:
        grouped[experiment_of(entry["name"])].append(entry)

    print("# Measured results (regenerated)\n")
    machine = data.get("machine_info", {})
    print(f"Python {machine.get('python_version', '?')} on "
          f"{machine.get('system', '?')}; wall times are indicative, "
          f"block-I/O numbers (extra info) are deterministic.\n")
    for experiment in sorted(grouped,
                             key=lambda e: (e == "other",
                                            int(e[1:]) if e[1:].isdigit()
                                            else 0)):
        title = _EXPERIMENT_TITLES.get(experiment, "Other")
        print(f"## {title}\n")
        print("| benchmark | mean ms | measurements |")
        print("|---|---:|---|")
        for entry in sorted(grouped[experiment],
                            key=lambda e: e["name"]):
            print(format_benchmark(entry))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
