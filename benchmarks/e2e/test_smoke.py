"""Smoke test of the end-to-end benchmark (outside tier-1 ``testpaths``):

    python -m pytest benchmarks/e2e -q

Every workload runs both passes with ``--smoke`` (a tenth of the data)
and a tiny ``--seconds``, in its own process — the harness refuses to
measure under pytest, where lockdep is on — and must emit exactly the
names ``BENCHMARK.json`` declares.
"""

import fnmatch
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run(*arguments):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_the_declared_metrics(workload, trace):
    done = run("--workload", workload, "--seed", "1", "--seconds", "0.2",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, entry["name"]


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [entry["name"] for entry in
                         SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(entry == {"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": entry["bound"]}
               for entry in SPEC["end_to_end"])
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])


def test_every_per_layer_metric_has_a_written_prediction():
    groups = json.loads((HERE / "interactions.json").read_text())["groups"]
    patterns = [p for group in groups for p in group["per_layer"]]
    end_to_end = {entry["name"] for entry in SPEC["end_to_end"]}
    for entry in SPEC["per_layer"]:
        assert any(fnmatch.fnmatchcase(entry["name"], pattern)
                   for pattern in patterns), entry["name"]
    for group in groups:
        for side in ("moves", "unchanged"):
            assert set(group[side]["metrics"]) <= end_to_end
            assert set(group[side]["workloads"]) <= set(WORKLOADS)


def test_refuses_to_measure_with_lockdep_on(monkeypatch):
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    done = run("--workload", "oltp_session", "--seconds", "0.2", "--smoke")
    assert done.returncode != 0
    assert "refusing to measure" in done.stderr + done.stdout
