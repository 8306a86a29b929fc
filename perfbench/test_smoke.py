"""Smoke test of the benchmark itself; about half a minute on two cores.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs briefly in both modes.  The test checks that every
metric BENCHMARK.json names (and every detail metric the traced run adds)
is printed with a unit, that the outputs were judged correct, and that the
traced self times plus the unattributed residual add up to the traced wall
time.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 20261017

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Metrics printed only as human-readable lines (see run.py for why each is
# kept out of the final JSON line).
EXTRA_END_TO_END = ("trials_per_s", "trial_p50_ms", "verify_s", "failed_trial_share")
EXTRA_PER_LAYER = ("harness.transcript_records_s", "failed_trial_share")


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        match = re.match(r"metric (\S+) = (\S+) (\S+)$", line)
        if match:
            printed[match.group(1)] = match.group(3)
    record_path = os.path.join(
        ROOT, ".perfbench", "results", f"{workload}-seed{SEED}-trace{trace}.json"
    )
    with open(record_path) as fh:
        record = json.load(fh)
    return result, printed, record


def check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end(workload):
    result, printed, record = run_bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    for name in [m["name"] for m in SPEC["end_to_end"]] + list(EXTRA_END_TO_END):
        assert printed.get(name), f"{name} not printed with a unit"
    assert record["details"]["failed_trial_share"]["value"] == 0.0
    for key in ("python", "numpy", "nproc", "commit", "seed"):
        assert key in record["provenance"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_adds_up(workload):
    result, printed, record = run_bench(workload, 1)
    check_result(result, SPEC["per_layer"])
    for name in [m["name"] for m in SPEC["per_layer"]] + list(EXTRA_PER_LAYER):
        assert printed.get(name), f"{name} not printed with a unit"

    times = dict(result["metrics"], **record["details"])
    self_seconds = sum(
        v["value"] for name, v in times.items()
        if v is not None and isinstance(v, dict) and v.get("unit") == "s"
        and name not in ("traced_wall_s", "unattributed_s")
    )
    wall = times["traced_wall_s"]["value"]
    assert self_seconds + times["unattributed_s"]["value"] == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= times["unattributed_s"]["value"] < 0.5 * wall
