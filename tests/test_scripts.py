"""Smoke tests: the scripts in scripts/ run end to end and write reports."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def report_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_adversary_sweep_script(tmp_path):
    out = tmp_path / "sweep"
    proc = run_script("adversary_sweep.py", "--trials", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = report_rows(out / "report.csv")
    assert len(rows) == 8  # one row per battery entry
    assert all(row["trials"] == "1" for row in rows)
    assert "report written to" in proc.stdout


def test_paper_example_script(tmp_path):
    out = tmp_path / "paper"
    proc = run_script("paper_example.py", "--trials", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(report_rows(out / "report.csv")) == 1
    assert (out / "trials.jsonl").exists()
    assert "accepted in the first phase: " in proc.stdout
