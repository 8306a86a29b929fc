"""Smoke tests: the scripts in scripts/ run end to end and write reports."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import flat_summary, read_report_row

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
    # Each row names its run: the entries differ in strategy or parameters,
    # and each row's config is the one its out_dir's summary.json holds.
    assert len({(row["config.adversary"], row["config.adversary_params"]) for row in rows}) == 8
    for row in rows:
        summary = json.loads((Path(row["config.out_dir"]) / "summary.json").read_text())
        config = flat_summary({"config": summary["config"]})
        assert read_report_row({k: row[k] for k in config}, config) == config
        assert sorted(k for k in row if k.startswith("config.")) == sorted(config)


def test_paper_example_script(tmp_path):
    out = tmp_path / "paper"
    proc = run_script("paper_example.py", "--trials", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(report_rows(out / "report.csv")) == 1
    assert (out / "trials.jsonl").exists()
    assert "accepted in the first phase: " in proc.stdout
