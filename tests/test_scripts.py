"""Smoke tests: the scripts in scripts/ run end to end and write reports."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import flat_summary, read_report_row

from rfagree.config import required_qubits

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    """The finished ``scripts/<name> *args``; pyproject's filterwarnings do not reach it, so -W does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-W", "error::ResourceWarning",
            str(ROOT / "scripts" / name), *args,
        ],
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
        # Sized by each run's config: delta 0.05, q_run 0.999 over m^2 (t+1) links, m=10, t=3.
        assert summary["n"] == required_qubits(0.05, 0.999 ** (1 / (10 * 10 * (3 + 1))))
        assert summary["config"]["q_target"] == 0.999 and summary["config"]["n"] is None


def test_paper_example_script(tmp_path):
    out = tmp_path / "paper"
    proc = run_script("paper_example.py", "--trials", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(report_rows(out / "report.csv")) == 1
    assert (out / "trials.jsonl").exists()
    assert "accepted in the first phase: " in proc.stdout
    # Sized by the config: accuracy 0.02 / 30, 99% overall success over m^2 links, m=10.
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == required_qubits(0.02 / 30, 0.99 ** (1 / 10**2))
    assert f"sized n = {summary['n']} qubits per axis" in proc.stdout


@pytest.mark.parametrize(
    "name, args, reason",
    [
        ("adversary_sweep.py", ["--m", "3", "--t", "1", "--out", "{dir}"],
         "fault bound must satisfy t < m/3, got m=3, t=1"),
        ("adversary_sweep.py", ["--out", "{file}"], "cannot create output directory {file}: File exists"),
        ("paper_example.py", ["--out", "{file}"], "cannot create output directory {file}: File exists"),
    ],
    ids=["sweep-fault-bound", "sweep-out-file", "paper-out-file"],
)
def test_scripts_report_a_config_error_as_the_cli_does(tmp_path, name, args, reason):
    # Exit 2 and one line on stderr, not a traceback; nothing written.
    taken = tmp_path / "taken"
    taken.write_text("")
    args = [arg.format(file=taken, dir=tmp_path / "out") for arg in args]
    proc = run_script(name, "--trials", "1", *args)
    assert proc.returncode == 2
    assert proc.stderr == f"config error: {reason.format(file=taken)}\n"
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == ""


def test_adversary_sweep_opens_its_report_before_the_first_run(tmp_path):
    out = tmp_path / "sweep"
    (out / "report.csv").mkdir(parents=True)
    proc = run_script("adversary_sweep.py", "--m", "4", "--t", "1", "--trials", "1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"config error: cannot write {out / 'report.csv'}: Is a directory\n"
    assert proc.stdout == ""
    assert list(out.iterdir()) == [out / "report.csv"]
