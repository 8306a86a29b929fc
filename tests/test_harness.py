import csv
import errno
import gc
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rfagree import adversaries, harness
from rfagree.adversaries import RandomNoise, make_adversary, strategy_catalog
from rfagree.config import (
    FIELD_RULES,
    STRATEGY_PARAMS,
    ConfigError,
    ExperimentConfig,
    ted_accuracy_bound,
    ted_success_bound,
)
from rfagree.cli import _parse_set, main as cli_main
from rfagree.geometry import distance, to_global
from rfagree.harness import (
    LINK_FIELDS,
    TrialMetrics,
    allowed_violation_rate,
    compute_metrics,
    emit_report,
    link_metrics,
    quantum_links,
    record_frames,
    round_links,
    run_experiment,
    run_trial,
    transcript_records,
    trial_frames,
    verify_records,
)
from rfagree.netsim import QUANTUM_STEPS, substream
from rfagree.quantum_link import ChannelParams, MeasurementTally, QuantumMessage, ted_receive
from rfagree.rf_protocols import ProtocolParams

from helpers import (
    flat_summary,
    random_frame,
    read_report_row,
    reference_link_metrics,
    reference_transcript_text,
)


def small_config(**overrides):
    base = dict(
        m=4,
        t=1,
        delta=0.05,
        epsilon=0.0,
        n=20000,
        adversary="honest-shadow",
        faulty_ids=(),
        trials=3,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(t=2).validate()  # 3t >= m
    with pytest.raises(ConfigError):
        small_config(n=None).validate()  # neither n nor q_target
    with pytest.raises(ConfigError):
        small_config(q_target=0.9).validate()  # both given
    with pytest.raises(ConfigError):
        small_config(adversary="bogus").validate()
    with pytest.raises(ConfigError):
        small_config(faulty_ids=(0, 1)).validate()  # exceeds t
    with pytest.raises(ConfigError):
        small_config(trials=0).validate()
    # Below 1, but its m^2 (t+1)-th root is 1.0 in floating point.
    with pytest.raises(ConfigError, match="per-link target of 1.0"):
        small_config(
            m=7, t=2, n=None, q_target=0.9999999999999999, q_target_scope="overall_strict"
        ).validate()
    small_config().validate()


#: One field of small_config() at the edge of its range, on the side accepted.
CONFIG_EDGES_ACCEPTED = {
    "m-2": {"m": 2, "t": 0},
    "t-0": {"t": 0},
    "delta-1e-9": {"delta": 1e-9},
    "epsilon-0": {"epsilon": 0.0},
    "epsilon-1": {"epsilon": 1.0},
    "n-1": {"n": 1},
}

#: The same fields just past that edge, and values outside a field's set.
CONFIG_EDGES_REJECTED = {
    "m-1": {"m": 1, "t": 0},
    "t-negative": {"t": -1},
    "delta-0": {"delta": 0.0},
    "epsilon-negative": {"epsilon": -0.1},
    "epsilon-above-1": {"epsilon": 1.1},
    "n-0": {"n": 0},
    "q-target-0": {"n": None, "q_target": 0.0},
    "q-target-1": {"n": None, "q_target": 1.0},
    "q-target-scope-unknown": {"n": None, "q_target": 0.9, "q_target_scope": "per_run"},
    "jobs-0": {"jobs": 0},
    "config-version-2": {"config_version": 2},
}


@pytest.mark.parametrize(
    "change", CONFIG_EDGES_ACCEPTED.values(), ids=CONFIG_EDGES_ACCEPTED.keys()
)
def test_config_accepts_each_range_edge(change):
    small_config(**change).validate()


@pytest.mark.parametrize(
    "change", CONFIG_EDGES_REJECTED.values(), ids=CONFIG_EDGES_REJECTED.keys()
)
def test_config_rejects_just_past_each_range_edge(change):
    with pytest.raises(ConfigError):
        small_config(**change).validate()


def test_every_config_field_has_one_rule():
    # FIELD_RULES is the one list of fields, so none reaches a run unchecked;
    # the version comes first, so it is checked first.
    assert list(small_config().to_dict()) == list(FIELD_RULES)
    assert next(iter(FIELD_RULES)) == "config_version"
    paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    assert paths
    for path in paths:
        cfg = ExperimentConfig.load(path)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_readme_config_table_names_every_field():
    # README's "Configuration file" table, with the version line above it,
    # names each field of FIELD_RULES once.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration file\n")[1]
    head, table = section.split("\n| field | meaning |\n|---|---|\n")
    named = re.findall(r"`(\w+): ", head)
    for row in table.split("\n\n")[0].splitlines():
        named += re.findall(r"`(\w+)`", row.split("|")[1])
    assert sorted(named) == sorted(FIELD_RULES)


@pytest.mark.parametrize("key", ["m", "t", "delta"])
def test_config_requires_m_t_and_delta(key):
    data = {"m": 4, "t": 1, "delta": 0.05, "n": 100}
    del data[key]
    with pytest.raises(ConfigError, match=f"missing config key: {key}$"):
        ExperimentConfig.from_dict(data)


def test_config_rejects_n_beyond_int64():
    # Generator.binomial takes n as an int64: 2**63 - 1 runs, a larger n,
    # given or sized from q_target at a tiny delta, is a config error.
    small_config(n=2**63 - 1).validate()
    with pytest.raises(ConfigError, match="at most 2"):
        small_config(n=2**63).validate()
    for delta in (1e-9, 1e-160, 1e-200):  # the last two leave the float range
        with pytest.raises(ConfigError, match="at most 2"):
            small_config(n=None, q_target=0.9, delta=delta).validate()


def test_config_rejects_a_seed_that_aliases_another():
    # Philox keys are 64-bit words, so -1 would replay seed 2**64 - 1, and
    # 2**64 seed 0.
    small_config(master_seed=2**64 - 1).validate()
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="master_seed must be an integer in"):
            small_config(master_seed=seed).validate()


def test_config_round_trip(tmp_path):
    cfg = small_config(adversary="equivocator", adversary_params={"separation": 1.0}, faulty_ids=(0,))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys():
    for key in ("bogus_key", "self"):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"m": 4, "t": 1, "delta": 0.05, "n": 10, key: 1})


def test_auto_sizing_minimality():
    cfg = small_config(n=None, q_target=0.97)
    n = cfg.resolved_n()
    assert ted_success_bound(n, cfg.delta) >= 0.97
    assert ted_success_bound(n - 1, cfg.delta) < 0.97


def test_auto_sizing_overall_scopes():
    cfg = small_config(n=None, q_target=0.999, q_target_scope="overall_strict")
    per_link = cfg.per_link_target()
    exponent = cfg.m * cfg.m * (cfg.t + 1)
    assert per_link == pytest.approx(0.999 ** (1.0 / exponent))
    n = cfg.resolved_n()
    assert ted_success_bound(n, cfg.delta) ** exponent >= 0.999 - 1e-12

    headline = small_config(n=None, q_target=0.999, q_target_scope="overall")
    assert headline.per_link_target() == pytest.approx(0.999 ** (1.0 / 16))
    assert headline.resolved_n() < n


def test_paper_example_auto_sized_experiment():
    # Network of ten nodes, overall 99% target, consensus diameter 0.02:
    # sizing lands at n ~ 3.1e8 per axis and honest runs never violate.
    cfg = ExperimentConfig(
        m=10,
        t=3,
        delta=0.02 / 30.0,
        q_target=0.99,
        q_target_scope="overall",
        adversary="honest-shadow",
        faulty_ids=(),
        trials=100,
        master_seed=2718,
    )
    assert 3.05e8 <= cfg.resolved_n() <= 3.15e8
    summary, _, metrics = run_experiment(cfg)
    assert summary["violation_rate"] == 0.0
    assert all(m.eta_emp <= 0.02 for m in metrics)


def test_report_eta_decreases_with_n(tmp_path):
    summaries = []
    for idx, n in enumerate((10**3, 10**4, 10**5)):
        cfg = small_config(n=n, trials=50, master_seed=1234)
        summary, _, _ = run_experiment(cfg)
        summaries.append(summary)
    means = [s["mean_eta"] for s in summaries]
    # Statistical monotonicity: larger batches estimate better.
    assert means[0] > means[1] > means[2]
    path = tmp_path / "sweep.csv"
    with open(path, "w", newline="") as fh:
        emit_report(summaries, fh)
    assert len(path.read_text().splitlines()) == 4


def test_run_experiment_summary_and_files(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "out"), write_transcript=True)
    summary, records, metrics = run_experiment(cfg)
    assert records is None  # the records are in trials.jsonl
    assert summary["trials"] == 3
    assert summary["violations"] == 0
    assert summary["passed"] is True
    assert summary["per_run_success_bound"] == pytest.approx(
        ted_success_bound(20000, 0.05) ** (16 * 2)
    )
    out = tmp_path / "out"
    assert (out / "trials.jsonl").exists()
    assert (out / "summary.json").exists()
    assert (out / "report.csv").exists()
    assert (out / "transcript.jsonl").exists()
    with open(out / "trials.jsonl") as fh:
        lines = fh.readlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["metrics"]["consistency_ok"] is True


def test_run_with_out_dir_leaves_no_reference_cycles(tmp_path):
    # summary.json goes through the C encoder: the pure-Python one, which
    # an indent selects, left 33 objects in cycles per run.
    gc.collect()
    gc.disable()
    try:
        run_experiment(small_config(trials=1, out_dir=str(tmp_path / "out")))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["trials"] == 1


def test_failed_run_leaves_no_partial_export(tmp_path, monkeypatch):
    # Lines are written as trials finish; a run that raises removes them.
    run_trial = harness.run_trial

    def failing(config, trial, frames=None):
        if trial == 1:
            raise RuntimeError("trial 1 failed")
        return run_trial(config, trial, frames)

    monkeypatch.setattr(harness, "run_trial", failing)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_experiment(small_config(out_dir=str(out), write_transcript=True))
    assert out.is_dir()
    assert list(out.iterdir()) == []  # the JSONL files, summary.json and report.csv


def test_failed_report_write_leaves_no_partial_export(tmp_path, monkeypatch):
    # Every trial is written when report.csv fails: the run still removes
    # every file it opened, the JSONL files and summary.json included.
    def full_disk(summaries, fh):
        fh.write("config.")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(harness, "emit_report", full_disk)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="No space left on device"):
        run_experiment(small_config(out_dir=str(out), write_transcript=True))
    assert out.is_dir() and list(out.iterdir()) == []


def run_python(code: str, *flags) -> str:
    """The stripped stdout of ``python *flags -c code``, run on this checkout's package."""
    src = str(Path(harness.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_out_the_process_pool():
    # Only a run with jobs > 1 imports the pool, and multiprocessing,
    # socket and logging with it.
    code = "import sys, rfagree.harness; print('concurrent.futures.process' in sys.modules)"
    assert run_python(code) == "False"


def test_package_import_loads_no_module():
    # The top level holds only __version__: callers import the modules they use.
    code = (
        "import sys, rfagree; "
        "print(sorted(m for m in sys.modules if m.startswith('rfagree')), 'numpy' in sys.modules)"
    )
    assert run_python(code) == "['rfagree'] False"


def test_config_validates_and_sizes_without_numpy():
    # The m10 benchmark workload's config: sized from q_target, with an
    # equivocator parameter to check.
    data = {
        "m": 10, "t": 3, "delta": 0.05, "epsilon": 0.0,
        "q_target": 0.999, "q_target_scope": "overall_strict",
        "adversary": "equivocator", "adversary_params": {"separation": 2.0},
        "write_transcript": True, "trials": 50, "master_seed": 7,
    }
    code = (
        "import sys; from rfagree.config import ExperimentConfig; "
        f"ExperimentConfig.from_dict({data!r}).resolved_n(); "
        "print(sorted(m for m in sys.modules if m.startswith('rfagree')), 'numpy' in sys.modules)"
    )
    assert run_python(code) == "['rfagree', 'rfagree.config'] False"


def test_config_import_loads_no_heavy_module():
    # Set-up imports the config alone: no dataclasses and what it pulls in,
    # no typing, no numpy.  Without site, so typing is not loaded before.
    code = (
        "import sys; before = set(sys.modules); import rfagree.config; "
        "print(*sorted(set(sys.modules) - before))"
    )
    loaded = set(run_python(code, "-S").split())
    assert "rfagree.config" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "typing", "numpy"}


def test_cli_calc_loads_no_numpy():
    code = (
        "import sys; from rfagree.cli import main; "
        "main(['calc', '--m', '7', '--overall-success', '0.99', '--accuracy', '0.3']); "
        "print('numpy' in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == "False"


def test_memory_flat_in_trial_count(tmp_path):
    # tracemalloc peaks of a run and of its verify, with and without the
    # transcript, at 10 and at 40 trials.  Each trial adds only its
    # TrialMetrics (under 1 KB here) to the run, and nothing to verify,
    # which holds one trial's record and links at a time: its peak moves by
    # under 1 KB.  Holding every record and transcript until the end, the
    # run once grew by 505 KB from 10 to 40 trials, and verify, holding
    # every trial's links, by 275 KB; holding every record without a
    # transcript costs about 11 KB per trial.  Keeping a record count and a
    # round count per trial number, verify grew by about 2.6 KB with the
    # transcript and 1.6 KB without.
    def peaks(trials):
        out = tmp_path / str(trials)
        cfg = small_config(out_dir=str(out), trials=trials, write_transcript=True)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            run_peak = tracemalloc.get_traced_memory()[1]
            verify_peaks = []
            for transcript in (out / "transcript.jsonl", None):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert verify_records(out / "trials.jsonl", transcript, cfg) == []
                verify_peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return run_peak, verify_peaks

    # A full collection empties the free lists, and whichever pass refills
    # them peaks higher by a few KB.
    gc.disable()
    try:
        peaks(1)  # lazy set-up out of the way
        (run_10, verify_10), (run_40, verify_40) = peaks(10), peaks(40)
    finally:
        gc.enable()
    assert run_40 - run_10 < 100_000
    for at_10, at_40 in zip(verify_10, verify_40):
        assert at_40 - at_10 < 1_500


def test_pool_memory_grows_as_a_serial_run_does():
    # From 50 to 400 trials a run's tracemalloc peak grew by 286 KB at
    # jobs=1, its TrialMetrics, and by 691 KB at jobs=2 when Executor.map
    # submitted every trial before it yielded the first.  With at most
    # 2 * jobs trials submitted and not yet read, jobs=2 grows as jobs=1 does.
    def growth(jobs):
        peaks = []
        for trials in (50, 400):
            cfg = small_config(adversary="crash", faulty_ids=None, n=200, trials=trials, jobs=jobs)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[1] - peaks[0]

    gc.disable()
    try:
        run_experiment(small_config(trials=2, jobs=2))  # lazy set-up out of the way
        serial, pooled = growth(1), growth(2)
    finally:
        gc.enable()
    assert pooled - serial < 100_000


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers see the patch only when forked"
)
def test_failed_pool_run_starts_no_trial_past_its_window(tmp_path, monkeypatch):
    # Trial 0 raises; trials 0-3 were submitted before its result was read,
    # and none after.  Each worker appends the trials it starts to a file.
    started = tmp_path / "started"

    def failing(config, trial, frames=None):
        with open(started, "a") as fh:
            fh.write(f"{trial}\n")
        raise RuntimeError(f"trial {trial} failed")

    monkeypatch.setattr(harness, "run_trial", failing)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="trial 0 failed"):
        run_experiment(small_config(out_dir=str(out), trials=40, jobs=2))
    assert not (out / "trials.jsonl").exists()
    assert set(started.read_text().split()) <= {"0", "1", "2", "3"}


def test_verify_memory_flat_when_a_trial_has_no_readable_line(tmp_path):
    # Every transcript line of trial 0 is cut short, so its record has no
    # block and is checked once trial 1's is read.  Waiting for trial 0's
    # block through the end of the file, verify once held the links of
    # every later trial.
    def verify_peak(trials):
        out = tmp_path / str(trials)
        cfg = small_config(out_dir=str(out), trials=trials, write_transcript=True)
        run_experiment(cfg)
        path = out / "transcript.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(
            "".join(line[:-4] + "\n" if json.loads(line)["trial"] == 0 else line for line in lines)
        )
        tracemalloc.start()
        try:
            mismatches = verify_records(out / "trials.jsonl", path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two king phases of 9 rounds make 18 lines per trial.
        assert len(mismatches) == 19
        assert all(" JSONDecodeError: " in line for line in mismatches[:18])
        assert mismatches[18] == "trial 0: no transcript lines"
        return peak

    verify_peak(1)  # lazy set-up out of the way
    assert verify_peak(40) - verify_peak(10) < 50_000


def test_run_without_out_dir_encodes_nothing(monkeypatch):
    # Nothing is written, so neither a trial's line nor its transcript is encoded.
    def unexpected(*args):
        raise AssertionError("encoded without out_dir")

    monkeypatch.setattr(harness, "transcript_records", unexpected)
    monkeypatch.setattr(harness._ENCODER, "encode", unexpected)
    summary, _, metrics = run_experiment(small_config(write_transcript=True))
    assert len(metrics) == 3 and summary["violations"] == 0


def test_trials_jsonl_byte_identical_across_runs(tmp_path):
    cfg1 = small_config(out_dir=str(tmp_path / "a"))
    cfg2 = small_config(out_dir=str(tmp_path / "b"))
    run_experiment(cfg1)
    run_experiment(cfg2)
    a = (tmp_path / "a" / "trials.jsonl").read_bytes()
    b = (tmp_path / "b" / "trials.jsonl").read_bytes()
    assert a == b


@pytest.mark.parametrize("n", [2, 1000])
@pytest.mark.parametrize("epsilon", [0.0, 0.1])
@pytest.mark.parametrize("m, t", [(4, 1), (7, 2)])
@pytest.mark.parametrize("adversary", sorted(strategy_catalog()))
def test_transcript_text_equals_the_dict_builder(adversary, m, t, epsilon, n):
    # Each line is json.dumps(record, sort_keys=True) of the dict builder's
    # record; at n = 2 most tallies are degenerate and many links fail.
    cfg = small_config(
        m=m, t=t, epsilon=epsilon, n=n, adversary=adversary, faulty_ids=None, master_seed=5
    )
    result, _, _ = run_trial(cfg, 1)
    text = transcript_records(1, result.transcript)
    assert text == reference_transcript_text(1, result.transcript)
    assert text.count("\n") == len(result.transcript)


def test_transcript_slot_keys_in_string_order_past_ten_nodes():
    # No golden digest has m >= 11.  Faulty 2, 10 and 11 equivocate in phase
    # 2's direction exchange, and sort_keys writes "10" and "11" before "2".
    cfg = small_config(
        m=12, t=3, n=5000, adversary="equivocator", adversary_params={"separation": 2.0},
        faulty_ids=[2, 10, 11], master_seed=3,
    )
    result, _, _ = run_trial(cfg, 0)
    text = transcript_records(0, result.transcript)
    assert text == reference_transcript_text(0, result.transcript)
    (rec,) = [
        json.loads(line) for line in text.splitlines()
        if '"phase": 2, ' in line and '"step": "direction_exchange"' in line
    ]
    assert list(rec["slot_payloads"]) == ["10", "11", "2"]


def test_parallel_jobs_match_serial(tmp_path):
    # Each trial's transcript is encoded in the worker that ran it.
    serial = small_config(out_dir=str(tmp_path / "serial"), trials=4, write_transcript=True)
    parallel = small_config(
        out_dir=str(tmp_path / "parallel"), trials=4, jobs=2, write_transcript=True
    )
    run_experiment(serial)
    run_experiment(parallel)
    for name in ("trials.jsonl", "transcript.jsonl"):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "parallel" / name).read_bytes()
        assert a == b, name


def is_quantum(rec):
    return rec["step"] in QUANTUM_STEPS


def rewrite_line(path, predicate, edit):
    """Apply ``edit`` to the first JSON line of ``path`` matching ``predicate``.

    Returns that line's 1-based number.
    """
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if predicate(json.loads(line)))
    rec = json.loads(lines[idx])
    edit(rec)
    lines[idx] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    return idx + 1


def tampered(value):
    """A stored metric value that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return [] if value else 0  # persistency, or a metric that is None


@pytest.mark.parametrize("field", [f.name for f in fields(TrialMetrics)])
def test_verify_round_trip_and_corruption(tmp_path, field):
    # Every stored metric is recomputed: tampering one is one mismatch.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    trials, transcript = out / "trials.jsonl", out / "transcript.jsonl"
    assert verify_records(trials, transcript, cfg) == []
    assert verify_records(trials, None, cfg) == []

    def edit(rec):
        rec["metrics"][field] = tampered(rec["metrics"][field])

    rewrite_line(trials, lambda rec: rec["trial"] == 1, edit)
    mismatches = verify_records(trials, transcript, cfg)
    assert len(mismatches) == 1 and mismatches[0].startswith(f"trial 1: {field} stored=")
    # The fields read from the quantum links need the transcript.
    assert verify_records(trials, None, cfg) == ([] if field in LINK_FIELDS else mismatches)


def test_verify_recomputes_from_outputs_and_tallies(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)

    # Corrupt one output: verification must notice.
    trials = (out / "trials.jsonl").read_text()

    def move_output(rec):
        some = next(k for k, v in rec["outputs_local"].items() if v is not None)
        rec["outputs_local"][some] = [0.0, 1.0, 0.0]

    rewrite_line(out / "trials.jsonl", lambda rec: True, move_output)
    assert verify_records(out / "trials.jsonl", None, cfg) != []

    # Zero one correct-to-correct tally in the transcript: the recomputed
    # estimation-failure count, and so full success, must disagree with
    # the stored ones.
    (out / "trials.jsonl").write_text(trials)

    def zero_tally(rec):
        # The first slot runs from the first sender to the lowest other node.
        sender = rec["senders"][0]
        receiver = 1 if sender == 0 else 0
        assert not set(cfg.faulty_ids) & {sender, receiver}
        rec["tallies"][0][:3] = [0, 0, 0]

    rewrite_line(out / "transcript.jsonl", is_quantum, zero_tally)
    mismatches = verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg)
    assert [line.split()[2] for line in mismatches] == ["estimation_failures", "fully_successful"]


def drop_lines(path, predicate):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not predicate(json.loads(line))))


def repeat_lines(path, predicate):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + [line for line in lines if predicate(json.loads(line))]))


def repeat_in_place(path, trial, edit):
    """Write a copy of ``trial``'s line right after it, changed by ``edit``."""
    lines = path.read_text().splitlines(keepends=True)
    idx = next(i for i, line in enumerate(lines) if json.loads(line)["trial"] == trial)
    rec = json.loads(lines[idx])
    edit(rec)
    lines.insert(idx + 1, json.dumps(rec, sort_keys=True) + "\n")
    path.write_text("".join(lines))


def seed_and_link_field_changed(rec):
    rec["master_seed"] = 100
    rec["metrics"]["estimation_failures"] = 1


def classical_in_place_of_quantum(rec):
    # A well-formed flag exchange line in place of the direction exchange.
    for key in ("payloads", "slot_payloads", "tallies"):
        del rec[key]
    rec.update(step="flag_exchange", symbols=[1, 1, 1, 1], slot_symbols={})


def without_last_sender(rec):
    # Node 3 no longer sends: its 3 tallies and its payload are cut.
    rec.update(senders=[0, 1, 2], tallies=rec["tallies"][:9], payloads=rec["payloads"][:3])


@pytest.mark.parametrize(
    "name, damage, expected",
    [
        pytest.param(
            "transcript.jsonl",
            lambda path: drop_lines(
                path, lambda rec: rec["trial"] == 0 and rec["step"] == "direction_exchange"
            ),
            ["trial 0: transcript rounds are not 0..17 once each, in order"],
            id="dropped-direction-exchange",
        ),
        pytest.param(
            "transcript.jsonl",
            lambda path: repeat_lines(path, lambda rec: rec["trial"] == 1),
            ["trial 1: transcript lines out of order, after trial 2"],
            id="repeated-trial",
        ),
        pytest.param(
            "trials.jsonl",
            lambda path: drop_lines(path, lambda rec: rec["trial"] == 1),
            ["trial 1: 0 trials.jsonl records, not 1"],
            id="dropped-trial",
        ),
        pytest.param(
            "transcript.jsonl",
            lambda path: rewrite_line(
                path, lambda rec: rec["trial"] == 0 and rec["round"] == 1,
                classical_in_place_of_quantum,
            ),
            [
                "trial 0: transcript line 2: ValueError: round 1 is (phase, step, cc_round, "
                "senders) (0, 'flag_exchange', None, [0, 1, 2, 3]), not "
                "(0, 'direction_exchange', None, [0, 1, 2, 3])",
                "trial 0: transcript rounds are not 0..17 once each, in order",
            ],
            id="classical-in-place-of-quantum",
        ),
        pytest.param(
            "transcript.jsonl",
            lambda path: rewrite_line(
                path, lambda rec: rec["trial"] == 1 and rec["round"] == 1, without_last_sender
            ),
            [
                "trial 1: transcript line 20: ValueError: round 1 is (phase, step, cc_round, "
                "senders) (0, 'direction_exchange', None, [0, 1, 2]), not "
                "(0, 'direction_exchange', None, [0, 1, 2, 3])",
                "trial 1: transcript rounds are not 0..17 once each, in order",
            ],
            id="sender-removed",
        ),
        pytest.param(
            "transcript.jsonl",
            lambda path: rewrite_line(
                path, lambda rec: rec["trial"] == 0 and rec["round"] == 17,
                lambda rec: rec.update(round=18),
            ),
            [
                "trial 0: transcript line 18: ValueError: round 18 is not one of 0..17",
                "trial 0: transcript rounds are not 0..17 once each, in order",
            ],
            id="round-out-of-range",
        ),
        # Fields equal under == to the schedule's, but not what a run writes.
        pytest.param(
            "transcript.jsonl",
            lambda path: rewrite_line(
                path, lambda rec: rec["trial"] == 0 and rec["round"] == 9,
                lambda rec: rec.update(phase=True),
            ),
            [
                "trial 0: transcript line 10: ValueError: round 9 is (phase, step, cc_round, "
                "senders) (True, 'king_broadcast', None, [1]), not "
                "(1, 'king_broadcast', None, [1])",
                "trial 0: transcript rounds are not 0..17 once each, in order",
            ],
            id="phase-as-bool",
        ),
        pytest.param(
            "transcript.jsonl",
            lambda path: rewrite_line(
                path, lambda rec: rec["trial"] == 2 and rec["round"] == 4,
                lambda rec: rec.update(cc_round=True),
            ),
            [
                "trial 2: transcript line 41: ValueError: round 4 is (phase, step, cc_round, "
                "senders) (0, 'classical_round', True, [0, 1, 2, 3]), not "
                "(0, 'classical_round', 1, [0, 1, 2, 3])",
                "trial 2: transcript rounds are not 0..17 once each, in order",
            ],
            id="cc-round-as-bool",
        ),
        pytest.param(
            "trials.jsonl",
            lambda path: repeat_lines(path, lambda rec: rec["trial"] == 1),
            ["trial 1: trials.jsonl record out of order, after trial 2"],
            id="repeated-record",
        ),
        # The copy is checked, but without the link fields: its
        # estimation_failures of 1 goes unreported.
        pytest.param(
            "trials.jsonl",
            lambda path: repeat_in_place(path, 1, seed_and_link_field_changed),
            [
                "trial 1: master_seed stored=100 recomputed=99",
                "trial 1: 2 trials.jsonl records, not 1",
            ],
            id="repeated-record-in-place",
        ),
        pytest.param(
            "trials.jsonl",
            lambda path: repeat_in_place(path, 2, lambda rec: rec.update(trial=-1)),
            ["trial -1: trials.jsonl record, but not one of the config's 3 trials"],
            id="record-trial-negative",
        ),
        pytest.param(
            "trials.jsonl",
            lambda path: rewrite_line(
                path, lambda rec: rec["trial"] == 1, lambda rec: rec.update(trial=1.0)
            ),
            [
                "trials line 2: ValueError: trial number 1.0 is not an int",
                "trial 1: 0 trials.jsonl records, not 1",
            ],
            id="record-trial-as-float",
        ),
        pytest.param(
            "transcript.jsonl",
            lambda path: rewrite_line(
                path, lambda rec: rec["trial"] == 2 and rec["round"] == 0,
                lambda rec: rec.update(trial="2"),
            ),
            [
                "transcript line 37: ValueError: trial number '2' is not an int",
                "trial 2: transcript rounds are not 0..17 once each, in order",
            ],
            id="line-trial-as-str",
        ),
    ],
)
def test_verify_checks_export_structure(tmp_path, name, damage, expected):
    # Links that all succeeded can go missing without moving a metric; the
    # structure check notices.  Two king phases of 9 rounds make 18 per trial.
    # A well-formed transcript line that is not the round its number names
    # in that schedule is a line mismatch and feeds no link.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    damage(out / name)
    assert verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg) == expected


def reverse_trials(path):
    """Write the lines of ``path`` with the trials' blocks in reverse order."""
    blocks = {}
    for line in path.read_text().splitlines(keepends=True):
        blocks.setdefault(json.loads(line)["trial"], []).append(line)
    path.write_text("".join(line for trial in reversed(blocks) for line in blocks[trial]))


@pytest.mark.parametrize(
    "name, structure",
    [
        pytest.param(
            "trials.jsonl",
            [
                "trial 0: 0 trials.jsonl records, not 1",
                "trial 1: 0 trials.jsonl records, not 1",
                "trial 1: trials.jsonl record out of order, after trial 2",
                "trial 0: trials.jsonl record out of order, after trial 2",
            ],
            id="trials.jsonl",
        ),
        pytest.param(
            "transcript.jsonl",
            [
                "trial 0: no transcript lines",
                "trial 1: no transcript lines",
                "trial 1: transcript lines out of order, after trial 2",
                "trial 0: transcript lines out of order, after trial 2",
            ],
            id="transcript.jsonl",
        ),
    ],
)
def test_verify_reports_trials_out_of_order(tmp_path, name, structure):
    # verify reads both files once, in trial order, as a run writes them.
    # With one file's trials reversed, trials 1 and 0 come after trial 2:
    # each is missing where it belongs and out of order where it is, and
    # feeds no metric.  Trial 2 is still checked with its links.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    trials, transcript = out / "trials.jsonl", out / "transcript.jsonl"
    reverse_trials(out / name)

    def edit(rec):
        rec["metrics"]["estimation_failures"] = 1

    rewrite_line(trials, lambda rec: rec["trial"] == 2, edit)
    assert verify_records(trials, transcript, cfg) == [
        "trial 2: estimation_failures stored=1 recomputed=0", *structure
    ]


def test_verify_fails_a_split_transcript_block(tmp_path):
    # Trial 1's last nine rounds come after trial 2's: its record is checked
    # with its first nine, which fail the structure check, and the last
    # nine are out of order and feed no metric.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    path = out / "transcript.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    late = [line for line in lines if json.loads(line)["trial"] == 1][9:]
    path.write_text("".join(line for line in lines if line not in late) + "".join(late))
    assert verify_records(out / "trials.jsonl", path, cfg) == [
        "trial 1: transcript rounds are not 0..17 once each, in order",
        "trial 1: transcript lines out of order, after trial 2",
    ]


def test_verify_reports_trials_beyond_the_config(tmp_path):
    # A three-trial export checked against a config of two: trial 2's record
    # and its transcript lines are each one mismatch.
    out = tmp_path / "out"
    run_experiment(small_config(out_dir=str(out), write_transcript=True))
    cfg = small_config(out_dir=str(out), trials=2, write_transcript=True)
    assert verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg) == [
        "trial 2: trials.jsonl record, but not one of the config's 2 trials",
        "trial 2: transcript lines, but not one of the config's 2 trials",
    ]


@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param(lambda line: line[:-2], "JSONDecodeError", id="not-json"),
        pytest.param(
            lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "frames"}),
            "KeyError",
            id="no-frames",
        ),
        pytest.param(
            lambda line: json.dumps(dict(json.loads(line), frames=[[[1.0, 0.0, 0.0]] * 2] * 4)),
            "ValueError",
            id="2x3-frame",
        ),
        # Once a RecursionError traceback.
        pytest.param(lambda line: "[" * 100_000, "RecursionError", id="nested-too-deep"),
    ],
)
def test_verify_reports_malformed_trials_line(tmp_path, edit, error):
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    lines = (out / "trials.jsonl").read_text().splitlines()
    lines[1] = edit(lines[1])
    (out / "trials.jsonl").write_text("\n".join(lines) + "\n")
    mismatches = verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg)
    assert f"trials line 2: {error}: " in mismatches[0]


DERIVED_FIELD_EDITS = {
    "outputs_global": lambda rec: dict(rec["outputs_global"], **{"0": [0.0, 1.0, 0.0]}),
    "n": lambda rec: 5,
    "master_seed": lambda rec: rec["master_seed"] + 1,
}


@pytest.mark.parametrize("field", DERIVED_FIELD_EDITS)
def test_verify_checks_derived_record_fields(tmp_path, field):
    # outputs_global is derived from outputs_local and frames, n and
    # master_seed come from the config: tampering one is one mismatch.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=2)
    run_experiment(cfg)

    def edit(rec):
        rec[field] = DERIVED_FIELD_EDITS[field](rec)

    rewrite_line(out / "trials.jsonl", lambda rec: rec["trial"] == 1, edit)
    mismatches = verify_records(out / "trials.jsonl", None, cfg)
    assert len(mismatches) == 1 and mismatches[0].startswith(f"trial 1: {field} stored=")


def set_faulty_ids(rec):
    rec["faulty_ids"] = [3]


def no_king_honest(rec):
    for pr in rec["phases"]:
        pr["king_honest"] = False


def king_honest_as_int(rec):
    for pr in rec["phases"]:
        pr["king_honest"] = int(pr["king_honest"])


def phase_as_bool(rec):
    rec["phases"][1]["phase"] = True


def faulty_id_as_bool(rec):
    rec["faulty_ids"] = [False]


def n_as_float(rec):
    rec["n"] = float(rec["n"])


def master_seed_as_float(rec):
    rec["master_seed"] = float(rec["master_seed"])


CRASH = dict(adversary="crash", faulty_ids=None, n=300, master_seed=5)


@pytest.mark.parametrize(
    "overrides, edit, key",
    [
        pytest.param({}, set_faulty_ids, "faulty_ids", id="faulty-ids"),
        pytest.param(CRASH, no_king_honest, "kings", id="king-honest"),
        # Equal under == to what the config fixes, but not what a run writes.
        pytest.param(CRASH, king_honest_as_int, "kings", id="king-honest-as-int"),
        pytest.param(CRASH, phase_as_bool, "kings", id="phase-as-bool"),
        pytest.param(CRASH, faulty_id_as_bool, "faulty_ids", id="faulty-id-as-bool"),
        pytest.param(CRASH, n_as_float, "n", id="n-as-float"),
        pytest.param(CRASH, master_seed_as_float, "master_seed", id="master-seed-as-float"),
    ],
)
def test_verify_checks_fields_the_config_fixes(tmp_path, overrides, edit, key):
    # faulty_ids and each phase's (phase, king, king_honest) follow from the
    # config, and so do n and master_seed.  A record that changes them, or
    # writes them with another type, with every metric recomputed to match,
    # is one mismatch.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True, **overrides)
    run_experiment(cfg)
    result, metrics, _ = run_trial(cfg, 0)
    links = quantum_links(result.transcript)
    delta_eff = ted_accuracy_bound(cfg.delta, cfg.epsilon)

    def edit_and_recompute(rec):
        edit(rec)
        rec["metrics"] = compute_metrics(rec, links, delta_eff).to_dict()

    rewrite_line(out / "trials.jsonl", lambda rec: True, edit_and_recompute)
    if edit is no_king_honest:  # the tamper turns persistency_ok from false to true
        stored = json.loads((out / "trials.jsonl").read_text())["metrics"]
        assert (metrics.persistency_ok, stored["persistency_ok"]) == (False, True)
    mismatches = verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg)
    assert len(mismatches) == 1 and mismatches[0].startswith(f"trial 0: {key} stored=")


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(lambda m: m.update(consistency_ok=1), "consistency_ok", id="bool-as-int"),
        pytest.param(
            lambda m: m.update(estimation_failures=False), "estimation_failures", id="int-as-bool"
        ),
        pytest.param(lambda m: m.update(phases_used=2.0), "phases_used", id="int-as-float"),
        pytest.param(
            lambda m: m["persistency"][0].update(ok=1), "persistency", id="persistency-ok-as-int"
        ),
    ],
)
def test_verify_compares_metrics_with_their_types(tmp_path, edit, key):
    # Each edited metric still equals the recomputed one under ==, but is
    # not what a run writes: one mismatch.
    out = tmp_path / "out"
    cfg = small_config(
        out_dir=str(out), trials=1, write_transcript=True,
        adversary="crash", faulty_ids=None, n=2000, master_seed=3,
    )
    run_experiment(cfg)
    rewrite_line(out / "trials.jsonl", lambda rec: True, lambda rec: edit(rec["metrics"]))
    stored = json.loads((out / "trials.jsonl").read_text())["metrics"]
    assert stored == run_trial(cfg, 0)[1].to_dict()
    mismatches = verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg)
    assert len(mismatches) == 1 and mismatches[0].startswith(f"trial 0: {key} stored=")


def test_verify_checks_metrics_that_recompute_to_none(tmp_path):
    # With every output bottom, eta recomputes to None; a stored eta must
    # still be caught, with the other two metrics and the derived
    # outputs_global stored consistently.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True)
    run_experiment(cfg)

    def bottom_everywhere(rec):
        rec["outputs_local"] = {k: None for k in rec["outputs_local"]}
        rec["outputs_global"] = {k: None for k in rec["outputs_global"]}
        rec["metrics"].update(termination_ok=False, consistency_ok=True, eta_emp=0.5)

    rewrite_line(out / "trials.jsonl", lambda rec: True, bottom_everywhere)
    for transcript in (None, out / "transcript.jsonl"):
        mismatches = verify_records(out / "trials.jsonl", transcript, cfg)
        assert mismatches == ["trial 0: eta_emp stored=0.5 recomputed=None"]


def drop_none_metrics_add_bogus(metrics):
    for key in ("accept_phase", "eta_emp", "phases_used"):
        assert metrics.pop(key) is None
    metrics["bogus"] = 0


def drop_link_field(metrics):
    del metrics["degenerate"]


METRIC_KEYS = sorted(f.name for f in fields(TrialMetrics))


@pytest.mark.parametrize("transcript", [True, False], ids=["transcript", "records-only"])
@pytest.mark.parametrize(
    "edit, keys",
    [
        pytest.param(
            drop_none_metrics_add_bogus,
            sorted({"bogus", *METRIC_KEYS} - {"accept_phase", "eta_emp", "phases_used"}),
            id="none-fields-dropped-bogus-added",
        ),
        pytest.param(
            drop_link_field, [k for k in METRIC_KEYS if k != "degenerate"], id="link-field-dropped"
        ),
    ],
)
def test_verify_checks_the_metrics_key_set(tmp_path, edit, keys, transcript):
    # Metrics that recompute to None read the same when missing, and a link
    # field is not compared without the transcript; the key set is checked
    # either way.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True, **CRASH)
    run_experiment(cfg)
    rewrite_line(out / "trials.jsonl", lambda rec: True, lambda rec: edit(rec["metrics"]))
    mismatches = verify_records(
        out / "trials.jsonl", out / "transcript.jsonl" if transcript else None, cfg
    )
    assert mismatches[0] == f"trial 0: metrics keys {keys!r}, not {METRIC_KEYS!r}"
    # Only the link field with its transcript is also a value mismatch.
    assert len(mismatches) == 1 + (transcript and edit is drop_link_field)


def test_verify_reports_unreadable_transcript_line(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True)
    run_experiment(cfg)

    def overfull(rec):
        rec["tallies"][0][0] = rec["tallies"][0][3] + 5

    lineno = rewrite_line(out / "transcript.jsonl", is_quantum, overfull)
    mismatches = verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg)
    assert mismatches[0].startswith(f"trial 0: transcript line {lineno}: ValueError: ")


def is_classical(rec):
    return not is_quantum(rec)


@pytest.mark.parametrize(
    "predicate, edit, error",
    [
        pytest.param(
            is_quantum, lambda rec: rec["payloads"][0][0].__setitem__(0, [1.0, "x"]), "ValueError",
            id="bad-state",
        ),
        pytest.param(
            is_quantum, lambda rec: rec["senders"].__setitem__(0, 4), "ValueError",
            id="sender-out-of-range",
        ),
        pytest.param(is_quantum, lambda rec: rec["tallies"].pop(), "ValueError", id="short-tallies"),
        pytest.param(
            is_quantum, lambda rec: rec["tallies"].__setitem__(0, [0, 0, 0, 0]), "ValueError",
            id="zero-n-tally",
        ),
        pytest.param(
            is_quantum, lambda rec: rec["tallies"].__setitem__(0, [10**400] * 4), "ValueError",
            id="huge-tally",
        ),
        pytest.param(
            is_quantum, lambda rec: rec["slot_payloads"].__setitem__("9", rec["payloads"][:1] * 3),
            "ValueError", id="slot-payloads-not-a-sender",
        ),
        pytest.param(is_classical, lambda rec: rec["symbols"].pop(), "ValueError", id="short-symbols"),
        pytest.param(
            is_classical, lambda rec: rec["slot_symbols"].__setitem__("0", [1, 1]), "ValueError",
            id="short-slot-symbols",
        ),
        pytest.param(
            is_classical, lambda rec: rec["slot_symbols"].__setitem__("7", [1, 1, 1]), "ValueError",
            id="slot-symbols-not-a-sender",
        ),
        pytest.param(
            is_classical, lambda rec: rec.pop("slot_symbols"), "KeyError", id="no-slot-symbols"
        ),
    ],
)
def test_verify_reports_malformed_transcript_shape(tmp_path, predicate, edit, error):
    # Checked while the line is read, not later in estimation_failures.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True)
    run_experiment(cfg)
    lineno = rewrite_line(out / "transcript.jsonl", predicate, edit)
    mismatches = verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg)
    assert mismatches[0].startswith(f"trial 0: transcript line {lineno}: {error}: ")


class HalfMalformed(RandomNoise):
    """Random noise, with every odd receiver's quantum payload over-long."""

    def emit(self, view, slots):
        out = super().emit(view, slots)
        for (sender, receiver), payload in out.items():
            if isinstance(payload, QuantumMessage) and receiver % 2:
                out[(sender, receiver)] = QuantumMessage.uniform(
                    [2.0, 0.0, 0.0], self.params.channel.n
                )
        return out


@pytest.mark.parametrize("adversary", ["crash", "equivocator", "random-noise", "half-malformed"])
def test_exported_links_equal_engine_links(tmp_path, monkeypatch, adversary):
    # Absent slots, per-slot faulty payloads and partly malformed senders
    # all read back from transcript.jsonl as the oracle's links.
    if adversary == "half-malformed":
        monkeypatch.setattr(
            harness, "make_adversary", lambda name, faulty, params: HalfMalformed(faulty, params)
        )
    cfg = ExperimentConfig(
        m=7, t=2, delta=0.05, epsilon=0.02, n=2000,
        adversary="random-noise" if adversary == "half-malformed" else adversary,
        trials=1, master_seed=4242, out_dir=str(tmp_path), write_transcript=True,
    )
    run_experiment(cfg)
    lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    result, _, _ = run_trial(cfg, 0)

    def canonical(links):
        return [(s, r, [float(c) for c in state], list(t)) for s, r, state, t in links]

    exported = []
    for rec in records:
        exported += round_links(rec, cfg.m, cfg.n)
    assert canonical(exported) == canonical(quantum_links(result.transcript))
    quantum = [rec for rec in records if is_quantum(rec)]
    absent = any(t is None for rec in quantum for t in rec["tallies"])
    per_slot = [p for rec in quantum for ps in rec["slot_payloads"].values() for p in ps]
    assert absent == (adversary in ("crash", "half-malformed"))
    assert bool(per_slot) == (adversary != "crash")
    assert (None in per_slot) == (adversary == "half-malformed")


def test_metrics_on_synthetic_outputs():
    # A record with identity frames, node 3 faulty and no phases; with
    # identity frames, outputs_global equals outputs_local.
    z = [0.0, 0.0, 1.0]
    record = {
        "frames": [np.eye(3).tolist()] * 4,
        "faulty_ids": [3],
        "accept_phase": {"0": 0, "1": 0, "2": 0},
        "phases": [],
    }

    def with_outputs(outputs):
        record["outputs_local"] = outputs
        record["outputs_global"] = dict(outputs)
        return record

    metrics = compute_metrics(with_outputs({"0": z, "1": z, "2": z}), None, 0.05)
    assert metrics.eta_emp == 0.0
    assert metrics.consistency_ok and metrics.termination_ok
    assert (metrics.estimation_failures, metrics.degenerate, metrics.fully_successful) == (
        None, None, None
    )

    metrics = compute_metrics(with_outputs({"0": z, "1": z, "2": [0.0, 0.0, -1.0]}), None, 0.05)
    assert metrics.eta_emp == pytest.approx(2.0)  # antipodal pair
    assert not metrics.consistency_ok

    metrics = compute_metrics(with_outputs({"0": None, "1": None, "2": None}), None, 0.05)
    assert metrics.consistency_ok  # jointly bottom
    assert not metrics.termination_ok

    metrics = compute_metrics(with_outputs({"0": z, "1": None, "2": None}), None, 0.05)
    assert not metrics.consistency_ok  # mixed outcome

    # Degenerate tallies count wherever a correct node receives them;
    # failures only on correct-to-correct links.
    half, up, east = MeasurementTally(1, 1, 1, 2), MeasurementTally(1, 1, 2, 2), MeasurementTally(2, 1, 1, 2)
    links = [(3, 0, z, half), (0, 3, z, half), (0, 1, z, up), (1, 2, z, east)]
    metrics = compute_metrics(record, links, 0.05)
    assert (metrics.estimation_failures, metrics.degenerate, metrics.fully_successful) == (
        1, 1, False
    )


@pytest.mark.parametrize(
    "adversary, n, epsilon, seed",
    [
        ("random-noise", 2, 0.02, 1),  # degenerate tallies, per-slot payloads
        ("random-noise", 20, 0.3, 5),  # many failures
        ("equivocator", 2000, 0.02, 7),
        ("grade-poisoner", 100, 0.1, 11),
        ("crash", 50, 0.05, 13),
    ],
)
def test_link_metrics_equal_reference(adversary, n, epsilon, seed):
    # The array pass counts what one ted_receive and distance call per link
    # count, with faulty senders and receivers, per-slot payloads, noise
    # and degenerate tallies, on the run's links and on those read back.
    cfg = ExperimentConfig(
        m=7, t=2, delta=0.05, epsilon=epsilon, n=n, adversary=adversary,
        trials=4, master_seed=seed, write_transcript=True,
    )
    delta_eff = ted_accuracy_bound(cfg.delta, cfg.epsilon)
    seen = [0, 0]
    for trial in range(cfg.trials):
        result, metrics, record = run_trial(cfg, trial)
        frames = record_frames(record)
        faulty = frozenset(record["faulty_ids"])
        run_links = quantum_links(result.transcript)
        exported = []
        for line in transcript_records(trial, result.transcript).splitlines():
            exported += round_links(json.loads(line), cfg.m, n)
        want = reference_link_metrics(run_links, frames, faulty, delta_eff)
        assert link_metrics(run_links, frames, faulty, delta_eff) == want
        assert link_metrics(exported, frames, faulty, delta_eff) == want
        assert (metrics.estimation_failures, metrics.degenerate) == want
        seen = [a + b for a, b in zip(seen, want)]
    if n <= 20:
        assert seen[0] > 0
    if n == 2:
        assert seen[1] > 0


def test_link_metrics_near_threshold(monkeypatch):
    # A link whose scalar distance is exactly delta_eff, or one ulp either
    # side of it, is decided by the scalar formula, as one distance call
    # per link decides it.
    rng = np.random.default_rng(21)
    frames = np.array([random_frame(rng) for _ in range(2)])
    sent = rng.standard_normal(3)
    sent = (sent / np.linalg.norm(sent)).tolist()
    tally = MeasurementTally(700, 310, 905, 1000)
    links = [(0, 1, sent, tally)]
    d = distance(
        to_global(sent, frames[0]).tolist(), to_global(ted_receive(tally)[0], frames[1]).tolist()
    )
    calls = []
    decide = harness._link_fails
    monkeypatch.setattr(harness, "_link_fails", lambda *args: calls.append(args) or decide(*args))
    for delta_eff, failures in ((d, 0), (math.nextafter(d, 0.0), 1), (math.nextafter(d, 3.0), 0)):
        calls.clear()
        assert reference_link_metrics(links, frames, frozenset(), delta_eff) == (failures, 0)
        assert link_metrics(links, frames, frozenset(), delta_eff) == (failures, 0)
        assert len(calls) == 1


def test_allowed_violation_rate_formula():
    got = allowed_violation_rate(0.894, 10**5)
    sigma = math.sqrt(0.894 * 0.106 / 10**5)
    assert got == pytest.approx(0.106 + 3 * sigma)


def read_report(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_emit_report_rows_and_empty(tmp_path):
    cfg = small_config()
    summary, _, _ = run_experiment(cfg)
    path = tmp_path / "report.csv"
    with open(path, "w", newline="") as fh:
        emit_report([summary], fh)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("config.config_version,config.m,config.t,config.delta,")
    assert lines[0].endswith(",passed,runtime_seconds,p50_trial_seconds,p99_trial_seconds")
    with open(path, "w", newline="") as fh:
        emit_report([], fh)
    assert path.read_text() == ""


def test_report_row_round_trips_to_its_summary(tmp_path):
    # A report.csv row is its summary.json flattened: config's keys become
    # config.<field> columns, and every other cell is its value's JSON.
    out = tmp_path / "out"
    summary, _, _ = run_experiment(small_config(out_dir=str(out)))
    rows = read_report(out / "report.csv")
    assert len(rows) == 1
    assert list(rows[0]) == [f"config.{k}" for k in FIELD_RULES] + [
        k for k in summary if k != "config"
    ]
    stored = flat_summary(json.loads((out / "summary.json").read_text()))
    assert read_report_row(rows[0], stored) == stored
    assert rows[0]["config.faulty_ids"] == "[]" and rows[0]["config.out_dir"] == str(out)
    assert rows[0]["config.adversary_params"] == "{}" and rows[0]["passed"] == "true"


def test_trial_frames_deterministic():
    a = trial_frames(42, 0, 4)
    b = trial_frames(42, 0, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = trial_frames(42, 1, 4)
    assert not np.array_equal(a[0], c[0])


def per_matrix_frame(rng):
    """The frame draw of ``random_frame`` with one ``qr`` and ``det`` call per matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


@pytest.mark.parametrize("m", [4, 7, 10, 31])
def test_trial_frames_equal_per_node_frames(m):
    # One stacked QR for a trial's frames gives the same bits as one
    # random_frame per node, and as factoring each matrix on its own.  The
    # rewound Philox takes seeds at and past 2**63 as substream does.
    for seed in [*range(200), 2**63, 2**63 + 1, 2**64 - 1]:
        frames = trial_frames(seed, seed % 3, m)
        assert frames.shape == (m, 3, 3) and frames.flags.c_contiguous
        for node in range(m):
            stream = (seed, seed % 3, 0, node, 0)
            assert frames[node].tobytes() == random_frame(substream(*stream)).tobytes()
            assert frames[node].tobytes() == per_matrix_frame(substream(*stream)).tobytes()


def test_cli_calc_paper_example(capsys):
    code = cli_main(
        ["calc", "--m", "10", "--overall-success", "0.99", "--accuracy", "0.02"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 3.05e8 <= out["n"] <= 3.15e8
    assert out["delta"] == pytest.approx(0.02 / 30.0)


def test_cli_calc_infeasible_accuracy(capsys):
    code = cli_main(
        ["calc", "--m", "4", "--overall-success", "0.9", "--accuracy", "0.02", "--epsilon", "0.5"]
    )
    assert code == 2


#: calc inputs outside what ExperimentConfig.validate accepts.
CALC_OUT_OF_RANGE = {
    "overall-success-one": ["--m", "4", "--overall-success", "1.0", "--delta", "0.01"],
    # Below 1, but its m^2-th root at m=10 is 1.0 in floating point.
    "per-link-root-one": ["--m", "10", "--overall-success", "0.9999999999999999", "--delta", "0.01"],
    "negative-delta": ["--m", "4", "--overall-success", "0.9", "--delta", "-1"],
    "m-zero": ["--m", "0", "--overall-success", "0.9", "--delta", "0.01"],
    "negative-epsilon": [
        "--m", "4", "--overall-success", "0.9", "--delta", "0.01", "--epsilon", "-0.5",
    ],
}


@pytest.mark.parametrize("argv", CALC_OUT_OF_RANGE.values(), ids=CALC_OUT_OF_RANGE.keys())
def test_cli_calc_rejects_out_of_range_input(capsys, argv):
    code = cli_main(["calc", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_calc_rejects_n_beyond_int64(capsys):
    code = cli_main(["calc", "--m", "4", "--q-target", "0.9", "--delta", "1e-9"])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: n must be at most 2**63 - 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--accuracy", "0.02", "--delta", "0.5", "--overall-success", "0.99"],
        ["--accuracy", "0.02", "--overall-success", "0.99", "--q-target", "0.5"],
    ],
    ids=["accuracy-and-delta", "overall-success-and-q-target"],
)
def test_cli_calc_rejects_both_alternatives(capsys, argv):
    # Each pair is one choice: giving both is a usage error, not first-one-wins.
    with pytest.raises(SystemExit) as exc:
        cli_main(["calc", "--m", "10", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "not allowed with argument" in captured.err
    assert captured.out == ""


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = small_config(trials=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 4, "t": 3, "delta": 0.05, "n": 100}')
    assert cli_main(["run", "--config", str(bad)]) == 2


NOISY_CHANNEL = os.path.join(os.path.dirname(__file__), "..", "configs", "noisy_channel.json")

#: One field of configs/noisy_channel.json changed to a value of the wrong
#: type or a non-finite number.  The equivocator and rusher cases change two
#: fields, and the q-target cases three: to a q_target whose per-link root
#: rounds to 1.0, or to a scope of the wrong type.
MALFORMED_CONFIGS = {
    "delta-nan": {"delta": float("nan")},
    "delta-inf": {"delta": float("inf")},
    "n-float": {"n": 1000.0},
    "faulty-ids-bool": {"faulty_ids": [True]},
    "write-transcript-str": {"write_transcript": "no"},
    "m-str": {"m": "7"},
    "m-float": {"m": 7.0},
    "trials-float": {"trials": 2.5},
    "jobs-str": {"jobs": "2"},
    "out-dir-int": {"out_dir": 5},
    "adversary-list": {"adversary": ["rusher"]},
    "q-target-scope-list": {"n": None, "q_target": 0.9, "q_target_scope": ["overall"]},
    "adversary-params-list": {"adversary_params": [1]},
    "adversary-params-unknown": {"adversary_params": {"bogus": 1}},
    "equivocator-separation": {"adversary": "equivocator", "adversary_params": {"separation": 3}},
    "equivocator-separation-bool": {
        "adversary": "equivocator", "adversary_params": {"separation": True},
    },
    "rusher-shift-inf": {"adversary": "rusher", "adversary_params": {"shift": float("inf")}},
    "rusher-shift-str": {"adversary": "rusher", "adversary_params": {"shift": "x"}},
    # The rusher takes no target: any is an unknown parameter.
    "rusher-target-out-of-range": {"adversary": "rusher", "adversary_params": {"target": 99}},
    "removed-max-violation-rate": {"max_violation_rate": 0.5},
    "q-target-one-per-link": {
        "n": None, "q_target": 0.9999999999999999, "q_target_scope": "overall_strict",
    },
}


@pytest.mark.parametrize("change", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_cli_run_rejects_malformed_config(tmp_path, capsys, change):
    with open(NOISY_CHANNEL) as fh:
        data = json.load(fh)
    data.update(trials=1, out_dir=str(tmp_path / "out"))
    data.update(change)
    path = tmp_path / "cfg.json"
    # json writes NaN and Infinity as it reads them.
    path.write_text(json.dumps(data))
    code = cli_main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error:" in err
    assert "Traceback" not in err


def test_strategy_table_matches_the_catalog():
    # Every strategy and every keyword parameter it takes has a check in
    # the table, so none reaches a trial unchecked.
    assert sorted(STRATEGY_PARAMS) == strategy_catalog()
    for name, checks in STRATEGY_PARAMS.items():
        signature = inspect.signature(adversaries._CATALOG[name])
        assert list(signature.parameters)[:2] == ["faulty_ids", "params"]
        assert sorted(checks) == sorted(list(signature.parameters)[2:]), name


#: The MALFORMED_CONFIGS cases of a bad adversary parameter.
BAD_ADVERSARY_PARAMS = {
    case: change
    for case, change in MALFORMED_CONFIGS.items()
    if isinstance(change.get("adversary_params"), dict)
}


@pytest.mark.parametrize("change", BAD_ADVERSARY_PARAMS.values(), ids=BAD_ADVERSARY_PARAMS.keys())
def test_make_adversary_rejects_what_a_config_rejects(change):
    name = change.get("adversary", "grade-poisoner")  # configs/noisy_channel.json's
    params = ProtocolParams(7, 2, 0.05, ChannelParams(0.1, 50000))
    with pytest.raises(ValueError):
        make_adversary(name, (0, 1), params, **change["adversary_params"])


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    argv = [command, "--config", str(path)]
    if command == "verify":
        argv += ["--records", str(tmp_path / "trials.jsonl")]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: cannot read config {path}" in err
    assert "Traceback" not in err


#: Config texts json cannot read: an integer past the int-digit limit
#: (ValueError), and nesting past the recursion limit (RecursionError).
UNREADABLE_CONFIGS = {"long-integer": '{"m": ' + "7" * 5000 + "}", "deep-nesting": "[" * 100_000}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("text", UNREADABLE_CONFIGS.values(), ids=UNREADABLE_CONFIGS.keys())
def test_cli_rejects_a_config_json_cannot_read(tmp_path, capsys, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "verify":
        argv += ["--records", str(tmp_path / "trials.jsonl")]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: cannot read config {path}" in err
    assert "Traceback" not in err


HONEST_SMALL = os.path.join(os.path.dirname(__file__), "..", "configs", "honest_small.json")
NOISY_CHANNEL = os.path.join(os.path.dirname(__file__), "..", "configs", "noisy_channel.json")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_rejects_a_config_missing_a_required_key(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"t": 1, "delta": 0.1, "n": 100}))
    argv = [command, "--config", str(path)]
    if command == "verify":
        argv += ["--records", str(tmp_path / "trials.jsonl")]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: missing config key: m" in err
    assert "Traceback" not in err


def test_cli_run_rejects_n_beyond_int64(tmp_path, capsys):
    # Not an OverflowError from Generator.binomial in the first trial.
    argv = ["run", "--config", HONEST_SMALL, "--n", str(10**20), "--out", str(tmp_path / "out")]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: n must be at most 2**63 - 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_a_negative_seed(tmp_path, capsys):
    argv = ["run", "--config", HONEST_SMALL, "--seed", "-1", "--out", str(tmp_path / "out")]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: master_seed must be an integer in [0, 2**64)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code = cli_main(
        [
            "verify",
            "--config",
            str(path),
            "--records",
            str(out / "trials.jsonl"),
            "--transcript",
            str(out / "transcript.jsonl"),
        ]
    )
    assert code == 0

    # A malformed trials.jsonl line is reported, not raised.
    (out / "trials.jsonl").write_text("{not json\n")
    capsys.readouterr()
    code = cli_main(["verify", "--config", str(path), "--records", str(out / "trials.jsonl")])
    assert code == 1
    assert "trials line 1: JSONDecodeError: " in capsys.readouterr().err


def test_cli_verify_reports_unreadable_file(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True)
    run_experiment(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    trials, transcript = out / "trials.jsonl", out / "transcript.jsonl"
    missing = tmp_path / "missing.jsonl"
    capsys.readouterr()
    for records, rounds, unreadable in [
        (missing, transcript, missing),
        (trials, missing, missing),
        (trials, tmp_path, tmp_path),  # a directory
    ]:
        argv = ["verify", "--config", str(path), "--records", str(records)]
        code = cli_main(argv + ["--transcript", str(rounds)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"cannot read {unreadable}: ") and "Traceback" not in err


@pytest.mark.parametrize("name", ["trials", "transcript"])
def test_cli_verify_reports_line_that_is_not_utf8(tmp_path, capsys, name):
    # Once a UnicodeDecodeError traceback; now a mismatch on that line.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True)
    run_experiment(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    target = out / f"{name}.jsonl"
    target.write_bytes(b"\xff\xfe" + target.read_bytes())
    capsys.readouterr()
    code = cli_main(
        [
            "verify",
            "--config",
            str(path),
            "--records",
            str(out / "trials.jsonl"),
            "--transcript",
            str(out / "transcript.jsonl"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"{name} line 1: UnicodeDecodeError: ")
    assert "Traceback" not in err


def test_cli_verify_reports_out_of_range_tally(tmp_path, capsys):
    # A delivered tally with n = 0 once divided by zero inside verify.
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), trials=1, write_transcript=True)
    run_experiment(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    lineno = rewrite_line(
        out / "transcript.jsonl", is_quantum, lambda rec: rec["tallies"].__setitem__(0, [0, 0, 0, 0])
    )
    capsys.readouterr()
    code = cli_main(
        [
            "verify",
            "--config",
            str(path),
            "--records",
            str(out / "trials.jsonl"),
            "--transcript",
            str(out / "transcript.jsonl"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert f"trial 0: transcript line {lineno}: ValueError: tally [0, 0, 0, 0]" in err
    assert "Traceback" not in err


def test_cli_sweep(tmp_path, capsys):
    cfg = small_config(trials=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code = cli_main(
        [
            "sweep",
            "--config",
            str(path),
            "--out",
            str(tmp_path / "sweep"),
            "--set",
            "n=5000,20000",
        ]
    )
    assert code == 0
    report = (tmp_path / "sweep" / "report.csv").read_text().splitlines()
    assert len(report) == 3  # header + 2 combos

    # A config sized by q_target: setting n clears q_target, on both paths.
    sized = tmp_path / "sized.json"
    sized.write_text(json.dumps(small_config(trials=1, n=None, q_target=0.999).to_dict()))
    out = tmp_path / "sized_sweep"
    code = cli_main(["sweep", "--config", str(sized), "--out", str(out), "--set", "n=5000,20000"])
    assert code == 0
    rows = read_report(out / "report.csv")
    assert [row["n"] for row in rows] == ["5000", "20000"]
    assert [row["config.n"] for row in rows] == ["5000", "20000"]
    assert [row["config.q_target"] for row in rows] == ["null", "null"]
    assert [row["config.out_dir"] for row in rows] == [str(out / "n=5000"), str(out / "n=20000")]
    code = cli_main(["run", "--config", str(sized), "--n", "5000", "--out", str(tmp_path / "run")])
    assert code == 0


@pytest.mark.parametrize("values", ["7,bad", "7," + "7" * 5000], ids=["str", "long-integer"])
def test_cli_sweep_checks_every_combination_before_it_runs(tmp_path, capsys, values):
    # A value json cannot read is kept as its string, which the config rejects.
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "--config", HONEST_SMALL, "--out", str(out), "--set", f"m={values}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: m must be " in err and "Traceback" not in err
    assert not out.exists()


def test_cli_set_splits_values_only_at_top_level_commas():
    assert _parse_set("faulty_ids=[0,1],[2]") == ("faulty_ids", [[0, 1], [2]])
    assert _parse_set('adversary_params={"separation":0.5,"x":[1,2]},{}') == (
        "adversary_params", [{"separation": 0.5, "x": [1, 2]}, {}]
    )
    assert _parse_set('out_dir="a,b","c\\",d",e') == ("out_dir", ["a,b", 'c",d', "e"])


def test_cli_sweep_over_list_values(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(m=7, t=2, n=2000, trials=1).to_dict()))
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "--config", str(path), "--out", str(out), "--set", "faulty_ids=[0,1],[2]"])
    assert code == 0
    rows = read_report(out / "report.csv")
    assert [row["config.faulty_ids"] for row in rows] == ["[0,1]", "[2]"]
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["faulty_ids=[0,1]", "faulty_ids=[2]"]


@pytest.mark.parametrize(
    "expr",
    ["epsilon=0.1,1e-1", "n=5000,5000", 'adversary="crash",crash'],
    ids=["float-spellings", "repeated", "json-string"],
)
def test_cli_sweep_refuses_combinations_with_one_name(tmp_path, capsys, expr):
    # Two combinations written alike would run into one directory, the
    # second's files replacing the first's; the sweep runs neither.
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", NOISY_CHANNEL, "--out", str(out), "--trials", "1", "--set", expr]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: two sweep combinations share the run name" in err
    assert not out.exists()


#: Sweeps in which a later setting would silently replace a --set axis.
SWEEP_FIELD_SET_TWICE = {
    "set-and-seed": ("master_seed", ["--set", "master_seed=1,2", "--seed", "9", "--trials", "1"]),
    "set-and-trials": ("trials", ["--set", "trials=1,2", "--trials", "1"]),
    "set-and-jobs": ("jobs", ["--set", "jobs=1,2", "--jobs", "1", "--trials", "1"]),
    "set-twice": ("n", ["--set", "n=1000,2000", "--set", "n=3000", "--trials", "1"]),
    "set-out-dir": ("out_dir", ["--set", "out_dir=elsewhere", "--trials", "1"]),
}


@pytest.mark.parametrize(
    "key, args", SWEEP_FIELD_SET_TWICE.values(), ids=SWEEP_FIELD_SET_TWICE.keys()
)
def test_cli_sweep_refuses_a_field_set_twice(tmp_path, capsys, monkeypatch, key, args):
    # --out sets every run's out_dir, so out_dir in --set is set twice too.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "--config", HONEST_SMALL, "--out", str(out), *args])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: {key} is set more than once by --set, --out or a flag\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, run_dir, reason",
    [("run", "", "File exists"), ("sweep", "base", "Not a directory")],
    ids=["run", "sweep"],
)
def test_cli_refuses_an_output_path_it_cannot_create(tmp_path, capsys, command, run_dir, reason):
    # An existing file where the output directory goes: exit 2 and one line
    # naming the path and the reason, not a traceback (exit 1 is a failed run).
    # A sweep names the directory of its first run, inside OUT.
    out = tmp_path / "taken"
    out.write_text("")
    code = cli_main([command, "--config", HONEST_SMALL, "--out", str(out), "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2
    path = os.path.join(out, run_dir) if run_dir else out
    assert err == f"config error: cannot create output directory {path}: {reason}\n"
    assert out.read_text() == "" and list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("name", ["trials.jsonl", "transcript.jsonl", "summary.json", "report.csv"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_refuses_an_output_file_it_cannot_write(tmp_path, capsys, monkeypatch, command, name):
    # A directory where an output file goes: exit 2 and one line naming it,
    # not a traceback, before the first trial, and no file left written.  A
    # sweep's run goes in a directory of OUT named after its setting.
    def unexpected(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", unexpected)
    out = tmp_path / "out"
    if command == "run":
        run_dir, flags = out, ["--transcript"]
    else:
        run_dir, flags = out / "write_transcript=true", ["--set", "write_transcript=true"]
    (run_dir / name).mkdir(parents=True)
    code = cli_main([command, "--config", HONEST_SMALL, "--out", str(out), "--trials", "1", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: cannot write {run_dir / name}: Is a directory\n"
    assert [path for path in out.rglob("*") if not path.is_dir()] == []
    assert list((run_dir / name).iterdir()) == []


def test_run_trial_with_explicit_frames():
    cfg = small_config(trials=1)
    frames = trial_frames(cfg.master_seed, 0, cfg.m)
    _, m1, record1 = run_trial(cfg, 0, frames=frames)
    _, m2, record2 = run_trial(cfg, 0)
    assert m1 == m2 and record1 == record2


def test_trials_jsonl_independent_of_frame_layout():
    # outputs_global is derived from the record's own C-ordered frames, so a
    # Fortran-ordered copy of the same frames writes the same bytes.
    cfg = small_config(m=7, t=2, adversary="grade-poisoner", faulty_ids=None, trials=1, master_seed=3)
    frames = trial_frames(cfg.master_seed, 0, cfg.m)
    lines = [
        json.dumps(run_trial(cfg, 0, frames=layout)[2], sort_keys=True)
        for layout in (frames, [np.asfortranarray(f) for f in frames])
    ]
    assert lines[0] == lines[1]


def test_parallel_jobs_fill_trial_timings():
    # Each worker times its own trial, so pools report timings too.
    summary, _, _ = run_experiment(small_config(trials=4, jobs=2))
    assert 0.0 < summary["p50_trial_seconds"] <= summary["p99_trial_seconds"]
