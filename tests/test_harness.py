import json
import math
import os

import numpy as np
import pytest

from rfagree.config import ConfigError, ExperimentConfig
from rfagree.cli import main as cli_main
from rfagree.harness import (
    allowed_violation_rate,
    compute_metrics,
    emit_report,
    run_experiment,
    run_trial,
    trial_frames,
    verify_records,
)
from rfagree.quantum_link import ChannelParams, ted_success_bound
from rfagree.rf_protocols import ProtocolParams, TrialResult


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
    small_config().validate()


def test_config_round_trip(tmp_path):
    cfg = small_config(adversary="equivocator", adversary_params={"separation": 1.0}, faulty_ids=(0,))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"m": 4, "t": 1, "delta": 0.05, "n": 10, "bogus_key": 1})


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
    emit_report(summaries, path)
    assert len(path.read_text().splitlines()) == 4


def test_run_experiment_summary_and_files(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "out"), write_transcript=True)
    summary, records, metrics = run_experiment(cfg)
    assert summary["trials"] == 3
    assert summary["violations"] == 0
    assert summary["passed"] is True
    assert summary["per_run_success_bound"] == pytest.approx(
        ted_success_bound(20000, 0.05) ** (16 * 2)
    )
    assert len(records) == 3
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


def test_trials_jsonl_byte_identical_across_runs(tmp_path):
    cfg1 = small_config(out_dir=str(tmp_path / "a"))
    cfg2 = small_config(out_dir=str(tmp_path / "b"))
    run_experiment(cfg1)
    run_experiment(cfg2)
    a = (tmp_path / "a" / "trials.jsonl").read_bytes()
    b = (tmp_path / "b" / "trials.jsonl").read_bytes()
    assert a == b


def test_parallel_jobs_match_serial(tmp_path):
    serial = small_config(out_dir=str(tmp_path / "serial"), trials=4)
    parallel = small_config(out_dir=str(tmp_path / "parallel"), trials=4, jobs=2)
    run_experiment(serial)
    run_experiment(parallel)
    a = (tmp_path / "serial" / "trials.jsonl").read_bytes()
    b = (tmp_path / "parallel" / "trials.jsonl").read_bytes()
    assert a == b


def test_verify_round_trip_and_corruption(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    assert verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg) == []
    assert verify_records(out / "trials.jsonl", None, cfg) == []

    # Corrupt one output: verification must notice.
    trials = (out / "trials.jsonl").read_text()
    lines = trials.splitlines()
    rec = json.loads(lines[0])
    some = next(k for k, v in rec["outputs_local"].items() if v is not None)
    rec["outputs_local"][some] = [0.0, 1.0, 0.0]
    lines[0] = json.dumps(rec, sort_keys=True)
    (out / "trials.jsonl").write_text("\n".join(lines) + "\n")
    assert verify_records(out / "trials.jsonl", None, cfg) != []

    # Zero one correct-to-correct tally in the transcript: the recomputed
    # estimation-failure count must disagree with the stored one.
    (out / "trials.jsonl").write_text(trials)
    lines = (out / "transcript.jsonl").read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "quantum")
    rec = json.loads(lines[idx])
    assert not set(cfg.faulty_ids) & {rec["sender"], rec["receiver"]}
    rec["tally"].update(k_x=0, k_y=0, k_z=0)
    lines[idx] = json.dumps(rec, sort_keys=True)
    (out / "transcript.jsonl").write_text("\n".join(lines) + "\n")
    mismatches = verify_records(out / "trials.jsonl", out / "transcript.jsonl", cfg)
    assert len(mismatches) == 1 and "estimation_failures" in mismatches[0]


def test_metrics_on_synthetic_outputs():
    params = ProtocolParams(4, 1, 0.05, ChannelParams(0.0, 100))
    frames = [np.eye(3)] * 4
    z = np.array([0.0, 0.0, 1.0])
    result = TrialResult(
        params=params,
        frames=frames,
        faulty_ids=(3,),
        phases=[],
        outputs={0: z.copy(), 1: z.copy(), 2: z.copy()},
        accept_phase={0: 0, 1: 0, 2: 0},
    )
    metrics = compute_metrics(result)
    assert metrics.eta_emp == 0.0
    assert metrics.consistency_ok and metrics.termination_ok

    result.outputs[2] = np.array([0.0, 0.0, -1.0])
    metrics = compute_metrics(result)
    assert metrics.eta_emp == pytest.approx(2.0)  # antipodal pair
    assert not metrics.consistency_ok

    result.outputs = {0: None, 1: None, 2: None}
    metrics = compute_metrics(result)
    assert metrics.consistency_ok  # jointly bottom
    assert not metrics.termination_ok

    result.outputs = {0: z.copy(), 1: None, 2: None}
    metrics = compute_metrics(result)
    assert not metrics.consistency_ok  # mixed outcome


def test_allowed_violation_rate_formula():
    got = allowed_violation_rate(0.894, 10**5)
    sigma = math.sqrt(0.894 * 0.106 / 10**5)
    assert got == pytest.approx(0.106 + 3 * sigma)


def test_emit_report_rows_and_empty(tmp_path):
    cfg = small_config()
    summary, _, _ = run_experiment(cfg)
    path = tmp_path / "report.csv"
    emit_report([summary], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("m,t,n,epsilon,adversary")
    emit_report([], path)
    assert len(path.read_text().splitlines()) == 1


def test_trial_frames_deterministic():
    a = trial_frames(42, 0, 4)
    b = trial_frames(42, 0, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = trial_frames(42, 1, 4)
    assert not np.array_equal(a[0], c[0])


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


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = small_config(trials=2)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 4, "t": 3, "delta": 0.05, "n": 100}')
    assert cli_main(["run", "--config", str(bad)]) == 2


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = small_config(out_dir=str(out), write_transcript=True)
    run_experiment(cfg)
    path = tmp_path / "cfg.json"
    cfg.save(path)
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


def test_cli_sweep(tmp_path, capsys):
    cfg = small_config(trials=1)
    path = tmp_path / "cfg.json"
    cfg.save(path)
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


def test_run_trial_with_explicit_frames():
    cfg = small_config(trials=1)
    frames = trial_frames(cfg.master_seed, 0, cfg.m)
    r1, m1 = run_trial(cfg, 0, frames=frames)
    r2, m2 = run_trial(cfg, 0)
    assert m1.eta_emp == m2.eta_emp


def test_parallel_jobs_fill_trial_timings():
    # Each worker times its own trial, so pools report timings too.
    summary, _, _ = run_experiment(small_config(trials=4, jobs=2))
    assert 0.0 < summary["p50_trial_seconds"] <= summary["p99_trial_seconds"]
