"""Experiment runner: seeded trials, ground-truth metrics, JSONL/CSV output.

Every trial is reconstructible from (config, master_seed, trial index):
node frames, the kings' chosen directions, all channel randomness.  Metrics
are computed against that ground truth:

* eta_emp: maximum pairwise chord distance between correct final outputs,
  compared in the global frame;
* consistency: all correct nodes output bottom, or all output directions
  with eta_emp <= 30 * delta_eff;
* persistency: in every phase led by a correct king, all correct nodes
  accept and land within delta_eff of the king's direction;
* estimation-failure oracle: every correct-to-correct quantum transmission
  is replayed from the transcript and compared against the sent direction
  at the delta_eff accuracy.  Trials where every such link succeeded are
  marked fully successful; on those, consistency and persistency are
  deterministic consequences of the thresholds and must never fail.

Files: trials.jsonl (one record per trial), summary.json (aggregates plus
timing), report.csv (one row per summary), transcript.jsonl (optional, one
record per envelope).  Byte-for-byte reproducible except timing fields,
which appear only in summary.json / report.csv.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from .adversaries import make_adversary
from .config import ExperimentConfig, success_exponent
from .geometry import distance, random_frame, to_global
from .netsim import QUANTUM_STEPS, substream
from .quantum_link import (
    ChannelParams,
    MeasurementTally,
    ted_accuracy_bound,
    ted_receive,
    ted_success_bound,
)
from .rf_protocols import ProtocolParams, TrialResult, run_rf_consensus

CONSISTENCY_FACTOR = 30.0


@dataclass
class TrialMetrics:
    eta_emp: object  # float or None (fewer than two directions output)
    consistency_ok: bool
    termination_ok: bool
    accept_phase: object  # common accepting phase, or None
    accept_agreement: bool
    phases_used: object
    persistency: list = field(default_factory=list)
    persistency_ok: bool = True
    estimation_failures: int = 0
    degenerate: int = 0
    fully_successful: bool = True

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def quantum_links(transcript):
    """(sender, receiver, sent_local, tally) of every delivered quantum envelope.

    ``sent_local`` is the state of the first segment in sender-local
    coordinates: the sent direction, for an honest sender.
    """
    for rnd in transcript:
        if rnd.step.kind in QUANTUM_STEPS:
            for (sender, receiver), tally in rnd.deliveries.items():
                if tally is not None:
                    sent_local = rnd.payloads[(sender, receiver)].segments[0][0]
                    yield sender, receiver, sent_local, tally


def estimation_failures(links, frames, faulty_ids, delta_eff: float) -> int:
    """Replay every correct-to-correct quantum link against ground truth.

    ``links`` yields (sender, receiver, sent_local, tally) tuples; the
    receiver's estimate is recomputed from the tally.  A link fails when it
    and the sent direction differ by more than delta_eff in the global frame.
    """
    faulty = frozenset(faulty_ids)
    failures = 0
    for sender, receiver, sent_local, tally in links:
        if sender in faulty or receiver in faulty:
            continue
        sent = to_global(sent_local, frames[sender])
        estimate_local, _ = ted_receive(tally)
        estimate = to_global(estimate_local, frames[receiver])
        if distance(sent, estimate) > delta_eff:
            failures += 1
    return failures


def agreement_metrics(global_outputs: dict, honest_ids, delta_eff: float):
    """(eta_emp, consistency_ok, termination_ok) of the correct outputs.

    ``global_outputs`` maps each correct node that output a direction to
    that direction in the global frame; ``honest_ids`` lists every correct
    node, so the ones missing from ``global_outputs`` output bottom.
    """
    produced = sorted(global_outputs)
    eta = None
    if len(produced) >= 2:
        eta = max(
            distance(global_outputs[i], global_outputs[j])
            for idx, i in enumerate(produced)
            for j in produced[idx + 1:]
        )
    termination_ok = len(produced) == len(honest_ids)
    if not produced:
        consistency_ok = True  # jointly bottom is a consistent outcome
    elif not termination_ok:
        consistency_ok = False  # some output a direction, some did not
    else:
        consistency_ok = eta is None or eta <= CONSISTENCY_FACTOR * delta_eff
    return eta, consistency_ok, termination_ok


def compute_metrics(result: TrialResult) -> TrialMetrics:
    delta_eff = result.params.delta_eff
    frames = result.frames
    honest = sorted(result.outputs)
    global_outputs = {
        i: to_global(v, frames[i]) for i, v in result.outputs.items() if v is not None
    }
    eta, consistency_ok, termination_ok = agreement_metrics(global_outputs, honest, delta_eff)

    phases = sorted({p for p in result.accept_phase.values() if p is not None})
    accept_agreement = len(set(result.accept_phase.values())) == 1
    accept_phase = phases[0] if accept_agreement and phases else None
    phases_used = phases[-1] + 1 if phases else None

    persistency = []
    persistency_ok = True
    for pr in result.phases:
        if not pr.king_honest:
            continue
        king_global = to_global(pr.king_direction, frames[pr.king_id])
        all_accepted = all(pr.decisions[i] == 1 for i in honest)
        max_dist = max(
            distance(to_global(pr.values[i], frames[i]), king_global) for i in honest
        )
        ok = all_accepted and max_dist <= delta_eff
        persistency.append(
            {
                "phase": pr.phase,
                "all_accepted": all_accepted,
                "max_distance": max_dist,
                "ok": ok,
            }
        )
        persistency_ok = persistency_ok and ok

    failures = estimation_failures(
        quantum_links(result.transcript), frames, result.faulty_ids, delta_eff
    )
    return TrialMetrics(
        eta_emp=eta,
        consistency_ok=consistency_ok,
        termination_ok=termination_ok,
        accept_phase=accept_phase,
        accept_agreement=accept_agreement,
        phases_used=phases_used,
        persistency=persistency,
        persistency_ok=persistency_ok,
        estimation_failures=failures,
        degenerate=result.degenerate,
        fully_successful=failures == 0,
    )


def trial_frames(master_seed: int, trial: int, m: int) -> list:
    return [random_frame(substream(master_seed, trial, 0, node, 0)) for node in range(m)]


def run_trial(config: ExperimentConfig, trial: int, frames=None):
    """One seeded trial; returns (TrialResult, TrialMetrics)."""
    n = config.resolved_n()
    params = ProtocolParams(
        m=config.m,
        t=config.t,
        delta=config.delta,
        channel=ChannelParams(epsilon=config.epsilon, n=n),
    )
    faulty = config.resolved_faulty_ids()
    if frames is None:
        frames = trial_frames(config.master_seed, trial, config.m)
    adversary = make_adversary(config.adversary, faulty, params, **config.adversary_params)
    result = run_rf_consensus(
        params,
        frames,
        faulty,
        adversary,
        master_seed=config.master_seed,
        trial=trial,
    )
    return result, compute_metrics(result)


def _vec(v):
    return None if v is None else [float(c) for c in v]


def trial_record(config: ExperimentConfig, trial: int, result: TrialResult, metrics: TrialMetrics) -> dict:
    frames = result.frames
    outputs_global = {
        str(i): _vec(to_global(v, frames[i]) if v is not None else None)
        for i, v in result.outputs.items()
    }
    return {
        "trial": trial,
        "master_seed": config.master_seed,
        "n": result.params.channel.n,
        "faulty_ids": list(result.faulty_ids),
        "frames": [[[float(c) for c in row] for row in f] for f in frames],
        "phases": [
            {
                "phase": pr.phase,
                "king": pr.king_id,
                "king_honest": pr.king_honest,
                "king_direction": _vec(pr.king_direction),
                "inputs": {str(i): _vec(w) for i, w in pr.inputs.items()},
                "values": {str(i): _vec(v) for i, v in pr.values.items()},
                "grades": {str(i): g for i, g in pr.grades.items()},
                "decisions": {str(i): y for i, y in pr.decisions.items()},
            }
            for pr in result.phases
        ],
        "outputs_local": {str(i): _vec(v) for i, v in result.outputs.items()},
        "outputs_global": outputs_global,
        "accept_phase": {str(i): p for i, p in result.accept_phase.items()},
        "metrics": metrics.to_dict(),
    }


def transcript_records(trial: int, transcript) -> list:
    """One record per slot, rounds in order and slots in round order."""
    records = []
    for index, rnd in enumerate(transcript):
        step = rnd.step
        quantum = step.kind in QUANTUM_STEPS
        for (sender, receiver), payload in rnd.payloads.items():
            tally = None
            if payload is None:
                kind = "absent"
            elif quantum:
                kind = "quantum"
                payload = [[[float(c) for c in state], int(count)] for state, count in payload.segments]
                t = rnd.deliveries[(sender, receiver)]
                tally = {"k_x": t.k_x, "k_y": t.k_y, "k_z": t.k_z, "n": t.n}
            else:
                kind = "bit"
            records.append(
                {
                    "trial": trial,
                    "round": index,
                    "phase": step.phase,
                    "step": step.kind,
                    "cc_round": step.cc_round,
                    "sender": sender,
                    "receiver": receiver,
                    "kind": kind,
                    "payload": payload,
                    "tally": tally,
                }
            )
    return records


def _worker(args):
    """One trial, serially or in a pool worker; times its own run_trial."""
    config_dict, trial = args
    config = ExperimentConfig.from_dict(config_dict)
    t0 = time.monotonic()
    result, metrics = run_trial(config, trial)
    seconds = time.monotonic() - t0
    record = trial_record(config, trial, result, metrics)
    transcript = (
        transcript_records(trial, result.transcript) if config.write_transcript else None
    )
    return trial, record, metrics, transcript, seconds


def allowed_violation_rate(bound: float, trials: int) -> float:
    """Default acceptance threshold: (1 - bound) plus three binomial sigmas."""
    base = 1.0 - bound
    sigma = math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    return base + 3.0 * sigma


def run_experiment(config: ExperimentConfig):
    """Run all trials; returns (summary, trial_records, metrics_list).

    Writes trials.jsonl / summary.json / report.csv (and transcript.jsonl
    when enabled) under config.out_dir if it is set.
    """
    config.validate()
    n = config.resolved_n()
    start = time.monotonic()
    jobs = [(config.to_dict(), k) for k in range(config.trials)]
    records = [None] * config.trials
    metrics_list = [None] * config.trials
    transcripts = [None] * config.trials
    trial_times = []

    with ProcessPoolExecutor(config.jobs) if config.jobs > 1 else nullcontext() as pool:
        results = pool.map(_worker, jobs) if pool else map(_worker, jobs)
        for trial, record, metrics, transcript, seconds in results:
            records[trial] = record
            metrics_list[trial] = metrics
            transcripts[trial] = transcript
            trial_times.append(seconds)

    elapsed = time.monotonic() - start
    violations = sum(
        1 for m in metrics_list if not (m.consistency_ok and m.termination_ok)
    )
    violation_rate = violations / config.trials
    etas = [m.eta_emp for m in metrics_list if m.eta_emp is not None]
    q_link = ted_success_bound(n, config.delta)
    bound = q_link ** success_exponent("overall_strict", config.m, config.t)
    allowed = (
        config.max_violation_rate
        if config.max_violation_rate is not None
        else allowed_violation_rate(bound, config.trials)
    )
    trial_times.sort()

    def percentile(q):
        if not trial_times:
            return None
        idx = min(len(trial_times) - 1, int(math.ceil(q * len(trial_times))) - 1)
        return trial_times[max(0, idx)]

    summary = {
        "config": config.to_dict(),
        "n": n,
        "delta_eff": ted_accuracy_bound(config.delta, config.epsilon),
        "trials": config.trials,
        "violations": violations,
        "violation_rate": violation_rate,
        "allowed_violation_rate": allowed,
        "per_link_success_bound": q_link,
        "per_run_success_bound": bound,
        "termination_failures": sum(1 for m in metrics_list if not m.termination_ok),
        "mean_eta": (sum(etas) / len(etas)) if etas else None,
        "max_eta": max(etas) if etas else None,
        "fully_successful_trials": sum(1 for m in metrics_list if m.fully_successful),
        "estimation_failures": sum(m.estimation_failures for m in metrics_list),
        "degenerate_tallies": sum(m.degenerate for m in metrics_list),
        "passed": violation_rate <= allowed,
        "runtime_seconds": elapsed,
        "p50_trial_seconds": percentile(0.50),
        "p99_trial_seconds": percentile(0.99),
    }

    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, "trials.jsonl"), "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        with open(os.path.join(config.out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        emit_report([summary], os.path.join(config.out_dir, "report.csv"))
        if config.write_transcript:
            with open(os.path.join(config.out_dir, "transcript.jsonl"), "w") as fh:
                for transcript in transcripts:
                    for rec in transcript:
                        fh.write(json.dumps(rec, sort_keys=True) + "\n")

    return summary, records, metrics_list


REPORT_COLUMNS = (
    "m",
    "t",
    "n",
    "epsilon",
    "adversary",
    "trials",
    "violation_rate",
    "bound",
    "mean_eta",
    "max_eta",
    "p50_runtime",
    "p99_runtime",
)


def emit_report(summaries, path) -> None:
    """One CSV row per summary; header-only file for an empty list."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for s in summaries:
            cfg = s["config"]
            writer.writerow(
                [
                    cfg["m"],
                    cfg["t"],
                    s["n"],
                    cfg["epsilon"],
                    cfg["adversary"],
                    s["trials"],
                    s["violation_rate"],
                    s["per_run_success_bound"],
                    s["mean_eta"],
                    s["max_eta"],
                    s["p50_trial_seconds"],
                    s["p99_trial_seconds"],
                ]
            )


def recompute_metrics_from_records(record: dict, links, config: ExperimentConfig) -> dict:
    """Recompute the headline metrics from exported artifacts only.

    Reconstructs eta/consistency from the recorded outputs and frames, and
    the estimation-failure count from the quantum ``links`` (see
    :func:`estimation_failures`) taken from the transcript, if any.  The
    formulas are the ones :func:`compute_metrics` uses; only the inputs
    differ.  Used by the ``verify`` subcommand to cross-check trials.jsonl.
    """
    delta_eff = ted_accuracy_bound(config.delta, config.epsilon)
    frames = [np.array(f) for f in record["frames"]]
    faulty = frozenset(record["faulty_ids"])
    honest = [i for i in range(config.m) if i not in faulty]
    global_outputs = {
        int(key): to_global(np.array(v), frames[int(key)])
        for key, v in record["outputs_local"].items()
        if v is not None
    }
    eta, consistency_ok, termination_ok = agreement_metrics(global_outputs, honest, delta_eff)

    failures = None
    if links is not None:
        failures = estimation_failures(links, frames, faulty, delta_eff)
    return {
        "eta_emp": eta,
        "consistency_ok": consistency_ok,
        "termination_ok": termination_ok,
        "estimation_failures": failures,
    }


def verify_records(trials_path, transcript_path, config: ExperimentConfig) -> list:
    """Cross-check exported records; returns a list of mismatch strings."""
    links_by_trial = {}
    if transcript_path is not None:
        with open(transcript_path) as fh:
            for line in fh:
                rec = json.loads(line)
                links = links_by_trial.setdefault(rec["trial"], [])
                if rec["kind"] == "quantum":
                    t = rec["tally"]
                    tally = MeasurementTally(t["k_x"], t["k_y"], t["k_z"], t["n"])
                    links.append((rec["sender"], rec["receiver"], rec["payload"][0][0], tally))
    mismatches = []
    with open(trials_path) as fh:
        for line in fh:
            record = json.loads(line)
            trial = record["trial"]
            links = links_by_trial.get(trial) if transcript_path else None
            redone = recompute_metrics_from_records(record, links, config)
            stored = record["metrics"]
            for key, value in redone.items():
                if value is None:
                    continue
                if stored.get(key) != value:
                    mismatches.append(
                        f"trial {trial}: {key} stored={stored.get(key)!r} recomputed={value!r}"
                    )
    return mismatches
