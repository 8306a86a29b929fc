"""Experiment runner: seeded trials, ground-truth metrics, JSONL/CSV output.

Every trial is reconstructible from (config, master_seed, trial index):
node frames, the kings' chosen directions, all channel randomness.  Metrics
are computed against that ground truth by one function,
:func:`compute_metrics`, from the trial's record (its trials.jsonl line) and
its delivered quantum links; a run stores what it returns, and ``verify``
calls it again on the exported files:

* eta_emp: maximum pairwise chord distance between correct final outputs,
  compared in the global frame;
* consistency: all correct nodes output bottom, or all output directions
  with eta_emp <= 30 * delta_eff;
* accept phase: whether all correct nodes accept in one common phase, that
  phase, and how many phases were used;
* persistency: in every phase led by a correct king, all correct nodes
  accept and land within delta_eff of the king's direction;
* estimation-failure oracle: every correct-to-correct quantum transmission
  is decoded again from its tally and compared against the sent direction
  at the delta_eff accuracy, in one array pass over the trial's links, a
  list of ``(sender, receiver, sent, tally)`` tuples.
  Trials where every such link succeeded are marked fully successful; on
  those, consistency and persistency are deterministic consequences of the
  thresholds and must never fail;
* degenerate tallies: those a correct node received that decode to the
  sentinel, counted in the same pass over the links.

Files: trials.jsonl (one record per trial), summary.json (aggregates plus
timing), report.csv (each summary flattened to a row), transcript.jsonl
(optional, one record per round, assembled as text from the round's wire
by :func:`transcript_records`).  Byte-for-byte reproducible except
timing fields, which appear only in summary.json / report.csv.  The run
writes the JSONL lines as each trial finishes, and ``verify`` reads the
two JSONL files in step, so neither holds every trial.  :func:`run_sweep`
writes a sweep's combined report.csv, opened before its first run as a
run's files are before its first trial.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
import os
import time
from collections import deque
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from dataclasses import dataclass

import numpy as np

from .adversaries import make_adversary
from .config import (
    CONSISTENCY_FACTOR,
    ConfigError,
    ExperimentConfig,
    cell,
    success_exponent,
    ted_accuracy_bound,
    ted_success_bound,
)
from .geometry import distance, random_frames, to_global
from .netsim import QUANTUM_STEPS, rewindable_philox
from .quantum_link import SENTINEL, ChannelParams, MeasurementTally, ted_receive
from .rf_protocols import ProtocolParams, TrialResult, phase_steps, run_rf_consensus

#: Encodes every exported JSONL line and summary.json: the bytes of
#: ``json.dumps(obj, sort_keys=True)``.  Each record is a tree built afresh,
#: with no cycles, so the encoder does not look for them.  With no
#: ``indent`` it is the C encoder, which leaves no reference cycles behind.
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


@dataclass
class TrialMetrics:
    eta_emp: object  # float or None (fewer than two directions output)
    consistency_ok: bool
    termination_ok: bool
    accept_phase: object  # common accepting phase, or None
    accept_agreement: bool
    phases_used: object
    persistency: list
    persistency_ok: bool
    # Read from the quantum links; None when they are not known.
    estimation_failures: object
    degenerate: object
    fully_successful: object

    def to_dict(self) -> dict:
        return dict(vars(self))


def quantum_links(transcript) -> list:
    """A transcript's delivered quantum links, read per sender: the estimation oracle's input.

    One ``(sender, receiver, sent, tally)`` tuple per delivered slot:
    the two node ids, the first state the slot carried (in sender-local
    coordinates: the sent direction, for a correct sender) and its tally, a
    :class:`~rfagree.quantum_link.MeasurementTally` or, read back by
    :func:`round_links`, the exported ``[k_x, k_y, k_z, n]``.
    """
    links = []
    for rnd in transcript:
        if rnd.step.kind in QUANTUM_STEPS:
            payloads = rnd.payloads
            for sender, sender_tallies in rnd.deliveries.per_slot.items():
                msgs = payloads.per_slot.get(sender) or itertools.repeat(payloads.broadcast[sender])
                for (_, receiver), msg, tally in zip(payloads.slots[sender], msgs, sender_tallies):
                    if tally is not None:
                        links.append((sender, receiver, msg.segments[0][0], tally))
    return links


#: A link whose distance from the array pass lies within this of delta_eff
#: is decided again by :func:`_link_fails`.  With rotation frames and
#: vectors of length at most 1, every array result is within a few ulps
#: (about 1e-15) of the scalar one, far inside this band, so both decide
#: every link alike.
NEAR_THRESHOLD = 1e-9


def _link_fails(sent_local, sender_frame, tally, receiver_frame, delta_eff: float) -> bool:
    """Whether one link's decoded estimate lies beyond delta_eff of the sent direction.

    The scalar formula: ``ted_receive`` and ``distance`` on the two vectors
    in the global frame.
    """
    estimate, _ = ted_receive(MeasurementTally(*tally))
    sent = to_global(sent_local, sender_frame).tolist()
    return distance(sent, to_global(estimate, receiver_frame).tolist()) > delta_eff


def link_metrics(links: list, frames, faulty, delta_eff: float):
    """(estimation_failures, degenerate) over the delivered quantum ``links``.

    ``links`` are :func:`quantum_links` tuples, transposed once into
    columns for one array pass.  Every tally a correct node received
    is decoded again, as the node did; ``degenerate`` counts those that
    fell back to the sentinel, which ``ted_receive`` does exactly when
    ``2 k == n`` on all three axes.  A correct-to-correct link fails when
    the decoded estimate and the sent direction differ by more than
    delta_eff in the global frame.  Tallies are decoded with the IEEE
    operations of ``ted_receive`` and both vectors rotated by stacked
    ``matmul``; the normalization and the distance are summed in another
    order than ``math.fsum``, so a link within :data:`NEAR_THRESHOLD` of
    delta_eff is decided by the scalar formula, and the counts equal those
    of one ``ted_receive`` and ``distance`` call per link.
    """
    if not links:
        return 0, 0
    senders, receivers, sent_states, tallies = zip(*links)
    tallies = np.fromiter(
        itertools.chain.from_iterable(tallies), dtype=np.int64, count=4 * len(tallies)
    ).reshape(-1, 4)
    counts, n = tallies[:, :3], tallies[:, 3:]
    is_faulty = np.array([i in faulty for i in range(len(frames))], dtype=bool)
    senders = np.array(senders, dtype=np.intp)
    receivers = np.array(receivers, dtype=np.intp)
    to_correct = ~is_faulty[receivers]
    flagged = (2 * counts == n).all(axis=1)
    degenerate = int(np.count_nonzero(flagged & to_correct))

    idx = np.flatnonzero(to_correct & ~is_faulty[senders])
    raw = 2.0 * counts[idx] / n[idx] - 1.0
    flagged = flagged[idx]
    length = np.sqrt((raw * raw).sum(axis=1))
    estimate = raw / np.where(flagged, 1.0, length)[:, np.newaxis]
    estimate[flagged] = SENTINEL
    sent = np.array([sent_states[i] for i in idx.tolist()], dtype=np.float64).reshape(-1, 3)
    sender_frames, receiver_frames = frames[senders[idx]], frames[receivers[idx]]
    diff = (
        np.matmul(sender_frames, sent[:, :, np.newaxis])
        - np.matmul(receiver_frames, estimate[:, :, np.newaxis])
    )[:, :, 0]
    dist = np.sqrt((diff * diff).sum(axis=1))
    fails = dist > delta_eff
    for i in np.flatnonzero(np.abs(dist - delta_eff) <= NEAR_THRESHOLD).tolist():
        _, _, sent_local, tally = links[idx[i]]
        fails[i] = _link_fails(sent_local, sender_frames[i], tally, receiver_frames[i], delta_eff)
    return int(np.count_nonzero(fails)), degenerate


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


def record_frames(record: dict) -> np.ndarray:
    """The record's frames as one C-ordered float64 array of shape (m, 3, 3)."""
    frames = np.array(record["frames"], dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1:] != (3, 3):
        raise ValueError(f"frames of shape {frames.shape} are not 3x3 matrices")
    return frames


def outputs_global(record: dict, frames: np.ndarray) -> dict:
    """The record's ``outputs_local`` in the global frame, by :func:`record_frames`.

    The one derivation of a record's ``outputs_global``: :func:`trial_record`
    writes it and ``verify`` derives it again, with the same frames whatever
    the memory layout of those the trial ran with.
    """
    return {
        i: None if v is None else to_global(v, frames[int(i)]).tolist()
        for i, v in record["outputs_local"].items()
    }


def compute_metrics(record: dict, links, delta_eff: float) -> TrialMetrics:
    """Every metric of one trial, from its :func:`trial_record` dict.

    Reads the record's ``frames``, ``faulty_ids``, ``outputs_global``,
    ``accept_phase`` and ``phases``, never its ``metrics``.  Its
    ``outputs_global`` must be what :func:`outputs_global` derives from
    ``outputs_local``: :func:`trial_record` writes it so, and ``verify``
    puts the derived one in before calling this.  ``links`` are the
    trial's quantum links, a list of :func:`quantum_links` tuples (read
    back by :func:`round_links` in ``verify``), or None when unknown,
    which leaves the three fields read from them None.  The run and
    ``verify`` both call this, so a stored metric and its check share every
    formula.
    """
    frames = record_frames(record)

    def global_vec(v, node):
        return to_global(v, frames[node]).tolist()

    faulty = frozenset(record["faulty_ids"])
    honest = [i for i in range(len(frames)) if i not in faulty]
    global_outputs = {int(i): v for i, v in record["outputs_global"].items() if v is not None}
    eta, consistency_ok, termination_ok = agreement_metrics(global_outputs, honest, delta_eff)

    accepted = record["accept_phase"].values()
    phases = sorted({p for p in accepted if p is not None})
    accept_agreement = len(set(accepted)) == 1

    persistency = []
    for pr in record["phases"]:
        if not pr["king_honest"]:
            continue
        king_global = global_vec(pr["king_direction"], pr["king"])
        all_accepted = all(pr["decisions"][str(i)] == 1 for i in honest)
        max_dist = max(
            distance(global_vec(pr["values"][str(i)], i), king_global) for i in honest
        )
        persistency.append(
            {
                "phase": pr["phase"],
                "all_accepted": all_accepted,
                "max_distance": max_dist,
                "ok": all_accepted and max_dist <= delta_eff,
            }
        )

    failures = degenerate = None
    if links is not None:
        failures, degenerate = link_metrics(links, frames, faulty, delta_eff)
    return TrialMetrics(
        eta_emp=eta,
        consistency_ok=consistency_ok,
        termination_ok=termination_ok,
        accept_phase=phases[0] if accept_agreement and phases else None,
        accept_agreement=accept_agreement,
        phases_used=phases[-1] + 1 if phases else None,
        persistency=persistency,
        persistency_ok=all(p["ok"] for p in persistency),
        estimation_failures=failures,
        degenerate=degenerate,
        fully_successful=None if failures is None else failures == 0,
    )


def trial_frames(master_seed: int, trial: int, m: int) -> np.ndarray:
    """The trial's node frames, one (m, 3, 3) array.

    Node i's frame is drawn from its own stream, ``substream(master_seed,
    trial, 0, i, 0)``, reached by rewinding one Philox per trial.
    """
    bits, gen, state = rewindable_philox(master_seed, trial)
    draws = np.empty((m, 3, 3))
    for node in range(m):
        state["state"]["counter"] = [0, 0, node, 0]
        bits.state = state
        gen.standard_normal(out=draws[node])
    return random_frames(draws)


def run_trial(config: ExperimentConfig, trial: int, frames=None):
    """One seeded trial; returns (TrialResult, TrialMetrics, record).

    ``record`` is the trial's trials.jsonl line as a dict, built once; its
    metrics are computed from it, as ``verify`` computes them again.
    """
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
    record = trial_record(config, trial, result)
    metrics = compute_metrics(record, quantum_links(result.transcript), params.delta_eff)
    record["metrics"] = metrics.to_dict()
    return result, metrics, record


def _floats(v):
    """``v`` (a vector or matrix, or None) as nested lists of Python floats, in a new list.

    A node's direction is already a list of three Python floats, which is
    copied as it is: the float64 round trip would give the same floats.
    """
    if type(v) is list and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is float:
        return v[:]
    return None if v is None else np.asarray(v, dtype=np.float64).tolist()


def trial_record(config: ExperimentConfig, trial: int, result: TrialResult) -> dict:
    """The trial's trials.jsonl line, without its ``metrics``."""
    record = {
        "trial": trial,
        "master_seed": config.master_seed,
        "n": result.params.channel.n,
        "faulty_ids": list(result.faulty_ids),
        "frames": [_floats(f) for f in result.frames],
        "phases": [
            {
                "phase": pr.phase,
                "king": pr.king_id,
                "king_honest": pr.king_honest,
                "king_direction": _floats(pr.king_direction),
                "inputs": {str(i): _floats(w) for i, w in pr.inputs.items()},
                "values": {str(i): _floats(v) for i, v in pr.values.items()},
                "grades": {str(i): g for i, g in pr.grades.items()},
                "decisions": {str(i): y for i, y in pr.decisions.items()},
            }
            for pr in result.phases
        ],
        "outputs_local": {str(i): _floats(v) for i, v in result.outputs.items()},
        "accept_phase": {str(i): p for i, p in result.accept_phase.items()},
    }
    record["outputs_global"] = outputs_global(record, record_frames(record))
    return record


@functools.cache
def _step_text(step) -> tuple:
    """A transcript line of ``step`` as text, split where ``round``, ``trial`` and the wire go."""
    quantum = ("payloads", "slot_payloads", "tallies")
    fields = quantum if step.kind in QUANTUM_STEPS else ("symbols", "slot_symbols")
    record = {"phase": step.phase, "step": step.kind, "cc_round": step.cc_round}
    record.update(dict.fromkeys(("round", "trial", *fields), "\0"), senders=list(step.senders))
    return tuple(_ENCODER.encode(record).split(_ENCODER.encode("\0")))


def transcript_records(trial: int, transcript) -> str:
    """The trial's transcript.jsonl text, one line per round in order; README "Output files".

    Each line is assembled from text: its step's fields, built once per
    step (:func:`_step_text`), the tallies in one encode, the symbols in
    one and each distinct payload object of the round in one.  Its bytes
    are those of ``json.dumps(record, sort_keys=True)`` of the round's
    record dict (built in ``tests/helpers.py``).  What a sender sent is
    written once when its slots all carry one value, as a correct sender's
    always do, and otherwise per slot under ``"<sender>"``, in the engine's
    slot order: a quantum round its payloads, a classical round its symbols.
    """
    encode = _ENCODER.encode
    trial = encode(trial)
    lines = []
    for index, rnd in enumerate(transcript):
        payloads = rnd.payloads
        senders, broadcast, rows = payloads.senders, payloads.broadcast, payloads.per_slot
        if rnd.step.kind not in QUANTUM_STEPS:
            symbols, slot = [broadcast.get(s) for s in senders], {}
            for sender, row in rows.items():
                if row.count(row[0]) == len(row):
                    symbols[senders.index(sender)] = row[0]
                else:
                    slot[str(sender)] = row
            a, b, c, d, z = _step_text(rnd.step)
            slot = encode(slot) if slot else "{}"
            lines.append(f"{a}{index}{b}{slot}{c}{encode(symbols)}{d}{trial}{z}\n")
            continue
        texts = {id(None): (None, "null")}  # id(payload) -> (its segments, their text)
        shared, slot = [], []
        for sender in senders:
            row = [broadcast[sender]] if sender in broadcast else rows[sender]
            for msg in row:
                if id(msg) not in texts:
                    value = [[[float(x) for x in state], int(k)] for state, k in msg.segments]
                    texts[id(msg)] = value, encode(value)
            row = [texts[id(msg)] for msg in row]
            if all(value == row[0][0] for value, _ in row):  # equal by value, as read back
                shared.append(row[0][1])
            else:
                shared.append("null")
                slot.append(f'"{sender}": [{", ".join(text for _, text in row)}]')
        slot.sort()  # the keys' string order: '"10": ' before '"2": '
        shared, slot = ", ".join(shared), ", ".join(slot)
        tallies = encode(rnd.deliveries.values())  # a tally encodes as [k_x, k_y, k_z, n]
        a, b, c, d, e, z = _step_text(rnd.step)
        lines.append(f"{a}[{shared}]{b}{index}{c}{{{slot}}}{d}{tallies}{e}{trial}{z}\n")
    return "".join(lines)


def _worker(args):
    """One trial of a validated config, serially or in a pool worker; times its own run_trial.

    Returns the trial's metrics, its trials.jsonl line and transcript.jsonl
    text (each None where the run writes no such file) and its run_trial
    seconds.  Both texts are encoded where the trial ran: they are all the
    run writes of the trial, and all a pool worker sends back besides.
    """
    config, trial = args
    t0 = time.monotonic()
    result, metrics, record = run_trial(config, trial)
    seconds = time.monotonic() - t0
    if not config.out_dir:
        return metrics, None, None, seconds
    # transcript_records by its module name: tracing replaces it there.
    transcript = transcript_records(trial, result.transcript) if config.write_transcript else None
    return metrics, _ENCODER.encode(record) + "\n", transcript, seconds


#: With jobs > 1, trials per worker that are submitted and not yet read.
_POOL_WINDOW = 2


def _pool_map(pool, tasks, window: int):
    """``pool.map(_worker, tasks)`` with at most ``window`` tasks submitted and not yet yielded.

    ``Executor.map`` submits every task before it yields the first result,
    so its pending work would grow with the trial count.  As there, a task
    that raises cancels the tasks not yet started.
    """
    pending = deque()
    try:
        for task in tasks:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(_worker, task))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def allowed_violation_rate(bound: float, trials: int) -> float:
    """The acceptance threshold: (1 - bound) plus three binomial sigmas."""
    base = 1.0 - bound
    sigma = math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    return base + 3.0 * sigma


@contextmanager
def _outputs(directory, names):
    """``{name: file}`` for ``names`` in ``directory`` (made first), open for writing.

    A directory it cannot make or a file it cannot open is a ConfigError;
    if the body raises, every file opened is removed.
    """
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc.strerror}")
    files = {}
    try:
        with ExitStack() as stack:
            for name in names:
                path = os.path.join(directory, name)
                try:
                    files[name] = stack.enter_context(open(path, "w", newline=""))
                except OSError as exc:
                    raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
            yield files
    except BaseException:
        for fh in files.values():
            with suppress(OSError):
                os.remove(fh.name)
        raise


def run_experiment(config: ExperimentConfig):
    """Run all trials; returns (summary, None, metrics_list).

    When config.out_dir is set, each trial's trials.jsonl line (and its
    transcript.jsonl lines when enabled) is written as the trial finishes,
    in trial order, and summary.json and report.csv after the last one.
    The run holds only each trial's :class:`TrialMetrics` and run time, so
    its memory does not grow with the trial count beyond those.  The middle
    element is None: the records are in trials.jsonl.  Every output file is
    opened before the first trial by :func:`_outputs`, which removes them
    if the run raises, so it leaves no partial export.
    """
    config.validate()
    n = config.resolved_n()
    start = time.monotonic()
    jobs = ((config, k) for k in range(config.trials))
    metrics_list, trial_times = [], []
    names = ["trials.jsonl", "summary.json", "report.csv"]
    if config.write_transcript:
        names.insert(1, "transcript.jsonl")
    with _outputs(config.out_dir, names) if config.out_dir else nullcontext({}) as files:
        if config.jobs > 1:
            # Imported here: it loads multiprocessing, which a serial run never needs.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(config.jobs)
            results = _pool_map(pool, jobs, _POOL_WINDOW * config.jobs)
        else:
            pool, results = nullcontext(), map(_worker, jobs)
        with pool:
            # map and _pool_map both yield in trial order.
            for metrics, line, transcript, seconds in results:
                for name, text in (("trials.jsonl", line), ("transcript.jsonl", transcript)):
                    if name in files:
                        files[name].write(text)
                metrics_list.append(metrics)
                trial_times.append(seconds)
        elapsed = time.monotonic() - start
        violations = sum(1 for m in metrics_list if not (m.consistency_ok and m.termination_ok))
        violation_rate = violations / config.trials
        etas = [m.eta_emp for m in metrics_list if m.eta_emp is not None]
        q_link = ted_success_bound(n, config.delta)
        bound = q_link ** success_exponent("overall_strict", config.m, config.t)
        allowed = allowed_violation_rate(bound, config.trials)
        trial_times.sort()

        def percentile(q):
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
        if files:
            files["summary.json"].write(_ENCODER.encode(summary) + "\n")
            emit_report([summary], files["report.csv"])
    return summary, None, metrics_list


def run_sweep(runs: dict, out: str) -> list:
    """Run each config of ``runs`` (``{name: config}``) in order; returns their summaries.

    ``out``/report.csv is opened before the first run and gets one row per run.
    """
    with _outputs(out, ["report.csv"]) as files:
        summaries = []
        for name, config in runs.items():
            summary, _, _ = run_experiment(config)
            summaries.append(summary)
            print(f"{name}: violation_rate={summary['violation_rate']} passed={summary['passed']}")
        emit_report(summaries, files["report.csv"])
    return summaries


def emit_report(summaries, fh) -> None:
    """One CSV row per summary, flattened: an object's keys become ``<key>.<sub>`` columns."""
    rows = []
    for summary in summaries:
        row = {}
        for key, value in summary.items():
            if isinstance(value, dict):
                row.update((f"{key}.{sub}", cell(v)) for sub, v in value.items())
            else:
                row[key] = cell(value)
        rows.append(row)
    writer = csv.DictWriter(fh, list(dict.fromkeys(k for row in rows for k in row)))
    if rows:
        writer.writeheader()
    writer.writerows(rows)


def _sent_state(segments):
    """The first state of an exported payload, after checking every segment's shape."""
    for state, count in segments:
        if not (len(state) == 3 and all(type(c) is float and math.isfinite(c) for c in state)):
            raise ValueError(f"sent state {state!r} is not 3 finite floats")
        if type(count) is not int:
            raise ValueError(f"segment count {count!r} is not an int")
    return segments[0][0]


def _slot_lists(rec: dict, key: str, senders: list, m: int) -> dict:
    """The record's ``key`` (``slot_payloads`` or ``slot_symbols``), its shape checked.

    Each key must name a sender of the record and hold one entry per slot
    of that sender, m - 1 of them.
    """
    lists = rec[key]
    names = {str(s) for s in senders} if lists else ()  # most rounds have none
    for name, entries in lists.items():
        if name not in names:
            raise ValueError(f"{key} key {name!r} is not one of senders {senders!r}")
        if len(entries) != m - 1:
            raise ValueError(f"{key}[{name!r}] has {len(entries)} entries, not m - 1 = {m - 1}")
    return lists


def round_links(rec: dict, m: int, n: int) -> list:
    """The :func:`quantum_links` tuples of every delivered slot of one exported round.

    The inverse of :func:`transcript_records` for what the estimation oracle
    reads; a classical round has no links.  The record's shape is checked
    as it is read: a malformed one raises ValueError, KeyError, TypeError,
    IndexError or AttributeError.  ``payloads`` and ``symbols`` hold one
    entry per sender and ``tallies`` one per slot; ``slot_payloads`` and
    ``slot_symbols`` must be present, and each of their keys names a sender
    and holds m - 1 entries.  A sender's shared payload is checked once,
    with its first delivered slot.  Each tally must be four ints ``[k_x,
    k_y, k_z, n]`` with every k in [0, n] and ``n`` the run's per-axis
    qubit count; it goes into its link as read.
    """
    senders = rec["senders"]
    if not all(type(s) is int and 0 <= s < m for s in senders):
        raise ValueError(f"senders {senders!r} are not all nodes in range({m})")
    if rec["step"] not in QUANTUM_STEPS:
        symbols = rec["symbols"]
        if len(symbols) != len(senders):
            raise ValueError(f"{len(symbols)} symbols for {len(senders)} senders")
        _slot_lists(rec, "slot_symbols", senders, m)
        return []
    tallies = rec["tallies"]
    if len(tallies) != len(senders) * (m - 1):
        raise ValueError(f"{len(tallies)} tallies for {len(senders)} senders at m={m}")
    slot_payloads = _slot_lists(rec, "slot_payloads", senders, m)
    links = []
    tallies = iter(tallies)
    for sender, shared in zip(senders, rec["payloads"], strict=True):
        per_slot = slot_payloads.get(str(sender))
        sent = None  # a shared payload is checked on the sender's first delivered slot
        for j, receiver in enumerate(r for r in range(m) if r != sender):
            t = next(tallies)
            if t is None:
                continue
            k_x, k_y, k_z, t_n = t
            if not (
                type(k_x) is int and type(k_y) is int and type(k_z) is int
                and type(t_n) is int and t_n == n
                and 0 <= k_x <= n and 0 <= k_y <= n and 0 <= k_z <= n
            ):
                raise ValueError(f"tally {t!r} is not four ints with 0 <= k <= n = {n}")
            if per_slot is not None:
                sent = _sent_state(per_slot[j])
            elif sent is None:
                sent = _sent_state(shared)
            links.append((sender, receiver, sent, t))
    return links


#: TrialMetrics fields read from the quantum links, so from transcript.jsonl.
LINK_FIELDS = ("estimation_failures", "degenerate", "fully_successful")


#: What a malformed line raises while it is read or checked.
LINE_ERRORS = (ValueError, KeyError, TypeError, IndexError, AttributeError, RecursionError)


def _line_mismatch(trial, name: str, lineno: int, exc: Exception) -> str:
    """``trial N: <name> line L: <Error>: <reason>``, without ``trial N:`` if that is unknown."""
    prefix = "" if trial is None else f"trial {trial}: "
    return f"{prefix}{name} line {lineno}: {type(exc).__name__}: {exc}"


def _read_jsonl(fh, name: str, read, mismatches: list):
    """Yield ``(lineno, trial, read(trial, rec))`` for each line of ``fh``, lazily.

    ``fh`` is a file open in binary mode.  A line that raises one of
    :data:`LINE_ERRORS` while it is decoded or read is a mismatch
    (:func:`_line_mismatch`) and yields nothing.  Each line is decoded as
    UTF-8 in that ``try``, so a line that is not UTF-8 is one such mismatch
    (``UnicodeDecodeError``).
    """
    for lineno, line in enumerate(fh, 1):
        trial = None
        try:
            rec = json.loads(line.decode("utf-8"))
            if type(rec["trial"]) is not int:  # so no message is prefixed with it
                raise ValueError(f"trial number {rec['trial']!r} is not an int")
            trial = rec["trial"]
            value = read(trial, rec)
        except LINE_ERRORS as exc:
            mismatches.append(_line_mismatch(trial, name, lineno, exc))
        else:
            yield lineno, trial, value


def _same(stored, value) -> bool:
    """``stored == value``, with the same type at every level of nested lists and dicts.

    Where ``==`` alone would let a JSON ``true`` pass for ``1``, or ``1`` or
    ``1.0`` for ``true``.
    """
    if type(stored) is not type(value):
        return False
    if type(value) is list:
        return len(stored) == len(value) and all(map(_same, stored, value))
    if type(value) is dict:
        return stored.keys() == value.keys() and all(_same(stored[k], v) for k, v in value.items())
    return stored == value


def _trial_runs(lines, trials: int, noun: str, missing: str, structure: list):
    """Yield ``(trial, run)`` for each run of :func:`_read_jsonl` lines of one trial, in order.

    A run is in order if its trial is above every run's before it and in
    ``range(trials)``.  Any other run is read past and is a mismatch in
    ``structure`` (``trial N: <noun>, but not one of the config's ...``, or
    ``<noun> out of order``), and so is each trial of the config with no
    run in order (``trial N: <missing>``), at its place in trial order.
    """
    last = -1  # the highest trial of a run so far
    for trial, run in itertools.groupby(lines, key=operator.itemgetter(1)):
        if trial > last:
            structure.extend(f"trial {k}: {missing}" for k in range(last + 1, min(trial, trials)))
            last = trial
            if trial < trials:
                yield trial, run
                continue
        if 0 <= trial < trials:
            structure.append(f"trial {trial}: {noun} out of order, after trial {last}")
        else:
            structure.append(f"trial {trial}: {noun}, but not one of the config's {trials} trials")
    structure.extend(f"trial {k}: {missing}" for k in range(last + 1, trials))


def verify_records(trials_path, transcript_path, config: ExperimentConfig) -> list:
    """Cross-check exported records; returns a list of mismatch strings.

    Every stored metric is computed again by :func:`compute_metrics` from
    its record and, when a transcript is given, from the quantum links read
    back from it by :func:`round_links`; without a transcript the three
    fields read from the links (:data:`LINK_FIELDS`) are not checked.  The
    ``metrics`` keys must be exactly :class:`TrialMetrics`' fields, and each
    value checked is compared by :func:`_same`, so with its type.  A
    record's ``outputs_global`` is derived again from its ``outputs_local``
    and ``frames``.  The fields the config fixes are compared with it:
    ``n``, ``master_seed``, ``faulty_ids`` and each phase's ``(phase, king,
    king_honest)``, which is ``(k, k, k not in faulty)`` for k in 0..t;
    each must also have the type a run writes (an int, ``king_honest`` a
    bool), so ``true`` does not pass for ``1``, nor ``1`` for ``true``.  The
    ``frames`` are not drawn again, and the phases' ``inputs`` and
    ``grades`` are not checked, as that would mean running the protocol
    again.  The export's structure is checked too: trials.jsonl holds trials
    0..trials-1 once each, and the transcript holds, for each of them,
    rounds 0..R-1 once each and in order, R being the rounds of the trial's
    t+1 king phases.  Each transcript line's ``(phase, step, cc_round,
    senders)`` must be its round's in that schedule (:func:`phase_steps`,
    king k leading phase k), with ``phase`` an int and ``cc_round`` None or
    an int.  A line that cannot be read (not UTF-8, not
    JSON), whose shape is wrong or that is not its round, is itself a
    mismatch.

    Both files are read once, in step, in trial order, the one order a run
    writes them: a run of lines (:func:`_trial_runs`) whose trial is not
    above the one before it is out of order and feeds no metric.  A trial's
    record is checked with its transcript block, and both are then dropped,
    so memory does not grow with the trial count.  A record with no block,
    or repeated in its run, is checked without the link fields.  Line and
    metric mismatches come as they are read, then the structure mismatches
    of trials.jsonl, then of the transcript.
    """
    mismatches = []
    n = config.resolved_n()
    delta_eff = ted_accuracy_bound(config.delta, config.epsilon)
    faulty = sorted(config.resolved_faulty_ids())
    kings = [[k, k, k not in faulty] for k in range(config.t + 1)]
    # round -> its (phase, step, cc_round, senders); only transcript lines read it.
    schedule = None if transcript_path is None else [
        (step.phase, step.kind, step.cc_round, list(step.senders))
        for k in range(config.t + 1)
        for step in phase_steps(config.m, config.t, k, k)
    ]
    record_structure, transcript_structure = [], []

    def check(trial, lineno, record, trial_links):
        try:
            derived = {
                "n": (record["n"], n),
                "master_seed": (record["master_seed"], config.master_seed),
                "faulty_ids": (record["faulty_ids"], faulty),
                "kings": (
                    [[pr["phase"], pr["king"], pr["king_honest"]] for pr in record["phases"]],
                    kings,
                ),
                "outputs_global": (
                    record["outputs_global"], outputs_global(record, record_frames(record))
                ),
            }
            for key, (stored, value) in derived.items():
                if not _same(stored, value):
                    mismatches.append(
                        f"trial {trial}: {key} stored={stored!r} recomputed={value!r}"
                    )
            # The metrics are computed from the derived outputs, not the stored.
            record["outputs_global"] = derived["outputs_global"][1]
            stored = record["metrics"]
            metrics = compute_metrics(record, trial_links, delta_eff).to_dict()
            if stored.keys() != metrics.keys():
                mismatches.append(
                    f"trial {trial}: metrics keys {sorted(stored)!r}, not {sorted(metrics)!r}"
                )
            for key, value in metrics.items():
                if (
                    (trial_links is not None or key not in LINK_FIELDS)
                    and not _same(stored.get(key), value)
                ):
                    mismatches.append(
                        f"trial {trial}: {key} stored={stored.get(key)!r} recomputed={value!r}"
                    )
        except LINE_ERRORS as exc:
            mismatches.append(_line_mismatch(trial, "trials", lineno, exc))

    def read_round(trial, rec):
        """(links, round number) of a transcript line that matches the schedule."""
        number = rec["round"]
        if type(number) is not int or not 0 <= number < len(schedule):
            raise ValueError(f"round {number!r} is not one of 0..{len(schedule) - 1}")
        phase, cc_round = rec["phase"], rec["cc_round"]
        fields = (phase, rec["step"], cc_round, rec["senders"])
        # == lets true stand for 1 and 1.0 for 1; the types are checked too.
        if (
            fields != schedule[number]
            or type(phase) is not int
            or not (cc_round is None or type(cc_round) is int)
        ):
            raise ValueError(
                f"round {number} is (phase, step, cc_round, senders) {fields!r}, "
                f"not {schedule[number]!r}"
            )
        return round_links(rec, config.m, n), number

    def blocks(fh):
        """``(trial, links)`` of each transcript block in order, its round numbers checked."""
        lines = _read_jsonl(fh, "transcript", read_round, mismatches)
        in_order = list(range(len(schedule)))
        for trial, block in _trial_runs(
            lines, config.trials, "transcript lines", "no transcript lines", transcript_structure
        ):
            links, numbers = [], []
            for _, _, (line_links, number) in block:
                links += line_links
                numbers.append(number)
            if numbers != in_order:
                transcript_structure.append(
                    f"trial {trial}: transcript rounds are not 0..{len(schedule) - 1} "
                    "once each, in order"
                )
            yield trial, links

    with open(trials_path, "rb") as records_fh, (
        nullcontext() if transcript_path is None else open(transcript_path, "rb")
    ) as transcript_fh:
        trial_blocks = iter(()) if transcript_path is None else blocks(transcript_fh)
        block = (-1, None)  # the last block read: (trial, links)
        records = _read_jsonl(records_fh, "trials", lambda trial, rec: rec, mismatches)
        for trial, run in _trial_runs(
            records, config.trials, "trials.jsonl record", "0 trials.jsonl records, not 1",
            record_structure,
        ):
            while block[0] < trial:  # past the blocks of trials with no record
                block = next(trial_blocks, (config.trials, None))
            trial_links = block[1] if block[0] == trial else None
            for count, (lineno, _, record) in enumerate(run, 1):
                check(trial, lineno, record, trial_links if count == 1 else None)
            if count != 1:
                record_structure.append(f"trial {trial}: {count} trials.jsonl records, not 1")
        for _ in trial_blocks:  # the blocks after the last record, for their mismatches
            pass
    return mismatches + record_structure + transcript_structure
