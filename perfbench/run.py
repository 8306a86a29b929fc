"""rfagree benchmark: pinned Monte Carlo workloads through the public harness.

Run from the repository root::

    python3 perfbench/run.py --workload m7-noisy-poisoner --seed 1 --seconds 20 --trace 0

Each invocation is one fresh process running one workload serially
(``jobs=1``) through ``harness.run_experiment``.  A run repeats one
short experiment of a pinned trial count with ``master_seed = --seed``
until ``--seconds`` have passed (at least twice, so repeats can be
compared), and after every experiment checks the outputs:

* ``summary["passed"]`` holds;
* ``harness.verify_records`` reports no mismatch for the repeat's own
  ``trials.jsonl`` (and ``transcript.jsonl`` where exported);
* fully successful trials keep consistency and termination;
* the SHA-256 of every exported file matches the first repeat's.

A trial that fails any of these counts towards ``failed``; a repeat-wide
failure (an exception, a failed summary, a digest mismatch) fails all of its
trials.

Before the window, one untimed experiment of the workload's full size runs
with the same checks, so that lazy set-up is done and the peak memory is
that of a full-size run.

``--trace 0`` reports the end-to-end metrics; set-up time is the median of
several fresh interpreters that import the package, validate the config and
size n.  The timings that are compared between runs are the best of the
window: the fastest repeat's trials per second, the fastest trial and the
fastest ``verify_records`` call.  On a shared 2-vCPU Xeon virtual machine,
other tenants slowed all work about 1.7x in bursts lasting from tens of
milliseconds to minutes; fast samples kept one speed while the share of slow
ones drifted.  Over five runs of 50 s each, the quartile spread of the
medians was 20-35% of their median, and that of the best 6-11% on the
m7 and m10 workloads (25-30% on m31-crash, whose one-second trials rarely
fall wholly in a quiet stretch).  The medians and p90 are still measured,
printed and written to the result file.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer split from :mod:`tracing`: self times averaged per repeat, exact
counters (asserted identical between traced repeats), the unattributed
residual and the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance and digests, is also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# Keep numpy's native thread pools to one thread: the load stays within this
# process.  Must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

# Parameters are pinned here, not read from configs/, so editing a config
# cannot move the benchmark.  ``trials`` is the size of the full experiment
# run once before the window (it sets the peak memory); ``repeat_trials`` is
# the size of each timed repeat, short so that many repeats fit in a window.
# Both are fixed, so exported bytes, memory and counters depend on the seed
# alone.
WORKLOADS = {
    # Short trials: fixed per-round costs (measure_batch, HonestNode, the
    # run_king_phase glue) dominate; where vectorizing small m x m rounds
    # could cost time instead of saving it.
    "m7-noisy-poisoner": {
        "config": {
            "m": 7, "t": 2, "delta": 0.05, "epsilon": 0.1, "n": 50000,
            "adversary": "grade-poisoner",
        },
        "trials": 100,
        "repeat_trials": 5,
    },
    # The serialization workload: transcript export and its read-back by
    # verify; every trial's transcript is held until the end of the run.
    "m10-equivocator-transcript": {
        "config": {
            "m": 10, "t": 3, "delta": 0.05, "epsilon": 0.0,
            "q_target": 0.999, "q_target_scope": "overall_strict",
            "adversary": "equivocator", "adversary_params": {"separation": 2.0},
            "write_transcript": True,
        },
        "trials": 50,
        "repeat_trials": 1,
    },
    # The O(m^2 (t+1)^2) phase-king term dominates; the crash adversary
    # bypasses the adversaries layer.  Runnable by hand for the traced split,
    # but not listed in BENCHMARK.json: its timings do not hold still on a
    # shared host (see above).
    "m31-crash": {
        "config": {
            "m": 31, "t": 10, "delta": 0.05, "epsilon": 0.0, "n": 100000,
            "adversary": "crash",
        },
        "trials": 2,
        "repeat_trials": 1,
    },
}

MIN_REPEATS = 2
# Set-up is measured this many times before the window and as many after,
# so that its median spans the run.
SETUP_REPEATS = 8
VERIFY_MIN_SECONDS = 0.05
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# Printed and written to the result file, but kept out of the final JSON
# line: the layer never runs without transcript export, so on every workload
# but m10-equivocator-transcript it reads exactly 0 s on every run.
DETAIL_ONLY = ("harness.transcript_records_s",)

SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
import rfagree
from rfagree.config import ExperimentConfig
config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
config.resolved_n()
print(repr(time.perf_counter() - start))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_commit() -> str:
    """Commit of the checkout from .git, without leaving it; else 'unknown'."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git_dir, *head[5:].split("/"))) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code when .git is absent."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "rfagree")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy

    import rfagree

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "rfagree": rfagree.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


def experiment_config(workload: str, seed: int, out_dir: str, trials: int):
    from rfagree.config import ExperimentConfig

    spec = WORKLOADS[workload]
    data = dict(spec["config"], trials=trials, master_seed=seed,
                out_dir=out_dir, jobs=1)
    return ExperimentConfig.from_dict(data)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds to import the package, validate the config and size n, per fresh interpreter."""
    spec = WORKLOADS[workload]
    config = json.dumps(dict(spec["config"], trials=spec["trials"], master_seed=seed))
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, config],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Repeat:
    """Outcome of one timed ``run_experiment`` call and its checks."""

    wall: float = 0.0
    trial_seconds: list = field(default_factory=list)
    verify_seconds: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    file_bytes: dict = field(default_factory=dict)
    summary: dict = None
    failed_trials: set = field(default_factory=set)
    problems: list = field(default_factory=list)


def run_repeat(config, tracer=None) -> Repeat:
    """One experiment, timed from outside, followed by its output checks.

    Untraced, each ``harness.run_trial`` call is timed; traced, the tracer's
    patches are installed around ``run_experiment`` alone, so ``verify``
    runs unpatched.
    """
    from rfagree import harness

    rep = Repeat()
    run_trial = harness.run_trial

    def timed_run_trial(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run_trial(*args, **kwargs)
        finally:
            rep.trial_seconds.append(time.perf_counter() - start)

    if tracer is None:
        harness.run_trial = timed_run_trial
        patches = contextlib.nullcontext()
    else:
        import tracing

        patches = tracing.installed(tracer)
    try:
        with patches:
            start = time.perf_counter()
            try:
                summary, _, metrics_list = harness.run_experiment(config)
            finally:
                rep.wall = time.perf_counter() - start
    except Exception as exc:  # a crashing program is a measured failure
        rep.problems.append(f"run_experiment raised {type(exc).__name__}: {exc}")
        rep.failed_trials = set(range(config.trials))
        return rep
    finally:
        harness.run_trial = run_trial

    rep.summary = summary
    if not summary["passed"]:
        rep.problems.append(
            f"summary not passed: violation_rate={summary['violation_rate']} "
            f"allowed={summary['allowed_violation_rate']}"
        )
        rep.failed_trials.update(range(config.trials))
    for trial, metrics in enumerate(metrics_list):
        if metrics.fully_successful and not (metrics.consistency_ok and metrics.termination_ok):
            rep.problems.append(f"trial {trial}: fully successful but inconsistent")
            rep.failed_trials.add(trial)

    files = ["trials.jsonl"] + (["transcript.jsonl"] if config.write_transcript else [])
    paths = {name: os.path.join(config.out_dir, name) for name in files}
    try:
        for name, path in paths.items():
            rep.digests[name] = sha256_file(path)
            rep.file_bytes[name] = os.path.getsize(path)
        # verify_records is read-only; small exports are verified several
        # times so that their median time is not a single clock reading.
        budget_start = time.perf_counter()
        while True:
            start = time.perf_counter()
            mismatches = harness.verify_records(
                paths["trials.jsonl"], paths.get("transcript.jsonl"), config
            )
            rep.verify_seconds.append(time.perf_counter() - start)
            if time.perf_counter() - budget_start >= VERIFY_MIN_SECONDS:
                break
    except Exception as exc:  # unreadable exports fail the repeat, not the benchmark
        rep.problems.append(f"reading exports raised {type(exc).__name__}: {exc}")
        rep.failed_trials.update(range(config.trials))
        return rep
    for line in mismatches:
        rep.problems.append(f"verify: {line}")
        match = re.match(r"trial (\d+):", line)
        if match:
            rep.failed_trials.add(int(match.group(1)))
        else:
            rep.failed_trials.update(range(config.trials))
    return rep


class Run:
    """Repeats of one workload within the time budget, with shared checks."""

    def __init__(self, args):
        self.args = args
        self.work_dir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
        self.reference = {}  # trial count -> digests of its first experiment
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._count = 0

    def config(self, trials: int):
        self._count += 1
        out_dir = os.path.join(self.work_dir, f"r{self._count}")
        return experiment_config(self.args.workload, self.args.seed, out_dir, trials)

    def warm_up(self) -> Repeat:
        """One full-size experiment, checked but not timed, before the window."""
        return self.repeat(trials=WORKLOADS[self.args.workload]["trials"])

    def repeat(self, tracer=None, trials=None) -> Repeat:
        config = self.config(trials or WORKLOADS[self.args.workload]["repeat_trials"])
        try:
            rep = run_repeat(config, tracer)
        finally:
            shutil.rmtree(config.out_dir, ignore_errors=True)
        reference = self.reference.get(config.trials)
        if reference is None and rep.digests:
            self.reference[config.trials] = rep.digests
        elif rep.digests != reference:
            rep.problems.append(f"output digests {rep.digests} differ from first repeat {reference}")
            rep.failed_trials.update(range(config.trials))
        self.attempted += config.trials
        self.failed += len(rep.failed_trials)
        self.problems.extend(rep.problems)
        return rep

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class Budget:
    """The measuring window: a repeat starts only if it should end in time."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.cycles = []

    def timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.cycles.append(time.perf_counter() - start)

    def room(self) -> bool:
        # The last two cycles cover both kinds of repeat in the traced run.
        return time.perf_counter() + max(self.cycles[-2:], default=0.0) <= self.end


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, run: Run) -> tuple:
    setup = measure_setup(args.workload, args.seed)
    run.warm_up()
    budget = Budget(args.seconds)
    repeats = []
    while len(repeats) < MIN_REPEATS or budget.room():
        repeats.append(budget.timed(run.repeat))
    setup += measure_setup(args.workload, args.seed)

    trials = WORKLOADS[args.workload]["repeat_trials"]
    trial_ms = sorted(1000.0 * s for rep in repeats for s in rep.trial_seconds)
    verify = sorted(s for rep in repeats for s in rep.verify_seconds)
    rates = [trials / rep.wall for rep in repeats]
    metrics = {
        "best_trials_per_s": metric(max(rates), "1/s"),
        "best_trial_ms": metric(trial_ms[0], "ms"),
        "best_verify_s": metric(verify[0], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    # Printed but kept out of the final JSON line: the medians and p90 drift
    # with the host's load (see the module docstring), the failed share is 0
    # on a correct run (the line carries failed/attempted), and p90 is
    # undefined where too few trials fit in the window.
    extra = {
        "trials_per_s": metric(statistics.median(rates), "1/s"),
        "trial_p50_ms": metric(statistics.median(trial_ms), "ms"),
        "verify_s": metric(statistics.median(verify), "s"),
        "failed_trial_share": metric(run.failed / run.attempted, "share"),
        "repeats": len(repeats),
        "repeat_trials_per_s": rates,
        "trials_per_repeat": trials,
        "trial_samples": len(trial_ms),
        "verify_samples": len(verify),
        "setup_samples": setup,
        "digests": run.reference,
        "file_bytes": repeats[0].file_bytes,
    }
    if len(trial_ms) - math.ceil(0.9 * len(trial_ms)) >= TAIL_SAMPLES:
        extra["trial_p90_ms"] = metric(percentile(trial_ms, 0.90), "ms")
    return metrics, extra


def per_layer(args, run: Run) -> tuple:
    import tracing

    run.warm_up()
    trials = WORKLOADS[args.workload]["repeat_trials"]
    budget = Budget(args.seconds)
    untraced, traced = [], []
    self_times, walls, counters = [], [], []
    while len(untraced) < MIN_REPEATS or len(traced) < MIN_REPEATS or budget.room():
        if len(untraced) <= len(traced):
            untraced.append(budget.timed(run.repeat))
            continue
        tracer = tracing.Tracer()
        rep = budget.timed(run.repeat, tracer)
        traced.append(rep)
        self_times.append(tracer.self_times())
        walls.append(tracer.wall())
        counts = {name: tracer.counts[name] for name in tracing.COUNTERS}
        summary = rep.summary or {}
        counts["quantum_link.degenerate_tallies"] = summary.get("degenerate_tallies", 0)
        counts["quantum_link.estimation_failures"] = summary.get("estimation_failures", 0)
        counts["harness.trials_jsonl_bytes"] = rep.file_bytes.get("trials.jsonl", 0)
        counts["harness.transcript_jsonl_bytes"] = rep.file_bytes.get("transcript.jsonl", 0)
        if counters and counts != counters[0]:
            run.problems.append(f"counters {counts} differ from first traced repeat {counters[0]}")
            run.failed += trials - len(rep.failed_trials)
        counters.append(counts)

    metrics = {}
    for span, name in tracing.SELF_TIME_METRICS.items():
        metrics[name] = metric(statistics.fmean(st.get(span, 0.0) for st in self_times), "s")
    wall = statistics.fmean(walls)
    metrics["traced_wall_s"] = metric(wall, "s")
    metrics["unattributed_s"] = metric(
        wall - sum(metrics[name]["value"] for name in tracing.SELF_TIME_METRICS.values()), "s"
    )
    for name, value in counters[0].items():
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = metric(value, unit)
    untraced_rate = statistics.median(trials / rep.wall for rep in untraced)
    traced_rate = statistics.median(trials / rep.wall for rep in traced)
    metrics["tracing_overhead_share"] = metric(1.0 - traced_rate / untraced_rate, "share")
    extra = {name: metrics.pop(name) for name in DETAIL_ONLY}
    extra.update({
        "failed_trial_share": metric(run.failed / run.attempted, "share"),
        "untraced_trials_per_s": metric(untraced_rate, "1/s"),
        "traced_trials_per_s": metric(traced_rate, "1/s"),
        "untraced_repeats": len(untraced),
        "traced_repeats": len(traced),
        "trials_per_repeat": trials,
        "digests": run.reference,
    })
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rfagree", "__init__.py")):
        fail(f"no rfagree package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import rfagree

    if os.path.dirname(os.path.abspath(rfagree.__file__)) != os.path.join(SRC, "rfagree"):
        fail(f"imported rfagree from {rfagree.__file__}, not from {SRC}")

    run = Run(args)
    try:
        metrics, extra = (per_layer if args.trace else end_to_end)(args, run)
    finally:
        run.close()

    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(result, provenance=provenance(args), details=extra, problems=run.problems)
    results_dir = os.path.join(STATE_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for key, value in sorted(record["provenance"].items()):
        print(f"provenance {key} = {value}")
    for problem in run.problems:
        print(f"problem {problem}")
    for name, m in list(metrics.items()) + [
        (k, v) for k, v in extra.items() if isinstance(v, dict) and "unit" in v
    ]:
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    for key, value in extra.items():
        if not (isinstance(value, dict) and "unit" in value):
            print(f"detail {key} = {value}")
    print(f"result written to {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
