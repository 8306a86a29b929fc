#!/usr/bin/env python3
"""Reproduce the headline worked example end to end.

Sizes the per-link qubit budget for a 10-node network that should reach a
consensus diameter of 0.02 with 99% overall success over a noiseless
channel, then actually runs honest trials at that (3.1e8 qubits per axis
per link) scale and prints the observed agreement quality.
"""

import argparse
import json

from rfagree.config import (
    CONSISTENCY_FACTOR,
    ExperimentConfig,
    required_qubits,
    success_exponent,
    ted_success_bound,
)
from rfagree.harness import run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--t", type=int, default=3)
    parser.add_argument("--accuracy", type=float, default=0.02, help="30*delta target")
    parser.add_argument("--overall-success", type=float, default=0.99)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    delta = args.accuracy / CONSISTENCY_FACTOR
    q_link = args.overall_success ** (1.0 / success_exponent("overall", args.m))
    n = required_qubits(delta, q_link)
    print(f"delta = {delta:.6g}, per-link target = {q_link:.8f}")
    print(f"sized n = {n} qubits per axis ({3 * n} per link per phase)")
    print(f"per-link success bound at that n: {ted_success_bound(n, delta):.8f}")

    config = ExperimentConfig(
        m=args.m,
        t=args.t,
        delta=delta,
        n=n,
        adversary="honest-shadow",
        faulty_ids=(),
        trials=args.trials,
        master_seed=args.seed,
        out_dir=args.out,
    )
    summary, _, metrics = run_experiment(config)
    print(json.dumps({k: summary[k] for k in (
        "violation_rate", "mean_eta", "max_eta", "per_run_success_bound", "runtime_seconds"
    )}, indent=2))
    accept_first = sum(1 for m in metrics if m.accept_phase == 0)
    print(f"accepted in the first phase: {accept_first}/{args.trials}")
    print(f"max observed eta vs target {args.accuracy}: {summary['max_eta']:.3g}")


if __name__ == "__main__":
    main()
