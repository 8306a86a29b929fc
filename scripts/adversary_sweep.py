#!/usr/bin/env python3
"""Run the standard adversary battery against one network configuration.

Auto-sizes the qubit budget so the conservative per-run success bound
reaches --q-run, runs every entry of ``adversaries.standard_battery``
(equivocator at several separations), and writes one report.csv row each.
"""

import argparse
import os
import sys

from rfagree.adversaries import standard_battery
from rfagree.cli import exit_status
from rfagree.config import ExperimentConfig, ted_accuracy_bound
from rfagree.harness import run_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--t", type=int, default=3)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--epsilon", type=float, default=0.0)
    parser.add_argument("--q-run", type=float, default=0.999)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="sweep_out")
    args = parser.parse_args()

    delta_eff = ted_accuracy_bound(args.delta, args.epsilon)
    runs = {}
    for idx, (name, kwargs) in enumerate(standard_battery(delta_eff)):
        tag = name if not kwargs else f"{name}_{idx}"
        runs[tag] = ExperimentConfig.from_dict(
            {"m": args.m, "t": args.t, "delta": args.delta, "epsilon": args.epsilon,
             "q_target": args.q_run, "q_target_scope": "overall_strict",
             "adversary": name, "adversary_params": kwargs, "trials": args.trials,
             "master_seed": args.seed + idx, "jobs": args.jobs,
             "out_dir": os.path.join(args.out, tag)}
        )
    run_sweep(runs, args.out)
    print(f"report written to {os.path.join(args.out, 'report.csv')}")


if __name__ == "__main__":
    sys.exit(exit_status(main))
