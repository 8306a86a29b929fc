#!/usr/bin/env python3
"""Run the standard adversary battery against one network configuration.

Auto-sizes the qubit budget so the conservative per-run success bound
reaches --q-run, runs every entry of ``adversaries.standard_battery``
(equivocator at several separations), and writes one report.csv row each.
"""

import argparse
import os

from rfagree.adversaries import standard_battery
from rfagree.config import ExperimentConfig, ted_accuracy_bound
from rfagree.harness import emit_report, run_experiment


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

    sizing = ExperimentConfig(
        m=args.m,
        t=args.t,
        delta=args.delta,
        epsilon=args.epsilon,
        q_target=args.q_run,
        q_target_scope="overall_strict",
        trials=1,
    )
    n = sizing.resolved_n()
    delta_eff = ted_accuracy_bound(args.delta, args.epsilon)

    os.makedirs(args.out, exist_ok=True)
    summaries = []
    for idx, (name, kwargs) in enumerate(standard_battery(delta_eff)):
        tag = name if not kwargs else f"{name}_{idx}"
        config = ExperimentConfig(
            m=args.m,
            t=args.t,
            delta=args.delta,
            epsilon=args.epsilon,
            n=n,
            adversary=name,
            adversary_params=kwargs,
            trials=args.trials,
            master_seed=args.seed + idx,
            jobs=args.jobs,
            out_dir=os.path.join(args.out, tag),
        )
        summary, _, _ = run_experiment(config)
        summaries.append(summary)
        print(
            f"{tag:24s} violations {summary['violations']}/{args.trials} "
            f"max_eta {summary['max_eta']}"
        )
    emit_report(summaries, os.path.join(args.out, "report.csv"))
    print(f"report written to {os.path.join(args.out, 'report.csv')}")


if __name__ == "__main__":
    main()
