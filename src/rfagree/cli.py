"""Command line front end.

Subcommands:

* ``run``    execute an experiment from a JSON config, write trials.jsonl,
             summary.json, report.csv (and transcript.jsonl with
             ``--transcript``); exit 0 on pass, 1 on threshold failure,
             2 on a configuration error or an output directory it cannot create.
* ``calc``   sizing and bound tables: given a network size, an overall
             success target, and an accuracy target (the 30-delta consensus
             diameter), print the per-link parameters and the minimal
             per-axis qubit count n.
* ``verify`` recompute every metric from exported trials.jsonl (and
             transcript.jsonl if given), compare against the stored ones
             and check the files' structure; exit 1 on any mismatch, 2 on
             a configuration error or a file that cannot be read.
* ``sweep``  cartesian parameter sweeps over a base config; one run per
             combination, in ``OUT/<key>=<cell>_...`` (two combinations of
             one name, or a field set twice, are a configuration error), plus a combined
             report.csv, opened first, one summary.json flattened per row.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .config import (
    CONSISTENCY_FACTOR,
    FIELD_RULES,
    ConfigError,
    ExperimentConfig,
    cell,
    success_exponent,
    ted_accuracy_bound,
    ted_success_bound,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2


def _add_run_overrides(parser):
    # Each override's dest is the config field it sets; see _flag_changes.
    parser.add_argument("--config", required=True, help="path to JSON experiment config")
    parser.add_argument(
        "--seed", type=int, dest="master_seed", metavar="SEED", help="override master_seed"
    )
    parser.add_argument("--trials", type=int, help="override trial count")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", help="override output directory")
    parser.add_argument("--jobs", type=int, help="override worker count")
    parser.add_argument(
        "--transcript",
        action="store_const",
        const=True,
        dest="write_transcript",
        help="also export transcript.jsonl",
    )
    parser.add_argument("--m", type=int, help="override node count")
    parser.add_argument("--t", type=int, help="override fault bound")
    parser.add_argument("--n", type=int, help="override per-axis qubit count")
    parser.add_argument("--delta", type=float, help="override per-link accuracy")
    parser.add_argument("--epsilon", type=float, help="override depolarizing noise")
    parser.add_argument("--adversary", help="override adversary strategy name")


def _flag_changes(args) -> dict:
    """The config fields set by the flags given: each flag whose dest is a field."""
    return {
        name: value
        for name, value in vars(args).items()
        if name in FIELD_RULES and value is not None
    }


def _with_changes(config: ExperimentConfig, changes: dict) -> ExperimentConfig:
    """``config`` with the fields in ``changes`` replaced, validated as a loaded config is.

    ``n`` and ``q_target`` are two ways to size the link, so setting one of
    them without the other clears the other.
    """
    sizing = {"n": None, "q_target": None} if changes.keys() & {"n", "q_target"} else {}
    return ExperimentConfig.from_dict({**config.to_dict(), **sizing, **changes})


def cmd_run(args) -> int:
    config = _with_changes(ExperimentConfig.load(args.config), _flag_changes(args))
    from .harness import run_experiment

    summary, _, _ = run_experiment(config)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if summary["passed"] else EXIT_FAILED


def cmd_calc(args) -> int:
    # Checked first: the accuracy target is converted through it.
    if not 0.0 <= args.epsilon <= 1.0:
        raise ConfigError(f"epsilon must be in [0, 1], got {args.epsilon}")
    if args.accuracy is not None:
        delta_eff = args.accuracy / CONSISTENCY_FACTOR
        delta = (delta_eff - 2.5 * args.epsilon) / (1.0 - args.epsilon) if args.epsilon < 1.0 else 0.0
        if delta <= 0.0:
            raise ConfigError(
                f"accuracy {args.accuracy} is unreachable at epsilon={args.epsilon}: "
                "the noise floor alone exceeds the per-link budget"
            )
    else:
        delta = args.delta

    # Per-run success is per-link success to the m^2 power (every node
    # estimates every other node once per phase, and the deciding phase
    # includes the king's broadcast links).
    if args.overall_success is not None:
        scope, target = "overall", args.overall_success
    else:
        scope, target = "per_link", args.q_target
    # Validated as a config sized by this target is: m >= 2, delta > 0, the
    # target in (0, 1) and its per-link root below 1.0.
    config = ExperimentConfig.from_dict(
        {"m": args.m, "t": 0, "delta": delta, "epsilon": args.epsilon,
         "q_target": target, "q_target_scope": scope}
    )
    exponent = success_exponent(scope, args.m)
    q_link = config.per_link_target()
    n = config.resolved_n()
    out = {
        "m": args.m,
        "epsilon": args.epsilon,
        "delta": delta,
        "accuracy_bound": ted_accuracy_bound(delta, args.epsilon),
        "consensus_diameter": CONSISTENCY_FACTOR * ted_accuracy_bound(delta, args.epsilon),
        "per_link_target": q_link,
        "per_link_exponent": exponent,
        "n": n,
        "per_link_success_bound": ted_success_bound(n, delta),
        "qubits_per_link": 3 * n,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    config = ExperimentConfig.load(args.config)
    from .harness import verify_records

    try:
        mismatches = verify_records(args.records, args.transcript, config)
    except OSError as exc:
        print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return EXIT_FAILED
    print(f"ok: {args.records} metrics verified")
    return EXIT_OK


def _split_values(values: str) -> list:
    """``values`` split at each comma outside brackets, braces and JSON strings."""
    parts, depth, quoted, escaped = [""], 0, False, False
    for ch in values:
        if ch == "," and not depth and not quoted:
            parts.append("")
            continue
        parts[-1] += ch
        if escaped:
            escaped = False
        elif ch == '"':
            quoted = not quoted
        elif quoted:
            escaped = ch == "\\"
        elif ch in "[{]}":
            depth += 1 if ch in "[{" else -1
    return parts


def _parse_set(expr: str):
    """``key=v1,v2,...`` as ``(key, [v1, v2, ...])``, each value JSON or else its text."""
    key, _, values = expr.partition("=")
    if not values:
        raise ConfigError(f"--set expects key=v1,v2,..., got {expr!r}")
    parsed = []
    for raw in _split_values(values):
        try:
            parsed.append(json.loads(raw))
        except (ValueError, RecursionError):  # not JSON, or JSON too long or deep to read
            parsed.append(raw)
    return key, parsed


def cmd_sweep(args) -> int:
    base = ExperimentConfig.load(args.config)
    axes = [_parse_set(expr) for expr in args.set]
    flags = _flag_changes(args)
    # A field takes one setting, which nothing replaces; --out sets each run's out_dir.
    named = [key for key, _ in axes] + [*flags, "out_dir"]
    for key in named:
        if named.count(key) > 1:
            raise ConfigError(f"{key} is set more than once by --set, --out or a flag")
    # Every combination's name and config are built, and so checked, before the first one runs.
    runs = {}
    for combo in itertools.product(*(values for _, values in axes)):
        pairs = [(key, value) for (key, _), value in zip(axes, combo)]
        tag = "_".join(f"{key}={cell(value)}" for key, value in pairs) or "base"
        if tag in runs:
            raise ConfigError(f"two sweep combinations share the run name {tag!r}")
        changes = {**dict(pairs), "out_dir": os.path.join(args.out, tag), **flags}
        runs[tag] = _with_changes(base, changes)
    from .harness import run_sweep

    summaries = run_sweep(runs, args.out)
    return EXIT_OK if all(s["passed"] for s in summaries) else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfagree",
        description="Byzantine-tolerant reference frame agreement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    _add_run_overrides(p_run)
    p_run.set_defaults(func=cmd_run)

    p_calc = sub.add_parser("calc", help="qubit budgets and success bounds")
    p_calc.add_argument("--m", type=int, required=True, help="network size")
    success = p_calc.add_mutually_exclusive_group(required=True)
    success.add_argument("--overall-success", type=float, help="target for the whole run")
    success.add_argument("--q-target", type=float, help="per-link target (alternative)")
    accuracy = p_calc.add_mutually_exclusive_group(required=True)
    accuracy.add_argument("--accuracy", type=float, help="consensus diameter target (30 delta)")
    accuracy.add_argument("--delta", type=float, help="per-link accuracy (alternative)")
    p_calc.add_argument("--epsilon", type=float, default=0.0, help="depolarizing noise")
    p_calc.set_defaults(func=cmd_calc)

    p_verify = sub.add_parser("verify", help="recompute metrics from exported files")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--records", required=True, help="trials.jsonl path")
    p_verify.add_argument("--transcript", help="transcript.jsonl path (optional)")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="cartesian sweep over config fields")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--set", action="append", default=[], help="key=v1,v2,...")
    p_sweep.add_argument("--seed", type=int, dest="master_seed", metavar="SEED")
    p_sweep.add_argument("--trials", type=int)
    p_sweep.add_argument("--jobs", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def exit_status(func, *args):
    """``func(*args)``, or EXIT_CONFIG after a ConfigError, reported as one line on stderr."""
    try:
        return func(*args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
