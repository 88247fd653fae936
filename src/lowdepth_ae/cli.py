"""Command-line entry points: stats, run, calibrate, fit-noise, sweep.

Failures exit nonzero after printing a machine-readable JSON error record
to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .circuits import build_iterated_circuit, compile_to_two_qubit, compiled_stats
from .harness import (ExperimentConfig, _trial_pairs, calibrate_hybrid, calibration_record,
                      fit_depolarizing, fit_record, run_experiment, run_streams, run_trial,
                      write_json)
from .noise import NONNEGATIVE_INT, checked, neg_log_damping

CONFIG_FIELDS = {field.name for field in dataclasses.fields(ExperimentConfig)}


def _load_config(args) -> ExperimentConfig:
    """The config file's config, or the default, with each field that a flag gave replaced."""
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    return dataclasses.replace(config, **{name: value for name, value in vars(args).items()
                                          if name in CONFIG_FIELDS and value is not None})


def _cmd_stats(args) -> int:
    max_depth = checked("--max-depth", args.max_depth, *NONNEGATIVE_INT)
    x = y = np.full(4, 0.5)  # the counts are the same for every unit-vector pair
    print(f"{'t':>3} {'oracle calls':>13} {'rbs gates':>10} {'2q gates':>9} {'2q depth':>9}")
    for t in range(max_depth + 1):
        circuit = build_iterated_circuit(x, y, t)
        stats = compiled_stats(compile_to_two_qubit(circuit))
        print(f"{t:>3} {2 * t + 1:>13} {circuit.count('rbs'):>10} "
              f"{stats.two_qubit_count:>9} {stats.two_qubit_depth:>9}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    _, paths = run_experiment(config, args.out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_config(args)
    cal = calibrate_hybrid(config, run_streams(config.seed)[0])
    path = write_json(args.out_dir, "calibration.json", calibration_record(cal))
    print(f"calibration: {path}")
    return 0


def _cmd_fit_noise(args) -> int:
    config = _load_config(args)
    sampling = dataclasses.replace(config, algorithms=())
    # each trial's tallies are copied into one row, so no trial's table outlives it
    counts = np.empty((config.n_trials, config.max_depth + 1, 3), dtype=np.int64)
    thetas = np.empty(config.n_trials)
    trial_blocks = run_streams(config.seed)[1]
    for t, (rng, subsample_rng, pair) in enumerate(_trial_pairs(config, trial_blocks)):
        trial = run_trial(sampling, pair, rng, subsample_rng)
        counts[t], thetas[t] = trial.counts, trial.theta_true[0]  # (1, D, 3) into (D, 3)
    fit = fit_depolarizing(counts, thetas)
    path = write_json(args.out_dir, "gamma_fit.json", fit_record(fit))
    # the fit measures -log a_d = gamma_d - log(1 - beta), readout error included
    print(f"{'depth':>6} {'gamma_model':>12} {'gamma_fit':>12}")
    for d, g in enumerate(fit):
        cell = g if isinstance(g, str) else f"{g:.4f}"  # a depth without a rate prints its reason
        print(f"{d:>6} {neg_log_damping(config.noise, d):>12.4f} {cell:>12}")
    print(f"gamma fit: {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    subs = {}  # every entry's sub-directory, with its value and config, before the first run
    for raw in filter(None, (v.strip() for v in args.values.split(","))):
        try:
            if args.param == "max-depth":
                value = int(raw)
                name, fields = f"max_depth_{value}", {"max_depth": value}
            else:  # target-eps, the only other choice argparse admits
                name, fields = f"target_eps_{raw}", {"powerlaw_target_eps": float(raw)}
            if name in subs:
                raise ValueError(f"its directory {name} is that of entry {subs[name][0]!r}")
            subs[name] = raw, dataclasses.replace(config, **fields)
        except ValueError as exc:
            raise ValueError(f"--values entry {raw!r} for --param {args.param}: {exc}") from None
    if not subs:
        raise ValueError(f"--values {args.values!r} for --param {args.param} has no entry")
    for name, (raw, sub) in subs.items():
        _, paths = run_experiment(sub, Path(args.out_dir) / name)
        print(f"{args.param}={raw}: {paths['aggregate']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdepth-ae",
        description="Low-depth amplitude estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="two-qubit resource table of the amplified circuits")
    p_stats.add_argument("--max-depth", type=int, default=7)
    p_stats.set_defaults(func=_cmd_stats)

    for name, func, extra in (
            ("run", _cmd_run, "run the configured experiment and emit data files"),
            ("calibrate", _cmd_calibrate, "write hybrid calibration values"),
            ("fit-noise", _cmd_fit_noise,
             "fit -log(1 - eta_d) = gamma_d - log(1 - beta) per depth from simulated data"),
            ("sweep", _cmd_sweep, "repeat the run over a parameter range")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--out", dest="out_dir", default="runs", help="directory to write into")
        # a flag that overrides a config field stores its value under the field's name
        p.add_argument("--seed", type=int)
        if name in ("run", "sweep"):
            p.add_argument("--algorithms", type=lambda names: tuple(names.split(",")),
                           help="comma-separated subset of direct,mle,crt,hybrid,powerlaw")
        if name == "calibrate":
            p.add_argument("--trials", dest="calib_trials", type=int)
            p.add_argument("--tune-beta", action="store_true", default=None)
        if name == "sweep":
            p.add_argument("--param", choices=("max-depth", "target-eps"), required=True)
            p.add_argument("--values", type=str, required=True)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
