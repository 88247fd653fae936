"""Command-line entry points: stats, run, calibrate, fit-noise, sweep.

Failures exit nonzero after printing a machine-readable JSON error record
to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .circuits import build_iterated_circuit, compile_to_two_qubit, compiled_stats
from .harness import (ExperimentConfig, _trial_pairs, calibrate_hybrid, calibration_record,
                      fit_depolarizing, run_experiment, run_streams, run_trial,
                      sample_vector_pair, write_json)


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = str(args.out)
    if getattr(args, "algorithms", None):
        overrides["algorithms"] = tuple(args.algorithms.split(","))
    if getattr(args, "trials", None) is not None:
        overrides["calib_trials"] = args.trials
    if getattr(args, "tune_beta", False):
        overrides["tune_beta"] = True
    return dataclasses.replace(config, **overrides) if overrides else config


def _cmd_stats(args) -> int:
    if args.max_depth < 0:
        raise ValueError(f"--max-depth must be >= 0, got {args.max_depth}")
    rng = np.random.default_rng(args.seed or 0)
    x, y = sample_vector_pair(rng, "haar")
    print(f"{'t':>3} {'oracle calls':>13} {'rbs gates':>10} {'2q gates':>9} {'2q depth':>9}")
    for t in range(args.max_depth + 1):
        circuit = build_iterated_circuit(x, y, t)
        stats = compiled_stats(compile_to_two_qubit(circuit))
        print(f"{t:>3} {2 * t + 1:>13} {circuit.count('rbs'):>10} "
              f"{stats.two_qubit_count:>9} {stats.two_qubit_depth:>9}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    _, paths = run_experiment(config)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_config(args)
    cal = calibrate_hybrid(config, run_streams(config.seed, 0)[0])
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "calibration.json"
    write_json(path, calibration_record(cal))
    print(f"calibration: {path}")
    return 0


def _cmd_fit_noise(args) -> int:
    config = _load_config(args)
    sampling = dataclasses.replace(config, algorithms=())
    # each trial's tallies are copied into one row, so no trial's table outlives it
    counts = np.empty((config.n_trials, config.max_depth + 1, 3), dtype=np.int64)
    thetas = np.empty(config.n_trials)
    trial_rngs = run_streams(config.seed, config.n_trials)[1]
    for t, (rng, pair) in enumerate(_trial_pairs(trial_rngs, config.vector_mode)):
        trial = run_trial(sampling, pair, rng)
        counts[t], thetas[t] = trial.counts, trial.theta_true[0]  # (1, D, 3) into (D, 3)
    gammas = fit_depolarizing(counts, thetas)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "gamma_fit.json"
    write_json(path, {"gamma_by_depth": gammas})
    # the fit measures -log(1 - eta_d) = gamma_d - log(1 - beta), readout error
    # included; the right side stays finite where exp(-gamma_d) underflows
    print(f"{'depth':>6} {'gamma_model':>12} {'gamma_fit':>12}")
    lost = math.log1p(-config.noise.beta_readout)
    for d, g in enumerate(gammas):
        print(f"{d:>6} {config.noise.gamma_by_depth[d] - lost:>12.4f} {g:>12.4f}")
    print(f"gamma fit: {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    base_out = Path(config.out_dir)
    subs = []  # every entry's config, before the first run
    for raw in filter(None, (v.strip() for v in args.values.split(","))):
        try:
            if args.param == "max-depth":
                value = int(raw)
                fields = {"max_depth": value, "out_dir": str(base_out / f"max_depth_{value}")}
            else:  # target-eps, the only other choice argparse admits
                fields = {"powerlaw_target_eps": float(raw),
                          "out_dir": str(base_out / f"target_eps_{raw}")}
            subs.append((raw, dataclasses.replace(config, **fields)))
        except ValueError as exc:
            raise ValueError(f"--values entry {raw!r} for --param {args.param}: {exc}") from None
    if not subs:
        raise ValueError(f"--values {args.values!r} for --param {args.param} has no entry")
    for raw, sub in subs:
        _, paths = run_experiment(sub)
        print(f"{args.param}={raw}: {paths['aggregate']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdepth-ae",
        description="Low-depth amplitude estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="two-qubit resource table of the amplified circuits")
    p_stats.add_argument("--max-depth", type=int, default=7)
    p_stats.add_argument("--seed", type=int, default=None)
    p_stats.set_defaults(func=_cmd_stats)

    for name, func, extra in (
            ("run", _cmd_run, "run the configured experiment and emit data files"),
            ("calibrate", _cmd_calibrate, "write hybrid calibration values"),
            ("fit-noise", _cmd_fit_noise,
             "fit -log(1 - eta_d) = gamma_d - log(1 - beta) per depth from simulated data"),
            ("sweep", _cmd_sweep, "repeat the run over a parameter range")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--algorithms", type=str, default=None,
                       help="comma-separated subset of direct,mle,crt,hybrid,powerlaw")
        if name == "calibrate":
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--tune-beta", action="store_true")
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
