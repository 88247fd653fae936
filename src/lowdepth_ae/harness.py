"""End-to-end experiment driver.

A run draws random vector pairs, simulates one shot pool per depth, feeds
the same pool to every enabled estimator and writes per-trial and
aggregate CSVs plus a JSON manifest.  All randomness flows from a single
seed through the streams of :func:`run_streams`, so identical configs
produce byte-identical output files, and ``calibrate`` and ``fit-noise``
see the very draws a run sees.

Oracle-call accounting is cumulative for the MLE rows: the point at
maximum depth d charges all shots taken at depths 0..d, each shot at
depth d' costing 2d'+1 calls.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .estimators import (Estimate, EstimationError, HybridCalibration,
                         _grid_size, crt_estimate, crt_reconstruct,
                         direct_estimate, hybrid_estimate, mle_estimate)
from .noise import NoiseModel, sample_noisy_shots
from .schedules import (InfeasibleScheduleError, PowerLawConfig,
                        optimize_exponent, power_law_schedule,
                        subsample_without_replacement)
from .simulator import DepthCounts

ALGORITHMS = ("direct", "mle", "crt", "hybrid", "powerlaw")
VECTOR_MODES = ("haar", "uniform-theta")
BETA_TUNING_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)

TRIAL_COLUMNS = ("algorithm", "depth", "oracle_calls", "trial_id", "theta_true",
                 "p_true", "theta_hat", "p_hat", "abs_err_p", "abs_err_theta",
                 "branch_tag")
AGGREGATE_COLUMNS = ("algorithm", "depth", "total_oracle_calls", "mean_abs_err_p",
                     "std_err_p", "mean_abs_err_theta")


class UnidentifiableFitError(RuntimeError):
    """Depolarizing fit has no signal (all probabilities near 1/2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes to/from a JSON config file."""

    n_trials: int = 50
    n_shots: int = 500
    max_depth: int = 7
    epsilon: float = 0.001
    seed: int = 0
    vector_mode: str = "haar"
    algorithms: tuple[str, ...] = ALGORITHMS
    noise: NoiseModel = field(default_factory=NoiseModel.linear_ramp)
    mle_noise_aware: bool = False
    beta_hybrid: float = 1.0
    tune_beta: bool = False
    calib_trials: int = 200
    powerlaw_target_eps: float = 0.01
    out_dir: str = "runs"

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if min(self.n_trials, self.n_shots, self.calib_trials) < 1:
            raise ValueError("trial and shot counts must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        _grid_size(self.epsilon)
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.vector_mode not in VECTOR_MODES:
            raise ValueError(f"vector_mode must be one of {VECTOR_MODES}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        if self.noise.max_depth < self.max_depth:
            raise ValueError("noise model does not cover max_depth")
        if ("crt" in self.algorithms or "hybrid" in self.algorithms) and self.max_depth < 2:
            raise ValueError("crt/hybrid need max_depth >= 2")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["algorithms"] = list(self.algorithms)
        noise = {"gamma_by_depth": list(self.noise.gamma_by_depth),
                 "beta_readout": self.noise.beta_readout,
                 "leak_prob": self.noise.leak_prob,
                 "correlation": None}
        if self.noise.correlation is not None:
            noise["correlation"] = {"p_switch": self.noise.correlation.p_switch,
                                    "burst_scale": self.noise.correlation.burst_scale}
        d["noise"] = noise
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        from .noise import CorrelatedNoise
        data = dict(data)
        noise_data = data.pop("noise", None)
        if noise_data is not None:
            corr = noise_data.get("correlation")
            noise = NoiseModel(
                gamma_by_depth=tuple(noise_data["gamma_by_depth"]),
                beta_readout=noise_data.get("beta_readout", 0.0),
                leak_prob=noise_data.get("leak_prob", 0.0),
                correlation=None if corr is None else CorrelatedNoise(**corr))
            data["noise"] = noise
        if "algorithms" in data:
            data["algorithms"] = tuple(data["algorithms"])
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class TrialResult:
    """All estimates produced from one input pair and its shot pool."""

    trial_id: int
    theta_true: float
    p_true: float
    estimates: dict[str, tuple[Estimate, ...]]
    errors: dict[str, str]
    counts_by_depth: tuple[DepthCounts, ...]


@dataclass(frozen=True)
class AggregateRow:
    algorithm: str
    depth: str
    total_oracle_calls: int
    mean_abs_err_p: float
    std_err_p: float
    mean_abs_err_theta: float

    def __post_init__(self):
        if self.mean_abs_err_p < 0 or self.std_err_p < 0 or self.mean_abs_err_theta < 0:
            raise ValueError("error statistics must be nonnegative")


def sample_vector_pair(rng: np.random.Generator, mode: str = "haar"):
    """Random 4-dimensional unit-vector pair.

    ``haar`` normalizes independent Gaussian draws; ``uniform-theta`` first
    draws the target angle uniformly on [0, pi/2] and builds a pair with
    ``x . y = sin(theta)``, spreading the estimated probability over [0, 1].
    """
    if mode == "haar":
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        return x / np.linalg.norm(x), y / np.linalg.norm(y)
    if mode == "uniform-theta":
        theta = rng.uniform(0.0, math.pi / 2)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        u = rng.standard_normal(4)
        u -= (u @ x) * x
        u /= np.linalg.norm(u)
        y = math.sin(theta) * x + math.cos(theta) * u
        return x, y / np.linalg.norm(y)
    raise ValueError(f"unknown vector mode {mode!r}")


def _with_label(est: Estimate, label) -> Estimate:
    diag = dict(est.diagnostics or {})
    diag["label"] = label
    return dataclasses.replace(est, diagnostics=diag)


def run_streams(seed: int, n_trials: int) -> Iterator[np.random.Generator]:
    """The random streams of a run: stream 0 calibrates, stream i + 1 feeds trial i.

    Each generator is created only when the iterator reaches it.
    """
    return (np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n_trials + 1))


def run_trial(config: ExperimentConfig, pair, rng: np.random.Generator,
              calibrations: dict[int, HybridCalibration] | None = None,
              trial_id: int = 0) -> TrialResult:
    """Simulate one shot pool and run every enabled estimator on it.

    The true angle is ``asin(min(|x . y|, 1))``, the angle whose squared
    sine the depth-0 oracle circuit succeeds with.  Each depth is sampled
    exactly once; the power-law estimator subsamples the recorded pool
    without replacement rather than taking fresh shots.  CRT estimates
    carry their depth-2 MLE anchor in ``diagnostics["anchor"]``.  Estimator
    failures are recorded per algorithm without aborting the rest.
    """
    x, y = pair
    theta_true = math.asin(min(abs(float(np.dot(x, y))), 1.0))
    p_true = math.sin(theta_true) ** 2
    pool = tuple(sample_noisy_shots(theta_true, d, config.n_shots, config.noise, rng)
                 for d in range(config.max_depth + 1))

    estimates: dict[str, tuple[Estimate, ...]] = {}
    errors: dict[str, str] = {}

    def record(alg, build):
        try:
            estimates[alg] = tuple(build())
        except (EstimationError, InfeasibleScheduleError) as exc:
            estimates[alg] = ()
            errors[alg] = str(exc)

    if "direct" in config.algorithms:
        record("direct", lambda: [_with_label(direct_estimate(pool[0]), 0)])

    if "mle" in config.algorithms:
        mle_noise = config.noise if config.mle_noise_aware else None
        record("mle", lambda: [
            _with_label(mle_estimate(pool[:d + 1], epsilon=config.epsilon, noise=mle_noise), d)
            for d in range(config.max_depth + 1)])

    crt_by_depth: dict[int, Estimate] = {}
    if "crt" in config.algorithms or "hybrid" in config.algorithms:
        try:
            mle_low = mle_estimate(pool[:3], epsilon=config.epsilon, noise=None)
            for d_max in range(2, config.max_depth + 1):
                crt_by_depth[d_max] = crt_estimate(pool[d_max], pool[d_max - 1], mle_low, d_max)
        except EstimationError as exc:
            for alg in ("crt", "hybrid"):
                if alg in config.algorithms:
                    estimates[alg] = ()
                    errors[alg] = str(exc)
            crt_by_depth = {}

    if crt_by_depth and "crt" in config.algorithms:
        estimates["crt"] = tuple(_with_label(est, d) for d, est in sorted(crt_by_depth.items()))

    if crt_by_depth and "hybrid" in config.algorithms:
        cal = calibrations or {}
        missing = [d for d in crt_by_depth if d not in cal]
        if missing:
            estimates["hybrid"] = ()
            errors["hybrid"] = f"no calibration for depths {missing}"
        else:
            estimates["hybrid"] = tuple(
                _with_label(hybrid_estimate(mle_low, crt_by_depth[d], cal[d]), d)
                for d in sorted(crt_by_depth))

    if "powerlaw" in config.algorithms:
        def build_powerlaw():
            nu = optimize_exponent(config.powerlaw_target_eps, config.n_shots,
                                   config.max_depth, config.noise.gamma_by_depth)
            schedule = power_law_schedule(PowerLawConfig(
                nu=nu, n_shots=config.n_shots, max_depth=config.max_depth,
                target_eps=config.powerlaw_target_eps))
            subsampled = [subsample_without_replacement(pool[d], min(n, pool[d].kept), rng)
                          for d, n in schedule.entries]
            est = mle_estimate(subsampled, epsilon=config.epsilon, noise=config.noise)
            est = dataclasses.replace(est, algorithm="powerlaw", diagnostics={
                "nu": nu, "schedule": schedule.entries})
            return [_with_label(est, f"eps={config.powerlaw_target_eps:g}")]
        record("powerlaw", build_powerlaw)

    return TrialResult(trial_id=trial_id, theta_true=theta_true, p_true=p_true,
                       estimates=estimates, errors=errors, counts_by_depth=pool)


def calibrate_hybrid(config: ExperimentConfig,
                     rng: np.random.Generator) -> dict[int, HybridCalibration]:
    """Estimate the hybrid threshold inputs on ``config.calib_trials`` training draws.

    Each draw is a :func:`run_trial` of CRT alone on ``rng`` (stream 0 of
    the run); draws whose CRT estimate failed are left out, as the run
    leaves them out of its rows.  ``mle_avg_depth2`` is the mean error of
    the depth-2 MLE anchor under the configured noise and shot budget;
    ``crt_exact_at_d`` is the mean error of the CRT reconstruction fed
    exact (infinite-shot, noiseless) probabilities.  With
    ``config.tune_beta`` the threshold multiplier is grid-searched on the
    same draws: among multipliers whose hybrid never loses to plain CRT at
    any depth, the one with the best best-depth error wins.
    """
    crt_config = dataclasses.replace(config, algorithms=("crt",))
    trials = [run_trial(crt_config, sample_vector_pair(rng, config.vector_mode), rng)
              for _ in range(config.calib_trials)]
    trials = [t for t in trials if t.estimates["crt"]]
    if not trials:
        raise EstimationError("no calibration trial produced a CRT estimate")
    depths = range(2, config.max_depth + 1)
    anchors = [t.estimates["crt"][0].diagnostics["anchor"] for t in trials]

    def mean_err(p_hats) -> float:
        return float(np.mean([abs(p - t.p_true) for p, t in zip(p_hats, trials)]))

    mle_avg2 = mean_err(a.p_hat for a in anchors)
    crt_exact = {}
    for d in depths:
        exact = [crt_reconstruct(math.sin((2 * d + 1) * t.theta_true) ** 2,
                                 math.sin((2 * d - 1) * t.theta_true) ** 2,
                                 t.theta_true, d)[0] for t in trials]
        crt_exact[d] = mean_err(math.sin(theta) ** 2 for theta in exact)

    def calibrations(beta) -> dict[int, HybridCalibration]:
        return {d: HybridCalibration(mle_avg_depth2=mle_avg2, crt_exact_at_d=crt_exact[d],
                                     beta_hybrid=beta) for d in depths}

    beta = config.beta_hybrid
    if config.tune_beta:
        crt_by_depth = {d: [t.estimates["crt"][i] for t in trials]
                        for i, d in enumerate(depths)}
        crt_means = {d: mean_err(e.p_hat for e in crt_by_depth[d]) for d in depths}
        best = None
        for candidate in BETA_TUNING_GRID:
            cal = calibrations(candidate)
            hybrid_means = {d: mean_err(hybrid_estimate(a, e, cal[d]).p_hat
                                        for a, e in zip(anchors, crt_by_depth[d]))
                            for d in depths}
            if any(hybrid_means[d] > crt_means[d] + 1e-12 for d in depths):
                continue
            score = min(hybrid_means.values())
            if best is None or score < best[0]:
                best = (score, candidate)
        if best is not None:
            beta = best[1]
    return calibrations(beta)


def calibration_record(calibrations: dict[int, HybridCalibration]) -> dict:
    """JSON form of per-depth calibrations, as ``calibrate`` and the manifest write it."""
    return {str(d): dataclasses.asdict(c) for d, c in sorted(calibrations.items())}


def write_json(path: Path, record) -> None:
    """Write ``record`` as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def fit_depolarizing(counts_by_trial, true_thetas) -> list[float]:
    """Least-squares depolarizing rates from observed good fractions.

    Per depth the model ``g = (1 - a cos(2 (2d+1) theta)) / 2`` is solved
    for ``a = exp(-gamma_d)`` in closed form and clamped into (0, 1].
    Raises :class:`UnidentifiableFitError` when every probability sits at
    1/2 (no cosine signal to regress on).
    """
    counts_by_trial = list(counts_by_trial)
    if len(counts_by_trial) < 2:
        raise ValueError("need counts from at least two trials per depth")
    thetas = np.asarray(true_thetas, dtype=float)
    n_depths = len(counts_by_trial[0])
    gammas = []
    for d in range(n_depths):
        rates = np.array([trial[d].n_good / trial[d].kept if trial[d].kept else 0.5
                          for trial in counts_by_trial])
        c = np.cos(2 * (2 * d + 1) * thetas)
        z = 1.0 - 2.0 * rates
        denom = float(np.sum(c * c))
        if denom < 1e-9:
            raise UnidentifiableFitError(
                f"depth {d}: all probabilities near 1/2, damping unidentifiable")
        a = float(np.sum(c * z) / denom)
        a = min(max(a, 1e-12), 1.0)
        gammas.append(-math.log(a))
    return gammas


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def aggregate_and_emit(trials, config: ExperimentConfig, out_dir,
                       calibrations=None, gamma_fit=None,
                       gamma_fit_error: str | None = None) -> dict[str, Path]:
    """Write per-trial and aggregate CSVs, CRT error histograms and a manifest."""
    if not trials:
        raise ValueError("no trials to aggregate")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    trial_rows = []
    groups: dict[tuple, list] = {}
    for trial in trials:
        for alg in config.algorithms:
            for est in trial.estimates.get(alg, ()):
                label = est.diagnostics["label"]
                branch = est.diagnostics.get("branch", "")
                err_p = abs(est.p_hat - trial.p_true)
                err_t = abs(est.theta_hat - trial.theta_true)
                trial_rows.append((alg, label, est.oracle_calls, trial.trial_id,
                                   trial.theta_true, trial.p_true, est.theta_hat,
                                   est.p_hat, err_p, err_t, branch))
                groups.setdefault((alg, str(label)), []).append(
                    (est.oracle_calls, err_p, err_t))

    paths = {"trials": out / "trials.csv", "aggregate": out / "aggregate.csv",
             "crt_histogram": out / "crt_error_histogram.csv",
             "manifest": out / "manifest.json"}
    _write_csv(paths["trials"], TRIAL_COLUMNS, trial_rows)

    agg_rows = []
    for (alg, label), items in groups.items():
        errs_p = np.array([e for _, e, _ in items])
        errs_t = np.array([e for _, _, e in items])
        row = AggregateRow(algorithm=alg, depth=label,
                           total_oracle_calls=int(sum(c for c, _, _ in items)),
                           mean_abs_err_p=float(errs_p.mean()),
                           std_err_p=float(errs_p.std()),
                           mean_abs_err_theta=float(errs_t.mean()))
        agg_rows.append((row.algorithm, row.depth, row.total_oracle_calls,
                         row.mean_abs_err_p, row.std_err_p, row.mean_abs_err_theta))
    _write_csv(paths["aggregate"], AGGREGATE_COLUMNS, agg_rows)

    hist_rows = []
    edges = np.linspace(0.0, 0.5, 26)
    for (alg, label), items in groups.items():
        if alg != "crt":
            continue
        errs = np.array([e for _, e, _ in items])
        counts, _ = np.histogram(errs, bins=edges)
        for lo, hi, n in zip(edges[:-1], edges[1:], counts):
            hist_rows.append((label, float(lo), float(hi), int(n)))
        hist_rows.append((label, 0.5, 1.0, int(np.sum(errs >= 0.5))))
    _write_csv(paths["crt_histogram"], ("depth", "bin_lo", "bin_hi", "count"), hist_rows)

    config_record = config.to_dict()
    config_record.pop("out_dir")  # volatile; identical runs stay byte-identical
    manifest = {
        "version": __version__,
        "config": config_record,
        "oracle_call_convention": "cumulative over depths 0..d for MLE rows; "
                                  "2d+1 calls per shot, discarded shots included",
        "gamma_fit": None if gamma_fit is None else [float(g) for g in gamma_fit],
        "gamma_fit_error": gamma_fit_error,
        "calibration": calibration_record(calibrations) if calibrations else None,
        "trial_errors": {str(t.trial_id): t.errors for t in trials if t.errors},
    }
    write_json(paths["manifest"], manifest)
    return paths


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Calibrate, run all trials, fit the depolarizing model and emit files.

    Returns ``(trials, paths)``.  The streams of :func:`run_streams` make
    the run reproducible bit for bit.
    """
    streams = run_streams(config.seed, config.n_trials)
    calib_rng = next(streams)
    calibrations = None
    if "hybrid" in config.algorithms:
        calibrations = calibrate_hybrid(config, calib_rng)
    trials = [run_trial(config, sample_vector_pair(rng, config.vector_mode), rng,
                        calibrations, trial_id=i)
              for i, rng in enumerate(streams)]

    gamma_fit = None
    fit_error = None
    try:
        gamma_fit = fit_depolarizing([t.counts_by_depth for t in trials],
                                     [t.theta_true for t in trials])
    except (UnidentifiableFitError, ValueError) as exc:
        fit_error = str(exc)

    paths = aggregate_and_emit(trials, config, out_dir or config.out_dir,
                               calibrations=calibrations, gamma_fit=gamma_fit,
                               gamma_fit_error=fit_error)
    return trials, paths
