"""Experiment driver: trials, calibration, noise fitting, emission, CLI."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lowdepth_ae.estimators import Estimate, PosteriorGrid
from lowdepth_ae.harness import (AggregateRow, ExperimentConfig, TrialResult,
                                 UnidentifiableFitError, aggregate_and_emit,
                                 calibrate_hybrid, fit_depolarizing,
                                 run_experiment, run_streams, run_trial,
                                 sample_vector_pair)
from lowdepth_ae.noise import NoiseModel, noise_floor, sample_noisy_shots
from lowdepth_ae.simulator import DepthCounts
from lowdepth_ae.cli import main as cli_main


def quiet_config(**kwargs):
    defaults = dict(n_trials=4, n_shots=100, max_depth=3, epsilon=0.01,
                    noise=NoiseModel.linear_ramp(3), calib_trials=20,
                    powerlaw_target_eps=0.05)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ----------------------------------------------------------------- input pairs

def test_vector_pairs_are_unit_norm():
    rng = np.random.default_rng(0)
    for mode in ("haar", "uniform-theta"):
        for _ in range(200):
            x, y = sample_vector_pair(rng, mode)
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12
            assert abs(np.linalg.norm(y) - 1.0) < 1e-12
            assert -1.0 - 1e-12 <= float(np.dot(x, y)) <= 1.0 + 1e-12


def test_uniform_theta_mode_spreads_angles():
    rng = np.random.default_rng(1)
    thetas = []
    for _ in range(2000):
        x, y = sample_vector_pair(rng, "uniform-theta")
        thetas.append(math.asin(min(abs(float(np.dot(x, y))), 1.0)))
    assert abs(np.mean(thetas) - math.pi / 4) < 0.05
    assert np.min(thetas) < 0.1 and np.max(thetas) > math.pi / 2 - 0.1


def test_vector_pairs_reproducible():
    a = sample_vector_pair(np.random.default_rng(7), "haar")
    b = sample_vector_pair(np.random.default_rng(7), "haar")
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        sample_vector_pair(np.random.default_rng(0), "spherical")


# ------------------------------------------------------------------ run_trial

def test_noiseless_trial_mle_is_accurate():
    config = ExperimentConfig(n_trials=1, n_shots=500, max_depth=7,
                              algorithms=("mle",), noise=NoiseModel.noiseless(7),
                              vector_mode="uniform-theta")
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pair = sample_vector_pair(rng, "uniform-theta")
        trial = run_trial(config, pair, rng)
        est = trial.estimates["mle"][-1]
        errs.append(abs(est.theta_hat - trial.theta_true))
    assert np.mean(errs) <= config.epsilon + 0.005


def test_noiseless_trial_at_pi_over_eight():
    config = ExperimentConfig(n_trials=1, n_shots=500, max_depth=7,
                              algorithms=("mle",), noise=NoiseModel.noiseless(7))
    theta = math.pi / 8
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([math.sin(theta), math.cos(theta), 0.0, 0.0])
    errs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        trial = run_trial(config, (x, y), rng)
        assert abs(trial.theta_true - theta) < 1e-9
        errs.append(abs(trial.estimates["mle"][-1].theta_hat - theta))
    assert np.mean(errs) <= config.epsilon + 0.003


def test_empty_algorithm_set_yields_no_estimates():
    config = quiet_config(algorithms=())
    rng = np.random.default_rng(3)
    trial = run_trial(config, sample_vector_pair(rng, "haar"), rng)
    assert trial.estimates == {}
    assert len(trial.counts_by_depth) == config.max_depth + 1


def test_direct_error_approaches_noise_floor():
    # uniform prior over p; eta0 chosen so the floor is 0.04
    eta0 = 0.16
    model = NoiseModel(gamma_by_depth=(-math.log(1 - eta0),) * 2)
    rng = np.random.default_rng(11)
    errs = []
    for _ in range(400):
        p = rng.uniform()
        theta = math.asin(math.sqrt(p))
        counts = sample_noisy_shots(theta, 0, 20_000, model, rng)
        errs.append(abs(counts.n_good / counts.kept - p))
    grid = (np.arange(1000) + 0.5) / 1000
    floor = noise_floor(model, 0, grid)
    assert abs(floor - eta0 / 4) < 1e-12
    assert abs(np.mean(errs) - floor) < 0.15 * floor


def test_powerlaw_subsamples_the_recorded_pool():
    config = quiet_config(algorithms=("powerlaw",))
    rng = np.random.default_rng(5)
    trial = run_trial(config, sample_vector_pair(rng, "haar"), rng)
    (est,) = trial.estimates["powerlaw"]
    schedule = dict(est.diagnostics["schedule"])
    for depth, counts in enumerate(trial.counts_by_depth):
        assert schedule[depth] <= config.n_shots
        assert min(schedule[depth], counts.kept) <= counts.kept


def test_per_algorithm_failure_does_not_abort_trial():
    config = quiet_config(algorithms=("direct", "powerlaw"),
                          powerlaw_target_eps=1e-9)  # infeasible on purpose
    rng = np.random.default_rng(6)
    trial = run_trial(config, sample_vector_pair(rng, "haar"), rng)
    assert trial.estimates["powerlaw"] == ()
    assert "powerlaw" in trial.errors
    assert len(trial.estimates["direct"]) == 1


# --------------------------------------------------------------------- config

def test_config_json_round_trip(tmp_path):
    from lowdepth_ae.noise import CorrelatedNoise
    config = quiet_config(noise=NoiseModel.linear_ramp(
        3, correlation=CorrelatedNoise(p_switch=0.05, burst_scale=4.0)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    loaded = ExperimentConfig.from_json(path)
    assert loaded == config


def test_config_validation():
    with pytest.raises(ValueError):
        quiet_config(epsilon=2.0)
    with pytest.raises(ValueError):
        quiet_config(algorithms=("mle", "oracle"))
    with pytest.raises(ValueError):
        quiet_config(max_depth=1, algorithms=("crt",))
    with pytest.raises(ValueError):
        quiet_config(max_depth=9)  # noise model covers only 0..3


@pytest.mark.parametrize("epsilon", [0.3, 0.15])
def test_epsilon_that_truncates_the_grid_is_rejected(epsilon):
    # round(1/eps) points of spacing pi eps / 2 would stop short of pi/2
    # (54 degrees at eps=0.3)
    with pytest.raises(ValueError):
        quiet_config(epsilon=epsilon)
    with pytest.raises(ValueError):
        PosteriorGrid.uniform(epsilon)


@pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 5e-3, 1e-2])
def test_epsilon_of_one_over_integer_is_accepted(epsilon):
    assert quiet_config(epsilon=epsilon).epsilon == epsilon
    assert PosteriorGrid.uniform(epsilon).weights.size == round(1 / epsilon)


# ---------------------------------------------------------------- calibration

def test_calibration_scales_without_noise():
    config = ExperimentConfig(n_trials=1, n_shots=20_000, max_depth=2,
                              algorithms=("mle",), noise=NoiseModel.noiseless(7),
                              vector_mode="uniform-theta", calib_trials=120)
    cal = calibrate_hybrid(config, np.random.default_rng(0))
    cramer_rao = 1.0 / math.sqrt(config.n_shots * (1 + 9 + 25))
    assert 0.1 * cramer_rao <= cal[2].mle_avg_depth2 <= 1.5 * cramer_rao
    assert cal[2].crt_exact_at_d <= math.pi / 30


def test_calibration_single_trial_is_finite():
    config = quiet_config(calib_trials=1)
    cal = calibrate_hybrid(config, np.random.default_rng(1))
    for depth, values in cal.items():
        assert math.isfinite(values.mle_avg_depth2)
        assert math.isfinite(values.crt_exact_at_d)
        assert values.beta_hybrid == config.beta_hybrid


def test_calibration_beta_tuning_picks_from_grid():
    from lowdepth_ae.harness import BETA_TUNING_GRID
    config = quiet_config(n_shots=200, calib_trials=30, tune_beta=True)
    cal = calibrate_hybrid(config, np.random.default_rng(2))
    betas = {c.beta_hybrid for c in cal.values()}
    assert len(betas) == 1
    assert betas.pop() in BETA_TUNING_GRID + (config.beta_hybrid,)


def leaky_config(**kwargs):
    return quiet_config(n_trials=30, n_shots=8, calib_trials=50,
                        noise=NoiseModel.linear_ramp(3, leak_prob=0.6), **kwargs)


def test_calibration_skips_failed_draws(tmp_path):
    # Calibration is run_trial with CRT alone on stream 0.  With 8 shots and
    # 60% leakage some draws keep no shot at a CRT depth; calibration
    # averages over the rest, as the run does for its rows.
    config = leaky_config(algorithms=("mle", "crt", "hybrid"))
    crt_only = leaky_config(algorithms=("crt",))
    rng = next(run_streams(config.seed, 0))
    draws = [run_trial(crt_only, sample_vector_pair(rng, config.vector_mode), rng)
             for _ in range(config.calib_trials)]
    ok = [t for t in draws if t.estimates["crt"]]
    assert 0 < len(ok) < len(draws)
    anchors = [t.estimates["crt"][0].diagnostics["anchor"] for t in ok]
    expected = float(np.mean([abs(a.p_hat - t.p_true) for a, t in zip(anchors, ok)]))
    cal = calibrate_hybrid(config, next(run_streams(config.seed, 0)))
    assert all(c.mle_avg_depth2 == expected for c in cal.values())

    with_hybrid, _ = run_experiment(config, out_dir=tmp_path / "hybrid")
    without, _ = run_experiment(leaky_config(algorithms=("mle", "crt")),
                                out_dir=tmp_path / "plain")
    assert any(t.errors for t in without)
    assert any(t.estimates["hybrid"] for t in with_hybrid)
    assert [{a: e for a, e in t.errors.items() if a != "hybrid"} for t in with_hybrid] \
        == [t.errors for t in without]
    rows = {name: [r for r in (tmp_path / name / "trials.csv").read_text().splitlines()
                   if not r.startswith("hybrid,")]
            for name in ("hybrid", "plain")}
    assert rows["hybrid"] == rows["plain"]


# ------------------------------------------------------------------ noise fit

def make_fit_data(gamma, n_trials=40, shots=100_000, seed=0):
    model = NoiseModel(gamma_by_depth=(gamma,) * 8)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, math.pi / 2, n_trials)
    counts = [[sample_noisy_shots(theta, d, shots, model, rng) for d in range(8)]
              for theta in thetas]
    return counts, thetas


def test_fit_recovers_known_gamma():
    counts, thetas = make_fit_data(0.1)
    gammas = fit_depolarizing(counts, thetas)
    assert all(abs(g - 0.1) < 0.01 for g in gammas)


def test_fit_noiseless_data_gives_zero():
    counts, thetas = make_fit_data(0.0, seed=3)
    gammas = fit_depolarizing(counts, thetas)
    assert all(g < 0.01 for g in gammas)


def test_fit_degenerate_probabilities_unidentifiable():
    model = NoiseModel(gamma_by_depth=(0.1,) * 8)
    rng = np.random.default_rng(4)
    theta = math.pi / 4  # every odd multiple gives p = 1/2
    counts = [[sample_noisy_shots(theta, d, 1000, model, rng) for d in range(8)]
              for _ in range(5)]
    with pytest.raises(UnidentifiableFitError):
        fit_depolarizing(counts, [theta] * 5)


def test_fit_needs_two_trials():
    counts, thetas = make_fit_data(0.1, n_trials=1)
    with pytest.raises(ValueError):
        fit_depolarizing(counts, thetas)


# ------------------------------------------------------------------- emission

def one_estimate(p_hat, label, calls=500, algorithm="direct"):
    return Estimate.from_theta(math.asin(math.sqrt(p_hat)), calls, algorithm,
                               diagnostics={"label": label})


def test_emit_single_trial_single_algorithm(tmp_path):
    trial = TrialResult(trial_id=0, theta_true=math.pi / 4, p_true=0.5,
                        estimates={"direct": (one_estimate(0.52, 0),)},
                        errors={}, counts_by_depth=())
    config = quiet_config(algorithms=("direct",))
    paths = aggregate_and_emit([trial], config, tmp_path)
    lines = paths["trials"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("algorithm,depth,oracle_calls,trial_id,theta_true")


def test_emit_aggregate_mean(tmp_path):
    trials = [
        TrialResult(trial_id=i, theta_true=math.pi / 4, p_true=0.5,
                    estimates={"direct": (one_estimate(p, 0),)},
                    errors={}, counts_by_depth=())
        for i, p in enumerate((0.51, 0.53))
    ]
    config = quiet_config(algorithms=("direct",))
    paths = aggregate_and_emit(trials, config, tmp_path)
    header, row = paths["aggregate"].read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert abs(float(fields["mean_abs_err_p"]) - 0.02) < 1e-12
    assert int(fields["total_oracle_calls"]) == 1000


def test_emit_rejects_empty_trials(tmp_path):
    with pytest.raises(ValueError):
        aggregate_and_emit([], quiet_config(), tmp_path)


def test_aggregate_row_validation():
    with pytest.raises(ValueError):
        AggregateRow(algorithm="mle", depth="0", total_oracle_calls=1,
                     mean_abs_err_p=-0.1, std_err_p=0.0, mean_abs_err_theta=0.0)


# ------------------------------------------------------------------ end to end

def test_run_experiment_emits_consistent_accounting(tmp_path):
    config = quiet_config(out_dir=str(tmp_path / "run"))
    trials, paths = run_experiment(config)
    rows = paths["trials"].read_text(encoding="utf-8").splitlines()[1:]
    per_group: dict[tuple[str, str], int] = {}
    for row in rows:
        fields = row.split(",")
        per_group[(fields[0], fields[1])] = per_group.get((fields[0], fields[1]), 0) \
            + int(fields[2])
    agg = paths["aggregate"].read_text(encoding="utf-8").splitlines()[1:]
    for row in agg:
        fields = row.split(",")
        assert per_group[(fields[0], fields[1])] == int(fields[2])
    manifest = json.loads(paths["manifest"].read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == config.seed
    assert manifest["gamma_fit"] is None or len(manifest["gamma_fit"]) == 4


def test_run_experiment_is_byte_deterministic(tmp_path):
    config = quiet_config()
    _, first = run_experiment(config, out_dir=tmp_path / "a")
    _, second = run_experiment(config, out_dir=tmp_path / "b")
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name


def test_shot_pools_are_shared_across_estimators(tmp_path):
    config = quiet_config()
    trials, _ = run_experiment(config, out_dir=tmp_path / "run")
    for trial in trials:
        kept = {c.depth: c.kept for c in trial.counts_by_depth}
        (est,) = trial.estimates["powerlaw"]
        for depth, n in est.diagnostics["schedule"]:
            assert min(n, kept[depth]) <= kept[depth]


# ------------------------------------------------------------------------ cli

def test_cli_stats_runs(capsys):
    assert cli_main(["stats", "--max-depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "2q gates" in out
    assert " 44 " in out  # t=3 row


def test_cli_run_and_calibrate(tmp_path, capsys):
    config = quiet_config(algorithms=("direct", "mle"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert cli_main(["calibrate", "--config", str(cfg_path), "--out",
                     str(out_dir), "--trials", "5"]) == 0
    assert (out_dir / "calibration.json").exists()


def test_cli_algorithms_override(tmp_path, capsys):
    config = quiet_config()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir),
                     "--algorithms", "direct", "--seed", "3"]) == 0
    rows = (out_dir / "trials.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(row.startswith("direct,") for row in rows)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == 3


def test_cli_failure_emits_json_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epsilon": 2.0}), encoding="utf-8")
    code = cli_main(["run", "--config", str(bad)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"


def test_cli_fit_noise_and_sweep(tmp_path, capsys):
    config = quiet_config(n_trials=6, algorithms=("direct",))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    out_dir = tmp_path / "fit"
    assert cli_main(["fit-noise", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    fitted = json.loads((out_dir / "gamma_fit.json").read_text(encoding="utf-8"))
    assert len(fitted["gamma_by_depth"]) == 4
    sweep_dir = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(sweep_dir),
                     "--param", "max-depth", "--values", "2,3"]) == 0
    assert (sweep_dir / "max_depth_2" / "aggregate.csv").exists()


def test_cli_calibrate_and_fit_noise_match_the_run(tmp_path):
    # run, calibrate and fit-noise draw the same trials from the same streams
    config = quiet_config(n_trials=6, calib_trials=8, tune_beta=True,
                          algorithms=("mle", "crt", "hybrid"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    for command in ("run", "calibrate", "fit-noise"):
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / command)]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
    fitted = json.loads((tmp_path / "fit-noise" / "gamma_fit.json").read_text(encoding="utf-8"))
    calibration = json.loads(
        (tmp_path / "calibrate" / "calibration.json").read_text(encoding="utf-8"))
    assert fitted["gamma_by_depth"] == manifest["gamma_fit"]
    assert calibration == manifest["calibration"]
