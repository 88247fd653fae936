"""Experiment driver: trials, calibration, noise fitting, emission, CLI."""
import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdepth_ae import estimators, harness
from lowdepth_ae.circuits import build_iterated_circuit
from lowdepth_ae.estimators import (HybridCalibration, crt_columns, crt_reconstruct,
                                    hybrid_fallback, log_likelihood_rows, mle_estimate)
from lowdepth_ae.harness import (ALGORITHMS, PAIR_BLOCK, STREAM_BLOCK, VECTOR_MODES,
                                 ExperimentConfig, RunTable,
                                 aggregate_and_emit, calibrate_hybrid, calibration_record,
                                 fit_depolarizing, run_experiment, run_streams, run_trial,
                                 run_trials, sample_vector_pairs)
from lowdepth_ae.noise import (CorrelatedNoise, DepthCounts, NoiseModel, effective_eta,
                               neg_log_damping, noise_floor, noisy_prob, sample_noisy_shots)
from lowdepth_ae.schedules import (InfeasibleScheduleError, fisher_noisy, optimize_exponent,
                                   power_law_schedule)
from lowdepth_ae.simulator import analytic_success_prob
from lowdepth_ae.cli import build_parser, main as cli_main


def tallies(pools):
    """The (trials, depths, 3) good/bad/discarded array of lists of counts."""
    return np.array([[(c.n_good, c.n_bad, c.n_discarded) for c in pool] for pool in pools],
                    dtype=np.int64)


def pool_of(table, t):
    """Trial ``t``'s shot pool as counts, one per depth."""
    return [DepthCounts(depth=d, n_good=g, n_bad=b, n_discarded=x)
            for d, (g, b, x) in enumerate(table.counts[t].tolist())]


def kept_labels(table, t, algorithm):
    """Labels of the rows of ``algorithm`` that trial ``t`` kept."""
    return [label for k, (alg, label) in enumerate(zip(table.algorithm, table.label))
            if alg == algorithm and table.kept[t, k]]


def trial_rows(table, t):
    """Everything the table holds on trial ``t``, as plain values to compare."""
    rows = [(alg, label, table.reason[t, k]) if not table.kept[t, k] else
            (alg, label, float(table.theta_hat[t, k]), int(table.oracle_calls[t, k]),
             table.branch[t, k])
            for k, (alg, label) in enumerate(zip(table.algorithm, table.label))]
    crt = None if table.crt is None else [column[t].tolist() for column in table.crt]
    anchor = None if table.anchor is None else repr(float(table.anchor[t]))
    return float(table.theta_true[t]), table.counts[t].tolist(), rows, anchor, crt


def quiet_config(**kwargs):
    defaults = dict(n_trials=4, n_shots=100, max_depth=3, epsilon=0.01,
                    noise=NoiseModel.linear_ramp(3), calib_trials=20,
                    powerlaw_target_eps=0.05)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ----------------------------------------------------------------- input pairs

def one_pair(rng, mode="haar"):
    """The pair ``rng`` draws alone: row 0 of a one-row block."""
    x, y = sample_vector_pairs([rng], mode)
    return x[0], y[0]


def test_vector_pairs_are_unit_norm():
    rng = np.random.default_rng(0)
    for mode in ("haar", "uniform-theta"):
        for _ in range(200):
            x, y = one_pair(rng, mode)
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12
            assert abs(np.linalg.norm(y) - 1.0) < 1e-12
            assert -1.0 - 1e-12 <= float(np.dot(x, y)) <= 1.0 + 1e-12


def test_uniform_theta_mode_spreads_angles():
    rng = np.random.default_rng(1)
    thetas = []
    for _ in range(2000):
        x, y = one_pair(rng, "uniform-theta")
        thetas.append(math.asin(min(abs(float(np.dot(x, y))), 1.0)))
    assert abs(np.mean(thetas) - math.pi / 4) < 0.05
    assert np.min(thetas) < 0.1 and np.max(thetas) > math.pi / 2 - 0.1


def test_vector_pairs_reproducible():
    a = one_pair(np.random.default_rng(7), "haar")
    b = one_pair(np.random.default_rng(7), "haar")
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def scalar_vector_pair(rng, mode):
    """The pair drawn one vector at a time: the reference the one-call draw must equal."""
    def norm(v):
        return math.sqrt(v.dot(v))

    if mode == "haar":
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        return x / norm(x), y / norm(y)
    theta = rng.uniform(0.0, math.pi / 2)
    x = rng.standard_normal(4)
    x /= norm(x)
    u = rng.standard_normal(4)
    u -= (u @ x) * x
    u /= norm(u)
    y = math.sin(theta) * x + math.cos(theta) * u
    return x, y / norm(y)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(VECTOR_MODES), seed=st.integers(0, 2**32 - 1))
def test_one_call_vector_pair_equals_the_vector_by_vector_draw(mode, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for a, b in zip(one_pair(fast, mode), scalar_vector_pair(slow, mode)):
        assert a.tobytes() == b.tobytes()
    assert fast.random() == slow.random()  # the same number of draws


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        sample_vector_pairs([np.random.default_rng(0)], "spherical")


@pytest.mark.parametrize("n", [1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1])
@pytest.mark.parametrize("mode", VECTOR_MODES)
def test_a_block_of_pairs_equals_the_vector_by_vector_draw_row_by_row(mode, n):
    children = np.random.SeedSequence(2024 + n).spawn(n)
    block = [np.random.default_rng(child) for child in children]
    alone = [np.random.default_rng(child) for child in children]
    x, y = sample_vector_pairs(block, mode)
    assert x.shape == y.shape == (n, 4)
    for i, (fast, slow) in enumerate(zip(block, alone)):
        ref_x, ref_y = scalar_vector_pair(slow, mode)
        assert x[i].tobytes() == ref_x.tobytes() and y[i].tobytes() == ref_y.tobytes()
        assert fast.random() == slow.random()  # the same number of draws


def test_a_block_of_pairs_rejects_a_generator_held_twice():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="more than once"):
        sample_vector_pairs([rng, np.random.default_rng(1), rng], "haar")


def test_trial_pairs_pull_no_generator_past_a_full_block():
    pulled = []

    def rngs():
        for i in range(3 * PAIR_BLOCK):
            pulled.append(i)
            yield np.random.default_rng(i)

    pairs = harness._trial_pairs(rngs(), "haar")
    next(pairs)
    assert len(pulled) == PAIR_BLOCK
    for _ in range(PAIR_BLOCK - 1):
        next(pairs)
    assert len(pulled) == PAIR_BLOCK
    next(pairs)
    assert len(pulled) == 2 * PAIR_BLOCK


def test_stacked_row_by_column_matmul_is_ndarray_dot_bit_for_bit():
    # the block sampler's dots rest on this: numpy sends a (1, 4) @ (4, 1)
    # matmul to the loop ndarray.dot runs; einsum and (a * b).sum(1) differ
    rng = np.random.default_rng(11)
    n = 20_000
    rows = rng.standard_normal((n, 2, 4))
    # half the rows spread their entries over magnitudes 1e-160..1e150, so
    # products reach the subnormal range and the summation order shows
    rows[n // 2:] *= 10.0 ** rng.uniform(-160, 150, size=(n - n // 2, 2, 4))
    a, b = rows[:, 0], rows[:, 1]  # strided row views, as the sampler's
    for left, right in ((a, b), (a, a), (b, b)):
        dots = harness._dots(left, right)
        assert dots.shape == (n, 1)
        assert dots[:, 0].tobytes() == np.array([u.dot(v) for u, v in zip(left, right)]).tobytes()


# -------------------------------------------------------------------- streams

@settings(max_examples=200, deadline=None)
@example(seed=0, n_trials=0)
@example(seed=2**64, n_trials=3)
@example(seed=2**64 + 1, n_trials=0)
@example(seed=2**64 + 7, n_trials=2 * STREAM_BLOCK + 1)  # both sides of two block boundaries
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**130)),
       n_trials=st.integers(0, 6))
def test_stream_i_draws_as_the_ith_spawned_child(seed, n_trials):
    calibration, trials = run_streams(seed, n_trials)
    streams = [calibration, *trials]
    children = np.random.SeedSequence(seed).spawn(n_trials + 1)
    assert len(streams) == len(children)
    for stream, child in zip(streams, children):
        spawned = np.random.default_rng(child)
        assert stream.integers(2**63, size=4).tolist() == spawned.integers(2**63, size=4).tolist()
        assert stream.random() == spawned.random()


@settings(deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**200)),
       key=st.sampled_from([0, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1,
                            2**32 - 1, 2**32]))
def test_spawned_seed_words_give_numpys_child_states(seed, key):
    run_streams(0, 0)  # registers the seed-word holder as an ISeedSequence
    child = np.random.SeedSequence(seed, spawn_key=(key,))
    words = harness._spawned_seed_words(np.random.SeedSequence(seed), range(key, key + 1))
    assert words.dtype == np.uint64
    assert words[0].tolist() == child.generate_state(4, np.uint64).tolist()
    rng = np.random.Generator(np.random.PCG64(harness._SeedWords(words[0])))
    assert rng.bit_generator.state == np.random.default_rng(child).bit_generator.state


def test_run_streams_keeps_seed_sequence_argument_errors():
    with pytest.raises(ValueError):
        run_streams(-1, 3)
    with pytest.raises(ValueError, match="n_trials"):
        run_streams(0, -1)


def test_run_streams_holds_no_trial_stream_before_its_trial_starts():
    # spawning every child up front held about 35 MB at 10^5 trials
    run_streams(0, 1)  # numpy.random is imported on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        streams = run_streams(12345, 100_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert streams and held < 100_000


def test_importing_the_package_leaves_numpy_random_to_its_first_use():
    # numpy 2 imports numpy.random lazily (numpy 1 with numpy itself); pulling it
    # into the package's import would move its cost from a run into set-up
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import lowdepth_ae.cli, lowdepth_ae.harness; "
            "sys.exit(('numpy.random' in sys.modules) != before)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# ------------------------------------------------------------------ run_trial

def test_noiseless_trial_mle_is_accurate():
    config = ExperimentConfig(n_trials=1, n_shots=500, max_depth=7,
                              algorithms=("mle",), noise=NoiseModel.noiseless(7),
                              vector_mode="uniform-theta")
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pair = one_pair(rng, "uniform-theta")
        trial = run_trial(config, pair, rng)
        errs.append(abs(trial.theta_hat[0, -1] - trial.theta_true[0]))
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
        assert abs(trial.theta_true[0] - theta) < 1e-9
        errs.append(abs(trial.theta_hat[0, -1] - theta))
    assert np.mean(errs) <= config.epsilon + 0.003


def test_empty_algorithm_set_yields_no_estimates():
    config = quiet_config(algorithms=())
    rng = np.random.default_rng(3)
    trial = run_trial(config, one_pair(rng, "haar"), rng)
    assert trial.algorithm == () and trial.theta_hat.shape == (1, 0)
    assert trial.counts.shape == (1, config.max_depth + 1, 3)


def test_trials_over_no_generator_are_a_zero_trial_table(tmp_path):
    # raised a bare "not enough values to unpack"
    config = quiet_config(algorithms=ALGORITHMS)
    cal = calibrate_hybrid(config, run_streams(config.seed, 0)[0])
    one, none = (run_trials(config, rngs, cal) for rngs in ([np.random.default_rng(0)], []))
    assert (none.algorithm, none.label) == (one.algorithm, one.label)
    for name in ("theta_true", "counts", "theta_hat", "oracle_calls", "branch", "reason"):
        zero, full = getattr(none, name), getattr(one, name)
        assert zero.dtype == full.dtype and zero.shape == (0, *full.shape[1:])
    assert run_trials(dataclasses.replace(config, algorithms=()), []).theta_hat.shape == (0, 0)
    with pytest.raises(ValueError, match="^no trials to aggregate$"):
        aggregate_and_emit(none, config, tmp_path)


@pytest.mark.parametrize("vector_mode", VECTOR_MODES)
def test_a_sampling_only_trial_equals_the_batched_table(vector_mode):
    config = quiet_config(algorithms=(), vector_mode=vector_mode,
                          noise=NoiseModel.linear_ramp(3, leak_prob=0.2))
    rng = np.random.default_rng(3)
    trial = run_trial(config, one_pair(rng, vector_mode), rng)
    batched = run_trials(config, [np.random.default_rng(3)])
    for name in ("theta_true", "counts", "theta_hat", "oracle_calls", "branch", "reason"):
        a, b = getattr(trial, name), getattr(batched, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    assert (trial.algorithm, trial.label, trial.anchor) == ((), (), None)


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


def powerlaw_calls_from_the_pool(config, table):
    """Per trial, the oracle calls of the schedule's shots drawn from the kept pool."""
    schedule = harness._powerlaw_plan(config)
    kept = table.counts[..., 0] + table.counts[..., 1]
    return [sum(min(n, int(kept[t, d])) * (2 * d + 1) for d, n in enumerate(schedule))
            for t in range(len(kept))]


def test_powerlaw_subsamples_the_recorded_pool():
    config = quiet_config(algorithms=("powerlaw",))
    rng = np.random.default_rng(5)
    trial = run_trial(config, one_pair(rng, "haar"), rng)
    assert trial.kept.all()
    assert trial.oracle_calls[:, 0].tolist() == powerlaw_calls_from_the_pool(config, trial)


def test_per_algorithm_failure_does_not_abort_trial():
    config = quiet_config(algorithms=("direct", "powerlaw"),
                          powerlaw_target_eps=1e-9)  # infeasible on purpose
    rng = np.random.default_rng(6)
    trial = run_trial(config, one_pair(rng, "haar"), rng)
    assert kept_labels(trial, 0, "powerlaw") == []
    assert "powerlaw" in trial.errors()["0"]
    assert kept_labels(trial, 0, "direct") == [0]


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


def test_config_rejects_duplicate_algorithms(tmp_path):
    # accepted before, every row of the named algorithm was written twice
    with pytest.raises(ValueError, match="more than once"):
        quiet_config(algorithms=("mle", "mle"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(quiet_config().to_dict()), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--algorithms", "direct,mle,direct"]) == 2


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig.from_dict({"seed": seed})
    assert ExperimentConfig.from_dict({"seed": 0}).seed == 0


@pytest.mark.parametrize("name,value", [
    ("n_trials", 2.5), ("n_trials", 2.0), ("n_trials", True), ("n_trials", 0),
    ("n_shots", True), ("n_shots", "500"), ("n_shots", -1),
    ("max_depth", 3.0), ("max_depth", False), ("max_depth", -1),
    ("calib_trials", 2.5), ("calib_trials", None), ("calib_trials", 0)])
def test_config_rejects_a_count_that_is_not_an_integer_in_range(name, value, tmp_path):
    # accepted before: 2.5 and 3.0 died in numpy without naming the field,
    # and n_shots=true ran a 1-shot experiment
    with pytest.raises(ValueError, match=name):
        ExperimentConfig.from_dict({name: value})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**quiet_config().to_dict(), name: value}), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert ExperimentConfig.from_dict({name: np.int64(3)}) == ExperimentConfig(**{name: 3})


@pytest.mark.parametrize("name,value", [
    ("tune_beta", "false"), ("tune_beta", 1), ("mle_noise_aware", "no"),
    ("mle_noise_aware", None), ("epsilon", "0.01"), ("epsilon", True),
    ("beta_hybrid", "1.0"), ("beta_hybrid", None), ("powerlaw_target_eps", True),
    ("powerlaw_target_eps", "0.05")])
def test_config_rejects_a_field_of_the_wrong_type(name, value, tmp_path):
    # accepted before: "false" ran the beta search, "no" the noise-aware MLE
    # and true a target of 1.0; "0.01" and "1.0" died in a comparison with a
    # TypeError that named no field
    with pytest.raises(ValueError, match=name):
        ExperimentConfig.from_dict({name: value})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**quiet_config().to_dict(), name: value}), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    config = ExperimentConfig.from_dict({"epsilon": np.float64(0.01), "beta_hybrid": 2,
                                         "tune_beta": True, "powerlaw_target_eps": 1})
    assert (config.epsilon, config.beta_hybrid, config.powerlaw_target_eps) == (0.01, 2, 1)


def _config_of(scalar):
    """A config and a calibration, every scalar field ``scalar`` of an int64 or float32."""
    f32 = lambda v: scalar(np.float32(v))  # noqa: E731
    corr = CorrelatedNoise(p_switch=f32(0.25), burst_scale=f32(2.0))
    noise = NoiseModel(gamma_by_depth=tuple(map(f32, (0.035, 0.08, 0.125, 0.17))),
                       beta_readout=f32(0.1), leak_prob=f32(0.05), correlation=corr)
    counts = dict(seed=7, n_trials=3, n_shots=40, max_depth=3, calib_trials=4)
    config = ExperimentConfig(**{k: scalar(np.int64(v)) for k, v in counts.items()},
                              epsilon=f32(0.0625), beta_hybrid=f32(2.0),
                              powerlaw_target_eps=f32(0.05), noise=noise)
    return config, HybridCalibration(mle_avg_depth2=f32(0.01), crt_exact_at_d=f32(0.002),
                                     beta_hybrid=scalar(np.int64(4)))


def test_a_config_of_numpy_scalars_writes_the_files_of_its_python_twin(tmp_path):
    # admitted before, the run did all its work and then json.dump raised on
    # the first int64 or float32, leaving manifest.json truncated
    config, calibration = _config_of(lambda v: v)
    twin, twin_calibration = _config_of(lambda v: v.item())
    _, paths = run_experiment(config, out_dir=tmp_path / "numpy")
    _, twin_paths = run_experiment(twin, out_dir=tmp_path / "python")
    assert sorted(p.name for p in paths.values()) == sorted(p.name for p in twin_paths.values())
    for name, path in paths.items():
        assert path.read_bytes() == twin_paths[name].read_bytes(), name
    assert config == twin
    # json.dumps raised on a float32 calibration before
    assert calibration == twin_calibration
    assert json.dumps(calibration_record({2: calibration})) \
        == json.dumps(calibration_record({2: twin_calibration}))
    assert all(type(v) in (int, float) for v in (config.seed, config.epsilon,
                                                 config.noise.leak_prob,
                                                 config.noise.correlation.p_switch,
                                                 *config.noise.gamma_by_depth))


def _validated_records():
    """One valid instance of each validated record, every numeric field a Python scalar."""
    config, calibration = _config_of(lambda v: v.item())
    return [config, config.noise, config.noise.correlation, calibration, DepthCounts(2, 3, 4, 1)]


def _with(record, **fields):
    if isinstance(record, DepthCounts):
        return record._replace(**fields)
    return dataclasses.replace(record, **fields)


def _field_names(record):
    if isinstance(record, DepthCounts):
        return record._fields
    return [f.name for f in dataclasses.fields(record)]


@pytest.mark.parametrize("record", _validated_records(), ids=lambda r: type(r).__name__)
def test_every_field_of_a_validated_record_is_checked(record):
    # a field added without a rule fails here: a value of no kind any field
    # accepts is rejected with an error that names the field
    for name in _field_names(record):
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            _with(record, **{name: object()})


def _stream_draws(streams):
    """The first draw of the calibration stream and of each trial stream of :func:`run_streams`."""
    calib_rng, trial_rngs = streams
    return [calib_rng.random()] + [rng.random() for rng in trial_rngs]


def _argument_calls():
    """``(function, argument, call, valid)``: each count, depth and top-depth argument of
    the public functions, ``call(value)`` the function with that argument set to ``value``."""
    x, y = one_pair(np.random.default_rng(0))
    grid = np.linspace(0.0, 1.5, 7)
    gammas = NoiseModel.linear_ramp(7).gamma_by_depth
    calls = [
        ("build_iterated_circuit", "t", lambda v: build_iterated_circuit(x, y, v), 2),
        ("analytic_success_prob", "t", lambda v: analytic_success_prob(0.3, v), 2),
        ("log_likelihood_rows", "depth", lambda v: log_likelihood_rows(grid, v), 2),
        ("log_likelihood_rows noisy", "depth",
         lambda v: log_likelihood_rows(grid, v, NoiseModel.linear_ramp(7)), 2),
        ("mle_estimate", "depths", lambda v: mle_estimate([[(30, 20, 0)]], [v], 0.01), 2),
        ("crt_columns", "d_max", lambda v: crt_columns([0.3], [0.4], [0.5], v), 3),
        ("crt_reconstruct", "d_max", lambda v: crt_reconstruct(0.3, 0.4, 0.5, v), 3),
        ("power_law_schedule", "n_shots", lambda v: power_law_schedule(-1.5, v, 7), 500),
        ("power_law_schedule", "max_depth", lambda v: power_law_schedule(-1.5, 500, v), 7),
        ("fisher_noisy", "n_shots", lambda v: fisher_noisy(-1.5, v, 7, gammas), 500),
        ("fisher_noisy", "max_depth", lambda v: fisher_noisy(-1.5, 500, v, gammas), 7),
        ("optimize_exponent", "n_shots", lambda v: optimize_exponent(0.01, v, 7, gammas), 500),
        ("optimize_exponent", "max_depth", lambda v: optimize_exponent(0.01, 500, v, gammas), 7),
        ("run_streams", "seed", lambda v: _stream_draws(run_streams(v, 2)), 2),
        ("run_streams", "n_trials", lambda v: _stream_draws(run_streams(0, v)), 2),
        ("NoiseModel.noiseless", "max_depth", NoiseModel.noiseless, 2),
        ("NoiseModel.linear_ramp", "max_depth", NoiseModel.linear_ramp, 2)]
    burst = CorrelatedNoise(0.05, 4.0)
    for mode, model in (("independent", NoiseModel.linear_ramp(7, leak_prob=0.1)),
                        ("burst", NoiseModel.linear_ramp(7, correlation=burst))):
        calls += [(f"sample_noisy_shots {mode}", "n_shots", lambda v, m=model: sample_noisy_shots(
                       0.4, 2, v, m, np.random.default_rng(5)), 40),
                  (f"sample_noisy_shots {mode}", "depth", lambda v, m=model: sample_noisy_shots(
                       0.4, v, 40, m, np.random.default_rng(5)), 2)]
    return calls


def _same(a, b) -> bool:
    """Whether ``a`` and ``b`` are equal values of the same types, all the way down."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))


@pytest.mark.parametrize("function,name,call,valid", _argument_calls(),
                         ids=[f"{f}-{n}" for f, n, _, _ in _argument_calls()])
def test_every_count_and_depth_argument_is_checked(function, name, call, valid):
    # the argument-side twin of the record test above: a float, a bool, a
    # negative or a numpy float is rejected with an error that starts with
    # the argument's name; 2.5 ran at depth 2 or gave 1.5 bad shots, True
    # ran at 1, and a numpy integer came back in the tallies
    for value in (2.5, True, -1, np.float64(2.0)):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}(\[0\])? "):
            call(value)
    assert _same(call(np.int64(valid)), call(valid))


@pytest.mark.parametrize("record", _validated_records(), ids=lambda r: type(r).__name__)
def test_every_numeric_field_stores_a_numpy_number_as_its_python_twin(record):
    numeric = [name for name in _field_names(record)
               if type(getattr(record, name)) in (int, float)]
    assert numeric
    for name in numeric:
        value = getattr(record, name)
        numpy_value = np.int64(value) if type(value) is int else np.float32(value)
        stored = getattr(_with(record, **{name: numpy_value}), name)
        assert type(stored) is type(value) and stored == value, name


def _wrong_shapes():
    quiet = quiet_config().to_dict()
    noise = quiet["noise"]
    return [("noise", {**quiet, "noise": 0.1}),
            ("gamma_by_depth", {**quiet, "noise": {**noise, "gamma_by_depth": 0.1}}),
            ("noise correlation", {**quiet, "noise": {**noise, "correlation": 5}}),
            ("algorithms", {**quiet, "algorithms": [["mle"]]}),
            ("algorithms", {**quiet, "algorithms": 5}),
            ("config", [quiet])]


@pytest.mark.parametrize("name,data", _wrong_shapes())
def test_config_rejects_a_field_of_the_wrong_shape(name, data, tmp_path):
    # these died before with an AttributeError or TypeError that named no field
    with pytest.raises(ValueError, match=name):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("out_dir", ["elsewhere", 5])
def test_config_rejects_out_dir_as_an_unknown_field(out_dir, tmp_path, monkeypatch, capsys):
    # the directory is --out's alone: a config's out_dir was a field, and a
    # run without --out wrote there
    monkeypatch.chdir(tmp_path)  # where a run without --out writes
    data = {**quiet_config().to_dict(), "out_dir": out_dir}
    with pytest.raises(TypeError, match="out_dir"):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "'out_dir'" in json.loads(capsys.readouterr().err)["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("noise", [None, "x", 0.1, {"gamma_by_depth": [0.1] * 8}])
def test_config_rejects_a_noise_model_that_is_not_a_record(noise):
    # died before with an AttributeError on max_depth that named no field
    with pytest.raises(ValueError, match="^noise must be a noise model"):
        ExperimentConfig(noise=noise)


def test_config_rejects_algorithms_given_as_one_string():
    # accepted as its letters before, and rejected as unknown algorithms
    with pytest.raises(ValueError, match="algorithms must be a list of names"):
        ExperimentConfig.from_dict({"algorithms": "mle"})
    assert ExperimentConfig.from_dict({"algorithms": ["mle"]}).algorithms == ("mle",)


def test_config_rejects_a_nonpositive_powerlaw_target():
    # accepted before, the run died after calibration and every trial
    with pytest.raises(ValueError, match="powerlaw_target_eps"):
        quiet_config(powerlaw_target_eps=0.0)
    with pytest.raises(ValueError, match="powerlaw_target_eps"):
        quiet_config(powerlaw_target_eps=-0.01)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="powerlaw_target_eps"):
            quiet_config(powerlaw_target_eps=value)


def test_config_rejects_a_negative_hybrid_multiplier():
    # accepted before, the run died inside calibration
    with pytest.raises(ValueError, match="beta_hybrid"):
        quiet_config(beta_hybrid=-1.0)
    # accepted before: NaN sent every hybrid row to CRT and wrote NaN into
    # manifest.json, which strict JSON rejects
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beta_hybrid"):
            quiet_config(beta_hybrid=value)
    assert quiet_config(beta_hybrid=0.0).beta_hybrid == 0.0


@pytest.mark.parametrize("epsilon", [0.3, 0.15])
def test_epsilon_that_truncates_the_grid_is_rejected(epsilon):
    # round(1/eps) points of spacing pi eps / 2 would stop short of pi/2
    # (54 degrees at eps=0.3)
    with pytest.raises(ValueError):
        quiet_config(epsilon=epsilon)
    with pytest.raises(ValueError):
        mle_estimate([[(1, 0, 0)]], [0], epsilon)


@pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 5e-3, 1e-2])
def test_epsilon_of_one_over_integer_is_accepted(epsilon):
    assert quiet_config(epsilon=epsilon).epsilon == epsilon
    # all good lands on the top grid point, (1/eps - 1) steps of pi eps / 2
    top = mle_estimate([[(1, 0, 0)]], [0], epsilon).theta[0, 0]
    assert abs(top - (1 - epsilon) * math.pi / 2) < 1e-12


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


def crt_table(theta_true, anchor_p, crt_p):
    """A CRT-only table of depths 2 and 3 at the given angles and p offsets.

    Trial t's anchor reads ``p_true + anchor_p[t]`` and its CRT row at depth
    d ``p_true + crt_p[t][d - 2]``; a ``None`` offset drops that row.
    """
    theta_true = np.array(theta_true)
    p_true = np.sin(theta_true) ** 2

    def angle(p):
        return math.asin(math.sqrt(p))

    theta_hat = np.array([[np.nan if c is None else angle(p + c) for c in row]
                          for p, row in zip(p_true, crt_p)])
    kept = ~np.isnan(theta_hat)
    return RunTable(theta_true=theta_true, counts=np.zeros((len(theta_true), 4, 3), np.int64),
                    algorithm=("crt", "crt"), label=(2, 3), theta_hat=theta_hat,
                    oracle_calls=np.zeros(theta_hat.shape, np.int64),
                    branch=np.full(theta_hat.shape, "", object),
                    reason=np.where(kept, None, "dropped").astype(object),
                    anchor=np.array([angle(p + a) for p, a in zip(p_true, anchor_p)]))


def test_calibration_beta_search_skips_a_loss_at_any_depth_and_keeps_the_first_tie(monkeypatch):
    # At pi/5 the CRT of exact inputs is exact at depths 2 and 3, so each
    # threshold is beta times the mean anchor error: 0.0575 at depth 2, 0.106
    # at depth 3.  Trial 2 at depth 3 falls back for beta <= 1 only, to an
    # anchor 1e-13 worse than CRT; trial 1 at depth 2 falls back for beta <= 2.
    third = math.pi / 5
    table = crt_table([third, third, third, 2 * third, third, third],
                      [0.05, 0.05, 0.08, -0.05, 0.05, 0.3],
                      [(0.09, 0.05), (0.2, -0.02), (0.08, -0.08 + 1e-13), (-0.05, None),
                       (None, 0.05), (None, 0.3)])
    monkeypatch.setattr(harness, "run_trials", lambda config, rngs, calibrations=None: table)
    config = quiet_config(calib_trials=6, beta_hybrid=3.0)
    untuned = calibrate_hybrid(config, None)

    def mean_errors(beta):
        """Per depth, the hybrid's and CRT's mean error at multiplier ``beta``."""
        anchor_p = estimators.sin_squared(table.anchor)
        means = {}
        for j, d in enumerate(table.label):
            rows = table.kept[:, j]
            crt_p = table.p_hat[rows, j]
            threshold = dataclasses.replace(untuned[d], beta_hybrid=beta).threshold
            fallback = hybrid_fallback(anchor_p[rows], crt_p, threshold)
            hybrid_p = np.where(fallback, anchor_p[rows], crt_p)
            means[d] = tuple(float(np.mean(np.abs(p - table.p_true[rows])))
                             for p in (hybrid_p, crt_p))
        return means

    means = {beta: mean_errors(beta) for beta in harness.BETA_TUNING_GRID}
    best = {beta: min(h for h, _ in m.values()) for beta, m in means.items()}
    # 0.5 has the best best-depth error, at depth 2, but loses to CRT at depth 3
    assert best[0.5] < min(best[b] for b in (1.0, 2.0, 4.0, 8.0))
    assert means[0.5][2][0] < means[0.5][2][1] and means[0.5][3][0] > means[0.5][3][1] + 1e-12
    # 1 and 2 tie, and 1 is worse than CRT at depth 3 by less than 1e-12
    assert best[1.0] == best[2.0] < min(best[4.0], best[8.0])
    assert 0 < means[1.0][3][0] - means[1.0][3][1] <= 1e-12

    tuned = calibrate_hybrid(dataclasses.replace(config, tune_beta=True), None)
    assert tuned == {d: dataclasses.replace(c, beta_hybrid=1.0) for d, c in untuned.items()}

    # an anchor far off where CRT is right loses at every multiplier, so the
    # configured one stays
    table = crt_table([third] * 10, [0.5] + [0.01] * 9, [(0.0, 0.0)] + [(0.01, 0.01)] * 9)
    monkeypatch.setattr(harness, "run_trials", lambda config, rngs, calibrations=None: table)
    tuned = calibrate_hybrid(dataclasses.replace(config, tune_beta=True), None)
    assert [c.beta_hybrid for c in tuned.values()] == [3.0, 3.0]


@pytest.mark.parametrize("max_depth", [0, 1])
def test_calibration_without_crt_depths_names_max_depth(max_depth, tmp_path, capsys):
    # the config names no CRT estimator, so only calibration needs depth 2
    config = ExperimentConfig(max_depth=max_depth, algorithms=("mle",),
                              noise=NoiseModel.linear_ramp(max_depth))
    message = f"calibration needs CRT depths 2..max_depth, but max_depth is {max_depth}"
    with pytest.raises(ValueError, match=re.escape(message)):
        calibrate_hybrid(config, run_streams(config.seed, 0)[0])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    out_dir = tmp_path / "cal"
    assert cli_main(["calibrate", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out_dir.exists()


def leaky_config(**kwargs):
    return quiet_config(n_trials=30, n_shots=8, calib_trials=50,
                        noise=NoiseModel.linear_ramp(3, leak_prob=0.6), **kwargs)


def test_calibration_skips_failed_draws(tmp_path):
    # Calibration is run_trial with CRT alone on the calibration stream.
    # With 8 shots and 60% leakage some draws keep no shot at a CRT depth;
    # each depth averages over the draws that kept its CRT row, and depths
    # 2 and 3 keep different draws.
    config = leaky_config(algorithms=("mle", "crt", "hybrid"))
    crt_only = leaky_config(algorithms=("crt",))
    rng = run_streams(config.seed, 0)[0]
    draws = [run_trial(crt_only, one_pair(rng, config.vector_mode), rng)
             for _ in range(config.calib_trials)]
    cal = calibrate_hybrid(config, run_streams(config.seed, 0)[0])
    assert sorted(cal) == [2, 3]
    kept_by_depth = []
    for d in cal:
        ok = [t for t in draws if t.kept[0, t.slot("crt", d)]]
        assert 0 < len(ok) < len(draws)
        kept_by_depth.append(ok)
        theta = [float(t.theta_true[0]) for t in ok]
        exact = [crt_reconstruct(math.sin((2 * d + 1) * th) ** 2, math.sin((2 * d - 1) * th) ** 2,
                                 th, d)[1].p_hat for th in theta]
        assert cal[d].mle_avg_depth2 == float(np.mean(
            [abs(math.sin(t.anchor[0]) ** 2 - t.p_true[0]) for t in ok]))
        assert cal[d].crt_exact_at_d == float(np.mean(
            [abs(p - t.p_true[0]) for p, t in zip(exact, ok)]))
    assert kept_by_depth[0] != kept_by_depth[1]

    with_hybrid, _ = run_experiment(config, out_dir=tmp_path / "hybrid")
    without, _ = run_experiment(leaky_config(algorithms=("mle", "crt")),
                                out_dir=tmp_path / "plain")
    assert without.errors()
    assert kept_labels(with_hybrid, 0, "hybrid")
    errors = {t: {a: e for a, e in by_alg.items() if a != "hybrid"}
              for t, by_alg in with_hybrid.errors().items()}
    assert {t: by_alg for t, by_alg in errors.items() if by_alg} == without.errors()
    rows = {name: [r for r in (tmp_path / name / "trials.csv").read_text().splitlines()
                   if not r.startswith("hybrid,")]
            for name in ("hybrid", "plain")}
    assert rows["hybrid"] == rows["plain"]


def test_a_row_drops_only_when_its_own_inputs_kept_no_shot(tmp_path):
    # Trial 1 keeps [3, 0, 3, 5] shots: the D=2 CRT row needs depth 1 and
    # drops, the D=3 row needs depths 3 and 2 and stays.  Trial 7 keeps
    # [0, 4, 1, 4]: no MLE estimate at depth 0, but one at depths 1..3.
    config = leaky_config(algorithms=("mle", "crt", "hybrid"))
    table, paths = run_experiment(config, out_dir=tmp_path)
    kept = (table.counts[..., 0] + table.counts[..., 1]).tolist()
    assert kept[1] == [3, 0, 3, 5]
    assert kept_labels(table, 1, "crt") == kept_labels(table, 1, "hybrid") == [3]
    assert table.errors()["1"]["crt"].startswith("depth 2:")
    assert kept[7] == [0, 4, 1, 4]
    assert kept_labels(table, 7, "mle") == [1, 2, 3]
    assert table.errors()["7"] == {"mle": "depth 0: no kept shots at depths 0..0"}
    manifest = json.loads(paths["manifest"].read_text(encoding="utf-8"))
    assert manifest["trial_errors"] == table.errors()


@pytest.mark.parametrize("mle_noise_aware", [False, True])
def test_batched_trials_equal_trials_run_one_by_one(mle_noise_aware, monkeypatch):
    # every estimator, leaky pools with empty depths, MLE passes in chunks
    # of seven trials
    monkeypatch.setattr(estimators, "CHUNK_BYTES", 7 * estimators.CELL_BYTES * 100)
    config = leaky_config(algorithms=ALGORITHMS, mle_noise_aware=mle_noise_aware)
    cal = calibrate_hybrid(config, run_streams(config.seed, 0)[0])
    streams = list(run_streams(config.seed, config.n_trials)[1])
    one_by_one = [run_trial(config, one_pair(rng, config.vector_mode), rng, cal)
                  for rng in streams]
    batched = run_trials(config, list(run_streams(config.seed, config.n_trials)[1]), cal)
    assert batched.errors()
    assert [trial_rows(batched, t) for t in range(config.n_trials)] \
        == [trial_rows(one, 0) for one in one_by_one]


LEAKY_BURST = NoiseModel.linear_ramp(3, leak_prob=0.6,
                                     correlation=CorrelatedNoise(p_switch=0.05, burst_scale=4.0))


@pytest.mark.parametrize("order", ["one generator", "mixed"])
@pytest.mark.parametrize("mode", VECTOR_MODES)
def test_trials_sharing_generators_equal_trials_run_one_by_one(mode, order):
    # A generator that feeds many trials draws each pair right before that
    # trial's pools: a block ends before a generator it already holds.
    config = quiet_config(n_shots=8, vector_mode=mode, algorithms=ALGORITHMS, noise=LEAKY_BURST)
    cal = {2: HybridCalibration(mle_avg_depth2=0.05, crt_exact_at_d=0.01), 3: "no calibration"}

    def streams():
        if order == "one generator":
            return [np.random.default_rng(11)] * (PAIR_BLOCK + 6)
        r1, r2, r3 = (np.random.default_rng(seed) for seed in (11, 12, 13))
        return [r1, r2, r1, r3]

    batched = run_trials(config, streams(), cal)
    one_by_one = [run_trial(config, one_pair(rng, mode), rng, cal) for rng in streams()]
    for name in ("theta_true", "counts", "theta_hat", "oracle_calls"):
        alone = np.concatenate([getattr(one, name) for one in one_by_one])
        assert getattr(batched, name).tobytes() == alone.tobytes(), name
    assert batched.reason.tolist() == np.concatenate([one.reason for one in one_by_one]).tolist()


def scalar_crt_and_hybrid(pool, d, theta, calls, cal):
    """A trial's CRT and hybrid rows at depth ``d``, one reconstruction at a time.

    ``theta`` is the trial's anchor angle, billed ``calls`` oracle calls.
    Each row is (theta_hat, p_hat, oracle_calls, branch), or the reason it
    drops; the CRT readings come third (``None`` when CRT drops).  Both
    rows need kept shots at depths d and d-1, read each depth's kept good
    fraction and bill the anchor's calls plus 2d+1 calls per shot at depth
    d and 2d-1 per shot at depth d-1; the hybrid also needs a calibration
    at depth d.
    """
    for counts in (pool[d], pool[d - 1]):
        if counts.kept == 0:
            reason = f"no kept shots at depth {counts.depth}"
            return reason, reason, None
    crt_theta, readings = crt_reconstruct(pool[d].n_good / pool[d].kept,
                                          pool[d - 1].n_good / pool[d - 1].kept, theta, d)
    bill = calls + pool[d].shots * (2 * d + 1) + pool[d - 1].shots * (2 * d - 1)
    crt = (crt_theta, readings.p_hat, bill, "")
    if d not in cal:
        return crt, "no calibration", readings
    fallback = hybrid_fallback(math.sin(theta) ** 2, readings.p_hat, cal[d].threshold)
    chosen = theta if fallback else crt_theta
    return crt, (chosen, math.sin(chosen) ** 2, bill, "mle" if fallback else "crt"), readings


def rows_on_a_separate_anchor_pass(config, table, cal):
    """Per trial, the kept CRT and hybrid rows by label, built one at a time
    on the depth-2 estimate of the trial's own noise-unaware MLE pass over
    depths 0..2."""
    anchors = mle_estimate(table.counts[:, :3], range(3), config.epsilon)
    expected = []
    for t, (theta, calls) in enumerate(zip(anchors.theta[:, 2], anchors.calls[:, 2])):
        rows = {"crt": {}, "hybrid": {}}
        depths = () if math.isnan(theta) else range(2, config.max_depth + 1)
        for d in depths:
            by_alg = scalar_crt_and_hybrid(pool_of(table, t), d, float(theta), int(calls), cal)
            for alg, row in zip(rows, by_alg):
                if not isinstance(row, str):
                    rows[alg][d] = row
        expected.append(rows)
    return expected


def crt_and_hybrid_rows(table):
    """Per trial, the table's kept CRT and hybrid rows by label."""
    return [{alg: {label: (float(table.theta_hat[t, k]), float(table.p_hat[t, k]),
                           int(table.oracle_calls[t, k]), table.branch[t, k])
                   for k, (a, label) in enumerate(zip(table.algorithm, table.label))
                   if a == alg and table.kept[t, k]}
             for alg in ("crt", "hybrid")}
            for t in range(len(table.theta_true))]


@pytest.mark.parametrize("algorithms,mle_noise_aware", [
    (("mle", "crt", "hybrid"), False), (("mle", "crt", "hybrid"), True),
    (("crt", "hybrid"), False)])
def test_crt_and_hybrid_rows_equal_those_on_a_separate_anchor_pass(algorithms,
                                                                   mle_noise_aware):
    # leaky pools: some trials keep no shot at a depth the anchor or a CRT row needs
    config = leaky_config(algorithms=algorithms, mle_noise_aware=mle_noise_aware)
    cal = calibrate_hybrid(config, run_streams(config.seed, 0)[0])
    table = run_trials(config, list(run_streams(config.seed, config.n_trials)[1]), cal)
    assert (table.counts[:, :3, :2].sum(axis=2) == 0).any()
    assert crt_and_hybrid_rows(table) == rows_on_a_separate_anchor_pass(config, table, cal)
    if algorithms[0] == "mle" and not mle_noise_aware:
        # the anchor is the MLE row at depth 2 itself
        assert np.array_equal(table.anchor, table.theta_hat[:, table.slot("mle", 2)],
                              equal_nan=True)


def test_an_mle_pass_that_fails_after_depth_2_keeps_the_crt_anchor(monkeypatch):
    # fabricate an underflow after depth 2: the engine's full-depth pass
    # loses trial 0, whose anchor then comes from its own pass over depths 0..2
    calls = []

    def failing_after_depth_2(counts, depths, epsilon, noise=None, *, last_only=False):
        calls.append(len(counts))
        result = mle_estimate(counts, depths, epsilon, noise, last_only=last_only)
        if len(depths) > 3:
            result.theta[0] = np.nan
            result.reason[0] = "posterior underflow: counts are inconsistent with the grid"
        return result

    config = quiet_config(algorithms=("mle", "crt", "hybrid"))
    cal = calibrate_hybrid(config, run_streams(config.seed, 0)[0])
    monkeypatch.setattr(harness, "mle_estimate", failing_after_depth_2)
    table = run_trials(config, list(run_streams(config.seed, config.n_trials)[1]), cal)
    assert calls == [config.n_trials, 1]
    assert kept_labels(table, 0, "mle") == []
    assert table.errors()["0"]["mle"].startswith("depth 0: posterior underflow")
    assert kept_labels(table, 0, "crt") == kept_labels(table, 0, "hybrid") == [2, 3]
    assert crt_and_hybrid_rows(table) == rows_on_a_separate_anchor_pass(config, table, cal)


def test_no_anchor_pass_runs_over_zero_trials():
    # every trial has a depth-2 row from the noise-unaware MLE pass, so the
    # run makes that pass alone; it used to add a pass over no trials
    config = quiet_config(algorithms=("mle", "crt"))
    rngs = list(run_streams(config.seed, config.n_trials)[1])
    with mock.patch.object(harness, "mle_estimate", wraps=mle_estimate) as engine:
        table = run_trials(config, rngs)
    assert not np.isnan(table.anchor).any()
    assert [len(c.args[0]) for c in engine.call_args_list] == [config.n_trials]


def test_the_anchor_and_power_law_passes_ask_for_their_last_depth_alone():
    # the noise-aware MLE pass reads every depth; the anchor pass over
    # depths 0..2 and the power-law pass read only their last column
    config = quiet_config(algorithms=ALGORITHMS, mle_noise_aware=True)
    rngs = list(run_streams(config.seed, config.n_trials)[1])
    with mock.patch.object(harness, "mle_estimate", wraps=mle_estimate) as engine:
        run_trials(config, rngs)
    assert [(c.args[1], c.kwargs) for c in engine.call_args_list] == [
        (range(4), {}), (range(3), {"last_only": True}), (range(4), {"last_only": True})]


def test_a_run_solves_the_power_law_schedule_once(tmp_path, monkeypatch):
    solves = []

    def counted(*args):
        solves.append(args)
        return optimize_exponent(*args)

    monkeypatch.setattr(harness, "optimize_exponent", counted)
    config = quiet_config(n_trials=6, algorithms=("direct", "powerlaw"),
                          powerlaw_target_eps=1e-9)  # infeasible on purpose
    trials, paths = run_experiment(config, out_dir=tmp_path)
    assert len(solves) == 1
    with pytest.raises(InfeasibleScheduleError) as exc:
        optimize_exponent(1e-9, config.n_shots, config.max_depth, config.noise.gamma_by_depth)
    manifest = json.loads(paths["manifest"].read_text(encoding="utf-8"))
    assert manifest["trial_errors"] == {str(i): {"powerlaw": f"depth eps=1e-09: {exc.value}"}
                                        for i in range(6)}


# ------------------------------------------------------------------ noise fit

def make_fit_data(gamma, n_trials=40, shots=100_000, seed=0):
    model = NoiseModel(gamma_by_depth=(gamma,) * 8)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, math.pi / 2, n_trials)
    counts = [[sample_noisy_shots(theta, d, shots, model, rng) for d in range(8)]
              for theta in thetas]
    return tallies(counts), thetas


def test_fit_recovers_known_gamma():
    counts, thetas = make_fit_data(0.1)
    gammas = fit_depolarizing(counts, thetas)
    assert all(abs(g - 0.1) < 0.01 for g in gammas)


def test_fit_noiseless_data_gives_zero():
    counts, thetas = make_fit_data(0.0, seed=3)
    gammas = fit_depolarizing(counts, thetas)
    assert all(g < 0.01 for g in gammas)


def test_fit_a_depth_clamped_to_no_damping_gives_positive_zero():
    # every shot at theta = 0 fails, a = 1 exactly; -log(1.0) is -0.0
    counts = np.array([[[0, 10, 0], [3, 7, 0]], [[0, 20, 0], [9, 11, 0]]])
    gammas = fit_depolarizing(counts, [0.0, 0.0])
    assert gammas[0] == 0.0 and math.copysign(1.0, gammas[0]) == 1.0


@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_fit_inverts_the_outcome_law(beta):
    # good fractions at the law's own values, to 1/shots, give back -log a_d:
    # each fraction is off by at most 1/(2 shots), so a_d by about 1e-9
    shots = 10**9
    model = NoiseModel.linear_ramp(7, beta_readout=beta)
    thetas = np.linspace(0.01, math.pi / 2 - 0.01, 60)
    good = np.array([[round(shots * noisy_prob(theta, d, model)) for d in range(8)]
                     for theta in thetas])
    counts = np.stack([good, shots - good, np.zeros_like(good)], axis=-1)
    fitted = fit_depolarizing(counts, thetas)
    expected = [gamma - math.log1p(-beta) for gamma in model.gamma_by_depth]
    assert fitted == pytest.approx(expected, abs=1e-7)
    assert [neg_log_damping(model, d) for d in range(8)] == expected


@pytest.mark.parametrize("rows, damping", [
    ([[9, 1, 0], [1, 9, 0]], "-0.8"),  # good fractions against the cosine
    ([[5, 5, 0], [5, 5, 0]], "0")])    # every fraction at 1/2, the cosine spread
def test_fit_a_damping_not_positive_is_unidentified(rows, damping):
    # a fitted damping <= 0 was clamped to 1e-12 and written as rate 27.631
    counts = np.array(rows)[:, None, :]
    assert fit_depolarizing(counts, [0.0, math.pi / 2]) \
        == [f"fitted damping {damping} <= 0, no rate"]


def no_signal(seed):
    """At gamma 800 the counts hold no signal at any depth."""
    return {"n_trials": 5, "n_shots": 20, "max_depth": 3, "seed": seed,
            "noise": {"gamma_by_depth": [800, 800, 800, 800]}}


# depths 0 and 1 measure their rates; at gamma 8 depths 2 and 3 hold no signal
MIXED = {"n_trials": 40, "n_shots": 50, "max_depth": 3, "seed": 3,
         "noise": {"gamma_by_depth": [0.05, 0.1, 8, 8]}}


@pytest.mark.parametrize("config, rates, reasons", [
    # every depth was lost with the whole fit, the no-signal depths 1 and 2
    # having been written as gamma_fit 27.631 before that
    (no_signal(0), [None] * 4,
     ["fitted damping 0.0393958 within two standard errors (0.111295) of 0, no rate",
      "fitted damping -0.421935 <= 0, no rate",
      "fitted damping -0.209197 <= 0, no rate",
      "fitted damping 0.045518 within two standard errors (0.0907015) of 0, no rate"]),
    # a positive damping inside its own noise was written as a rate: at seed
    # 30 fit-noise printed 3.3048, 1.1600, 2.0452 and 1.7422 beside the model's 800
    (no_signal(30), [None] * 4,
     ["fitted damping 0.036708 within two standard errors (0.0770036) of 0, no rate",
      "fitted damping 0.31349 within two standard errors (0.182545) of 0, no rate",
      "fitted damping 0.129352 within two standard errors (0.123202) of 0, no rate",
      "fitted damping 0.175143 within two standard errors (0.129675) of 0, no rate"]),
    (no_signal(42), [None] * 4,
     ["fitted damping 0.0731186 within two standard errors (0.0908619) of 0, no rate",
      "fitted damping 0.0808877 within two standard errors (0.164222) of 0, no rate",
      "fitted damping 0.0958462 within two standard errors (0.107501) of 0, no rate",
      "fitted damping 0.0547025 within two standard errors (0.121237) of 0, no rate"]),
    (no_signal(60), [None] * 4,
     ["fitted damping 0.0140346 within two standard errors (0.0650923) of 0, no rate",
      "fitted damping 0.0117958 within two standard errors (0.184441) of 0, no rate",
      "fitted damping 0.209829 within two standard errors (0.162688) of 0, no rate",
      "fitted damping 0.00529966 within two standard errors (0.143272) of 0, no rate"]),
    # the whole fit was null here, losing the rates of depths 0 and 1
    (MIXED, [0.014349426517004528, 0.08557799990456973, None, None],
     [None, None,
      "fitted damping -0.00037567 <= 0, no rate",
      "fitted damping -0.018298 <= 0, no rate"])],
    ids=["no-signal-0", "no-signal-30", "no-signal-42", "no-signal-60", "mixed"])
def test_run_and_fit_noise_report_a_depth_without_signal(config, rates, reasons, tmp_path,
                                                         capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    assert cli_main(["fit-noise", "--config", str(cfg_path), "--out", str(tmp_path / "fit")]) == 0
    captured = capsys.readouterr()
    fitted = json.loads((tmp_path / "fit" / "gamma_fit.json").read_text(encoding="utf-8"))
    error = "; ".join(f"depth {d}: {r}" for d, r in enumerate(reasons) if r is not None)
    assert manifest["gamma_fit"] == rates and manifest["gamma_fit_error"] == error
    assert fitted == {"gamma_by_depth": rates, "gamma_fit_error": error}
    noise = ExperimentConfig.from_dict(config).noise
    assert captured.err == "" and captured.out.splitlines()[1:5] == [
        f"{d:>6} {neg_log_damping(noise, d):>12.4f} {r if r is not None else f'{g:.4f}':>12}"
        for d, (g, r) in enumerate(zip(rates, reasons))]


def test_fit_degenerate_probabilities_unidentifiable():
    model = NoiseModel(gamma_by_depth=(0.1,) * 8)
    rng = np.random.default_rng(4)
    theta = math.pi / 4  # every odd multiple gives p = 1/2
    counts = [[sample_noisy_shots(theta, d, 1000, model, rng) for d in range(8)]
              for _ in range(5)]
    assert fit_depolarizing(tallies(counts), [theta] * 5) \
        == ["all probabilities near 1/2, damping unidentifiable"] * 8


def test_fit_leaves_out_trials_that_kept_no_shot():
    # 8 shots at 60% leakage: some trials keep no shot at some depth.  Such
    # a trial has no good fraction there; it used to enter the regression
    # as rate 1/2 and pull the fitted damping up.
    model = NoiseModel.linear_ramp(7, leak_prob=0.6)
    rng = np.random.default_rng(8)
    thetas = rng.uniform(0.0, math.pi / 2, 300)
    counts = [[sample_noisy_shots(theta, d, 8, model, rng) for d in range(8)]
              for theta in thetas]
    assert any(c.kept == 0 for trial in counts for c in trial)
    empty = [DepthCounts(depth=d, n_good=0, n_bad=0, n_discarded=8) for d in range(8)]
    with_empty = counts[:100] + [empty] * 50 + counts[100:]
    thetas_with_empty = np.concatenate([thetas[:100], np.full(50, 0.3), thetas[100:]])
    assert fit_depolarizing(tallies(with_empty), thetas_with_empty) \
        == fit_depolarizing(tallies(counts), thetas)
    assert fit_depolarizing(tallies([counts[0], empty, empty]), thetas[:3]) \
        == ["fewer than two trials kept a shot"] * 8


@pytest.mark.parametrize("n_trials,n_angles", [(5, 4), (4, 5)])
def test_fit_names_both_lengths_when_counts_and_angles_differ(n_trials, n_angles):
    # died in numpy's IndexError on the boolean mask
    counts = np.full((n_trials, 3, 3), 10, dtype=np.int64)
    with pytest.raises(ValueError, match=f"^true_thetas holds {n_angles} angles, "
                                         f"counts {n_trials} trials"):
        fit_depolarizing(counts, np.linspace(0.1, 1.2, n_angles))


@pytest.mark.parametrize("counts,message", [
    ([], "one (good, bad, discarded) entry per depth and trial"),
    (np.full((3, 4), 5), "one (good, bad, discarded) entry per depth and trial"),
    (np.full((3, 4, 2), 5), "one (good, bad, discarded) entry per depth and trial"),
    (np.full((3, 4, 3), -1), "counts must be >= 0"),
    (np.full((3, 4, 3), 2.5), "counts must be integers, got dtype float64"),
    (np.full((3, 4, 3), 5.0), "counts must be integers, got dtype float64"),
    (np.full((3, 4, 3), np.nan), "counts must be integers, got dtype float64"),
    (np.full((3, 4, 3), True), "counts must be integers, got dtype bool"),
])
def test_fit_and_mle_reject_counts_by_one_rule(counts, message):
    # fit_depolarizing raised a bare IndexError on the first two and on the
    # third, missing its discarded column, wrote a reason at every depth;
    # both truncated 2.5 to 2, and a NaN died in numpy's bare cast error
    thetas = np.linspace(0.1, 1.2, len(counts))
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_depolarizing(counts, thetas)
    with pytest.raises(ValueError, match=re.escape(message)):
        mle_estimate(counts, range(4), 0.01)


def test_fit_needs_two_trials():
    counts, thetas = make_fit_data(0.1, n_trials=1)
    assert fit_depolarizing(counts, thetas) == ["fewer than two trials kept a shot"] * 8


# ------------------------------------------------------------------- emission

def direct_table(p_hats, calls=500):
    """A table of direct rows at depth 0, one trial per estimate, all at p_true 1/2."""
    n = len(p_hats)
    return RunTable(theta_true=np.full(n, math.pi / 4),
                    counts=np.zeros((n, 1, 3), dtype=np.int64),
                    algorithm=("direct",), label=(0,),
                    theta_hat=np.array([[math.asin(math.sqrt(p))] for p in p_hats]),
                    oracle_calls=np.full((n, 1), calls), branch=np.full((n, 1), ""),
                    reason=np.full((n, 1), None, dtype=object))


def test_emit_single_trial_single_algorithm(tmp_path):
    config = quiet_config(algorithms=("direct",))
    paths = aggregate_and_emit(direct_table([0.52]), config, tmp_path)
    lines = paths["trials"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("algorithm,depth,oracle_calls,trial_id,theta_true")


def test_emit_aggregate_mean(tmp_path):
    config = quiet_config(algorithms=("direct",))
    paths = aggregate_and_emit(direct_table([0.51, 0.53]), config, tmp_path)
    header, row = paths["aggregate"].read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert abs(float(fields["mean_abs_err_p"]) - 0.02) < 1e-12
    assert int(fields["total_oracle_calls"]) == 1000


def test_emit_rejects_empty_trials(tmp_path):
    with pytest.raises(ValueError):
        aggregate_and_emit(direct_table([]), quiet_config(), tmp_path)


def test_crt_histogram_counts_an_error_of_one_half_once(tmp_path):
    # p_true = sin(1e-8)^2 = 1e-16 and p_hat = sin^2 of the float above pi/4
    # = 0.5 + 2^-53: their difference rounds to 0.5 exactly
    theta_true = np.array([1e-8, 0.3, 1.1])
    theta_hat = np.array([[0.7853981633974484, 0.1], [0.3, np.nan], [1.0, 1.2]])
    table = RunTable(theta_true=theta_true, counts=np.zeros((3, 4, 3), dtype=np.int64),
                     algorithm=("crt", "crt"), label=(2, 3), theta_hat=theta_hat,
                     oracle_calls=np.full((3, 2), 700), branch=np.full((3, 2), ""),
                     reason=np.where(np.isnan(theta_hat), "no kept shots at depth 3", None))
    assert table.err_p("crt", 2)[0] == 0.5
    paths = aggregate_and_emit(table, quiet_config(algorithms=("crt",)), tmp_path)
    with open(paths["crt_histogram"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for depth, kept, top in (("2", 3, ["0", "1"]), ("3", 2, ["0", "0"])):
        bins = [row for row in rows if row["depth"] == depth]
        assert len(bins) == 26
        assert sum(int(row["count"]) for row in bins) == kept
        assert [(row["bin_lo"], row["bin_hi"], row["count"]) for row in bins[-2:]] \
            == [("0.48", "0.5", top[0]), ("0.5", "1.0", top[1])]


def distinct_probe_values():
    """Floats where formatting and bit identity are easy to get wrong."""
    payload_nan = float(np.array([0x7FF8_0000_0000_0001]).view(np.float64)[0])
    return st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, -math.nan, payload_nan, math.inf, -math.inf,
                         5e-324, -5e-324, 2.2250738585072014e-308 / 3, 0.1, 1.0]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@st.composite
def distinct_probe_arrays(draw):
    """Float64 or int64 arrays of 0-2 dimensions, with repeats, some empty and
    some non-contiguous (a transposed or strided view)."""
    if draw(st.booleans()):
        pool = draw(st.lists(distinct_probe_values(), min_size=1, max_size=6))
        dtype = np.float64
    else:
        pool = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=6))
        dtype = np.int64
    shape = tuple(draw(st.lists(st.integers(0, 6), max_size=2)))
    picks = draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    values = np.array(picks, dtype=dtype).reshape(shape)
    view = draw(st.sampled_from(["as is", "transposed", "strided"]))
    if view == "transposed":
        values = values.T
    elif view == "strided" and values.ndim:
        values = values[..., ::2]
    return values


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(values=distinct_probe_arrays())
def test_each_distinct_value_is_formatted_as_the_element_by_element_reference(values):
    strings = harness._strings(values)
    reference = [repr(v) if isinstance(v, float) else str(v) for v in values.ravel().tolist()]
    assert strings.shape == values.shape and strings.dtype == object
    assert strings.ravel().tolist() == reference


@settings(max_examples=300, deadline=None)
@given(values=distinct_probe_arrays(),
       fn=st.sampled_from([lambda x: x, lambda x: math.copysign(1.0, x),
                           lambda x: x * 3.0 - 1.0, lambda x: float(len(repr(x)))]))
def test_elementwise_calls_fn_once_per_distinct_value_as_the_per_element_reference(values, fn):
    seen = []
    result = estimators._elementwise(lambda x: seen.append(x) or fn(x), values)
    reference = [fn(v) for v in values.astype(float).ravel().tolist()]
    assert result.shape == values.shape and result.dtype == np.float64
    assert bits(result).ravel().tolist() == bits(reference).tolist()
    assert len(seen) == len(set(bits(values).ravel().tolist()))


# ------------------------------------------------------------------ end to end

def test_run_experiment_emits_consistent_accounting(tmp_path):
    config = quiet_config()
    trials, paths = run_experiment(config, tmp_path / "run")
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


def chunk_config(**kwargs):
    """The shape of the many-trials benchmark (every estimator, depths 0..7, a
    100-point grid), with leaky pools so that some rows drop between kept ones."""
    return quiet_config(**{"n_trials": 12, "n_shots": 6, "max_depth": 7,
                           "vector_mode": "uniform-theta",
                           "noise": NoiseModel.linear_ramp(7, leak_prob=0.6), **kwargs})


@pytest.fixture(scope="module")
def default_chunk_run(tmp_path_factory):
    """The default chunks' output bytes, trials.csv rows, table cells and CRT elements."""
    table, paths = run_experiment(chunk_config(), tmp_path_factory.mktemp("default"))
    files = {name: path.read_bytes() for name, path in paths.items()}
    return files, files["trials"].count(b"\n") - 1, table.kept.size, table.crt.theta.size


@pytest.mark.parametrize("count, offset", [(None, 1), (None, 7), ("rows", -1), ("rows", 0),
                                           ("rows", 1), ("cells", -1), ("cells", 0)])
def test_row_and_crt_chunks_leave_every_output_byte(count, offset, default_chunk_run, tmp_path,
                                                    monkeypatch):
    # rows and CRT elements in chunks of 1, of 7, and of one short of, all of
    # and one past the run's rows and elements; trials.csv's chunks count
    # cells, so also one short of all the cells, and all of them
    files, rows, cells, elements = default_chunk_run
    assert rows < cells - 1  # some rows drop: a chunk of cells holds fewer rows
    row_chunk = crt_chunk = offset
    if count is not None:
        row_chunk, crt_chunk = {"rows": rows, "cells": cells}[count] + offset, elements + offset
    monkeypatch.setattr(harness, "ROW_CHUNK", row_chunk)
    monkeypatch.setattr(estimators, "CRT_CHUNK", crt_chunk)
    _, paths = run_experiment(chunk_config(), tmp_path)
    assert {name: path.read_bytes() for name, path in paths.items()} == files


def test_emission_scratch_does_not_grow_with_trials(tmp_path):
    # every trials.csv cell formatted at once took about 4.9 KB a trial on
    # this grid, 39 MB at 8,000 trials; the table's columns, its cached kept mask and true
    # probabilities among them, are the input
    scratch = []
    for n_trials in (2000, 8000):
        config = chunk_config(n_trials=n_trials, n_shots=50, noise=NoiseModel.linear_ramp(7))
        calib_rng, trial_rngs = run_streams(config.seed, n_trials)
        table = run_trials(config, trial_rngs, calibrate_hybrid(config, calib_rng))
        aggregate_and_emit(table, config, tmp_path / "warm")  # imports, caches and columns
        tracemalloc.start()
        try:
            aggregate_and_emit(table, config, tmp_path / str(n_trials))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch.append(peak - current)
    assert max(scratch) < 2 * estimators.CHUNK_BYTES
    assert scratch[1] - scratch[0] < estimators.CHUNK_BYTES // 4


@pytest.mark.parametrize("vector_mode", VECTOR_MODES)
def test_a_run_one_trial_past_a_pair_block_extends_the_shorter_run(vector_mode, tmp_path):
    # trial i reads stream i + 1 however the trials fall into pair blocks
    files = {}
    for n_trials in (PAIR_BLOCK, PAIR_BLOCK + 1):
        config = quiet_config(n_trials=n_trials, n_shots=20, calib_trials=8,
                              vector_mode=vector_mode,
                              algorithms=("direct", "mle", "crt", "hybrid"))
        _, paths = run_experiment(config, out_dir=tmp_path / str(n_trials))
        files[n_trials] = paths["trials"].read_text(encoding="utf-8")
    shorter, longer = files[PAIR_BLOCK], files[PAIR_BLOCK + 1]
    assert longer.startswith(shorter) and len(longer) > len(shorter)
    assert {line.split(",")[3] for line in longer[len(shorter):].splitlines()} == {
        str(PAIR_BLOCK)}


def test_shot_pools_are_shared_across_estimators(tmp_path):
    config = quiet_config()
    table, _ = run_experiment(config, out_dir=tmp_path / "run")
    assert table.oracle_calls[:, table.slot("powerlaw", "eps=0.05")].tolist() \
        == powerlaw_calls_from_the_pool(config, table)
    direct = table.oracle_calls[:, table.slot("direct", 0)]
    assert direct.tolist() == table.counts[:, 0].sum(axis=1).tolist()


@st.composite
def small_configs(draw):
    """Small configs that ``ExperimentConfig`` accepts, with MLE grids whose
    top level is the points (100) or blocks, the last one short (101, 1,009
    and 2,003 points)."""
    max_depth = draw(st.integers(0, 4))
    names = ALGORITHMS if max_depth >= 2 else ("direct", "mle", "powerlaw")
    gammas = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=max_depth + 1,
                                  max_size=max_depth + 1)))
    correlation = draw(st.sampled_from([None, CorrelatedNoise(0.05, 4.0),
                                        CorrelatedNoise(1.0, 1.0)]))
    noise = NoiseModel(gamma_by_depth=gammas,
                       beta_readout=draw(st.sampled_from([0.0, 0.05, 0.3])),
                       leak_prob=draw(st.sampled_from([0.0, 0.3, 0.9])), correlation=correlation)
    return ExperimentConfig(
        n_trials=draw(st.integers(1, 4)), n_shots=draw(st.integers(1, 40)), max_depth=max_depth,
        epsilon=1 / draw(st.sampled_from([100, 101, 1009, 2003])),
        seed=draw(st.integers(0, 2 ** 16)), vector_mode=draw(st.sampled_from(VECTOR_MODES)),
        algorithms=draw(st.lists(st.sampled_from(names), min_size=1, unique=True)),
        noise=noise, mle_noise_aware=draw(st.booleans()),
        beta_hybrid=draw(st.sampled_from([0.0, 1.0, 4.0])), tune_beta=draw(st.booleans()),
        calib_trials=draw(st.integers(1, 8)),
        powerlaw_target_eps=draw(st.sampled_from([1e-300, 1e-3, 0.05, 0.3])))


def unkept_calibration_config(leak_prob, n_shots, calib_trials):
    """A config whose calibration trials keep no CRT row, so no depth gets a calibration."""
    return ExperimentConfig(n_trials=20, n_shots=n_shots, max_depth=3, seed=1,
                            algorithms=("direct", "mle", "hybrid"), calib_trials=calib_trials,
                            noise=NoiseModel(gamma_by_depth=[0.05] * 4, leak_prob=leak_prob))


RUN_FILES = ("aggregate.csv", "crt_error_histogram.csv", "manifest.json", "trials.csv")
# the named errors with which ``run`` may refuse an accepted config: none is known
RUN_ERRORS = ()


@settings(max_examples=60, deadline=None)
@given(config=small_configs())
@example(config=unkept_calibration_config(0.999, 10, 3))
@example(config=unkept_calibration_config(0.9, 2, 3))
@example(config=unkept_calibration_config(0.9, 1, 20))
@example(config=unkept_calibration_config(0.999, 100, 1))
@example(config=ExperimentConfig.from_dict(MIXED))
def test_an_accepted_config_gives_valid_rows_or_an_estimation_error(config):
    # ``run`` exits 0 and writes its four files, or exits 2 with an error of
    # RUN_ERRORS.  Each trials.csv row recomputes from its own angles with
    # math.sin, bit for bit, and each aggregate.csv row from its trials.csv
    # rows.  A depth without a hybrid calibration, which the calibration
    # record names with its reason, has no hybrid row.  Each depth's fitted
    # rate is a finite float >= 0, or null where gamma_fit_error names the
    # depth with its reason.
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        if status == 2 and json.loads(err.getvalue())["error"] in RUN_ERRORS:
            return
        assert status == 0, err.getvalue()
        assert sorted(path.name for path in out.iterdir()) == list(RUN_FILES)
        with open(out / "trials.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "aggregate.csv", encoding="utf-8", newline="") as fh:
            aggregate = list(csv.DictReader(fh))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    slots = {}
    for row in rows:
        theta_true, theta_hat = float(row["theta_true"]), float(row["theta_hat"])
        p_true, p_hat = math.sin(theta_true) ** 2, math.sin(theta_hat) ** 2
        assert [float(row[c]) for c in ("p_true", "p_hat", "abs_err_p", "abs_err_theta")] \
            == [p_true, p_hat, abs(p_hat - p_true), abs(theta_hat - theta_true)]
        if row["algorithm"] == "mle":
            assert int(row["oracle_calls"]) == config.n_shots * (int(row["depth"]) + 1) ** 2
        slots.setdefault((row["algorithm"], row["depth"]), []).append(row)
    assert [(row["algorithm"], row["depth"]) for row in aggregate] == list(slots)
    for row in aggregate:
        slot = slots[row["algorithm"], row["depth"]]
        assert int(row["total_oracle_calls"]) == sum(int(r["oracle_calls"]) for r in slot)
        for mean, cell in (("mean_abs_err_p", "abs_err_p"), ("mean_abs_err_theta", "abs_err_theta")):
            assert math.isclose(float(row[mean]), math.fsum(float(r[cell]) for r in slot) / len(slot),
                                rel_tol=1e-12, abs_tol=0.0)
    calibration = manifest["calibration"]
    if "hybrid" in config.algorithms:
        assert list(calibration) == [str(d) for d in range(2, config.max_depth + 1)]
        uncalibrated = {d for d, c in calibration.items() if isinstance(c, str)}
        assert not uncalibrated & {d for alg, d in slots if alg == "hybrid"}
    else:
        assert calibration is None
    gamma_fit = manifest["gamma_fit"]
    assert len(gamma_fit) == config.max_depth + 1
    assert all(g is None or (type(g) is float and math.isfinite(g) and g >= 0) for g in gamma_fit)
    named = re.findall(r"(?:^|; )depth (\d+): ", manifest["gamma_fit_error"] or "")
    assert named == [str(d) for d, g in enumerate(gamma_fit) if g is None]


# ------------------------------------------------------------------------ cli

def test_cli_stats_runs(capsys):
    assert cli_main(["stats", "--max-depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "2q gates" in out
    assert " 44 " in out  # t=3 row


def test_cli_stats_rejects_a_negative_max_depth(capsys):
    # it printed an empty table and exited 0
    assert cli_main(["stats", "--max-depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-depth" in json.loads(captured.err)["message"]


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


def test_cli_flags_land_on_their_config_fields(tmp_path, capsys):
    # each flag stores its value under its field's name and the field's rule checks it
    config = quiet_config()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                     "--seed", "3", "--algorithms", "direct,mle"]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["config"]["seed"], manifest["config"]["algorithms"]) == (3, ["direct", "mle"])
    assert cli_main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "cal"),
                     "--seed", "3", "--trials", "6", "--tune-beta"]) == 0
    written = json.loads((tmp_path / "cal" / "calibration.json").read_text(encoding="utf-8"))

    def expected(**fields):
        flagged = dataclasses.replace(config, **fields)
        return calibration_record(calibrate_hybrid(flagged, run_streams(flagged.seed, 0)[0]))

    assert written == expected(seed=3, calib_trials=6, tune_beta=True)
    # leaving out any one flag gives another calibration
    for left_out in ({"seed": 0}, {"calib_trials": config.calib_trials}, {"tune_beta": False}):
        assert written != expected(**{"seed": 3, "calib_trials": 6, "tune_beta": True,
                                      **left_out}), left_out


def test_cli_rejects_an_empty_algorithm_list(tmp_path, capsys):
    # --algorithms "" was ignored, and the run went on with every algorithm
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(quiet_config().to_dict()), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                     "--algorithms", ""]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unknown algorithms ['']"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert cli_main(["stats", "--max-depth", "-1"]) == 2
    assert json.loads(capsys.readouterr().err)["message"] \
        == "--max-depth must be a nonnegative integer, got -1"


# two values of every flag but --config and --out, as the argv tokens that
# follow the command's own; argparse keeps a flag's last value, so sweep's
# --param and --values cases override its base ones
FLAG_CASES = {
    ("stats", "--max-depth"): (["--max-depth", "2"], ["--max-depth", "3"]),
    ("run", "--seed"): (["--seed", "1"], ["--seed", "2"]),
    ("run", "--algorithms"): (["--algorithms", "direct"], ["--algorithms", "mle"]),
    ("calibrate", "--seed"): (["--seed", "1"], ["--seed", "2"]),
    ("calibrate", "--trials"): (["--trials", "4"], ["--trials", "5"]),
    ("calibrate", "--tune-beta"): ([], ["--tune-beta"]),
    ("fit-noise", "--seed"): (["--seed", "1"], ["--seed", "2"]),
    ("sweep", "--seed"): (["--seed", "1"], ["--seed", "2"]),
    ("sweep", "--algorithms"): (["--algorithms", "direct"], ["--algorithms", "mle"]),
    ("sweep", "--param"): (["--param", "max-depth"], ["--param", "target-eps"]),
    ("sweep", "--values"): (["--values", "2"], ["--values", "3"]),
}


def test_every_cli_flag_has_a_pair_of_values_to_compare():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {(name, action.option_strings[-1]) for name, sub in commands.choices.items()
             for action in sub._actions if action.option_strings}
    assert {(name, flag) for name, flag in flags
            if flag not in ("--help", "--config", "--out")} == set(FLAG_CASES)


@pytest.mark.parametrize("command,flag", sorted(FLAG_CASES))
def test_each_value_of_a_cli_flag_changes_what_the_command_writes(command, flag, tmp_path,
                                                                   capsys):
    # stats --seed, calibrate --algorithms and fit-noise --algorithms changed no byte
    cfg_path = tmp_path / "config.json"
    config = quiet_config(n_trials=3, n_shots=40, calib_trials=4, vector_mode="uniform-theta")
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    written = []
    for k, values in enumerate(FLAG_CASES[command, flag]):
        out = tmp_path / f"out{k}"
        base = [] if command == "stats" else ["--config", str(cfg_path), "--out", str(out)]
        if command == "sweep":
            base += ["--param", "max-depth", "--values", "2"]
        assert cli_main([command, *base, *values]) == 0
        files = {path.relative_to(out).as_posix(): path.read_text(encoding="utf-8")
                 for path in sorted(out.rglob("*")) if path.is_file()}
        written.append(json.dumps([capsys.readouterr().out, files]).replace(str(out), "<out>"))
    assert written[0] != written[1]

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
    config = quiet_config(n_trials=6, algorithms=("direct", "powerlaw"))
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(sweep_dir),
                     "--param", "target-eps", "--values", "0.05,0.1"]) == 0
    for eps in ("0.05", "0.1"):
        aggregate = (sweep_dir / f"target_eps_{eps}" / "aggregate.csv").read_text()
        assert f"\npowerlaw,eps={eps}," in aggregate


# per command: its argv after --config and --out, the files it writes below
# --out and those whose paths it prints
NESTED_OUT_CASES = {
    "run": ([], RUN_FILES, RUN_FILES),
    "calibrate": ([], ("calibration.json",), ("calibration.json",)),
    "fit-noise": ([], ("gamma_fit.json",), ("gamma_fit.json",)),
    "sweep": (["--param", "max-depth", "--values", "2,3"],
              tuple(f"max_depth_{d}/{name}" for d in (2, 3) for name in RUN_FILES),
              ("max_depth_2/aggregate.csv", "max_depth_3/aggregate.csv")),
}


@pytest.mark.parametrize("command", sorted(NESTED_OUT_CASES))
def test_a_command_makes_a_nested_out_directory_and_writes_its_flat_bytes(command, tmp_path,
                                                                          capsys):
    # no test gave --out two levels below a directory that does not exist
    extra, files, printed = NESTED_OUT_CASES[command]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(quiet_config(n_trials=3, calib_trials=4).to_dict()),
                        encoding="utf-8")
    written = []
    for out in (tmp_path / "flat", tmp_path / "missing" / "parent" / "out"):
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out), *extra]) == 0
        stdout = capsys.readouterr().out
        paths = re.findall(re.escape(str(out)) + r"\S*", stdout)
        assert sorted(Path(p).relative_to(out).as_posix() for p in paths) == sorted(printed)
        found = {path.relative_to(out).as_posix(): path.read_bytes()
                 for path in out.rglob("*") if path.is_file()}
        assert sorted(found) == sorted(files)
        written.append((stdout.replace(str(out), "<out>"), found))
    assert written[0] == written[1]


@pytest.mark.parametrize("command", sorted(NESTED_OUT_CASES))
def test_a_command_without_out_writes_into_runs(command, tmp_path, monkeypatch, capsys):
    # without --out, each command writes below runs in the working directory
    monkeypatch.chdir(tmp_path)
    extra, files, printed = NESTED_OUT_CASES[command]
    Path("config.json").write_text(json.dumps(quiet_config(n_trials=3, calib_trials=4)
                                              .to_dict()), encoding="utf-8")
    assert cli_main([command, "--config", "config.json", *extra]) == 0
    paths = re.findall(r"(runs\S*)$", capsys.readouterr().out, re.MULTILINE)
    assert sorted(Path(p).relative_to("runs").as_posix() for p in paths) == sorted(printed)
    assert sorted(path.relative_to("runs").as_posix() for path in Path("runs").rglob("*")
                  if path.is_file()) == sorted(files)


@pytest.mark.parametrize("param,values,bad", [("max-depth", "2,2.5", "'2.5'"),
                                              ("max-depth", "two", "'two'"),
                                              ("target-eps", "0.05,tenth", "'tenth'"),
                                              ("max-depth", "3,9", "'9'"),
                                              ("target-eps", "0.05,-1", "'-1'")])
def test_cli_sweep_names_the_entry_it_cannot_parse(param, values, bad, tmp_path, capsys):
    # "2.5" died with "invalid literal for int() with base 10", naming
    # neither the flag nor the parameter, after the runs before it; "9"
    # (past the noise model) and "-1" failed only after the first run
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(quiet_config(n_trials=3).to_dict()), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep"),
                     "--param", param, "--values", values]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "--values" in message and bad in message and param in message
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("param,values,bad,first", [("max-depth", "3,3", "'3'", "'3'"),
                                                    ("max-depth", "2,3,03", "'03'", "'3'"),
                                                    ("target-eps", "0.05,0.05", "'0.05'",
                                                     "'0.05'")])
def test_cli_sweep_rejects_an_entry_whose_directory_an_earlier_entry_names(
        param, values, bad, first, tmp_path, capsys):
    # "3,3" and "3,03" ran max_depth_3 twice, the second run overwriting the
    # first, and printed its line twice
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(quiet_config(n_trials=3).to_dict()), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep"),
                     "--param", param, "--values", values]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith(f"--values entry {bad} for --param {param}: ")
    assert message.endswith(f"is that of entry {first}")
    assert not (tmp_path / "sweep").exists()


def test_cli_sweep_runs_equal_values_that_name_different_directories(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(quiet_config(n_trials=3, algorithms=("powerlaw",)).to_dict()),
                        encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep"),
                     "--param", "target-eps", "--values", "0.05,5e-2"]) == 0
    assert capsys.readouterr().out.count("target-eps=") == 2
    first, second = (tmp_path / "sweep" / f"target_eps_{raw}" / "trials.csv"
                     for raw in ("0.05", "5e-2"))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("values", [",", "", " , "])
def test_cli_sweep_without_entries_fails(values, tmp_path, capsys):
    # "," ran nothing, printed nothing and exited 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(quiet_config(n_trials=3).to_dict()), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep"),
                     "--param", "max-depth", "--values", values]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and "--values" in record["message"]
    assert not (tmp_path / "sweep").exists()


def test_cli_fit_noise_prints_the_rate_the_fit_measures(tmp_path, capsys):
    # the fit measures -log(1 - eta_d) = gamma_d - log(1 - beta); the model
    # column printed gamma_d, 0.035 against a fit of 0.088 at depth 0
    noise = NoiseModel(gamma_by_depth=(0.035, 0.08, 0.125, 0.17), beta_readout=0.05)
    config = quiet_config(n_trials=400, n_shots=500, seed=5, noise=noise,
                          vector_mode="uniform-theta")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert cli_main(["fit-noise", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["depth", "gamma_model", "gamma_fit"]
    rows = [line.split() for line in lines[1:1 + config.max_depth + 1]]
    for d, (depth, model, fit) in enumerate(rows):
        assert int(depth) == d
        assert model == f"{-math.log(1.0 - effective_eta(noise, d)):.4f}"
        assert abs(float(model) - float(fit)) < 0.02


def test_cli_fit_noise_writes_no_negative_zero_where_the_fit_clamps(tmp_path, capsys):
    # without noise the fitted damping clamps to 1 at depths 0 and 3
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n_trials": 50, "n_shots": 100, "max_depth": 3,
                                    "noise": {"gamma_by_depth": [0, 0, 0, 0]}}),
                        encoding="utf-8")
    assert cli_main(["fit-noise", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    gammas = json.loads((tmp_path / "gamma_fit.json").read_text(encoding="utf-8"))
    assert gammas["gamma_by_depth"][0] == gammas["gamma_by_depth"][3] == 0.0
    assert all(math.copysign(1.0, g) == 1.0 for g in gammas["gamma_by_depth"])
    assert "-0.0" not in out and "-0.0" not in (tmp_path / "gamma_fit.json").read_text()


def test_cli_fit_noise_prints_a_model_rate_past_exp_underflow(tmp_path, capsys):
    # exp(-gamma_d) underflows to 0, so -log(1 - eta_d) died with "math domain
    # error" after gamma_fit.json and the header were written.  Such counts
    # hold no signal, so each depth's fit column would hold its reason; the
    # fit is replaced to read each row as three fields
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n_trials": 3, "noise": {"gamma_by_depth": [1e6] * 8}}),
                        encoding="utf-8")
    with mock.patch("lowdepth_ae.cli.fit_depolarizing", return_value=[30.0] * 8):
        assert cli_main(["fit-noise", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split() for line in captured.out.splitlines()[1:9]]
    assert [(depth, model) for depth, model, _ in rows] == [(str(d), "1000000.0000")
                                                            for d in range(8)]


def test_cli_run_drops_only_the_powerlaw_rows_of_a_target_past_float_range(tmp_path, capsys):
    # target_eps ** -2 overflowed, and the OverflowError ended the run with exit 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n_trials": 3, "calib_trials": 3,
                                    "powerlaw_target_eps": 1e-300}), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "trials.csv", encoding="utf-8") as fh:
        written = {row["algorithm"] for row in csv.DictReader(fh)}
    assert written == {"direct", "mle", "crt", "hybrid"}
    errors = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["trial_errors"]
    assert sorted(errors) == ["0", "1", "2"]
    assert all("needs Fisher inf" in errors[t]["powerlaw"] for t in errors)


def test_fit_noise_memory_grows_by_the_tallies_alone(tmp_path, capsys):
    # 8 depths x 3 int64 tallies and one float64 angle take 200 B a trial;
    # keeping every trial's table view and angle alive took about 850 B a trial
    def fit_noise(n_trials):
        config = quiet_config(n_trials=n_trials, n_shots=40, max_depth=7,
                              noise=NoiseModel.linear_ramp(7), vector_mode="uniform-theta")
        cfg_path = tmp_path / f"config{n_trials}.json"
        cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        assert cli_main(["fit-noise", "--config", str(cfg_path),
                         "--out", str(tmp_path / f"fit{n_trials}")]) == 0

    fit_noise(20)  # modules a first run imports are not the trials' memory
    peaks = []
    for n_trials in (500, 4000):
        tracemalloc.start()
        try:
            fit_noise(n_trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (4000 - 500) <= 300


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


# ------------------------------------------------------- columnar CRT/hybrid

@st.composite
def crt_inputs(draw):
    """Tallies of a few trials, with empty depths and all-good/all-bad ones,
    a config and per-depth calibrations that may leave depths out."""
    max_depth = draw(st.integers(2, 5))
    n_trials = draw(st.integers(1, 6))
    tallies_by_trial = []
    for _ in range(n_trials):
        pool = []
        # depths 0..2 keep no shot (no anchor) or only bad ones (the anchor is
        # theta = 0, where both fold signs tie at sin = 0)
        low = draw(st.sampled_from(["any", "any", "empty", "bad"]))
        for d in range(max_depth + 1):
            good, bad, discarded = (draw(st.integers(0, 12)) for _ in range(3))
            kind = low if d < 3 and low != "any" else draw(st.sampled_from(
                ["empty", "good", "bad", "any", "any", "any"]))
            if kind == "empty":
                good = bad = 0      # no kept shot
            elif kind == "good":
                bad = 0             # p = 1
            elif kind == "bad":
                good = 0            # p = 0
            pool += [good, bad, discarded]
        tallies_by_trial.append(pool)
    config = quiet_config(
        n_trials=n_trials, max_depth=max_depth, noise=NoiseModel.linear_ramp(max_depth),
        epsilon=draw(st.sampled_from([0.5, 0.1, 0.02, 0.01])),
        mle_noise_aware=draw(st.booleans()),
        algorithms=draw(st.sampled_from([("crt", "hybrid"), ("mle", "crt", "hybrid")])))
    cal = {d: HybridCalibration(mle_avg_depth2=draw(st.floats(0, 0.3)),
                                crt_exact_at_d=draw(st.floats(0, 0.3)),
                                beta_hybrid=draw(st.sampled_from([0.0, 0.5, 1.0, 4.0])))
           for d in range(2, max_depth + 1) if draw(st.integers(0, 4))}
    return config, tallies_by_trial, cal


@settings(max_examples=150, deadline=None)
@given(inputs=crt_inputs())
def test_columnar_crt_and_hybrid_equal_the_scalar_estimators_row_by_row(inputs):
    config, tallies_by_trial, cal = inputs
    draws = [(0.3, pool, None) for pool in tallies_by_trial]
    table = harness._estimate(config, draws, None, cal)
    anchors = mle_estimate(table.counts[:, :3], range(3), config.epsilon)
    for t in range(config.n_trials):
        pool = pool_of(table, t)
        theta, calls = anchors.theta[t, 2], anchors.calls[t, 2]
        for d in range(2, config.max_depth + 1):
            expected = {}
            if math.isnan(theta):
                expected["crt"] = expected["hybrid"] = f"anchor: {anchors.reason[t]}"
            else:
                expected["crt"], expected["hybrid"], readings = scalar_crt_and_hybrid(
                    pool, d, float(theta), int(calls), cal)
                if readings is not None:
                    assert tuple(column[t, d - 2] for column in table.crt) == readings
            for alg in ("crt", "hybrid"):
                k = table.slot(alg, d)
                actual = table.reason[t, k] if not table.kept[t, k] else (
                    float(table.theta_hat[t, k]), float(table.p_hat[t, k]),
                    int(table.oracle_calls[t, k]), table.branch[t, k])
                assert actual == expected[alg], (t, alg, d)


def test_emitted_floats_are_the_repr_of_the_table_values(tmp_path):
    table, paths = run_experiment(quiet_config(), out_dir=tmp_path)
    with open(paths["trials"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    t, k = np.nonzero(table.kept)
    assert len(rows) == len(t)
    err_p = np.abs(table.p_hat - table.p_true[:, None])
    err_theta = np.abs(table.theta_hat - table.theta_true[:, None])
    for row, t, k in zip(rows, t.tolist(), k.tolist()):
        assert row["theta_true"] == repr(float(table.theta_true[t]))
        assert row["p_true"] == repr(float(table.p_true[t]))
        assert row["theta_hat"] == repr(float(table.theta_hat[t, k]))
        assert row["p_hat"] == repr(float(table.p_hat[t, k]))
        assert row["abs_err_p"] == repr(float(err_p[t, k]))
        assert row["abs_err_theta"] == repr(float(err_theta[t, k]))
        # the probability is sin^2 of the angle, as the scalar estimators compute it
        assert float(row["p_hat"]) == math.sin(float(row["theta_hat"])) ** 2
    with open(paths["aggregate"], encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            label = row["depth"] if row["algorithm"] == "powerlaw" else int(row["depth"])
            errs = [float(r["abs_err_p"]) for r in rows
                    if (r["algorithm"], r["depth"]) == (row["algorithm"], row["depth"])]
            assert row["mean_abs_err_p"] == repr(float(np.mean(errs)))
            assert row["std_err_p"] == repr(float(np.std(errs)))
            assert errs == table.err_p(row["algorithm"], label).tolist()
