"""Direct, MLE, CRT and hybrid estimators against independent oracles."""
import math

import numpy as np
import pytest

from lowdepth_ae.estimators import (EXTENDED_OFFSETS, Estimate,
                                    EstimationError, HybridCalibration,
                                    PosteriorGrid, bayesian_update,
                                    crt_estimate, crt_reconstruct, crt_solve,
                                    direct_estimate, hybrid_estimate,
                                    mle_estimate)
from lowdepth_ae.noise import NoiseModel
from lowdepth_ae.simulator import DepthCounts

RNG = np.random.default_rng(1234)


def counts(depth, good, bad, discarded=0):
    return DepthCounts(depth=depth, n_good=good, n_bad=bad, n_discarded=discarded)


def exact_counts(theta, depth, shots):
    good = round(shots * math.sin((2 * depth + 1) * theta) ** 2)
    return counts(depth, good, shots - good)


# --------------------------------------------------------------------- direct

def test_direct_all_good():
    est = direct_estimate(counts(0, 500, 0))
    assert est.p_hat == 1.0
    assert abs(est.theta_hat - math.pi / 2) < 1e-12
    assert est.oracle_calls == 500


def test_direct_all_bad():
    est = direct_estimate(counts(0, 0, 500))
    assert est.p_hat == 0.0
    assert est.theta_hat == 0.0


def test_direct_half():
    est = direct_estimate(counts(0, 250, 250))
    assert abs(est.p_hat - 0.5) < 1e-12
    assert abs(est.theta_hat - math.pi / 4) < 1e-12


def test_direct_counts_discarded_shots_in_oracle_bill():
    est = direct_estimate(counts(0, 100, 100, discarded=50))
    assert est.oracle_calls == 250


def test_direct_rejects_empty_kept_pool():
    with pytest.raises(EstimationError):
        direct_estimate(counts(0, 0, 0, discarded=500))


# ----------------------------------------------------------------- posterior

def test_uniform_grid_shape_and_range():
    grid = PosteriorGrid.uniform(0.001)
    assert grid.weights.size == 1000
    assert abs(grid.weights.sum() - 1.0) < 1e-12
    assert grid.thetas[0] == 0.0
    assert grid.thetas[-1] < math.pi / 2


def test_grid_validation():
    with pytest.raises(ValueError):
        PosteriorGrid(epsilon=0.5, weights=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        PosteriorGrid(epsilon=0.5, weights=np.array([1.2, -0.2]))


def test_update_with_zero_counts_is_identity():
    grid = PosteriorGrid.uniform(0.01)
    updated = bayesian_update(grid, 3, counts(3, 0, 0))
    assert np.allclose(updated.weights, grid.weights, atol=1e-15)


def test_update_single_good_shot_shapes_like_sin_squared():
    grid = PosteriorGrid.uniform(0.01)
    updated = bayesian_update(grid, 0, counts(0, 1, 0))
    expected = np.sin(grid.thetas) ** 2
    expected /= expected.sum()
    assert np.allclose(updated.weights, expected, atol=1e-12)


def test_update_fully_depolarized_is_identity():
    grid = PosteriorGrid.uniform(0.01)
    model = NoiseModel(gamma_by_depth=(0.0, 500.0, 500.0, 500.0))
    updated = bayesian_update(grid, 2, counts(2, 40, 60), noise=model)
    assert np.allclose(updated.weights, grid.weights, atol=1e-12)


def test_update_underflow_raises():
    grid = PosteriorGrid(epsilon=1.0, weights=np.array([1.0]))  # only theta = 0
    with pytest.raises(EstimationError):
        bayesian_update(grid, 0, counts(0, 5, 5))


def test_grid_stays_normalized_over_random_updates():
    grid = PosteriorGrid.uniform(0.005)
    for _ in range(30):
        d = int(RNG.integers(0, 8))
        g, b = int(RNG.integers(0, 400)), int(RNG.integers(0, 400))
        grid = bayesian_update(grid, d, counts(d, g, b))
        assert abs(grid.weights.sum() - 1.0) < 1e-9


# ------------------------------------------------------------------------ mle

def test_mle_recovers_angle_from_exact_tallies():
    theta = math.pi / 8
    data = [exact_counts(theta, d, 500) for d in range(8)]
    est = mle_estimate(data, epsilon=0.001)
    assert abs(est.theta_hat - theta) <= 0.001 * math.pi / 2 + 1e-12
    assert abs(est.p_hat - math.sin(est.theta_hat) ** 2) < 1e-12


def test_mle_all_good_lands_on_top_of_grid():
    est = mle_estimate([counts(0, 500, 0)], epsilon=0.001)
    grid = PosteriorGrid.uniform(0.001)
    assert est.theta_hat == grid.thetas[-1]


def test_mle_all_bad_lands_on_zero():
    est = mle_estimate([counts(0, 0, 500)], epsilon=0.001)
    assert est.theta_hat == 0.0


def test_mle_oracle_accounting_includes_discards():
    data = [counts(0, 400, 50, discarded=50), counts(3, 100, 350, discarded=50)]
    est = mle_estimate(data)
    assert est.oracle_calls == 500 * 1 + 500 * 7


def test_mle_requires_kept_shots():
    with pytest.raises(EstimationError):
        mle_estimate([counts(0, 0, 0, discarded=10)])
    with pytest.raises(EstimationError):
        mle_estimate([])


def test_mle_noiseless_exactness_on_grid_points():
    grid = PosteriorGrid.uniform(0.001)
    for k in RNG.choice(np.arange(2, 999), size=50, replace=False):
        theta = float(grid.thetas[k])
        data = [exact_counts(theta, d, 100_000) for d in range(8)]
        est = mle_estimate(data, epsilon=0.001)
        assert abs(est.theta_hat - theta) < 1e-12, k


# ------------------------------------------------------------------ crt_solve

def test_crt_solve_examples():
    assert crt_solve(1, 3, 4, 5) == 4
    assert crt_solve(0, 3, 0, 5) == 0
    # oracle: brute-force scan
    expected = next(v for v in range(13 * 15) if v % 13 == 5 and v % 15 == 7)
    assert expected == 187
    assert crt_solve(5, 13, 7, 15) == 187


def test_crt_solve_round_trip():
    pairs = [(3, 5), (5, 7), (7, 9), (9, 11), (11, 13), (13, 15)]
    for _ in range(1000):
        n1, n2 = pairs[RNG.integers(len(pairs))]
        v = int(RNG.integers(0, n1 * n2))
        assert crt_solve(v % n1, n1, v % n2, n2) == v


def test_crt_solve_rejects_non_coprime():
    with pytest.raises(ValueError):
        crt_solve(1, 6, 2, 9)


# -------------------------------------------------------------- crt estimator

def test_crt_worked_example_d2():
    theta = 2 * math.pi / 15
    p_d = math.sin(2 * math.pi / 3) ** 2
    p_dm1 = math.sin(2 * math.pi / 5) ** 2
    # oracle: brute-force over every extended candidate pair and the step-6
    # selector confirms v = 2 is reachable and optimal
    best = None
    for d1, d2 in EXTENDED_OFFSETS:
        l = (6 / math.pi) * math.asin(math.sqrt(p_d))
        h = (10 / math.pi) * math.asin(math.sqrt(p_dm1))
        s1 = 1 if math.sin(6 * theta) >= 0 else -1
        s2 = 1 if math.sin(10 * theta) >= 0 else -1
        v = crt_solve((round(s2 * l / 2) + d1) % 3, 3, (round(s1 * h / 2) + d2) % 5, 5)
        v = min(v, 15 - v)
        err = abs(math.sin(v * math.pi / 15) ** 2 - math.sin(theta) ** 2)
        if best is None or (err, v) < best:
            best = (err, v)
    assert best[1] == 2

    est_theta, context = crt_reconstruct(p_d, p_dm1, theta, 2)
    assert abs(est_theta - theta) < 1e-12
    assert context.modulus == 15


@pytest.mark.parametrize("d_max", range(2, 8))
def test_crt_exact_recovery_on_every_grid_angle(d_max):
    modulus = 4 * d_max * d_max - 1
    for v in range(0, (modulus + 1) // 2):
        theta = v * math.pi / modulus
        p_d = math.sin((2 * d_max + 1) * theta) ** 2
        p_dm1 = math.sin((2 * d_max - 1) * theta) ** 2
        est_theta, _ = crt_reconstruct(p_d, p_dm1, theta, d_max)
        assert abs(est_theta - theta) < 1e-9, (d_max, v)


@pytest.mark.parametrize("d_max", range(2, 8))
def test_crt_off_grid_error_within_one_grid_step(d_max):
    modulus = 4 * d_max * d_max - 1
    for theta in RNG.uniform(0.0, math.pi / 2, 500):
        p_d = math.sin((2 * d_max + 1) * theta) ** 2
        p_dm1 = math.sin((2 * d_max - 1) * theta) ** 2
        est_theta, _ = crt_reconstruct(p_d, p_dm1, theta, d_max)
        assert abs(est_theta - theta) <= math.pi / modulus + 1e-12


def test_crt_estimate_from_counts_and_oracle_bill():
    theta = 2 * math.pi / 15
    mle_low = Estimate.from_theta(theta, oracle_calls=500 * (1 + 3 + 5), algorithm="mle")
    c_d = exact_counts(theta, 2, 500)
    c_dm1 = exact_counts(theta, 1, 500)
    est = crt_estimate(c_d, c_dm1, mle_low, 2)
    assert est.oracle_calls == 500 * 9 + 500 * 5 + 500 * 3
    assert est.algorithm == "crt"
    assert abs(est.p_hat - math.sin(est.theta_hat) ** 2) < 1e-12
    assert est.diagnostics["context"].n1 == 3


def test_crt_estimate_requires_kept_shots():
    mle_low = Estimate.from_theta(0.3, oracle_calls=100, algorithm="mle")
    with pytest.raises(EstimationError):
        crt_estimate(counts(2, 0, 0, 500), counts(1, 10, 10), mle_low, 2)


def test_crt_rejects_small_depth():
    with pytest.raises(ValueError):
        crt_reconstruct(0.5, 0.5, 0.3, 1)


# --------------------------------------------------------------------- hybrid

def hybrid_from_values(p0, q0, threshold_gap, beta=1.0):
    mle_low = Estimate.from_theta(math.asin(math.sqrt(p0)), 100, "mle")
    crt = Estimate.from_theta(math.asin(math.sqrt(q0)), 300, "crt")
    cal = HybridCalibration(mle_avg_depth2=threshold_gap, crt_exact_at_d=0.0,
                            beta_hybrid=beta)
    return hybrid_estimate(mle_low, crt, cal)


def test_hybrid_keeps_crt_when_close():
    est = hybrid_from_values(0.30, 0.31, threshold_gap=0.05)
    assert est.diagnostics["branch"] == "crt"
    assert abs(est.p_hat - 0.31) < 1e-12


def test_hybrid_falls_back_when_far():
    est = hybrid_from_values(0.30, 0.60, threshold_gap=0.05)
    assert est.diagnostics["branch"] == "mle"
    assert abs(est.p_hat - 0.30) < 1e-12


def test_hybrid_zero_beta_always_falls_back():
    est = hybrid_from_values(0.30, 0.300001, threshold_gap=0.05, beta=0.0)
    assert est.diagnostics["branch"] == "mle"


def test_hybrid_uses_crt_oracle_bill():
    est = hybrid_from_values(0.30, 0.31, threshold_gap=0.05)
    assert est.oracle_calls == 300


def test_hybrid_dominates_crt_with_outlier_mixture():
    # mimic the failure mode: a fraction of CRT outputs replaced by junk
    rng = np.random.default_rng(99)
    thetas = rng.uniform(0.0, math.pi / 2, 400)
    cal = HybridCalibration(mle_avg_depth2=0.01, crt_exact_at_d=0.002, beta_hybrid=4.0)
    crt_errs, hybrid_errs = [], []
    for theta in thetas:
        p_true = math.sin(theta) ** 2
        p0 = min(max(p_true + rng.normal(0, 0.01), 0.0), 1.0)
        if rng.random() < 0.3:
            q_theta = rng.uniform(0.0, math.pi / 2)
        else:
            q_theta = theta
        mle_low = Estimate.from_theta(math.asin(math.sqrt(p0)), 100, "mle")
        crt = Estimate.from_theta(q_theta, 300, "crt")
        est = hybrid_estimate(mle_low, crt, cal)
        crt_errs.append(abs(crt.p_hat - p_true))
        hybrid_errs.append(abs(est.p_hat - p_true))
    assert np.mean(hybrid_errs) <= np.mean(crt_errs)


def test_calibration_validation():
    with pytest.raises(ValueError):
        HybridCalibration(mle_avg_depth2=-0.1, crt_exact_at_d=0.0)
    cal = HybridCalibration(mle_avg_depth2=0.02, crt_exact_at_d=0.005, beta_hybrid=2.0)
    assert abs(cal.threshold - 0.03) < 1e-12
