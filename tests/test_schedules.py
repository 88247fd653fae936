"""Power-law schedules, the noisy Fisher proxy and the exponent optimizer."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lowdepth_ae.schedules import (InfeasibleScheduleError, fisher_noisy,
                                   optimize_exponent, power_law_schedule,
                                   subsample_without_replacement)
from lowdepth_ae.simulator import DepthCounts

ZERO_GAMMA = (0.0,) * 8


def test_flat_schedule_at_nu_zero():
    sched = power_law_schedule(0.0, 500, 7)
    assert sched == (500,) * 8
    assert sum(sched) == 4000


def test_schedule_values_at_other_exponents():
    assert power_law_schedule(1.0, 500, 3)[1] == 1500
    assert power_law_schedule(-1.0, 500, 3)[3] == 71  # floor(500 / 7)


def test_schedule_keeps_zero_shot_depths():
    sched = power_law_schedule(-3.0, 5, 4)
    assert len(sched) == 5
    assert sched[4] == 0


def test_schedule_entries_equal_the_floor_formula():
    sched = power_law_schedule(-1.53, 500, 7)
    assert sched == tuple(math.floor(500 * (2 * d + 1) ** -1.53) for d in range(8))
    assert all(type(n) is int for n in sched)


def test_schedule_validation():
    with pytest.raises(ValueError, match="n_shots"):
        power_law_schedule(0.0, 0, 7)
    with pytest.raises(ValueError, match="max_depth"):
        power_law_schedule(0.0, 500, -1)


def test_fisher_small_cases():
    assert abs(fisher_noisy(0.0, 1, 1, ZERO_GAMMA) - 10.0) < 1e-12  # 1 + 9
    assert abs(fisher_noisy(-2.0, 1, 7, ZERO_GAMMA) - 8.0) < 1e-12  # eight unit terms


def test_fisher_deep_noise_kills_all_but_depth_zero():
    gammas = (0.0,) + (600.0,) * 7
    assert abs(fisher_noisy(0.0, 500, 7, gammas) - 500.0) < 1e-9


def test_fisher_strictly_increasing_in_nu():
    gammas = tuple(np.linspace(0.035, 0.35, 8))
    nus = np.linspace(-5, 5, 41)
    vals = [fisher_noisy(nu, 500, 7, gammas) for nu in nus]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fisher_strictly_decreasing_in_each_gamma():
    base = list(np.linspace(0.035, 0.35, 8))
    ref = fisher_noisy(-1.0, 500, 7, base)
    for d in range(8):
        bumped = list(base)
        bumped[d] += 0.05
        assert fisher_noisy(-1.0, 500, 7, bumped) < ref


def test_optimizer_matches_bisection_oracle():
    target = 0.01
    required = target ** -2
    oracle = brentq(lambda nu: fisher_noisy(nu, 500, 7, ZERO_GAMMA) - required,
                    -6.0, 6.0, xtol=1e-12)
    assert abs(oracle - (-1.5325502188644666)) < 1e-9
    nu_star = optimize_exponent(target, 500, 7, ZERO_GAMMA)
    assert abs(nu_star - oracle) <= 1e-3


def test_optimizer_constraint_binds():
    nu_star = optimize_exponent(0.01, 500, 7, ZERO_GAMMA)
    required = 0.01 ** -2
    assert fisher_noisy(nu_star, 500, 7, ZERO_GAMMA) >= required
    assert fisher_noisy(nu_star - 1e-3, 500, 7, ZERO_GAMMA) < required


def test_optimizer_returns_range_floor_when_everything_is_feasible():
    assert optimize_exponent(10.0, 500, 7, ZERO_GAMMA) == -6.0


def test_optimizer_raises_when_infeasible():
    with pytest.raises(InfeasibleScheduleError):
        optimize_exponent(1e-9, 500, 7, ZERO_GAMMA)


def test_optimizer_monotone_in_noise_scale():
    base = np.linspace(0.035, 0.35, 8)
    previous = None
    for scale in (0.5, 1.0, 2.0, 4.0):
        nu = optimize_exponent(0.01, 500, 7, tuple(scale * base))
        if previous is not None:
            assert nu > previous
        previous = nu


def test_subsample_full_pool_is_identity():
    pool = DepthCounts(depth=3, n_good=300, n_bad=200)
    out = subsample_without_replacement(pool, 500, np.random.default_rng(0))
    assert (out.n_good, out.n_bad) == (300, 200)


def test_subsample_zero_draws():
    pool = DepthCounts(depth=3, n_good=300, n_bad=200)
    out = subsample_without_replacement(pool, 0, np.random.default_rng(0))
    assert out.shots == 0
    assert out.depth == 3


def test_subsample_exceeding_pool_rejected():
    pool = DepthCounts(depth=3, n_good=30, n_bad=20, n_discarded=100)
    with pytest.raises(ValueError):
        subsample_without_replacement(pool, 51, np.random.default_rng(0))


def test_subsample_hypergeometric_moments():
    pool = DepthCounts(depth=0, n_good=300, n_bad=200)
    rng = np.random.default_rng(2024)
    draws = np.array([subsample_without_replacement(pool, 100, rng).n_good
                      for _ in range(10_000)])
    # mean 60, variance 100 * 0.6 * 0.4 * (400 / 499); 5 sigma on the mean
    var = 100 * 0.6 * 0.4 * (400 / 499)
    assert abs(draws.mean() - 60.0) <= 5 * math.sqrt(var / 10_000)


def test_subsample_deterministic_given_seed():
    pool = DepthCounts(depth=2, n_good=123, n_bad=377)
    a = subsample_without_replacement(pool, 50, np.random.default_rng(5))
    b = subsample_without_replacement(pool, 50, np.random.default_rng(5))
    assert a == b
