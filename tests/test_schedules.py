"""Power-law schedules, the noisy Fisher proxy, the exponent optimizer and the subsample."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lowdepth_ae.harness import ExperimentConfig, _draw
from lowdepth_ae.noise import CorrelatedNoise, DepthCounts, NoiseModel, sample_noisy_shots
from lowdepth_ae.schedules import (InfeasibleScheduleError, fisher_noisy,
                                   optimize_exponent, power_law_schedule)

ZERO_GAMMA = (0.0,) * 8


def subsample_without_replacement(counts: DepthCounts, n_target: int,
                                  rng: np.random.Generator) -> DepthCounts:
    """Hypergeometric draw of ``n_target`` shots from the kept pool.

    The reference for the power-law subsample that ``harness._draw`` takes:
    the good/bad composition follows the hypergeometric law of drawing
    without replacement from the recorded measurements.
    """
    if n_target < 0:
        raise ValueError("n_target must be nonnegative")
    if n_target > counts.kept:
        raise ValueError(f"cannot draw {n_target} shots from a pool of {counts.kept}")
    if n_target == 0:
        return DepthCounts(depth=counts.depth, n_good=0, n_bad=0)
    n_good = int(rng.hypergeometric(counts.n_good, counts.n_bad, n_target))
    return DepthCounts(depth=counts.depth, n_good=n_good, n_bad=n_target - n_good)


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


def test_a_nan_target_or_exponent_is_rejected_by_name():
    # the target came back as infeasible "eps=nan", and the exponent died in
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="^target_eps must be a finite positive number"):
        optimize_exponent(math.nan, 500, 7, ZERO_GAMMA)
    with pytest.raises(ValueError, match="^nu must be a finite number"):
        power_law_schedule(math.nan, 10, 2)


def test_optimizer_raises_when_infeasible():
    with pytest.raises(InfeasibleScheduleError):
        optimize_exponent(1e-9, 500, 7, ZERO_GAMMA)


@pytest.mark.parametrize("target", [1e-300, 5e-324, 7e-155])
def test_optimizer_calls_a_target_past_float_range_infeasible(target):
    # target ** -2 overflowed: OverflowError killed the whole run
    with pytest.raises(InfeasibleScheduleError, match="needs Fisher inf"):
        optimize_exponent(target, 500, 7, ZERO_GAMMA)


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


@settings(max_examples=200, deadline=None)
@given(n_shots=st.integers(1, 60), max_depth=st.integers(0, 5),
       leak=st.sampled_from([0.0, 0.3, 0.8]),
       correlation=st.sampled_from([None, CorrelatedNoise(0.05, 4.0)]),
       plan=st.lists(st.integers(0, 90), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(n_shots=40, max_depth=3, leak=0.8, correlation=None, plan=[0, 3, 90, 40, 0, 0], seed=1)
@example(n_shots=40, max_depth=3, leak=0.8, correlation=CorrelatedNoise(0.05, 4.0),
         plan=[0, 3, 90, 40, 0, 0], seed=2)
def test_draw_subsamples_as_the_reference_chain(n_shots, max_depth, leak, correlation, plan,
                                               seed):
    # plan entries of 0, below the kept shots and at or above them (clipped)
    noise = NoiseModel(gamma_by_depth=(0.1,) * 6, leak_prob=leak, correlation=correlation)
    config = ExperimentConfig(n_shots=n_shots, max_depth=max_depth, noise=noise,
                              algorithms=("powerlaw",))
    plan = tuple(plan[:max_depth + 1])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.6, 0.8, 0.0, 0.0])
    # the pool from one generator, the subsample from another
    fast, slow, fast_sub, slow_sub = (np.random.default_rng([seed, k]) for k in (0, 0, 1, 1))
    theta, pool_tallies, subsampled = _draw(config, (x, y), fast, plan, fast_sub)
    pool = [sample_noisy_shots(theta, d, n_shots, noise, slow) for d in range(max_depth + 1)]
    reference = [subsample_without_replacement(counts, min(m, counts.kept), slow_sub)
                 for counts, m in zip(pool, plan)]
    assert pool_tallies == [n for counts in pool for n in counts[1:]]
    assert subsampled == [n for counts in reference for n in counts[1:]]
    assert all(type(n) is int for n in subsampled)
    # the same number of draws from each
    assert (fast.random(), fast_sub.random()) == (slow.random(), slow_sub.random())
