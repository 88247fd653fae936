"""Direct, MLE, CRT and hybrid estimators against independent oracles."""
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdepth_ae import estimators
from lowdepth_ae.estimators import (EXTENDED_OFFSETS, CrtReadings, Estimate,
                                    EstimationError, HybridCalibration,
                                    bayesian_update, crt_columns,
                                    crt_reconstruct, crt_solve,
                                    direct_estimate, hybrid_fallback,
                                    log_likelihood_rows, mle_estimate, sin_squared)
from lowdepth_ae.noise import DepthCounts, NoiseModel, effective_eta

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


def test_direct_rejects_counts_of_an_amplified_circuit():
    # depth-3 counts gave theta = pi/4, the amplified circuit's angle, and 140 calls
    with pytest.raises(ValueError, match="^counts.depth must be 0, got 3"):
        direct_estimate(counts(3, 10, 10))
    assert direct_estimate(counts(0, 10, 10)).oracle_calls == 20


# ----------------------------------------------------------------- posterior

def grid(epsilon):
    return np.pi * np.arange(round(1 / epsilon)) * epsilon / 2.0


def tallies(pools, depths):
    """The (trials, depths, 3) good/bad/discarded array of lists of counts."""
    return np.array([[(c.n_good, c.n_bad, c.n_discarded) for c in pool] for pool in pools],
                    dtype=np.int64).reshape(len(pools), len(depths), 3)


def per_trial(result, depths):
    """An MLE pass as one {depth: Estimate} dict per trial, or the trial's failure reason."""
    return [reason or {d: Estimate.from_theta(float(th), int(c), "mle")
                       for d, th, c in zip(depths, theta, calls) if not math.isnan(th)}
            for theta, calls, reason in zip(result.theta, result.calls, result.reason)]


def mle(counts_by_depth, epsilon=0.001, noise=None):
    """One trial's MLE pass, raising the reason when it has no estimate."""
    depths = [c.depth for c in counts_by_depth]
    (result,) = per_trial(mle_estimate(tallies([counts_by_depth], depths), depths, epsilon,
                                       noise), depths)
    if isinstance(result, str):
        raise EstimationError(result)
    return result


def test_update_with_zero_counts_is_identity():
    thetas = grid(0.01)
    log_post = RNG.normal(size=thetas.size)
    updated = bayesian_update(log_post, log_likelihood_rows(thetas, 3), 0, 0)
    assert np.array_equal(updated, log_post)


def test_update_single_good_shot_shapes_like_sin_squared():
    thetas = grid(0.01)
    updated = bayesian_update(np.zeros_like(thetas), log_likelihood_rows(thetas, 0), 1, 0)
    assert updated[0] == -np.inf  # p = 0 at theta = 0: excluded, not clamped
    assert np.allclose(updated[1:], np.log(np.sin(thetas[1:]) ** 2), atol=1e-12)


def test_sin_squared_equals_the_scalar_square_bit_for_bit():
    # np.sin(thetas) ** 2 and math.sin(theta) * math.sin(theta) each passed
    # every other test; both square by one multiplication, which rounds
    # differently from Python's ** 2 at a few grid points
    thetas = np.concatenate([grid(1e-3), grid(1e-4)])
    reference = np.array([math.sin(theta) ** 2 for theta in thetas.tolist()])
    assert sin_squared(thetas).view(np.int64).tolist() == reference.view(np.int64).tolist()
    assert (np.sin(thetas) ** 2 != reference).any()


def test_update_zero_count_at_impossible_outcome_adds_nothing():
    # all bad at depth 0: cos^2 vanishes nowhere on [0, pi/2), and the zero
    # good count must not bring in 0 * log(sin^2 0) = nan at theta = 0
    thetas = grid(0.01)
    updated = bayesian_update(np.zeros_like(thetas), log_likelihood_rows(thetas, 0), 0, 5)
    assert updated[0] == 0.0
    assert np.all(np.isfinite(updated))


def test_update_fully_depolarized_is_identity():
    # p = 1/2 at every angle: a constant shift, the same normalized posterior
    thetas = grid(0.01)
    model = NoiseModel(gamma_by_depth=(0.0, 500.0, 500.0, 500.0))
    updated = bayesian_update(np.zeros_like(thetas), log_likelihood_rows(thetas, 2, model),
                              40, 60)
    assert np.allclose(updated, 100 * math.log(0.5), atol=1e-9)


def test_update_of_a_stack_updates_each_row_with_its_own_counts():
    thetas = grid(0.01)
    rows = log_likelihood_rows(thetas, 1)
    stack = RNG.normal(size=(3, thetas.size))
    updated = bayesian_update(stack, rows, np.array([0, 4, 2]), np.array([3, 0, 5]))
    for i, (good, bad) in enumerate([(0, 3), (4, 0), (2, 5)]):
        assert np.array_equal(updated[i], bayesian_update(stack[i], rows, good, bad))


def masked_update(log_post, rows, n_good, n_bad):
    """The update with every product masked by its count: the reference for the unmasked path."""
    log_p1, log_p0 = rows
    n_good, n_bad = np.asarray(n_good)[..., None], np.asarray(n_bad)[..., None]
    logl = np.multiply(n_good, log_p1, out=np.zeros_like(log_post), where=n_good > 0)
    logl += np.multiply(n_bad, log_p0, out=np.zeros_like(log_post), where=n_bad > 0)
    return log_post + logl


@settings(max_examples=100, deadline=None)
@given(trials=st.integers(1, 5), epsilon=st.sampled_from([1.0, 0.1, 0.01]),
       depth=st.integers(0, 7), noisy=st.booleans(), seed=st.integers(0, 2 ** 16),
       zero=st.sampled_from([None, "good", "bad"]))
def test_unmasked_update_equals_the_masked_one(trials, epsilon, depth, noisy, seed, zero):
    # the plain rows are -inf at theta = 0 (and log(1 - p1) where p1 rounds
    # to 1): a positive count sends the point to -inf, a zero count adds 0
    rng = np.random.default_rng(seed)
    thetas = grid(epsilon)
    rows = log_likelihood_rows(thetas, depth, NoiseModel.linear_ramp(7) if noisy else None)
    log_post = -rng.exponential(50.0, size=(trials, thetas.size))
    n_good, n_bad = rng.integers(1, 500, size=(2, trials))
    if zero is not None:
        (n_good if zero == "good" else n_bad)[0] = 0
    expected = masked_update(log_post, rows, n_good, n_bad)
    assert np.array_equal(bayesian_update(log_post, rows, n_good, n_bad), expected)
    if zero is None:
        with np.errstate(invalid="ignore"):
            plain = log_post + (n_good[:, None] * rows[0] + n_bad[:, None] * rows[1])
        assert np.array_equal(expected, plain)
        # positive counts give the same bits down either path of the engine's update
        for positive in (False, True):
            assert np.array_equal(estimators._add_counts(log_post, *rows, n_good[:, None],
                                                         n_bad[:, None], positive), expected)
    elif not noisy:
        assert (expected[0, 0] == -np.inf) == (zero == "bad")  # 0 x log 0 adds 0


def test_update_underflow_raises():
    # epsilon = 1: the grid is theta = 0 alone, where a good shot is impossible
    with pytest.raises(EstimationError):
        mle([counts(0, 5, 5)], epsilon=1.0)


# ------------------------------------------------------------------------ mle

def test_mle_recovers_angle_from_exact_tallies():
    theta = math.pi / 8
    data = [exact_counts(theta, d, 500) for d in range(8)]
    est = mle(data, epsilon=0.001)[7]
    assert abs(est.theta_hat - theta) <= 0.001 * math.pi / 2 + 1e-12
    assert abs(est.p_hat - math.sin(est.theta_hat) ** 2) < 1e-12


def test_mle_all_good_lands_on_top_of_grid():
    est = mle([counts(0, 500, 0)], epsilon=0.001)[0]
    assert est.theta_hat == grid(0.001)[-1]


def test_mle_all_bad_lands_on_zero():
    est = mle([counts(0, 0, 500)], epsilon=0.001)[0]
    assert est.theta_hat == 0.0


def test_mle_oracle_accounting_includes_discards():
    data = [counts(0, 400, 50, discarded=50), counts(3, 100, 350, discarded=50)]
    by_depth = mle(data)
    assert by_depth[0].oracle_calls == 500
    assert by_depth[3].oracle_calls == 500 * 1 + 500 * 7


def test_mle_requires_kept_shots():
    with pytest.raises(EstimationError):
        mle([counts(0, 0, 0, discarded=10)])
    with pytest.raises(EstimationError):
        mle([])
    empty = mle_estimate(np.zeros((0, 2, 3), dtype=np.int64), [0, 1])
    assert empty.theta.shape == empty.calls.shape == (0, 2) and empty.reason.shape == (0,)


@pytest.mark.parametrize("entry", [(5, -3, 0), (-1, 4, 0), (5, 3, -2)])
def test_mle_rejects_negative_counts(entry):
    # the pruning is exact for counts >= 0 alone: a negative count times a
    # -inf row is +inf, above every bound
    with pytest.raises(ValueError, match="counts"):
        mle_estimate([[entry]], [0], 0.01)


def test_estimators_reject_a_depth_that_is_not_an_integer():
    # each ran at a truncated or rounded depth: 1.5 used the rows of
    # multiplier 4, and depth 0.5 gave theta 0.4398 billed as depth 0
    with pytest.raises(ValueError, match="^depth must be a nonnegative integer, got 1.5"):
        log_likelihood_rows(grid(0.01), 1.5)
    for depth in (0.5, True):
        with pytest.raises(ValueError, match=r"^depths\[0\] must be a nonnegative integer"):
            mle_estimate([[[30, 20, 0]]], [depth], 0.01)
    same = mle_estimate([[[30, 20, 0]]], [np.int64(0)], 0.01)
    assert same.theta.tolist() == mle_estimate([[[30, 20, 0]]], [0], 0.01).theta.tolist()


@pytest.mark.parametrize("d_max", [2.5, 3.9, True, np.float64(3.0), [3.0], np.array([True])])
def test_crt_rejects_a_maximum_depth_that_is_not_an_integer(d_max):
    # 2.5 and 3.9 were cast to the d_max = 2 and 3 results, True to 1
    with pytest.raises(ValueError, match="^d_max must be an integer >= 2"):
        crt_columns([0.3], [0.4], [0.5], d_max)
    if np.ndim(d_max) == 0:
        with pytest.raises(ValueError, match="^d_max must be an integer >= 2"):
            crt_reconstruct(0.3, 0.4, 0.5, d_max)
    assert crt_reconstruct(0.3, 0.4, 0.5, np.int64(3)) == crt_reconstruct(0.3, 0.4, 0.5, 3)
    columns = [crt_columns([0.3], [0.4], [0.5], d).theta.tolist() for d in ([3], np.uint8([3]))]
    assert columns[0] == columns[1]


def test_mle_rejects_negative_depths():
    # depth -1 would bill -1 oracle calls per shot
    with pytest.raises(ValueError, match="depths"):
        mle_estimate([[(5, 3, 0)]], [-1], 0.01)
    with pytest.raises(ValueError, match="depths"):
        mle_estimate([[(5, 3, 0), (5, 3, 0)]], [0, -2], 0.01, last_only=True)


def test_mle_needs_the_same_depths_for_every_trial():
    # one (good, bad, discarded) entry per listed depth, for every trial
    with pytest.raises(ValueError):
        mle_estimate(np.ones((2, 1, 3), dtype=np.int64), [0, 1])
    with pytest.raises(ValueError):
        mle_estimate(np.ones((2, 2, 2), dtype=np.int64), [0, 1])


def test_mle_noiseless_exactness_on_grid_points():
    thetas = grid(0.001)
    for k in RNG.choice(np.arange(2, 999), size=50, replace=False):
        theta = float(thetas[k])
        data = [exact_counts(theta, d, 100_000) for d in range(8)]
        est = mle(data, epsilon=0.001)[7]
        assert abs(est.theta_hat - theta) < 1e-12, k


@st.composite
def depth_ordered_counts(draw):
    depths = sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=8)))
    entries = []
    for d in depths:
        good, bad, discarded = (draw(st.integers(0, 40)) for _ in range(3))
        if draw(st.booleans()):
            good = bad = 0  # no kept shot at this depth
        entries.append(counts(d, good, bad, discarded))
    return entries


@settings(max_examples=150, deadline=None)
@given(data=depth_ordered_counts(), epsilon=st.sampled_from([0.5, 0.1, 0.02, 0.01]),
       noisy=st.booleans())
def test_one_pass_equals_a_fresh_pass_over_each_prefix(data, epsilon, noisy):
    noise = NoiseModel.linear_ramp(7) if noisy else None
    kept = [c.depth for c in data if c.kept]
    if not kept:
        with pytest.raises(EstimationError):
            mle(data, epsilon, noise)
        return
    by_depth = mle(data, epsilon, noise)
    assert list(by_depth) == [c.depth for c in data if c.depth >= kept[0]]
    for i, c in enumerate(data):
        if c.depth not in by_depth:
            continue
        est = by_depth[c.depth]
        prefix = data[:i + 1]
        assert est == mle(prefix, epsilon, noise)[c.depth]
        assert est.p_hat == math.sin(est.theta_hat) ** 2
        assert 0.0 <= est.p_hat <= 1.0
        assert est.oracle_calls == sum(e.shots * (2 * e.depth + 1) for e in prefix)


def scalar_mle(counts_by_depth, epsilon, noise):
    """One trial's pass, one 1-D update per entry: the reference for the chunked engine.

    Each update is checked against the per-entry arithmetic the engine used
    before likelihood rows were shared: the rows recomputed from the angles
    and a zero count skipped.
    """
    thetas = grid(epsilon)
    log_post = np.zeros_like(thetas)
    estimates, calls = {}, 0
    for c in counts_by_depth:
        m = 2 * c.depth + 1
        if noise is None:
            p1 = np.sin(m * thetas) ** 2
        else:
            p1 = (1.0 - (1.0 - effective_eta(noise, c.depth)) * np.cos(2 * m * thetas)) / 2.0
        logl = 0.0
        with np.errstate(divide="ignore"):
            if c.n_good:
                logl = logl + c.n_good * np.log(p1)
            if c.n_bad:
                logl = logl + c.n_bad * np.log(1.0 - p1)
        updated = bayesian_update(log_post, log_likelihood_rows(thetas, c.depth, noise),
                                  c.n_good, c.n_bad)
        log_post = log_post + logl
        assert np.array_equal(updated, log_post)
        calls += c.shots * m
        if estimates or c.kept:
            k = int(np.argmax(log_post))
            if log_post[k] == -np.inf:
                return "posterior underflow: counts are inconsistent with the grid"
            estimates[c.depth] = Estimate.from_theta(float(thetas[k]), calls, "mle")
    return estimates or "no kept shots at any depth"


@st.composite
def trial_batches(draw):
    depths = sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=8)))
    pools = []
    for _ in range(draw(st.integers(1, 9))):
        pool = []
        for d in depths:
            good, bad, discarded = (draw(st.integers(0, 40)) for _ in range(3))
            if draw(st.integers(0, 3)) == 0:
                good = bad = 0  # no kept shot at this depth
            pool.append(counts(d, good, bad, discarded))
        pools.append(pool)
    return pools


@settings(max_examples=200, deadline=None)
@given(pools=trial_batches(), epsilon=st.sampled_from([1.0, 0.5, 0.1, 0.02, 0.01]),
       noisy=st.booleans(), chunk=st.integers(1, 4))
def test_chunked_engine_equals_a_scalar_pass_per_trial(pools, epsilon, noisy, chunk):
    # chunks of `chunk` trials, so most batches cross a chunk boundary; at
    # epsilon 1 and 1/2 a good count at theta = 0 underflows the posterior
    noise = NoiseModel.linear_ramp(7) if noisy else None
    budget = chunk * estimators.CELL_BYTES * round(1 / epsilon)
    depths = [c.depth for c in pools[0]]
    with mock.patch.object(estimators, "CHUNK_BYTES", budget):
        result = mle_estimate(tallies(pools, depths), depths, epsilon, noise)
    assert per_trial(result, depths) == [scalar_mle(p, epsilon, noise) for p in pools]


# the rows are constant where gamma is 500 (p = 1/2 exactly): every angle ties there
ENGINE_NOISES = {"plain": None, "ramp": NoiseModel.linear_ramp(7),
                 "flat": NoiseModel(gamma_by_depth=(500.0,) * 8),
                 "flat-late": NoiseModel(gamma_by_depth=(0.035, 0.08) + (500.0,) * 6)}


@st.composite
def peaked_batches(draw):
    """Trials whose tallies follow an angle: ``kept sin^2((2d+1) theta)`` good
    shots give or take two, 1 to 500 shots a depth, theta = 0 (a ``-inf``
    column of the plain rows once a good shot is counted) among the angles,
    and leading or scattered depths that kept no shot."""
    depths = sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=8)))
    lead = draw(st.integers(0, len(depths)))
    pools = []
    for _ in range(draw(st.integers(1, 6))):
        theta = draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi / 2)))
        shots = draw(st.sampled_from([1, 8, 40, 500]))
        pool = []
        for i, d in enumerate(depths):
            kept = 0 if i < lead or draw(st.integers(0, 5)) == 0 else draw(st.integers(1, shots))
            p = math.sin((2 * d + 1) * theta) ** 2
            good = min(kept, max(0, round(kept * p) + draw(st.integers(-2, 2))))
            pool.append(counts(d, good, kept - good, shots - kept))
        pools.append(pool)
    return pools


# 1009 and 101 points pad the top level with -inf points (to 1,100 and 110);
# 37 points are the top level
ENGINE_EPSILONS = [1e-3, 1e-4, 1 / 1009, 1 / 101, 1 / 37, 0.5, 1.0]


@settings(deadline=None)
@given(pools=peaked_batches(), epsilon=st.sampled_from(ENGINE_EPSILONS),
       noise=st.sampled_from(sorted(ENGINE_NOISES)), chunk=st.integers(1, 3))
def test_pruned_engine_equals_a_scalar_pass_per_trial(pools, epsilon, noise, chunk):
    # batches of a few rows split every level below the top, and batches of
    # one to a few trials split the top level
    depths = [c.depth for c in pools[0]]
    budget = chunk * estimators.CELL_BYTES * 2 * estimators.BRANCH
    with mock.patch.object(estimators, "CHUNK_BYTES", budget):
        result = mle_estimate(tallies(pools, depths), depths, epsilon, ENGINE_NOISES[noise])
    assert per_trial(result, depths) == [scalar_mle(p, epsilon, ENGINE_NOISES[noise])
                                         for p in pools]


@settings(deadline=None)
@given(pools=peaked_batches(), epsilon=st.sampled_from(ENGINE_EPSILONS),
       noise=st.sampled_from(sorted(ENGINE_NOISES)), chunk=st.integers(1, 3))
def test_a_last_only_pass_equals_the_last_entry_of_a_full_pass(pools, epsilon, noise, chunk):
    # leading depths without a kept shot, underflow at epsilon 1 and 1/2,
    # -inf columns at theta = 0, ties under the flat noises, split batches
    depths = [c.depth for c in pools[0]]
    data = tallies(pools, depths)
    with mock.patch.object(estimators, "CHUNK_BYTES",
                           chunk * estimators.CELL_BYTES * 2 * estimators.BRANCH):
        full = mle_estimate(data, depths, epsilon, ENGINE_NOISES[noise])
        last = mle_estimate(data, depths, epsilon, ENGINE_NOISES[noise], last_only=True)
    assert np.array_equal(last.theta[:, -1], full.theta[:, -1], equal_nan=True)
    assert np.isnan(last.theta[:, :-1]).all()
    assert np.array_equal(last.calls, full.calls)
    assert last.reason.tolist() == full.reason.tolist()


@pytest.mark.parametrize("noise", ["plain", "flat"])
def test_one_engine_runs_on_grids_around_the_point_top_level(noise):
    # up to BRANCH**2 points the top level is the points; above it the top
    # level is blocks, and 101, 1,009 and 2,003 points pad the table with
    # -inf to whole top-level blocks
    rng = np.random.default_rng(7)
    depths = list(range(8))
    pools = [[exact_counts(theta, d, 500) for d in depths] for theta in rng.uniform(0, 1.5, 5)]
    for size, padded in [(100, 100), (101, 110), (1009, 1100), (2003, 2100)]:
        with mock.patch.object(estimators, "_levels", wraps=estimators._levels) as levels:
            result = mle_estimate(tallies(pools, depths), depths, 1 / size, ENGINE_NOISES[noise])
        table = levels.call_args.args[0]
        assert table.shape == (len(depths), 2, padded)
        assert np.array_equal(table[..., :size],
                              [log_likelihood_rows(grid(1 / size), d, ENGINE_NOISES[noise])
                               for d in depths])
        assert (table[..., size:] == -np.inf).all()
        assert per_trial(result, depths) == [scalar_mle(p, 1 / size, ENGINE_NOISES[noise])
                                             for p in pools]


@pytest.mark.parametrize("noise", ["plain", "ramp"])
@pytest.mark.parametrize("size, n_levels", [(101, 2), (1009, 3), (2003, 3), (10 ** 4, 3),
                                            (10 ** 5, 4)])
def test_level_maxima_are_the_block_maxima_and_first_points(size, n_levels, noise):
    # the argmax properties cannot see a block maximum that is too high: it
    # only keeps more blocks in play
    depths = [0, 3, 7]
    pools = [[exact_counts(0.7, d, 500) for d in depths]]
    with mock.patch.object(estimators, "_levels", wraps=estimators._levels) as levels:
        mle_estimate(tallies(pools, depths), depths, 1 / size, ENGINE_NOISES[noise])
    table = levels.call_args.args[0]  # padded with -inf to whole top-level blocks
    levels = estimators._levels(table)
    assert len(levels) == n_levels
    assert levels[0].shape[-2] == 1 and levels[0].shape[-1] <= estimators.BRANCH ** 2
    assert np.array_equal(levels[-1].reshape(table.shape), table)
    for level in levels[:-1]:
        rows = level.reshape(level.shape[:3] + (-1,))  # [j, :, (max, first), block]
        width = table.shape[2] // rows.shape[-1]
        assert np.array_equal(rows[:, :, 0],
                              table.reshape(table.shape[:2] + (-1, width)).max(-1))
        assert np.array_equal(rows[:, :, 1], table[..., ::width])


def test_pruned_engine_keeps_no_point_in_play_before_the_first_kept_shot():
    # two depths without a kept shot leave every angle at 0, tied: were they
    # held to the lower bound, all 10^4 points would be swept at depth 0
    data = [counts(d, 0, 0, 500) for d in (0, 1)] + [exact_counts(0.7, d, 500)
                                                     for d in range(2, 8)]
    with mock.patch.object(estimators, "_sweep", wraps=estimators._sweep) as sweep:
        assert mle(data, epsilon=1e-4) == scalar_mle(data, 1e-4, None)
    # rows x children of the point level, the table split as (..., parents, children)
    points = sum(len(c.args[2]) * c.args[0].shape[-1] for c in sweep.call_args_list
                 if c.args[0].ndim == 4)
    assert 0 < points < 1000


def test_pruned_engine_scratch_does_not_grow_with_trials():
    # 10^5 points: the table and block maxima, plus one batch of blocks
    rng = np.random.default_rng(8)
    depths, epsilon = list(range(8)), 1e-5
    peaks = []
    for n_trials in (20, 200):
        pools = [[exact_counts(theta, d, 500) for d in depths]
                 for theta in rng.uniform(0, 1.5, n_trials)]
        data = tallies(pools, depths)
        tracemalloc.start()
        try:
            mle_estimate(data, depths, epsilon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    table = len(depths) * 2 * round(1 / epsilon) * 8
    assert peaks[0] < 1.25 * table + 4 * estimators.CHUNK_BYTES
    assert peaks[1] - peaks[0] < estimators.CHUNK_BYTES


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
def test_likelihood_rows_are_built_once_per_depth_per_call(chunk, noisy):
    # nine trials in chunks of `chunk` trials share one likelihood table
    rng = np.random.default_rng(chunk)
    depths, epsilon = [0, 1, 2, 5], 0.01
    noise = NoiseModel.linear_ramp(7) if noisy else None
    pools = [[counts(d, *map(int, rng.integers(0, 20, 3))) for d in depths] for _ in range(9)]
    expected = [scalar_mle(p, epsilon, noise) for p in pools]
    with mock.patch.object(estimators, "CHUNK_BYTES", chunk * estimators.CELL_BYTES * 100), \
            mock.patch.object(estimators, "log_likelihood_rows",
                              wraps=log_likelihood_rows) as rows:
        result = mle_estimate(tallies(pools, depths), depths, epsilon, noise)
    assert per_trial(result, depths) == expected
    assert [c.args[1:] for c in rows.call_args_list] == [(d, noise) for d in depths]


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

def _sign(x: float) -> int:
    return 1 if x >= 0 else -1


def scalar_crt_reconstruct(p_d, p_dm1, theta_ref, d_max):
    """The CRT estimator one row at a time, in plain Python: the reference for
    :func:`crt_columns` and :func:`crt_reconstruct`."""
    if d_max < 2:
        raise ValueError("CRT needs maximum depth >= 2")
    n1, n2 = 2 * d_max - 1, 2 * d_max + 1
    modulus = n1 * n2
    l = (2 * n1 / math.pi) * math.asin(math.sqrt(min(max(p_d, 0.0), 1.0)))
    h = (2 * n2 / math.pi) * math.asin(math.sqrt(min(max(p_dm1, 0.0), 1.0)))
    s1 = _sign(math.sin(2 * n1 * theta_ref))
    s2 = _sign(math.sin(2 * n2 * theta_ref))
    base1, base2 = round(s2 * l / 2), round(s1 * h / 2)
    inverse = pow(n1, -1, n2)  # crt_solve of each offset pair, sharing one inverse
    candidates = [r1 + n1 * ((r2 - r1) * inverse % n2) for r1, r2 in
                  [((base1 + d1) % n1, (base2 + d2) % n2) for d1, d2 in EXTENDED_OFFSETS]]
    p0 = math.sin(theta_ref) ** 2
    folded = [min(v, modulus - v) for v in candidates]  # sin^2 cannot tell v from modulus - v
    best = min([(abs(math.sin(f * math.pi / modulus) ** 2 - p0), f) for f in folded])
    theta = best[1] * math.pi / modulus
    return theta, CrtReadings(theta, math.sin(theta) ** 2, l, h, s1, s2)


def assert_rows_match_the_reference(rows):
    """crt_columns over ``rows`` and crt_reconstruct of each row equal the
    reference bit for bit, crt_reconstruct with its Python types."""
    columns = crt_columns(*(np.array(column) for column in zip(*rows)))
    for i, row in enumerate(rows):
        expected = scalar_crt_reconstruct(*row)
        got = crt_reconstruct(*row)
        assert got == expected
        assert [type(x) for x in got[1]] == [float, float, float, float, int, int]
        assert tuple(column[i] for column in columns) == expected[1]


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
    assert (context.theta, context.p_hat) == (est_theta, math.sin(est_theta) ** 2)


@pytest.mark.parametrize("d_max", range(2, 8))
def test_crt_exact_recovery_on_every_grid_angle(d_max):
    modulus = 4 * d_max * d_max - 1
    for v in range(0, (modulus + 1) // 2):
        theta = v * math.pi / modulus
        p_d = math.sin((2 * d_max + 1) * theta) ** 2
        p_dm1 = math.sin((2 * d_max - 1) * theta) ** 2
        est_theta, readings = crt_reconstruct(p_d, p_dm1, theta, d_max)
        assert abs(est_theta - theta) < 1e-9, (d_max, v)
        assert (est_theta, readings) == scalar_crt_reconstruct(p_d, p_dm1, theta, d_max)


@pytest.mark.parametrize("d_max", range(2, 8))
def test_crt_off_grid_error_within_one_grid_step(d_max):
    modulus = 4 * d_max * d_max - 1
    for theta in RNG.uniform(0.0, math.pi / 2, 500):
        p_d = math.sin((2 * d_max + 1) * theta) ** 2
        p_dm1 = math.sin((2 * d_max - 1) * theta) ** 2
        est_theta, _ = crt_reconstruct(p_d, p_dm1, theta, d_max)
        assert abs(est_theta - theta) <= math.pi / modulus + 1e-12


@st.composite
def crt_rows(draw):
    """(p_d, p_dm1, theta_ref, d_max) rows: probabilities on a shot grid with
    0 and 1 included, anchors at the fold-sign tie theta = 0 and at the
    zeros of sin(2 (2D -+ 1) theta) computed in floating point."""
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        d = draw(st.integers(2, 9))
        shots = draw(st.integers(1, 40))
        p_d, p_dm1 = (draw(st.integers(0, shots)) / shots for _ in range(2))
        n = draw(st.sampled_from([2 * d - 1, 2 * d + 1]))
        theta = draw(st.one_of(st.floats(0.0, math.pi / 2), st.just(0.0),
                               st.integers(0, n).map(lambda k, n=n: k * math.pi / (2 * n))))
        rows.append((p_d, p_dm1, theta, d))
    return rows


@settings(max_examples=100, deadline=None)
@given(rows=crt_rows())
def test_crt_columns_equal_crt_reconstruct_row_by_row(rows):
    assert_rows_match_the_reference(rows)


@pytest.mark.parametrize("d_max", [50, 300])
def test_crt_at_large_depth_equals_the_reference(d_max):
    # shot-grid probabilities with random anchors, and exact probabilities
    # of random grid angles anchored at themselves
    rng = np.random.default_rng(d_max)
    modulus = 4 * d_max * d_max - 1
    rows = [(int(g) / 500, int(b) / 500, float(theta), d_max) for g, b, theta in
            zip(rng.integers(0, 501, 10), rng.integers(0, 501, 10),
                rng.uniform(0.0, math.pi / 2, 10))]
    for v in rng.integers(0, (modulus + 1) // 2, 10).tolist():
        theta = v * math.pi / modulus
        rows.append((math.sin((2 * d_max + 1) * theta) ** 2,
                     math.sin((2 * d_max - 1) * theta) ** 2, theta, d_max))
    assert_rows_match_the_reference(rows)
    assert all(abs(scalar_crt_reconstruct(*row)[0] - row[2]) < 1e-9 for row in rows[10:])


def test_crt_columns_table_grows_with_the_depths_present():
    # a table of (D + 1) x 2 D^2 floats, a row for every depth up to D, peaked at 56 MB
    tracemalloc.start()
    try:
        crt_columns([0.3], [0.4], [0.5], [150])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_crt_at_depth_3000_evaluates_only_the_candidates_present():
    # a table of 2 D^2 squared sines per depth would hold 18 million values here
    row = (0.3, 0.4, 0.5, 3000)
    start = time.perf_counter()
    got = crt_reconstruct(*row)
    assert time.perf_counter() - start < 1.0
    assert got == scalar_crt_reconstruct(*row)


def shot_grid_rows(n, seed):
    """``n`` CRT rows of probabilities on a 40-shot grid, anchors and depths 2..9."""
    rng = np.random.default_rng(seed)
    return [(int(g) / 40, int(b) / 40, float(theta), int(d)) for g, b, theta, d in
            zip(rng.integers(0, 41, n), rng.integers(0, 41, n),
                rng.uniform(0.0, math.pi / 2, n), rng.integers(2, 10, n))]


@pytest.mark.parametrize("size", [1, 7, 39, 40, 41])
def test_crt_slices_of_any_size_equal_the_reference(size, monkeypatch):
    # 40 elements in slices of 1, 7, one short of all, all, and one past all
    monkeypatch.setattr(estimators, "CRT_CHUNK", size)
    assert_rows_match_the_reference(shot_grid_rows(40, 6))


def test_crt_columns_scratch_does_not_grow_with_the_elements():
    # the scratch above the outputs: a slice's candidates, not every element's
    # (about 460 B an element at once, 22 MB at 8,000 trials of six depths)
    rng = np.random.default_rng(4)
    scratch = []
    for n_trials in (2000, 8000):
        rates = rng.integers(0, 501, (n_trials, 8)) / 500
        args = (rates[:, 2:], rates[:, 1:-1], rng.uniform(0.0, math.pi / 2, (n_trials, 1)),
                np.arange(2, 8))
        tracemalloc.start()
        try:
            columns = crt_columns(*args)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert columns.theta.shape == (n_trials, 6)
        scratch.append(peak - current)
    assert max(scratch) < 2 * estimators.CHUNK_BYTES
    assert scratch[1] - scratch[0] < estimators.CHUNK_BYTES // 4


def test_crt_ties_toward_the_smaller_folded_value():
    # folded candidates 4 and 5 of modulus 15 tie at the smallest error here;
    # an argmin over the errors alone picked 5 pi / 15
    assert crt_columns(0.0, 0.0, 0.9389317146324906, 2).theta == 4 * math.pi / 15
    assert crt_reconstruct(0.0, 0.0, 0.9389317146324906, 2)[0] == 4 * math.pi / 15


def test_crt_columns_reject_small_depth():
    with pytest.raises(ValueError):
        crt_columns([0.5, 0.5], [0.5, 0.5], [0.3, 0.3], [2, 1])


@pytest.mark.parametrize("theta_ref", [np.nan, np.inf, -np.inf])
def test_crt_columns_reject_a_non_finite_anchor(theta_ref):
    with pytest.raises(ValueError, match="theta_ref"):
        crt_columns([0.5, 0.5], [0.5, 0.5], [0.3, theta_ref], [2, 3])
    with pytest.raises(ValueError, match="theta_ref"):
        crt_reconstruct(0.5, 0.5, theta_ref, 3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["p_d", "p_dm1"])
def test_crt_rejects_a_non_finite_probability(name, value):
    # a NaN p_d went through an invalid int cast and came out as an estimate
    fine = {"p_d": 0.3, "p_dm1": 0.3, "theta_ref": 0.4, "d_max": 3}
    row = {**fine, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        crt_columns(**{k: [fine[k], row[k]] for k in fine})
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        crt_reconstruct(**row)


def test_crt_rejects_small_depth():
    with pytest.raises(ValueError):
        crt_reconstruct(0.5, 0.5, 0.3, 1)


# --------------------------------------------------------------------- hybrid

def falls_back(p0, q0, threshold_gap, beta=1.0):
    """Whether the hybrid drops CRT probability ``q0`` for anchor probability ``p0``."""
    cal = HybridCalibration(mle_avg_depth2=threshold_gap, crt_exact_at_d=0.0,
                            beta_hybrid=beta)
    return hybrid_fallback(p0, q0, cal.threshold)


def test_hybrid_keeps_crt_when_close():
    assert not falls_back(0.30, 0.31, threshold_gap=0.05)
    assert not falls_back(0.25, 0.5, threshold_gap=0.25)  # a tie keeps CRT


def test_hybrid_falls_back_when_far():
    assert falls_back(0.30, 0.60, threshold_gap=0.05)


def test_hybrid_zero_beta_always_falls_back():
    assert falls_back(0.30, 0.300001, threshold_gap=0.05, beta=0.0)


def test_hybrid_dominates_crt_with_outlier_mixture():
    # mimic the failure mode: a fraction of CRT outputs replaced by junk
    rng = np.random.default_rng(99)
    thetas = rng.uniform(0.0, math.pi / 2, 400)
    cal = HybridCalibration(mle_avg_depth2=0.01, crt_exact_at_d=0.002, beta_hybrid=4.0)
    p_true, anchor_p, crt_p = [], [], []
    for theta in thetas:
        p_true.append(math.sin(theta) ** 2)
        p0 = min(max(p_true[-1] + rng.normal(0, 0.01), 0.0), 1.0)
        if rng.random() < 0.3:
            q_theta = rng.uniform(0.0, math.pi / 2)
        else:
            q_theta = theta
        anchor_p.append(math.sin(math.asin(math.sqrt(p0))) ** 2)
        crt_p.append(math.sin(q_theta) ** 2)
    p_true, anchor_p, crt_p = np.array(p_true), np.array(anchor_p), np.array(crt_p)
    hybrid_p = np.where(hybrid_fallback(anchor_p, crt_p, cal.threshold), anchor_p, crt_p)
    assert np.mean(np.abs(hybrid_p - p_true)) <= np.mean(np.abs(crt_p - p_true))


@pytest.mark.parametrize("field", ["mle_avg_depth2", "crt_exact_at_d", "beta_hybrid"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.1", None, True])
def test_calibration_rejects_a_value_that_is_not_a_finite_nonnegative_number(field, value):
    # a NaN or infinite value was accepted before: a NaN threshold never falls back
    values = dict(mle_avg_depth2=0.02, crt_exact_at_d=0.005, beta_hybrid=2.0)
    with pytest.raises(ValueError, match=f"^{field} must be a finite nonnegative number"):
        HybridCalibration(**{**values, field: value})


def test_calibration_validation():
    with pytest.raises(ValueError):
        HybridCalibration(mle_avg_depth2=-0.1, crt_exact_at_d=0.0)
    cal = HybridCalibration(mle_avg_depth2=0.02, crt_exact_at_d=0.005, beta_hybrid=2.0)
    assert abs(cal.threshold - 0.03) < 1e-12
