"""Effective depolarizing model: rates, probabilities and shot generation."""
import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdepth_ae.noise import (FIXED_POINT, CorrelatedNoise, DepthCounts, NoiseModel,
                               damped_cosine, depolarize, effective_eta, neg_log_damping,
                               noise_floor, noisy_prob, sample_noisy_shots)

CHI2_CRIT_2DOF = 13.816  # p = 0.999 critical value, 2 degrees of freedom


def model_with(eta0=None, gamma=None, **kwargs):
    if gamma is None:
        gamma = (-math.log(1.0 - eta0),) * 8 if eta0 else (0.0,) * 8
    return NoiseModel(gamma_by_depth=gamma, **kwargs)


def test_effective_eta_zero_noise():
    assert effective_eta(model_with(gamma=(0.0,) * 8), 3) == 0.0


def test_effective_eta_combines_beta_and_gamma():
    gamma = -math.log(0.98)
    model = NoiseModel(gamma_by_depth=(gamma,) * 8, beta_readout=0.01)
    assert abs(effective_eta(model, 0) - 0.0298) < 1e-12


def test_effective_eta_saturates_at_one():
    model = NoiseModel(gamma_by_depth=(0.0, 200.0))
    assert abs(effective_eta(model, 1) - 1.0) < 1e-12


def test_effective_eta_depth_out_of_range():
    with pytest.raises(ValueError):
        effective_eta(model_with(gamma=(0.1, 0.2)), 2)
    with pytest.raises(ValueError):
        effective_eta(model_with(gamma=(0.1, 0.2)), -1)


def test_neg_log_damping_rejects_a_depth_outside_the_model():
    # depth -1 read the top depth's rate, 0.35, and depth 4 raised a bare IndexError
    model = NoiseModel.linear_ramp(3)
    for depth in (-1, 4):
        with pytest.raises(ValueError, match=f"^depth {depth} outside model range 0..3$"):
            neg_log_damping(model, depth)
    with pytest.raises(ValueError, match="^depth must be a nonnegative integer"):
        neg_log_damping(model, 1.0)


rates = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=9).map(sorted)


@settings(max_examples=200, deadline=None)
@given(gammas=rates, beta=st.one_of(st.just(0), st.floats(0.0, 0.999)))
def test_precomputed_etas_equal_the_formula_and_stay_out_of_the_fields(gammas, beta):
    model = NoiseModel(gamma_by_depth=gammas, beta_readout=beta)
    twin = NoiseModel(gamma_by_depth=tuple(gammas), beta_readout=beta)
    for d, gamma in enumerate(gammas):
        eta = 1.0 - (1.0 - beta) * math.exp(-gamma)
        assert model.eta_by_depth[d] == eta and effective_eta(model, d) == eta
    assert model == twin and hash(model) == hash(twin)
    assert dataclasses.asdict(model) == {"gamma_by_depth": tuple(gammas), "beta_readout": beta,
                                         "leak_prob": 0.0, "correlation": None}
    assert [f.name for f in dataclasses.fields(model)] == [
        "gamma_by_depth", "beta_readout", "leak_prob", "correlation"]
    other = dataclasses.replace(model, beta_readout=0.5)
    assert other.eta_by_depth == tuple(1.0 - 0.5 * math.exp(-g) for g in gammas)
    for depth in (-1, len(gammas)):
        with pytest.raises(ValueError):
            effective_eta(model, depth)


def test_each_model_keeps_its_own_etas_when_ids_are_reused():
    # a model built where a collected one lived must not see that one's etas
    for k in range(200):
        gamma = k / 50
        model = NoiseModel(gamma_by_depth=(gamma,), beta_readout=0.01)
        assert effective_eta(model, 0) == 1.0 - 0.99 * math.exp(-gamma)
        del model
        gc.collect()


def test_noisy_prob_half_is_fixed_point():
    # sin^2((2d+1) theta) = 1/2 at theta = pi / (4 (2d+1))
    for eta0 in (0.0, 0.2, 0.7):
        model = model_with(eta0=eta0) if eta0 else model_with(gamma=(0.0,) * 8)
        d = 2
        theta = math.pi / (4 * (2 * d + 1))
        assert abs(noisy_prob(theta, d, model) - 0.5) < 1e-12


def test_noisy_prob_noiseless_reduces_to_sin2():
    model = model_with(gamma=(0.0,) * 8)
    for theta in np.linspace(0, math.pi / 2, 17):
        for d in range(8):
            expected = math.sin((2 * d + 1) * theta) ** 2
            assert abs(noisy_prob(theta, d, model) - expected) < 1e-12


def test_noisy_prob_worked_value():
    eta = 0.06
    model = model_with(eta0=eta)
    assert abs(noisy_prob(math.pi / 2, 0, model) - 0.97) < 1e-12


def test_linear_and_cosine_forms_agree():
    model = NoiseModel(gamma_by_depth=tuple(np.linspace(0.035, 0.35, 8)),
                       beta_readout=0.013)
    for theta in np.linspace(0.0, math.pi / 2, 1000):
        for d in (0, 3, 7):
            eta = effective_eta(model, d)
            p_t = math.sin((2 * d + 1) * theta) ** 2
            linear = p_t * (1 - eta) + eta / 2
            assert abs(noisy_prob(theta, d, model) - linear) < 1e-12


# the two phases, 2 (2d+1) theta and (2d+1) theta, differ by an exact doubling,
# so the forms differ only by the rounding of their last few steps
LAW_ULPS = 2


@settings(max_examples=500, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), depth=st.integers(0, 7), gammas=rates,
       beta=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       burst_scale=st.one_of(st.just(1.0), st.floats(0.0, 50.0)))
def test_cosine_and_sin2_forms_of_the_law_agree(theta, depth, gammas, beta, burst_scale):
    model = NoiseModel(gamma_by_depth=gammas, beta_readout=beta)
    depth = min(depth, model.max_depth)
    p = math.sin((2 * depth + 1) * theta) ** 2
    tol = LAW_ULPS * math.ulp(1.0)
    eta = effective_eta(model, depth)
    assert abs(noisy_prob(theta, depth, model) - depolarize(p, eta)) <= tol
    assert model.damping_by_depth[depth] == 1.0 - eta
    # a_d >= 0.001 exp(-5) here, so its rounding near 1 moves its log by under 1e-10
    assert math.isclose(neg_log_damping(model, depth), -math.log(model.damping_by_depth[depth]),
                        rel_tol=1e-9, abs_tol=1e-12)
    # a burst's eta, as the burst sampler forms it, through a model holding it as beta
    eta_burst = min(eta * burst_scale, 1.0)
    held = (NoiseModel(gamma_by_depth=(0.0,) * 8, beta_readout=eta_burst) if eta_burst < 1.0
            else NoiseModel(gamma_by_depth=(800.0,) * 8))  # exp(-800) underflows: eta is 1
    assert abs(noisy_prob(theta, depth, held) - depolarize(p, eta_burst)) <= tol
    # and the inverse recovers the damped cosine from the good fraction
    assert abs(damped_cosine(noisy_prob(theta, depth, model))
               - model.damping_by_depth[depth] * math.cos(2 * (2 * depth + 1) * theta)) <= 2 * tol


def test_the_fixed_point_of_the_law_is_one_half():
    model = NoiseModel.linear_ramp(7, beta_readout=0.05)
    assert FIXED_POINT == 0.5 and depolarize(0.3, 1.0) == 0.5 and damped_cosine(0.5) == 0.0
    # sin^2((2d+1) theta) = 1/2 at theta = pi / (4 (2d+1)): the law leaves 1/2 fixed
    assert abs(noisy_prob(math.pi / 28, 3, model) - 0.5) < 1e-15


def test_grid_cosine_form_is_the_scalar_expression_elementwise():
    model = NoiseModel.linear_ramp(7, beta_readout=0.05)
    thetas = np.linspace(0.0, math.pi / 2, 101)
    for depth in range(8):
        grid = noisy_prob(thetas, depth, model, np.cos)
        a = model.damping_by_depth[depth]
        assert np.array_equal(grid, (1.0 - a * np.cos(2 * (2 * depth + 1) * thetas)) / 2.0)
    with pytest.raises(ValueError, match="depth 8 outside"):
        noisy_prob(thetas, 8, model, np.cos)


def test_depolarizing_map_contracts_toward_half():
    model = NoiseModel(gamma_by_depth=tuple(np.linspace(0.035, 0.35, 8)))
    rng = np.random.default_rng(5)
    for theta in rng.uniform(0, math.pi / 2, 200):
        for d in range(8):
            p_t = math.sin((2 * d + 1) * theta) ** 2
            assert abs(noisy_prob(theta, d, model) - 0.5) <= abs(p_t - 0.5) + 1e-15


def test_noise_floor_uniform_prior_is_eta_over_four():
    model = model_with(eta0=0.212)
    grid = (np.arange(1000) + 0.5) / 1000  # midpoint rule, exact for |1/2 - p|
    floor = noise_floor(model, 0, grid)
    assert abs(floor - 0.212 / 4) < 1e-12


def test_noise_floor_point_prior_at_half_is_zero():
    model = model_with(eta0=0.3)
    assert noise_floor(model, 0, np.array([0.5])) == 0.0


@pytest.mark.parametrize("prior", [[math.nan], [0.2, math.nan], [0.2, math.inf], [-math.inf],
                                   [], [1.5], [-0.1]])
def test_noise_floor_rejects_a_prior_that_is_not_probabilities(prior):
    # a NaN in the prior made the floor nan rather than an error
    with pytest.raises(ValueError, match=r"prior must be probability values in \[0, 1\]"):
        noise_floor(NoiseModel.linear_ramp(), 0, prior)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(gamma_by_depth=(0.2, 0.1))  # decreasing
    with pytest.raises(ValueError):
        NoiseModel(gamma_by_depth=(0.1,), beta_readout=1.0)
    with pytest.raises(ValueError):
        NoiseModel(gamma_by_depth=(-0.1,))
    with pytest.raises(ValueError):
        CorrelatedNoise(p_switch=0.0, burst_scale=2.0)
    # accepted before: a NaN burst_scale made every burst shot bad, and a
    # NaN rate failed only in sampling, without naming the field
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="burst_scale"):
            CorrelatedNoise(p_switch=0.5, burst_scale=value)
        with pytest.raises(ValueError, match="gamma_by_depth"):
            NoiseModel(gamma_by_depth=(0.1, value))
    # accepted before: a string rate was parsed and a bool read as 0 or 1,
    # and a string readout or switch rate died in a comparison with a
    # TypeError that named no field
    for field, value in [("beta_readout", "0.1"), ("beta_readout", None),
                         ("leak_prob", True), ("leak_prob", "0")]:
        with pytest.raises(ValueError, match=field):
            NoiseModel(gamma_by_depth=(0.1,), **{field: value})
    for value in ("0.1", True, None):
        with pytest.raises(ValueError, match="gamma_by_depth"):
            NoiseModel(gamma_by_depth=(0.1, value))
        with pytest.raises(ValueError, match="p_switch"):
            CorrelatedNoise(p_switch=value, burst_scale=2.0)
        with pytest.raises(ValueError, match="burst_scale"):
            CorrelatedNoise(p_switch=0.5, burst_scale=value)
    assert NoiseModel(gamma_by_depth=(np.float32(0.1), 1), leak_prob=np.float64(0.2)) \
        .gamma_by_depth == (float(np.float32(0.1)), 1.0)


def test_model_rejects_burst_parameters_that_are_not_a_record():
    # accepted before, sampling then died with an AttributeError: 'dict' object
    # has no attribute 'burst_scale'
    for corr in ({"p_switch": 0.1, "burst_scale": 2.0}, (0.1, 2.0), 0.1):
        with pytest.raises(ValueError, match="^correlation must be "):
            NoiseModel(gamma_by_depth=[0.1] * 8, correlation=corr)
    corr = CorrelatedNoise(p_switch=0.1, burst_scale=2.0)
    assert NoiseModel(gamma_by_depth=[0.1] * 8, correlation=corr).correlation is corr


def test_linear_ramp_rates():
    model = NoiseModel.linear_ramp()
    assert abs(model.gamma_by_depth[0] - 0.035) < 1e-12
    assert abs(model.gamma_by_depth[7] - 0.35) < 1e-12
    assert len(model.gamma_by_depth) == 8


def test_sample_noiseless_certain_outcome():
    model = model_with(gamma=(0.0,) * 8)
    counts = sample_noisy_shots(math.pi / 2, 0, 100, model, np.random.default_rng(0))
    assert (counts.n_good, counts.n_bad, counts.n_discarded) == (100, 0, 0)


def test_sample_zero_shots():
    model = model_with(eta0=0.1)
    counts = sample_noisy_shots(0.3, 2, 0, model, np.random.default_rng(0))
    assert counts.shots == 0


def test_sample_rate_within_binomial_bounds():
    model = model_with(eta0=0.1)
    theta, d, n = 0.4, 3, 100_000
    counts = sample_noisy_shots(theta, d, n, model, np.random.default_rng(3))
    p = noisy_prob(theta, d, model)
    assert abs(counts.n_good - n * p) <= 5 * math.sqrt(n * p * (1 - p))
    assert counts.n_discarded == 0


def test_sample_leak_channel_discards():
    model = model_with(eta0=0.1, leak_prob=0.05)
    counts = sample_noisy_shots(0.4, 1, 100_000, model, np.random.default_rng(4))
    assert abs(counts.n_discarded - 5000) <= 5 * math.sqrt(100_000 * 0.05 * 0.95)


@pytest.mark.parametrize("correlation", [None, CorrelatedNoise(p_switch=0.3, burst_scale=2.0)])
def test_sampler_stores_an_int_depth_and_names_the_depth_it_rejects(correlation):
    # the tallies came back with depth True or a numpy integer, and 2.0 died
    # in a TypeError that named no argument
    model = model_with(eta0=0.1, correlation=correlation)
    counts = sample_noisy_shots(0.4, np.int64(2), 10, model, np.random.default_rng(5))
    assert type(counts.depth) is int and counts.depth == 2
    assert DepthCounts(*counts) == counts
    for depth in (True, 2.0, np.float64(2.0), np.int64(-1)):
        with pytest.raises(ValueError, match="^depth must be a nonnegative integer"):
            sample_noisy_shots(0.4, depth, 10, model, np.random.default_rng(5))
        with pytest.raises(ValueError, match="^depth must be a nonnegative integer"):
            noisy_prob(0.4, depth, model)
        with pytest.raises(ValueError, match="^depth must be a nonnegative integer"):
            effective_eta(model, depth)


@pytest.mark.parametrize("correlation", [None, CorrelatedNoise(0.05, 4.0)],
                         ids=["independent", "burst"])
def test_sample_takes_a_whole_shot_count(correlation):
    # 2.5 gave n_bad=1.5, True drew one shot, and np.int64(5) came back as n_bad=np.int64(0)
    model = model_with(eta0=0.1, correlation=correlation)
    for n_shots in (2.5, True, -1, np.float64(5.0)):
        with pytest.raises(ValueError, match="^n_shots must be a nonnegative integer"):
            sample_noisy_shots(0.4, 2, n_shots, model, np.random.default_rng(5))
    counts = sample_noisy_shots(0.4, 2, np.int64(5), model, np.random.default_rng(5))
    assert counts == sample_noisy_shots(0.4, 2, 5, model, np.random.default_rng(5))
    assert [type(c) for c in counts] == [int] * 4 and counts.shots == 5


def test_sample_deterministic_given_seed():
    model = model_with(eta0=0.2, correlation=CorrelatedNoise(p_switch=0.3, burst_scale=2.0))
    a = sample_noisy_shots(0.5, 2, 2000, model, np.random.default_rng(9))
    b = sample_noisy_shots(0.5, 2, 2000, model, np.random.default_rng(9))
    assert a == b


def _chi2_vs_independent(counts, theta, depth, base_model, n):
    p = noisy_prob(theta, depth, base_model)
    leak = base_model.leak_prob
    expected = np.array([(1 - leak) * p, (1 - leak) * (1 - p), leak]) * n
    observed = np.array([counts.n_good, counts.n_bad, counts.n_discarded], dtype=float)
    keep = expected > 0
    return float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))


@pytest.mark.parametrize("p_switch,burst_scale", [(1.0, 5.0), (0.3, 1.0)])
def test_correlated_mode_reduces_to_independent(p_switch, burst_scale):
    base = model_with(eta0=0.15, leak_prob=0.02)
    corr = NoiseModel(gamma_by_depth=base.gamma_by_depth, leak_prob=0.02,
                      correlation=CorrelatedNoise(p_switch=p_switch,
                                                  burst_scale=burst_scale))
    theta, depth, n = 0.37, 2, 100_000
    counts = sample_noisy_shots(theta, depth, n, corr, np.random.default_rng(21))
    assert _chi2_vs_independent(counts, theta, depth, base, n) < CHI2_CRIT_2DOF


def test_correlated_bursts_change_the_rate():
    base = model_with(eta0=0.15)
    corr = NoiseModel(gamma_by_depth=base.gamma_by_depth,
                      correlation=CorrelatedNoise(p_switch=0.05, burst_scale=4.0))
    theta, depth, n = 0.05, 3, 100_000  # amplified prob far from the 1/2 fixed point
    counts = sample_noisy_shots(theta, depth, n, corr, np.random.default_rng(2))
    assert _chi2_vs_independent(counts, theta, depth, base, n) > CHI2_CRIT_2DOF


def scalar_burst_shots(theta, depth, n_shots, model, rng):
    """The shot-by-shot burst chain: the reference the sampler must equal."""
    corr = model.correlation
    eta = effective_eta(model, depth)
    p_t = math.sin((2 * depth + 1) * theta) ** 2
    p_enter = corr.p_switch * (1.0 - corr.p_switch)
    p_leave = corr.p_switch
    eta_burst = min(eta * corr.burst_scale, 1.0)
    p_quiet = p_t * (1 - eta) + eta / 2
    p_burst = p_t * (1 - eta_burst) + eta_burst / 2
    u_state = rng.random(n_shots)
    u_leak = rng.random(n_shots) if model.leak_prob > 0 else None
    u_out = rng.random(n_shots)
    n_good = n_bad = n_disc = 0
    burst = False
    for i in range(n_shots):
        burst = (u_state[i] >= p_leave) if burst else (u_state[i] < p_enter)
        if u_leak is not None and u_leak[i] < model.leak_prob:
            n_disc += 1
            continue
        if u_out[i] < (p_burst if burst else p_quiet):
            n_good += 1
        else:
            n_bad += 1
    return DepthCounts(depth=depth, n_good=n_good, n_bad=n_bad, n_discarded=n_disc)


def scalar_independent_shots(theta, depth, n_shots, model, rng):
    """Independent shots through the scalar chain: eta, noisy_prob, leak, then outcomes."""
    eta = 1.0 - (1.0 - model.beta_readout) * math.exp(-model.gamma_by_depth[depth])
    p_bar = (1.0 - (1.0 - eta) * math.cos(2 * (2 * depth + 1) * theta)) / 2.0
    assert p_bar == noisy_prob(theta, depth, model)
    n_disc = int(rng.binomial(n_shots, model.leak_prob)) if model.leak_prob > 0 else 0
    n_good = int(rng.binomial(n_shots - n_disc, p_bar))
    return DepthCounts(depth=depth, n_good=n_good, n_bad=n_shots - n_disc - n_good,
                       n_discarded=n_disc)


unit = st.floats(0.0, 1.0, exclude_max=True)
bursts = st.builds(CorrelatedNoise, p_switch=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
                   burst_scale=st.one_of(st.just(0.0), st.floats(0.0, 50.0)))


@settings(max_examples=300, deadline=None)
@given(correlation=st.one_of(st.none(), bursts), leak=st.one_of(st.just(0.0), unit),
       n_shots=st.one_of(st.just(0), st.integers(0, 600)), theta=st.floats(0.0, math.pi / 2),
       depth=st.integers(0, 7), gamma=st.floats(0.0, 3.0), beta=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_sampler_equals_the_scalar_chain(correlation, leak, n_shots, theta, depth, gamma,
                                         beta, seed):
    model = NoiseModel(gamma_by_depth=(gamma,) * 8, beta_readout=beta, leak_prob=leak,
                       correlation=correlation)
    reference = scalar_independent_shots if correlation is None else scalar_burst_shots
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = sample_noisy_shots(theta, depth, n_shots, model, fast)
    assert counts == reference(theta, depth, n_shots, model, slow)
    assert type(counts) is DepthCounts and counts.shots == n_shots
    assert fast.random() == slow.random()  # the same number of draws


@pytest.mark.parametrize("model", [
    NoiseModel.linear_ramp(7), NoiseModel.linear_ramp(7, beta_readout=0.05, leak_prob=0.4),
    NoiseModel.linear_ramp(7, correlation=CorrelatedNoise(0.05, 4.0)),
    NoiseModel.linear_ramp(7, leak_prob=0.4, correlation=CorrelatedNoise(0.05, 4.0))],
    ids=["independent", "leaky", "burst", "leaky-burst"])
def test_sampled_counts_equal_their_validated_construction(model):
    # the sampler builds its tuple without the validating constructor
    rng = np.random.default_rng(17)
    for depth in range(8):
        counts = sample_noisy_shots(0.4, depth, 300, model, rng)
        assert type(counts) is DepthCounts
        assert counts == DepthCounts(*counts) and counts.shots == 300 and counts.depth == depth
        assert min(counts) >= 0
        with pytest.raises(ValueError, match="nonnegative"):
            counts._replace(n_good=-1)
    with pytest.raises(ValueError, match="depth 8 outside"):
        sample_noisy_shots(0.4, 8, 300, model, rng)


@settings(max_examples=300, deadline=None)
@given(p_switch=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
       burst_scale=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       leak=st.one_of(st.just(0.0), unit), n_shots=st.integers(0, 600),
       theta=st.floats(0.0, math.pi / 2), depth=st.integers(0, 7),
       gamma=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_burst_sampler_equals_the_shot_by_shot_chain(p_switch, burst_scale, leak, n_shots,
                                                      theta, depth, gamma, seed):
    model = NoiseModel(gamma_by_depth=(gamma,) * 8, leak_prob=leak,
                       correlation=CorrelatedNoise(p_switch=p_switch, burst_scale=burst_scale))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert (sample_noisy_shots(theta, depth, n_shots, model, fast)
            == scalar_burst_shots(theta, depth, n_shots, model, slow))
    assert fast.random() == slow.random()  # the same number of draws
