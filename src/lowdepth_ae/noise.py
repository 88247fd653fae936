"""Effective depolarizing + readout noise over circuit depths: the outcome law's one home.

Readout error ``beta`` and per-depth damping rates ``gamma_d`` combine as
``a_d = 1 - eta_d = (1 - beta) exp(-gamma_d)``, so ``eta_d ~ beta + gamma_d``
for small rates.  The outcome law, the noise-aware likelihood of Tanaka et
al. (arXiv:2006.16223), damps depth d's ideal ``p = sin^2((2d+1) theta)``
toward the fixed point 1/2 by ``a_d``:

    g = p a_d + eta_d / 2 = (1 - a_d cos(2 (2d+1) theta)) / 2.

Other modules read it from here: :data:`FIXED_POINT`; ``a_d`` as
``NoiseModel.damping_by_depth`` and :func:`neg_log_damping`; the cosine form
:func:`noisy_prob` (``math.cos`` per pool, ``np.cos`` on the MLE grid); the
sin^2 form :func:`depolarize` (a burst pool's rates); the inverse
:func:`damped_cosine` the fit regresses.  The forms round differently, so
each caller keeps its own; the schedules' Fisher proxy is the stated exception.

Every validated record (the noise records and shot tallies here, the run
config and the hybrid calibration) stores each field through
:func:`checked`, by one rule per field: the kinds it accepts, what it
accepts in words and its range.  Only rules that tie fields together are
written out by hand.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

FIXED_POINT = 0.5  # the good fraction of a fully depolarized shot

REAL = (int, float)  # the kinds of a number once numpy's are stored as Python's
# field rules shared by several fields: (kinds, accepts, ok) as checked takes them
NONNEGATIVE_INT = (int, "a nonnegative integer", lambda v: v >= 0)
POSITIVE_INT = (int, "a positive integer", lambda v: v > 0)
NONNEGATIVE = (REAL, "a finite nonnegative number", lambda v: 0 <= v < math.inf)
POSITIVE = (REAL, "a finite positive number", lambda v: 0 < v < math.inf)
BELOW_ONE = (REAL, "a number in [0, 1)", lambda v: 0 <= v < 1)


def checked(name: str, value, kinds, accepts: str, ok=None):
    """``value`` of the field ``name`` as its record stores it, once it passes the field's rule.

    A numpy integer or float becomes the Python ``int`` or ``float`` that
    ``json`` writes (``float``: ``item`` keeps a longdouble); any other
    value is kept as it is.  Raises a ``ValueError`` that names the field
    and says it must be ``accepts`` unless the value is of ``kinds`` (a
    bool only where ``kinds`` is ``bool``: a bool is no number) and, given
    ``ok``, ``ok(value)`` is true.
    """
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool) \
            or not (ok is None or ok(value)):
        raise ValueError(f"{name} must be {accepts}, got {value!r}")
    return value


def check_fields(record, rules: dict) -> None:
    """Store each field of a frozen ``record`` as :func:`checked` by its rule in ``rules``."""
    for name, rule in rules.items():
        object.__setattr__(record, name, checked(name, getattr(record, name), *rule))


class DepthCounts(namedtuple("DepthCounts", "depth n_good n_bad n_discarded")):
    """Postselected measurement tallies at one circuit depth, an immutable tuple.

    Equal to the plain tuple of its four fields, each a nonnegative
    integer.  ``_make`` and ``_replace`` validate through the constructor too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable) -> "DepthCounts":
        return cls(*iterable)

    def __new__(cls, depth: int, n_good: int, n_bad: int, n_discarded: int = 0):
        return tuple.__new__(cls, [checked(name, value, *NONNEGATIVE_INT) for name, value
                                   in zip(cls._fields, (depth, n_good, n_bad, n_discarded))])

    @property
    def shots(self) -> int:
        return self.n_good + self.n_bad + self.n_discarded

    @property
    def kept(self) -> int:
        return self.n_good + self.n_bad


@dataclass(frozen=True)
class CorrelatedNoise:
    """Bursty error modulator: sticky two-state Markov chain over shots.

    Per shot the chain leaves the burst state with probability ``p_switch``
    and enters it with probability ``p_switch * (1 - p_switch)``; it starts
    quiet.  ``p_switch=1`` never bursts and ``burst_scale=1`` changes
    nothing, so either limit reduces exactly to independent shots; small
    ``p_switch`` gives long correlated bursts.

    Entry never exceeds exit, so one uniform draw per shot decides the
    transition from either state: below ``p_switch * (1 - p_switch)`` it
    toggles the state, below ``p_switch`` it resets to quiet, else it holds.
    """

    p_switch: float
    burst_scale: float

    def __post_init__(self):
        check_fields(self, {"p_switch": (REAL, "a number in (0, 1]", lambda v: 0 < v <= 1),
                            "burst_scale": NONNEGATIVE})


@dataclass(frozen=True)
class NoiseModel:
    """Readout error plus per-depth depolarizing rates (and optional bursts)."""

    gamma_by_depth: tuple[float, ...]
    beta_readout: float = 0.0
    leak_prob: float = 0.0
    correlation: CorrelatedNoise | None = None

    def __post_init__(self):
        check_fields(self, {
            "gamma_by_depth": ((list, tuple, np.ndarray), "a nonempty list of rates", len),
            "beta_readout": BELOW_ONE, "leak_prob": BELOW_ONE,
            "correlation": ((CorrelatedNoise, type(None)), "burst parameters or null")})
        gs = tuple(float(checked(f"gamma_by_depth[{d}]", g, *NONNEGATIVE))
                   for d, g in enumerate(self.gamma_by_depth))
        object.__setattr__(self, "gamma_by_depth", gs)
        if any(b < a - 1e-12 for a, b in zip(gs, gs[1:])):
            raise ValueError("gamma rates must be nondecreasing in depth")
        # each depth's eta_d and a_d = 1 - eta_d; not fields, so eq, hash and asdict ignore them
        etas = tuple(1.0 - (1.0 - self.beta_readout) * math.exp(-g) for g in gs)
        object.__setattr__(self, "eta_by_depth", etas)
        object.__setattr__(self, "damping_by_depth", tuple(1.0 - eta for eta in etas))

    @property
    def max_depth(self) -> int:
        return len(self.gamma_by_depth) - 1

    @classmethod
    def noiseless(cls, max_depth: int = 7) -> "NoiseModel":
        return cls(gamma_by_depth=(0.0,) * (max_depth + 1))

    @classmethod
    def linear_ramp(cls, max_depth: int = 7, **kwargs) -> "NoiseModel":
        """Rates interpolated linearly from 0.035 at depth zero to 0.35 at the top."""
        gammas = tuple(np.linspace(0.035, 0.35, max_depth + 1))
        return cls(gamma_by_depth=gammas, **kwargs)


def effective_eta(model: NoiseModel, depth: int) -> float:
    """Combined depolarizing probability ``eta_d = 1 - (1-beta) exp(-gamma_d)``."""
    if not 0 <= depth < len(model.eta_by_depth):
        raise ValueError(f"depth {depth} outside model range 0..{model.max_depth}")
    return model.eta_by_depth[depth]


def neg_log_damping(model: NoiseModel, depth: int) -> float:
    """``-log a_d = gamma_d - log(1 - beta)``, finite where ``a_d`` underflows to 0."""
    return model.gamma_by_depth[depth] - math.log1p(-model.beta_readout)


def noisy_prob(theta, depth: int, model: NoiseModel, cos=math.cos):
    """The law's cosine form ``(1 - a_d cos(2 (2d+1) theta)) / 2``; ``cos=np.cos`` for an array."""
    if not 0 <= depth < len(model.damping_by_depth):
        raise ValueError(f"depth {depth} outside model range 0..{model.max_depth}")
    return (1.0 - model.damping_by_depth[depth] * cos(2 * (2 * depth + 1) * theta)) / 2.0


def depolarize(p: float, eta: float) -> float:
    """The law's sin^2 form: ideal probability ``p`` damped by ``a = 1 - eta`` toward 1/2."""
    return p * (1 - eta) + eta * FIXED_POINT


def damped_cosine(good_fraction):
    """The law solved for its signal: ``1 - 2 g = a_d cos(2 (2d+1) theta)``."""
    return 1.0 - good_fraction / FIXED_POINT


def noise_floor(model: NoiseModel, depth: int, prior_p) -> float:
    """Residual mean error ``eta_d * E|1/2 - p|`` over ``prior_p``, probability values
    (grid or Monte Carlo samples) of which a NaN or one outside [0, 1] is rejected;
    the uniform prior on [0, 1] gives ``eta_d / 4``."""
    ps = np.asarray(prior_p, dtype=float)
    if ps.size == 0 or not (ps.min() >= 0 and ps.max() <= 1):  # a NaN fails both tests
        raise ValueError("prior must be probability values in [0, 1]")
    return effective_eta(model, depth) * float(np.mean(np.abs(FIXED_POINT - ps)))


def _sample_correlated(theta: float, depth: int, n_shots: int, model: NoiseModel,
                       rng: np.random.Generator) -> tuple[int, int]:
    """Good and discarded counts of burst-modulated shots from uniform draws taken up front.

    The draws, taken in one call, are one state draw per shot, then one
    leak draw per shot when the model leaks, then one outcome draw per
    shot.  Each state draw toggles, resets or holds the chain, as
    :class:`CorrelatedNoise` has it.  The chain starts quiet, so a shot is
    in a burst exactly when the number of toggles since the last reset is
    odd: a cumulative toggle count minus the running maximum of that count
    sampled at the resets.
    """
    corr = model.correlation
    eta = effective_eta(model, depth)
    p_t = math.sin((2 * depth + 1) * theta) ** 2
    p_good = np.array([depolarize(p_t, eta), depolarize(p_t, min(eta * corr.burst_scale, 1.0))])
    leaky = model.leak_prob > 0
    rows = 3 if leaky else 2
    u = rng.random(rows * n_shots).reshape(rows, n_shots)
    toggle = u[0] < corr.p_switch * (1.0 - corr.p_switch)
    reset = u[0] < corr.p_switch
    reset ^= toggle  # every toggle draw is also below p_leave
    toggles = toggle.cumsum()
    toggles -= np.maximum.accumulate(toggles * reset)
    toggles &= 1  # 1 in a burst
    good = u[-1] < p_good.take(toggles)
    n_disc = 0
    if leaky:
        leaked = u[1] < model.leak_prob
        np.greater(good, leaked, out=good)  # good and not leaked
        n_disc = int(np.count_nonzero(leaked))
    return int(np.count_nonzero(good)), n_disc


def sample_noisy_shots(theta: float, depth: int, n_shots: int, model: NoiseModel,
                       rng: np.random.Generator) -> DepthCounts:
    """Simulate ``n_shots`` postselected measurements of the depth-d circuit.

    Independent mode draws Bernoulli outcomes at ``noisy_prob`` with an
    optional leak channel feeding the discard tally; correlated mode runs
    the burst modulator over the shots in order.  Deterministic given the
    generator.
    """
    if n_shots < 0:
        raise ValueError("n_shots must be nonnegative")
    if model.correlation is not None:
        n_good, n_disc = _sample_correlated(theta, depth, n_shots, model, rng)
    else:
        p_bar = noisy_prob(theta, depth, model)
        n_disc = int(rng.binomial(n_shots, model.leak_prob)) if model.leak_prob > 0 else 0
        n_good = int(rng.binomial(n_shots - n_disc, p_bar))
    # noisy_prob or effective_eta has range-checked the depth and every count is an int >= 0,
    # so the validating DepthCounts constructor could fail only on a depth that is no int: skip it
    return tuple.__new__(DepthCounts, (depth, n_good, n_shots - n_disc - n_good, n_disc))
