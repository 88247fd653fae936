"""Amplitude estimators: direct sampling, grid-posterior MLE, CRT, hybrid.

All estimators return an :class:`Estimate` whose probability is tied to the
angle by ``p_hat = sin^2(theta_hat)`` and whose oracle-call count charges
``2d+1`` calls per shot taken at depth ``d`` (discarded shots included:
the oracle ran for them too).

The maximum-likelihood engine keeps a discretized posterior over angles
``theta_k = pi k eps / 2`` and multiplies in per-depth binomial likelihoods,
``sin^2((2d+1) theta)`` for good counts and ``cos^2`` for bad ones, or
their depolarized counterparts when a noise model is supplied.  All
accumulation happens in log space; 500-shot exponents overflow otherwise.

The CRT estimator recovers the angle as ``v pi / (4 D^2 - 1)`` from folded
low-precision residues of ``v`` modulo the coprime pair (2D-1, 2D+1).  The
depth-D circuit amplifies the angle by 2D+1, so its folded reading ``l``
constrains ``v`` modulo 2D-1 and vice versa.  The residues invert the
fold exactly: the reading ``l`` equals twice the distance of ``v mod N1``
to the nearest multiple of N1, and the sign of ``sin(2 (2D+1) theta)``
says on which side the fold happened, giving ``v = s2 * l / 2  (mod N1)``
and symmetrically ``s1 * h / 2 (mod N2)``.  With exact probabilities this
plus the 3x3 offset grid reconstructs every grid angle exactly for D in
2..7.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, effective_eta
from .simulator import DepthCounts

EXTENDED_OFFSETS = tuple((d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1))


class EstimationError(RuntimeError):
    """Raised when an estimator cannot produce a value from the given counts."""


@dataclass(frozen=True)
class Estimate:
    """Final angle/probability estimate with oracle-call accounting."""

    theta_hat: float
    p_hat: float
    oracle_calls: int
    algorithm: str
    diagnostics: dict | None = None

    @classmethod
    def from_theta(cls, theta: float, oracle_calls: int, algorithm: str,
                   diagnostics: dict | None = None) -> "Estimate":
        return cls(theta_hat=theta, p_hat=math.sin(theta) ** 2,
                   oracle_calls=oracle_calls, algorithm=algorithm,
                   diagnostics=diagnostics)


def _grid_size(epsilon: float) -> int:
    """Point count ``round(1/epsilon)`` of the angle grid.

    Raises ``ValueError`` unless that many points of spacing
    ``pi epsilon / 2`` span [0, pi/2) to 1e-9; any other epsilon would cut
    the grid short of pi/2 (at 0.3 it ends at 54 degrees).
    """
    n = round(1.0 / epsilon)
    if abs(n * epsilon - 1.0) > 1e-9:
        raise ValueError(f"epsilon {epsilon!r} is not 1/n for an integer n")
    return n


@dataclass(frozen=True)
class PosteriorGrid:
    """Discretized distribution over candidate angles theta_k = pi k eps / 2."""

    epsilon: float
    weights: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must be in (0, 1]")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != _grid_size(self.epsilon):
            raise ValueError("weights must have 1/epsilon entries")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, epsilon: float = 0.001) -> "PosteriorGrid":
        n = _grid_size(epsilon)
        return cls(epsilon=epsilon, weights=np.full(n, 1.0 / n))

    @property
    def thetas(self) -> np.ndarray:
        return np.pi * np.arange(self.weights.size) * self.epsilon / 2.0

    def argmax_theta(self) -> float:
        """Grid angle with the largest weight; ties go to the smaller index."""
        return float(self.thetas[int(np.argmax(self.weights))])


@dataclass(frozen=True)
class CrtContext:
    """Intermediate quantities of one CRT reconstruction."""

    d_max: int
    n1: int
    n2: int
    modulus: int
    l: float
    h: float
    s1: int
    s2: int
    candidates: tuple[int, ...]


@dataclass(frozen=True)
class HybridCalibration:
    """Average-error scales that set the hybrid acceptance threshold."""

    mle_avg_depth2: float
    crt_exact_at_d: float
    beta_hybrid: float = 1.0

    def __post_init__(self):
        if self.mle_avg_depth2 < 0 or self.crt_exact_at_d < 0 or self.beta_hybrid < 0:
            raise ValueError("calibration values must be nonnegative")

    @property
    def threshold(self) -> float:
        return self.beta_hybrid * abs(self.mle_avg_depth2 - self.crt_exact_at_d)


def direct_estimate(counts: DepthCounts) -> Estimate:
    """Baseline estimate from depth-0 sampling: the kept good fraction."""
    if counts.kept == 0:
        raise EstimationError("all shots were discarded")
    p_hat = counts.n_good / counts.kept
    theta = math.asin(math.sqrt(p_hat))
    return Estimate.from_theta(theta, oracle_calls=counts.shots * (2 * counts.depth + 1),
                               algorithm="direct")


def _log_likelihood(thetas: np.ndarray, depth: int, n_good: int, n_bad: int,
                    noise: NoiseModel | None) -> np.ndarray:
    m = 2 * depth + 1
    if noise is None:
        p1 = np.sin(m * thetas) ** 2
    else:
        eta = effective_eta(noise, depth)
        p1 = (1.0 - (1.0 - eta) * np.cos(2 * m * thetas)) / 2.0
    p0 = 1.0 - p1
    with np.errstate(divide="ignore"):
        logl = np.zeros_like(thetas)
        if n_good:
            logl = logl + n_good * np.log(p1)
        if n_bad:
            logl = logl + n_bad * np.log(p0)
    return logl


def bayesian_update(grid: PosteriorGrid, depth: int, counts: DepthCounts,
                    noise: NoiseModel | None = None) -> PosteriorGrid:
    """Multiply the posterior by the depth-d likelihood and renormalize.

    Discarded shots carry no information and are ignored.  If every grid
    point gets zero posterior mass the counts are inconsistent with the
    grid and an :class:`EstimationError` is raised.
    """
    with np.errstate(divide="ignore"):
        logw = np.where(grid.weights > 0.0, np.log(grid.weights), -np.inf)
    logw = logw + _log_likelihood(grid.thetas, depth, counts.n_good, counts.n_bad, noise)
    peak = np.max(logw)
    if not np.isfinite(peak):
        raise EstimationError("posterior underflow: counts are inconsistent with the grid")
    w = np.exp(logw - peak)
    return PosteriorGrid(epsilon=grid.epsilon, weights=w / w.sum())


def mle_estimate(counts_by_depth, epsilon: float = 0.001,
                 noise: NoiseModel | None = None) -> Estimate:
    """Maximum-likelihood angle from measurements at several depths.

    Starts from a uniform prior on the ``1/epsilon``-point grid, applies the
    Bayesian update for each depth in order (noise-aware when a model is
    given) and returns the posterior argmax, ties broken toward smaller
    angles.
    """
    counts_by_depth = list(counts_by_depth)
    if not counts_by_depth or all(c.kept == 0 for c in counts_by_depth):
        raise EstimationError("no kept shots at any depth")
    grid = PosteriorGrid.uniform(epsilon)
    calls = 0
    for counts in counts_by_depth:
        grid = bayesian_update(grid, counts.depth, counts, noise)
        calls += counts.shots * (2 * counts.depth + 1)
    return Estimate.from_theta(grid.argmax_theta(), oracle_calls=calls, algorithm="mle")


def crt_solve(r1: int, n1: int, r2: int, n2: int) -> int:
    """Unique v in [0, n1 n2) with v = r1 (mod n1) and v = r2 (mod n2).

    Extended Euclid; the moduli must be coprime.
    """
    old_r, r = n1, n2
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        raise ValueError(f"moduli {n1}, {n2} are not coprime")
    inv_n1 = old_s % n2
    k = ((r2 - r1) * inv_n1) % n2
    return (r1 % n1 + n1 * k) % (n1 * n2)


def _sign(x: float) -> int:
    return 1 if x >= 0 else -1


def crt_reconstruct(p_d: float, p_dm1: float, theta_ref: float,
                    d_max: int) -> tuple[float, CrtContext]:
    """Algebraic core of the CRT estimator, on probabilities directly.

    ``p_d`` and ``p_dm1`` estimate ``sin^2((2D+1) theta)`` and
    ``sin^2((2D-1) theta)``; ``theta_ref`` is the low-depth angle that fixes
    the fold signs and anchors the candidate selection.  Returns the angle
    estimate together with the reconstruction context.
    """
    if d_max < 2:
        raise ValueError("CRT needs maximum depth >= 2")
    n1, n2 = 2 * d_max - 1, 2 * d_max + 1
    modulus = n1 * n2
    l = (2 * n1 / math.pi) * math.asin(math.sqrt(min(max(p_d, 0.0), 1.0)))
    h = (2 * n2 / math.pi) * math.asin(math.sqrt(min(max(p_dm1, 0.0), 1.0)))
    s1 = _sign(math.sin(2 * n1 * theta_ref))
    s2 = _sign(math.sin(2 * n2 * theta_ref))
    base1, base2 = round(s2 * l / 2), round(s1 * h / 2)
    candidates = tuple(crt_solve((base1 + d1) % n1, n1, (base2 + d2) % n2, n2)
                       for d1, d2 in EXTENDED_OFFSETS)
    p0 = math.sin(theta_ref) ** 2
    best = None
    for v in candidates:
        folded = min(v, modulus - v)  # sin^2 cannot tell v from modulus - v
        err = abs(math.sin(folded * math.pi / modulus) ** 2 - p0)
        if best is None or (err, folded) < best:
            best = (err, folded)
    context = CrtContext(d_max=d_max, n1=n1, n2=n2, modulus=modulus, l=l, h=h,
                         s1=s1, s2=s2, candidates=candidates)
    return best[1] * math.pi / modulus, context


def crt_estimate(counts_at_d: DepthCounts, counts_at_dm1: DepthCounts,
                 mle_low_depth: Estimate, d_max: int) -> Estimate:
    """Two-depth CRT estimate seeded by a low-depth MLE angle.

    Success probabilities at depths D and D-1 are the kept good fractions;
    the low-depth estimate supplies the fold signs, the selection anchor
    and its own oracle-call bill, and is kept in the diagnostics as
    ``anchor``.
    """
    if counts_at_d.kept == 0 or counts_at_dm1.kept == 0:
        raise EstimationError("no kept shots at one of the CRT depths")
    p_d = counts_at_d.n_good / counts_at_d.kept
    p_dm1 = counts_at_dm1.n_good / counts_at_dm1.kept
    theta, context = crt_reconstruct(p_d, p_dm1, mle_low_depth.theta_hat, d_max)
    calls = (mle_low_depth.oracle_calls
             + counts_at_d.shots * (2 * d_max + 1)
             + counts_at_dm1.shots * (2 * d_max - 1))
    return Estimate.from_theta(theta, oracle_calls=calls, algorithm="crt",
                               diagnostics={"context": context, "anchor": mle_low_depth})


def hybrid_estimate(mle_low_depth: Estimate, crt: Estimate,
                    calibration: HybridCalibration) -> Estimate:
    """Pick the CRT estimate unless it strays too far from the low-depth MLE.

    The acceptance window is ``beta * |MLE_avg(2) - CRT_exact(D)|``; outside
    it the estimator falls back to the low-depth MLE value.  The chosen
    branch is recorded in the diagnostics.
    """
    disagreement = abs(mle_low_depth.p_hat - crt.p_hat)
    if disagreement > calibration.threshold:
        winner, branch = mle_low_depth, "mle"
    else:
        winner, branch = crt, "crt"
    return Estimate.from_theta(winner.theta_hat, oracle_calls=crt.oracle_calls,
                               algorithm="hybrid",
                               diagnostics={"branch": branch,
                                            "disagreement": disagreement,
                                            "threshold": calibration.threshold})
