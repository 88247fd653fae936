"""Amplitude estimators: direct sampling, grid-posterior MLE, CRT, hybrid.

All estimators return an :class:`Estimate` whose probability is tied to the
angle by ``p_hat = sin^2(theta_hat)`` and whose oracle-call count charges
``2d+1`` calls per shot taken at depth ``d`` (discarded shots included:
the oracle ran for them too).

The maximum-likelihood engine keeps an unnormalized log-posterior over the
angles ``theta_k = pi k eps / 2`` and adds per-depth binomial
log-likelihoods, ``sin^2((2d+1) theta)`` for good counts and ``cos^2`` for
bad ones, or their depolarized counterparts when a noise model is
supplied; 500-shot exponents would overflow outside log space.  The
estimate at maximum depth D uses the shots at depths 0..D, so one pass
over the depths gives the estimate at every D: the argmax after each
depth's update.  The log-likelihood rows depend only on the grid, the
noise and the depth, so the engine computes them once per depth and call,
and updates the posteriors of a chunk of trials together.

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
# Bytes of posterior and update scratch, three (trials x grid) float64
# arrays, that mle_estimate holds per chunk of trials: two trials at
# epsilon=1e-4, 21 at 1e-3, 218 at 1e-2.  The likelihood table shared by
# all chunks, depths x 2 x grid float64 (1.28 MB for 8 depths at 1e-4),
# sits outside this budget.
CHUNK_BYTES = 1 << 19


class EstimationError(RuntimeError):
    """Raised when an estimator cannot produce a value from the given counts."""


@dataclass(frozen=True)
class Estimate:
    """Final angle/probability estimate with oracle-call accounting.

    The estimators record the maximum depth of the shots behind the
    estimate as its row label, ``diagnostics["label"]``.
    """

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

    Raises ``ValueError`` unless epsilon lies in (0, 1] and that many
    points of spacing ``pi epsilon / 2`` span [0, pi/2) to 1e-9; any other
    epsilon would cut the grid short of pi/2 (at 0.3 it ends at 54 degrees).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    n = round(1.0 / epsilon)
    if abs(n * epsilon - 1.0) > 1e-9:
        raise ValueError(f"epsilon {epsilon!r} is not 1/n for an integer n")
    return n


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
                               algorithm="direct", diagnostics={"label": counts.depth})


def log_likelihood_rows(thetas: np.ndarray, depth: int,
                        noise: NoiseModel | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``log p1`` and ``log(1 - p1)`` over the grid at one depth.

    ``p1`` is the good-outcome probability ``sin^2((2d+1) theta)``, or its
    depolarized form when a noise model is given; an outcome of probability
    zero has log-likelihood ``-inf``.
    """
    m = 2 * depth + 1
    if noise is None:
        p1 = np.sin(m * thetas) ** 2
    else:
        eta = effective_eta(noise, depth)
        p1 = (1.0 - (1.0 - eta) * np.cos(2 * m * thetas)) / 2.0
    with np.errstate(divide="ignore"):
        return np.log(p1), np.log(1.0 - p1)


def bayesian_update(log_post: np.ndarray, rows: tuple[np.ndarray, np.ndarray],
                    n_good, n_bad) -> np.ndarray:
    """Add the log-likelihood of good and bad counts to a log-posterior.

    ``rows`` are the :func:`log_likelihood_rows` of the counts' depth.  With
    a stack of posteriors, one per trial, the counts are arrays holding one
    count per trial.  Discarded shots carry no information and are not
    passed.  A zero count adds nothing (``0 log 0 = 0``); a nonzero count of
    an outcome that has probability zero at an angle sends that angle to
    ``-inf``.  The result is ``log_post + (n_good log p1 + n_bad log(1-p1))``.
    """
    log_p1, log_p0 = rows
    n_good = np.asarray(n_good)[..., None]
    n_bad = np.asarray(n_bad)[..., None]
    logl = np.multiply(n_good, log_p1, out=np.zeros_like(log_post), where=n_good > 0)
    logl += np.multiply(n_bad, log_p0, out=np.zeros_like(log_post), where=n_bad > 0)
    return np.add(log_post, logl, out=logl)


def mle_estimate(pools, epsilon: float = 0.001,
                 noise: NoiseModel | None = None) -> list[dict[int, Estimate] | str]:
    """Maximum-likelihood angles of each trial after each entry of its counts.

    ``pools`` holds one depth-ordered list of counts per trial, every list
    with the same depths in the same order.  For each trial one pass from a
    uniform prior on the ``1/epsilon``-point grid applies the update of
    each entry in order (noise-aware when a model is given) and records the
    posterior argmax after it, ties broken toward smaller angles, keyed by
    the entry's depth.  Oracle calls are cumulative over the entries so
    far.  Entries before the trial's first kept shot get no estimate.  A
    trial whose entries kept no shot, or whose counts rule out every grid
    angle, gets the reason it has no estimate in place of the dict.

    The likelihood rows of each entry are computed once and serve every
    trial; trials are updated in chunks whose posteriors and update scratch
    fit :data:`CHUNK_BYTES`, so memory stays bounded at any trial count.
    """
    thetas = np.pi * np.arange(_grid_size(epsilon)) * epsilon / 2.0
    pools = [tuple(pool) for pool in pools]
    depths = [counts.depth for counts in pools[0]] if pools else []
    if any([counts.depth for counts in pool] != depths for pool in pools):
        raise ValueError("every trial needs the same depths in the same order")
    table = [log_likelihood_rows(thetas, depth, noise) for depth in depths]
    size = max(1, CHUNK_BYTES // (3 * thetas.nbytes))
    results = []
    for start in range(0, len(pools), size):
        results += _mle_chunk(pools[start:start + size], depths, thetas, table)
    return results


def _mle_chunk(pools, depths, thetas, table) -> list[dict[int, Estimate] | str]:
    counts = np.array([[(c.n_good, c.n_bad, c.shots) for c in pool] for pool in pools],
                      dtype=np.int64).reshape(len(pools), len(depths), 3)
    log_post = np.zeros((len(pools), thetas.size))
    trials = np.arange(len(pools))
    estimates: list[dict[int, Estimate]] = [{} for _ in pools]
    started = np.zeros(len(pools), dtype=bool)
    # an underflowed posterior is -inf everywhere and stays so
    underflow = np.zeros(len(pools), dtype=bool)
    calls = np.zeros(len(pools), dtype=np.int64)
    for j, (depth, rows) in enumerate(zip(depths, table)):
        n_good, n_bad, shots = counts[:, j].T
        log_post = bayesian_update(log_post, rows, n_good, n_bad)
        calls += shots * (2 * depth + 1)
        started |= n_good + n_bad > 0
        k = np.argmax(log_post, axis=1)
        underflow = log_post[trials, k] == -np.inf
        for t in map(int, np.flatnonzero(started & ~underflow)):
            estimates[t][depth] = Estimate.from_theta(float(thetas[k[t]]), int(calls[t]), "mle",
                                                      {"label": depth})
    return ["posterior underflow: counts are inconsistent with the grid" if underflow[t]
            else estimates[t] or "no kept shots at any depth" for t in trials]


def crt_solve(r1: int, n1: int, r2: int, n2: int) -> int:
    """Unique v in [0, n1 n2) with v = r1 (mod n1) and v = r2 (mod n2).

    The moduli must be coprime, or ``pow`` raises ``ValueError``.
    """
    k = ((r2 - r1) * pow(n1, -1, n2)) % n2
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
    inverse = pow(n1, -1, n2)  # crt_solve of each offset pair, sharing one inverse
    candidates = tuple([r1 + n1 * ((r2 - r1) * inverse % n2) for r1, r2 in
                        [((base1 + d1) % n1, (base2 + d2) % n2) for d1, d2 in EXTENDED_OFFSETS]])
    p0 = math.sin(theta_ref) ** 2
    folded = [min(v, modulus - v) for v in candidates]  # sin^2 cannot tell v from modulus - v
    best = min([(abs(math.sin(f * math.pi / modulus) ** 2 - p0), f) for f in folded])
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
    for counts in (counts_at_d, counts_at_dm1):
        if counts.kept == 0:
            raise EstimationError(f"no kept shots at depth {counts.depth}")
    p_d = counts_at_d.n_good / counts_at_d.kept
    p_dm1 = counts_at_dm1.n_good / counts_at_dm1.kept
    theta, context = crt_reconstruct(p_d, p_dm1, mle_low_depth.theta_hat, d_max)
    calls = (mle_low_depth.oracle_calls
             + counts_at_d.shots * (2 * d_max + 1)
             + counts_at_dm1.shots * (2 * d_max - 1))
    return Estimate.from_theta(theta, oracle_calls=calls, algorithm="crt",
                               diagnostics={"context": context, "anchor": mle_low_depth,
                                            "label": d_max})


def hybrid_estimate(mle_low_depth: Estimate, crt: Estimate,
                    calibration: HybridCalibration) -> Estimate:
    """Pick the CRT estimate unless it strays too far from the low-depth MLE.

    The acceptance window is ``beta * |MLE_avg(2) - CRT_exact(D)|``; outside
    it the estimator falls back to the low-depth MLE value.  The chosen
    branch is recorded in the diagnostics, beside the CRT estimate's label.
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
                                            "threshold": calibration.threshold,
                                            "label": (crt.diagnostics or {}).get("label")})
