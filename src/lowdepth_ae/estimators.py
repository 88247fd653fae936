"""Amplitude estimators: direct sampling, grid-posterior MLE, CRT, hybrid.

Every estimate ties its probability to its angle by ``p_hat =
sin^2(theta_hat)`` and charges ``2d+1`` oracle calls per shot taken at
depth ``d`` (discarded shots included: the oracle ran for them too).
:func:`direct_estimate` alone returns one :class:`Estimate`;
:func:`mle_estimate` and :func:`crt_columns` fill arrays for many trials
at once, the latter equal element by element to :func:`crt_reconstruct`.

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

The engine skips the points that provably cannot be the argmax.  It tiles
the grid by blocks at a few levels, at most ``BRANCH**2`` blocks at the top
(the points themselves on a grid of that many points or fewer), updates the
whole top level of every trial as one dense array, and below it only the
blocks that can still hold the argmax.  The bound of a block of points
is the same update with each likelihood row replaced by its maximum over
the block, computed with the same floating-point operations in the same
order as a point's value.  For counts >= 0 every step is monotone under
round-to-nearest, so the computed bound is never below the computed value
of any point of the block.  A block is dropped at a depth only when its
bound is strictly below the computed value of some real grid point there;
ties still resolve toward the smaller index, and every output equals the
full pass's bit for bit, also when a caller asks for the last one alone.

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
from typing import NamedTuple

import numpy as np

from .noise import NoiseModel, effective_eta
from .simulator import DepthCounts

EXTENDED_OFFSETS = tuple((d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1))
# Bytes of update scratch that mle_estimate holds at a time: one batch of
# whole trials of the dense top level, CELL_BYTES per value it holds (a
# bound and a first point's value per block, 65 trials at 100 blocks; the
# grid itself when the top level is points, 131 trials at epsilon=1e-2), or
# one batch of about CHUNK_BYTES / BLOCK_BYTES blocks (3,276) of a level
# below, made of whole trials, so a single trial whose posterior keeps most
# of the grid in play can exceed it.  The likelihood table shared by all
# batches, depths x 2 x grid float64 (1.28 MB for 8 depths at 1e-4), and
# the block maxima (a fifth of that) sit outside it.
CHUNK_BYTES = 1 << 19
# Blocks split into BRANCH blocks each, from at most BRANCH**2 blocks over
# the grid down to single points.
BRANCH = 10
# Peak scratch of one block swept below the top level, and of one value of
# the dense top level, measured with tracemalloc.
BLOCK_BYTES = 160
CELL_BYTES = 40


class EstimationError(RuntimeError):
    """Raised when an estimator cannot produce a value from the given counts."""


@dataclass(frozen=True)
class Estimate:
    """Final angle/probability estimate with oracle-call accounting."""

    theta_hat: float
    p_hat: float
    oracle_calls: int
    algorithm: str

    @classmethod
    def from_theta(cls, theta: float, oracle_calls: int, algorithm: str) -> "Estimate":
        return cls(theta_hat=theta, p_hat=math.sin(theta) ** 2,
                   oracle_calls=oracle_calls, algorithm=algorithm)


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


class CrtReadings(NamedTuple):
    """CRT estimates, their probabilities, folded readings and fold signs.

    Scalars from :func:`crt_reconstruct`, arrays from :func:`crt_columns`.
    """

    theta: float | np.ndarray
    p_hat: float | np.ndarray
    l: float | np.ndarray
    h: float | np.ndarray
    s1: int | np.ndarray
    s2: int | np.ndarray


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


def hybrid_fallback(anchor_p, crt_p, threshold) -> np.ndarray:
    """Where the hybrid takes its anchor over CRT: the two differ by more than the threshold."""
    return np.abs(anchor_p - crt_p) > threshold


def direct_estimate(counts: DepthCounts) -> Estimate:
    """Baseline estimate from depth-0 sampling: the kept good fraction."""
    if counts.kept == 0:
        raise EstimationError("all shots were discarded")
    p_hat = counts.n_good / counts.kept
    theta = math.asin(math.sqrt(p_hat))
    return Estimate.from_theta(theta, oracle_calls=counts.shots * (2 * counts.depth + 1),
                               algorithm="direct")


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
    return _add_counts(log_post, log_p1, log_p0, np.asarray(n_good)[..., None],
                       np.asarray(n_bad)[..., None])


def _add_counts(log_post, log_p1, log_p0, n_good, n_bad) -> np.ndarray:
    """:func:`bayesian_update` on arguments that broadcast to ``log_post``'s shape."""
    if (n_good > 0).all() and (n_bad > 0).all():  # the masks below would keep every element
        logl = np.multiply(n_good, log_p1, out=np.empty_like(log_post))
        logl += n_bad * log_p0
    else:
        logl = np.multiply(n_good, log_p1, out=np.zeros_like(log_post), where=n_good > 0)
        logl += np.multiply(n_bad, log_p0, out=np.zeros_like(log_post), where=n_bad > 0)
    return np.add(log_post, logl, out=logl)


class MlePass(NamedTuple):
    """Columns of one :func:`mle_estimate` call, one row per trial.

    ``theta[t, j]`` is the estimate after entry ``j`` (``nan`` if none),
    ``calls[t, j]`` its cumulative oracle calls, and ``reason[t]`` why trial
    ``t`` has no estimate at all, or ``None``.
    """

    theta: np.ndarray
    calls: np.ndarray
    reason: np.ndarray


def mle_estimate(counts, depths, epsilon: float = 0.001, noise: NoiseModel | None = None,
                 *, last_only: bool = False) -> MlePass:
    """Maximum-likelihood angles of each trial after each entry of its counts.

    ``counts[t, j]`` holds the (good, bad, discarded) tallies of trial ``t``
    at depth ``depths[j]``.  For each trial one pass from a uniform prior on
    the ``1/epsilon``-point grid applies the update of each entry in order
    (noise-aware when a model is given) and records the posterior argmax
    after it, ties broken toward smaller angles.  Oracle calls are
    cumulative over the entries so far.  Entries before the trial's first
    kept shot get no estimate.  A trial whose entries kept no shot, or
    whose counts rule out every grid angle, gets no estimate at any entry
    and the reason in ``reason``.

    With ``last_only`` the pass gives the estimate after the last entry
    alone: the other columns of ``theta`` are ``nan``, and ``theta[:, -1]``,
    ``calls`` and ``reason`` are those of the full pass, bit for bit.  It
    prunes on that argmax alone, so the broad posteriors of the first
    depths keep no blocks in play.

    The likelihood rows of each entry are computed once and serve every
    trial.  One exact engine serves every grid, in batches of trials whose
    update scratch fits :data:`CHUNK_BYTES`: it updates the whole top level
    of :func:`_levels` (on a grid of at most ``BRANCH**2`` points, every
    point: the full pass), and below it only the blocks that can still hold
    an argmax asked for; see the module docstring and :func:`_argmax` for
    why the argmax, ties toward smaller angles included, is the full
    pass's bit for bit.
    """
    thetas = np.pi * np.arange(_grid_size(epsilon)) * epsilon / 2.0
    depths = list(depths)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 3 or counts.shape[1:] != (len(depths), 3):
        raise ValueError("counts need one (good, bad, discarded) entry per depth and trial")
    table = np.empty((len(depths), 2, thetas.size))
    for j, depth in enumerate(depths):
        table[j] = log_likelihood_rows(thetas, depth, noise)
    calls = np.cumsum(counts.sum(axis=2) * (2 * np.array(depths, dtype=np.int64) + 1), axis=1)
    # entries that get an argmax: from the first kept shot on, or the last alone
    needed = np.logical_or.accumulate(counts[..., 0] + counts[..., 1] > 0, axis=1)
    needed[:, :-1] &= not last_only
    k, top = _argmax(counts, needed, table)
    # an underflowed posterior is -inf everywhere and stays so
    underflow = needed & (top == -np.inf)
    failed = underflow[:, -1:].any(axis=1)
    theta = np.where(needed & ~underflow & ~failed[:, None], thetas[k], np.nan)
    reason = np.full(len(counts), None, dtype=object)
    reason[~needed[:, -1:].any(axis=1)] = "no kept shots at any depth"
    reason[failed] = "posterior underflow: counts are inconsistent with the grid"
    return MlePass(theta, calls, reason)


class _Level(NamedTuple):
    """Blocks of ``width`` consecutive grid points, the last one possibly shorter.

    ``ratio`` blocks of this level tile one block of the level above.
    For ``width > 1``, ``rows[j, :, :, b]`` holds the maxima of entry
    ``j``'s likelihood rows over block ``b`` and the rows at the block's
    first point, as ``[[max log p1, first log p1], [max log p0, first
    log p0]]``; for single points ``rows`` is the likelihood table.
    """

    width: int
    ratio: int
    rows: np.ndarray


def _levels(table) -> list[_Level]:
    """The levels of the pass, coarsest first: at most ``BRANCH**2`` blocks (the
    points of a grid that small), then widths falling by :data:`BRANCH` to 1."""
    grid_size = table.shape[2]
    width = 1
    while -(-grid_size // width) > BRANCH ** 2:
        width *= BRANCH
    levels, above = [], grid_size
    while width > 1:
        starts = np.arange(0, grid_size, width)
        rows = np.empty(table.shape[:2] + (2, starts.size))
        np.maximum.reduceat(table, starts, axis=2, out=rows[:, :, 0])
        rows[:, :, 1] = table[..., ::width]
        levels.append(_Level(width, -(-above // width), rows))
        above, width = width, width // BRANCH
    return levels + [_Level(1, above, table)]


def _argmax(counts, needed, table) -> tuple[np.ndarray, np.ndarray]:
    """Posterior argmax and maximum of each trial after each ``needed`` entry.

    The grid is tiled by blocks at each of the :func:`_levels`, each block
    split into :data:`BRANCH` blocks of the next level, down to single
    points.  A block's bound after entry ``j`` is the update of entries
    ``0..j`` applied to the block maxima of the likelihood rows, by
    :func:`_add_counts` as a point's value is, so it is never below the
    value of any point in the block (see :func:`mle_estimate`).  The lower
    bound after entry ``j`` is the largest value so far of a real grid
    point: the first point of every block swept.  A block survives entry
    ``j`` unless its bound is strictly below the lower bound there; an
    entry that is not needed has lower bound ``+inf`` and keeps no block.
    Every block of the top level is swept through every entry, as one
    (trials x blocks) array per batch of trials.  Below it each block is
    swept only through the last entry its parent survives, and only the
    blocks that survive some entry are split.  At the point level the bound
    is the value itself, so the lower bound ends at each trial's maximum
    and the smallest index attaining it is the argmax.
    """
    lower = np.where(needed.T, -np.inf, np.inf)
    best = np.full(lower.shape, table.shape[2] - 1)
    # (good, bad) counts of each trial by entry, as exact floats: pairs[j, :, t]
    pairs = np.ascontiguousarray(counts[..., :2].transpose(1, 2, 0), dtype=float)
    top, *levels = _levels(table)
    # per trial, the value of every point, or the bound and first point's value of every block
    cell = top.rows.shape[2:]
    size = max(1, CHUNK_BYTES // (CELL_BYTES * math.prod(cell)))
    for start in range(0, len(counts), size):
        s = slice(start, start + size)
        value = np.zeros((len(counts[s]),) + cell)
        trials = np.arange(len(value))
        last = np.full((len(value), cell[-1]), -1) if levels else None
        for j, rows in enumerate(top.rows):
            value = _add_counts(value, *rows, *pairs[j, :, s].reshape((2, -1) + (1,) * len(cell)))
            first = value[:, 1] if levels else value
            k = first.argmax(axis=1)
            low = np.maximum(lower[j, s], first[trials, k], out=lower[j, s])
            if levels:
                last[value[:, 0] >= low[:, None]] = j
            else:
                best[j, s] = k
        if levels:
            value = first = None  # freed before the survivors' sweeps allocate theirs
            keep, idx = np.nonzero(last >= 0)  # sorted by trial
            _descend(levels, keep + start, idx, last[keep, idx], pairs, lower, best)
    return best.T, lower.T


def _descend(levels, trial, idx, reach, pairs, lower, best) -> None:
    """Sweep the blocks of ``levels[0]`` inside the blocks ``idx`` of the level above.

    The blocks inside block ``idx[r]`` of trial ``trial[r]`` (sorted by
    trial) are swept through entry ``reach[r]``, in batches of whole
    trials; the survivors of each batch descend to the next level.
    """
    level = levels[0]
    for part in _batches(trial, max(1, CHUNK_BYTES // (BLOCK_BYTES * level.ratio))):
        kids = (idx[part, None] * level.ratio + np.arange(level.ratio)).ravel()
        real = kids < level.rows.shape[-1]
        t, i, last = _sweep(level, np.repeat(trial[part], level.ratio)[real], kids[real],
                            np.repeat(reach[part], level.ratio)[real], pairs, lower, best)
        if len(levels) > 1:
            keep = np.flatnonzero(last >= 0)
            keep = keep[np.argsort(t[keep], kind="stable")]
            _descend(levels[1:], t[keep], i[keep], last[keep], pairs, lower, best)


def _batches(trial, budget) -> list[slice]:
    """Slices of the sorted ``trial``, each about ``budget`` long, that split no trial."""
    starts = np.flatnonzero(np.diff(trial, prepend=-1))
    cuts = starts[np.searchsorted(starts, np.arange(0, len(trial), budget), side="right") - 1]
    cuts = list(dict.fromkeys(cuts.tolist())) + [len(trial)]
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _sweep(level, trial, idx, reach, pairs, lower, best):
    """Bound blocks ``idx`` of ``level`` for ``trial`` through entry ``reach``.

    Raises ``lower`` to the values of the blocks' first points and
    returns the blocks, reordered, with the last entry each survives (-1
    if none); see :func:`_argmax`.  At the point level the bound is
    the value, and the smallest index that attains ``lower`` goes into
    ``best`` instead.
    """
    order = np.argsort(-reach, kind="stable")
    trial, idx, reach = trial[order], idx[order], reach[order]
    # blocks still swept at entry j are the first active[j]
    active = np.searchsorted(-reach, -np.arange(len(level.rows)), side="right").tolist()
    points = level.width == 1
    value = np.zeros(len(idx) if points else (2, len(idx)))  # bound, first point's value
    last = np.full(len(idx), -1)
    for j, a in enumerate(active):
        if not a:
            break
        t, i = trial[:a], idx[:a]
        value[..., :a] = _add_counts(value[..., :a], *level.rows[j].take(i, axis=-1),
                                     *pairs[j].take(t, axis=1))
        bound, first = (value[:a], value[:a]) if points else value[:, :a]
        np.maximum.at(lower[j], t, first)
        if points:
            # the grid's last index is no smaller than any index attaining the maximum
            hit = np.where(bound == lower[j].take(t), i, level.rows.shape[-1] - 1)
            np.minimum.at(best[j], t, hit)
        else:
            last[:a][bound >= lower[j].take(t)] = j
    return trial, idx, last


def crt_solve(r1: int, n1: int, r2: int, n2: int) -> int:
    """Unique v in [0, n1 n2) with v = r1 (mod n1) and v = r2 (mod n2).

    The moduli must be coprime, or ``pow`` raises ``ValueError``.
    """
    k = ((r2 - r1) * pow(n1, -1, n2)) % n2
    return (r1 % n1 + n1 * k) % (n1 * n2)


def _sign(x: float) -> int:
    return 1 if x >= 0 else -1


def crt_reconstruct(p_d: float, p_dm1: float, theta_ref: float,
                    d_max: int) -> tuple[float, CrtReadings]:
    """Algebraic core of the CRT estimator, on probabilities directly.

    ``p_d`` and ``p_dm1`` estimate ``sin^2((2D+1) theta)`` and
    ``sin^2((2D-1) theta)``; ``theta_ref`` is the low-depth angle that fixes
    the fold signs and anchors the candidate selection.  Returns the angle
    estimate together with its readings.
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
    candidates = [r1 + n1 * ((r2 - r1) * inverse % n2) for r1, r2 in
                  [((base1 + d1) % n1, (base2 + d2) % n2) for d1, d2 in EXTENDED_OFFSETS]]
    p0 = math.sin(theta_ref) ** 2
    folded = [min(v, modulus - v) for v in candidates]  # sin^2 cannot tell v from modulus - v
    best = min([(abs(math.sin(f * math.pi / modulus) ** 2 - p0), f) for f in folded])
    theta = best[1] * math.pi / modulus
    return theta, CrtReadings(theta, math.sin(theta) ** 2, l, h, s1, s2)


def _per_distinct(fn, values: np.ndarray, dtype) -> np.ndarray:
    """``fn`` of every element of ``values``, an array of ``dtype`` in its shape.

    ``fn`` gets each distinct element once, as a Python number, and its
    result is taken back to every place the element holds.  Floats are told
    apart by their bits, so ``0.0`` and ``-0.0``, and NaNs of different
    payloads, are distinct.
    """
    flat = values.ravel()  # a flat input gives a flat inverse on every numpy
    keys = flat.view(np.int64) if flat.dtype.kind == "f" else flat
    distinct, inverse = np.unique(keys, return_inverse=True)
    results = np.array(list(map(fn, distinct.view(flat.dtype).tolist())), dtype=dtype)
    return results[inverse].reshape(values.shape)


def _elementwise(fn, values) -> np.ndarray:
    """``fn`` of every element of ``values`` as a Python float, in an array of its shape."""
    return _per_distinct(fn, np.asarray(values, dtype=float), float)


def sin_squared(thetas) -> np.ndarray:
    """``math.sin(theta) ** 2`` of every element, as :meth:`Estimate.from_theta` has it.

    numpy's ``x ** 2`` rounds differently on about one input in a thousand.
    """
    return _elementwise(lambda theta: math.sin(theta) ** 2, thetas)


def crt_columns(p_d, p_dm1, theta_ref, d_max) -> CrtReadings:
    """:func:`crt_reconstruct` over arrays, equal to it element by element.

    The arguments broadcast together, one reconstruction per element;
    ``theta_ref`` must be finite.  The readings, fold signs and squared
    sines go through :mod:`math` as in the scalar version, because numpy's
    ``arcsin`` rounds differently on some inputs.
    """
    p_d, p_dm1, theta_ref, d_max = np.broadcast_arrays(
        np.asarray(p_d, dtype=float), np.asarray(p_dm1, dtype=float),
        np.asarray(theta_ref, dtype=float), np.asarray(d_max, dtype=np.int64))
    if np.any(d_max < 2):
        raise ValueError("CRT needs maximum depth >= 2")
    n1, n2 = 2 * d_max - 1, 2 * d_max + 1
    modulus = n1 * n2
    l = (2 * n1 / math.pi) * _elementwise(math.asin, np.sqrt(np.clip(p_d, 0.0, 1.0)))
    h = (2 * n2 / math.pi) * _elementwise(math.asin, np.sqrt(np.clip(p_dm1, 0.0, 1.0)))
    s1 = np.where(_elementwise(math.sin, 2 * n1 * theta_ref) >= 0, 1, -1)
    s2 = np.where(_elementwise(math.sin, 2 * n2 * theta_ref) >= 0, 1, -1)
    # sin^2(f pi / modulus) of every folded candidate f at each depth
    top = int(d_max.max(initial=2))
    folded_p = np.zeros((top + 1, 2 * top * top))
    for d in set(d_max.ravel().tolist()):
        m = 4 * d * d - 1
        folded_p[d, :m // 2 + 1] = [math.sin(f * math.pi / m) ** 2 for f in range(m // 2 + 1)]
    offsets = np.array(EXTENDED_OFFSETS)
    n1_, n2_, modulus_, d_ = n1[..., None], n2[..., None], modulus[..., None], d_max[..., None]
    r1 = (np.rint(s2 * l / 2).astype(np.int64)[..., None] + offsets[:, 0]) % n1_
    r2 = (np.rint(s1 * h / 2).astype(np.int64)[..., None] + offsets[:, 1]) % n2_
    # n1 D = D (2D + 1) - 2D = 1 (mod n2): D is the inverse of n1 modulo n2
    candidates = r1 + n1_ * ((r2 - r1) * d_ % n2_)
    folded = np.minimum(candidates, modulus_ - candidates)
    err = np.abs(folded_p[d_, folded] - sin_squared(theta_ref)[..., None])
    # the smallest error, ties toward the smaller folded value
    best = np.where(err == err.min(axis=-1, keepdims=True), folded, modulus_).min(axis=-1)
    return CrtReadings(best * math.pi / modulus, folded_p[d_max, best], l, h, s1, s2)
