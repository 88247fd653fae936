"""Amplitude estimators: direct sampling, grid-posterior MLE, CRT, hybrid.

Every estimate ties its probability to its angle by ``p_hat =
sin^2(theta_hat)`` and charges ``2d+1`` oracle calls per shot taken at
depth ``d`` (discarded shots included: the oracle ran for them too).
:func:`direct_estimate` alone returns one :class:`Estimate`;
:func:`mle_estimate` and :func:`crt_columns` fill arrays for many trials
at once.  :func:`crt_columns` is the one CRT implementation, and
:func:`crt_reconstruct` is one row of it.

The maximum-likelihood engine keeps an unnormalized log-posterior over the
angles ``theta_k = pi k eps / 2`` and adds per-depth binomial log-likelihoods
(500-shot exponents would overflow outside log space) of ``sin^2((2d+1) theta)``
for good counts and ``cos^2`` for bad ones, or of :mod:`noise`'s outcome law.  The
estimate at maximum depth D uses the shots at depths 0..D, so one pass
over the depths gives the estimate at every D: the argmax after each
depth's update.  The log-likelihood rows depend only on the grid, the
noise and the depth, so the engine computes them once per depth and call,
and updates the posteriors of a chunk of trials together.

The engine skips the points that provably cannot be the argmax.  It pads
the grid with ``-inf`` to whole top-level blocks (at most ``BRANCH**2``,
the points themselves on a grid that small), splits each block into
``BRANCH`` blocks of the next level down to single points, and one sweep
updates, level by level, only the blocks that can still hold the argmax.
A block's bound is the same update with each likelihood row replaced by
its maximum over the block, by the same floating-point operations in the
same order as a point's value.  For counts >= 0, which
:func:`mle_estimate` requires, every step is monotone under
round-to-nearest, so the bound is never below the value of any
point of the block.  A block is dropped at a depth only when its bound is
strictly below the value of some point there, so ties still resolve
toward the smaller index and every output equals the full pass's bit for
bit, also when a caller asks for the last one alone.

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

from .noise import NONNEGATIVE, DepthCounts, NoiseModel, check_fields, noisy_prob

EXTENDED_OFFSETS = tuple((d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1))
# Bytes of update scratch that mle_estimate holds at a time: one batch of
# rows of whole trials, CELL_BYTES per value swept (65 trials of 100 top
# blocks, 655 rows of ten blocks below, where gathers take about 50 B a
# value; one trial keeping most of the grid in play can exceed it).  The
# likelihood table, depths x 2 x padded grid float64 (1.28 MB for 8 depths
# at 1e-4), and the block maxima (a fifth of that) sit outside it.
CHUNK_BYTES = 1 << 19
# Blocks split into BRANCH blocks each, from at most BRANCH**2 blocks over
# the grid down to single points.
BRANCH = 10
# Peak scratch of one swept value of the top level, measured with tracemalloc.
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
        check_fields(self, {"mle_avg_depth2": NONNEGATIVE, "crt_exact_at_d": NONNEGATIVE,
                            "beta_hybrid": NONNEGATIVE})

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

    ``p1`` is ``sin^2((2d+1) theta)``, or the outcome law :func:`noise.noisy_prob` given
    a noise model; an outcome of probability zero has log-likelihood ``-inf``.
    """
    if noise is None:
        p1 = np.sin((2 * depth + 1) * thetas) ** 2
    else:
        p1 = noisy_prob(thetas, depth, noise, np.cos)
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
    n_good, n_bad = np.asarray(n_good)[..., None], np.asarray(n_bad)[..., None]
    return _add_counts(log_post, *rows, n_good, n_bad, (n_good > 0).all() and (n_bad > 0).all())


def _add_counts(log_post, log_p1, log_p0, n_good, n_bad, positive, out=None) -> np.ndarray:
    """:func:`bayesian_update` on arguments that broadcast to ``log_post``'s shape.

    ``positive`` says that every good and bad count is above zero, so that
    the masks of the zero counts would keep every element and the product
    needs none; the caller decides it, once for all the counts it passes
    here at one depth.  Both paths give the same bits wherever the counts
    are positive.  The sum goes into ``out`` when given, which may be
    ``log_post`` itself.
    """
    if positive:
        logl = np.multiply(n_good, log_p1, out=np.empty_like(log_post))
        logl += n_bad * log_p0
    else:
        logl = np.multiply(n_good, log_p1, out=np.zeros_like(log_post), where=n_good > 0)
        logl += np.multiply(n_bad, log_p0, out=np.zeros_like(log_post), where=n_bad > 0)
    return np.add(log_post, logl, out=logl if out is None else out)


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

    The likelihood rows of each entry are computed once, into one table
    that serves every trial, padded with ``-inf`` to whole top-level
    blocks.  A padded point's value is ``-inf`` from the first kept shot
    on, so it is never the argmax of an entry that needs one.
    """
    thetas = np.pi * np.arange(_grid_size(epsilon)) * epsilon / 2.0
    depths = list(depths)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 3 or counts.shape[1:] != (len(depths), 3):
        raise ValueError("counts need one (good, bad, discarded) entry per depth and trial")
    # the pruning is exact for counts >= 0 alone (see the module docstring)
    if (counts < 0).any():
        raise ValueError("counts must be >= 0")
    if min(depths, default=0) < 0:
        raise ValueError("depths must be >= 0")
    width = 1  # of a top-level block
    while width * BRANCH ** 2 < thetas.size:
        width *= BRANCH
    table = np.empty((len(depths), 2, -(-thetas.size // width) * width))
    table[..., thetas.size:] = -np.inf
    for j, depth in enumerate(depths):
        table[j, :, :thetas.size] = log_likelihood_rows(thetas, depth, noise)
    calls = np.cumsum(counts.sum(axis=2) * (2 * np.array(depths, dtype=np.int64) + 1), axis=1)
    # entries that get an argmax: from the first kept shot on, or the last alone
    needed = np.logical_or.accumulate(counts[..., 0] + counts[..., 1] > 0, axis=1)
    needed[:, :-1] &= not last_only
    k, top = _argmax(counts, needed, table)
    # an underflowed posterior is -inf everywhere and stays so
    underflow = needed & (top == -np.inf)
    failed = underflow[:, -1:].any(axis=1)
    theta = np.where(needed & ~underflow & ~failed[:, None], thetas.take(k, mode="clip"), np.nan)
    reason = np.full(len(counts), None, dtype=object)
    reason[~needed[:, -1:].any(axis=1)] = "no kept shots at any depth"
    reason[failed] = "posterior underflow: counts are inconsistent with the grid"
    return MlePass(theta, calls, reason)


def _levels(table) -> list[np.ndarray]:
    """The levels of the pass, coarsest first, each shaped ``(..., parents, children)``.

    One parent holds the at most ``BRANCH**2`` top blocks, each block holds
    :data:`BRANCH` blocks of the next level, and the points are the table.
    ``[j, :, :, p, c]`` of a level of blocks is ``[[max log p1, first log
    p1], [max log p0, first log p0]]``: entry ``j``'s likelihood rows over
    child ``c`` of parent ``p``, and at its first point.
    """
    levels, width, below = [table], 1, table
    while width * BRANCH ** 2 < table.shape[2]:
        width *= BRANCH
        rows = np.empty(table.shape[:2] + (2, table.shape[2] // width))
        # a block's maximum is that of its children's, taken child by child
        maxima = np.maximum(below[..., 0::BRANCH], below[..., 1::BRANCH], out=rows[:, :, 0])
        for c in range(2, BRANCH):
            np.maximum(maxima, below[..., c::BRANCH], out=maxima)
        rows[:, :, 1] = table[..., ::width]
        levels.insert(0, rows)
        below = maxima
    parents = [1] + [level.shape[-1] for level in levels[:-1]]
    return [level.reshape(level.shape[:-1] + (p, level.shape[-1] // p))
            for level, p in zip(levels, parents)]


def _argmax(counts, needed, table) -> tuple[np.ndarray, np.ndarray]:
    """Posterior argmax and maximum of each trial after each ``needed`` entry.

    A block's bound after entry ``j`` is the update of entries ``0..j``
    applied to its maxima in :func:`_levels`, by :func:`_add_counts` as a
    point's value is, so it is never below the value of any point in the
    block (see the module docstring).  The lower bound after entry ``j`` is
    the largest value so far of a point: the first point of every block
    swept.  A block survives entry ``j`` unless its bound is strictly below
    the lower bound there; an entry that is not needed has lower bound
    ``+inf`` and keeps no block.  Every trial sweeps the top level through
    every entry, each block below only through the last entry its parent
    survives.  At the point level the bound is the value, so the lower
    bound ends at each trial's maximum and the smallest index attaining it
    is the argmax; an entry without one keeps ``table.shape[2]``.

    Two facts of each entry are decided once per pass, for every sweep.
    Whether all its good and bad counts are positive picks the path of
    :func:`_add_counts` there, so a block's bound and its points' values
    take the same one.  Whether any trial needs it: at an entry that none
    needs, ``lower`` is ``+inf`` for every trial and no value is ``+inf``,
    so a sweep only updates there (the entries before the last of a
    ``last_only`` pass).
    """
    lower = np.where(needed.T, -np.inf, np.inf)
    best = np.full(lower.shape, table.shape[2])
    # (good, bad) counts of each trial by entry, as exact floats: pairs[j, :, t]
    pairs = np.ascontiguousarray(counts[..., :2].transpose(1, 2, 0), dtype=float)
    # per entry: whether all its counts are positive, and whether any trial needs it
    entries = (pairs, (pairs > 0).all(axis=(1, 2)).tolist(), needed.any(axis=0).tolist())
    trials = np.arange(len(counts))
    _descend(_levels(table), trials, np.zeros_like(trials), np.full_like(trials, len(table) - 1),
             entries, lower, best)
    return best.T, lower.T


def _descend(levels, trial, idx, reach, entries, lower, best) -> None:
    """Sweep the children in ``levels[0]`` of parents ``idx`` for ``trial`` through ``reach``.

    Batches of whole trials (``trial`` is sorted) of about :data:`CHUNK_BYTES`
    / :data:`CELL_BYTES` values each, their survivors descending a level.
    """
    level = levels[0]
    # values a row sweeps: its children's, or their bounds and first points' values
    budget = max(1, CHUNK_BYTES // (CELL_BYTES * math.prod(level.shape[2:-2]) * level.shape[-1]))
    # each batch starts at the first row of the trial at a budget-th row
    cuts = list(dict.fromkeys(np.searchsorted(trial, trial[::budget]).tolist())) + [len(trial)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        last = _sweep(level, trial[a:b], idx[a:b], reach[a:b], entries, lower, best)
        if len(levels) > 1:
            r, c = np.nonzero(last >= 0)  # sorted by trial, as the rows are
            _descend(levels[1:], trial[a:b][r], idx[a:b][r] * level.shape[-1] + c,
                     last[r, c], entries, lower, best)


def _sweep(level, trial, idx, reach, entries, lower, best):
    """Bound the children of parents ``idx`` of ``level`` for ``trial`` through entry ``reach``.

    Each entry updates one (rows x children) slab: row ``r`` gathers the
    children of parent ``idx[r]``, or broadcasts those of a level's one
    parent.  At an entry that some trial needs, each row's largest first
    point's value raises ``lower``; returns the last entry each child of
    each row survives (-1 if none); see :func:`_argmax`.  At the point
    level the bound is the value, and each row's smallest index attaining
    ``lower`` goes into ``best`` instead, every other row giving the index
    past the points.  At an entry that no trial needs the update is all:
    no child survives it and no row attains ``+inf``.
    """
    order = np.argsort(-reach, kind="stable")
    trial, idx, reach = trial[order], idx[order], reach[order]
    pairs, positive, wanted = entries
    pairs = pairs.take(trial, axis=2)  # each row's counts: rows swept at entry j come first
    # rows still swept at entry j are the first active[j]
    active = np.searchsorted(-reach, -np.arange(len(level)), side="right").tolist()
    points, children = level.ndim == 4, level.shape[-1]
    # each child's value, or its bound and its first point's value
    value = np.zeros((() if points else (2,)) + (len(idx), children))
    last = np.full((len(idx), 0 if points else children), -1)  # points have no children
    for j, a in enumerate(active):
        if not a:
            break
        t, swept = trial[:a], value[..., :a, :]
        slab = level[j] if level.shape[-2] == 1 else level[j].take(idx[:a], axis=-2)
        _add_counts(swept, *slab, *pairs[j, :, :a, None], positive[j], out=swept)
        if not wanted[j]:
            continue  # lower is +inf for every trial: nothing raises it, survives or hits it
        bound, first = (swept, swept) if points else swept
        k = first.argmax(axis=1)
        top = first[np.arange(a), k]
        np.maximum.at(lower[j], t, top)
        low = lower[j].take(t)
        if points:
            hit = np.where(top == low, idx[:a] * children + k, level[0, 0].size)
            np.minimum.at(best[j], t, hit)
        else:
            np.putmask(last[:a], bound >= low[:, None], j)
    return last[np.argsort(order)]  # in the rows' given order


def crt_solve(r1: int, n1: int, r2: int, n2: int) -> int:
    """Unique v in [0, n1 n2) with v = r1 (mod n1) and v = r2 (mod n2).

    The moduli must be coprime, or ``pow`` raises ``ValueError``.
    """
    k = ((r2 - r1) * pow(n1, -1, n2)) % n2
    return (r1 % n1 + n1 * k) % (n1 * n2)


def crt_reconstruct(p_d: float, p_dm1: float, theta_ref: float,
                    d_max: int) -> tuple[float, CrtReadings]:
    """Algebraic core of the CRT estimator, on probabilities directly.

    ``p_d`` and ``p_dm1`` estimate ``sin^2((2D+1) theta)`` and
    ``sin^2((2D-1) theta)``; ``theta_ref`` is the low-depth angle that fixes
    the fold signs and anchors the candidate selection.  Returns the angle
    estimate together with its readings, as Python numbers: one row of
    :func:`crt_columns`.
    """
    readings = CrtReadings(*(x.item() for x in crt_columns(p_d, p_dm1, theta_ref, d_max)))
    return readings.theta, readings


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
    """The CRT estimator over arrays: one reconstruction per element.

    The arguments broadcast together and must be finite.  The readings,
    fold signs and squared sines go through :mod:`math`, because numpy's
    ``arcsin`` rounds differently on some inputs.  Of the 3x3 offset grid's
    candidates, the one whose squared sine is nearest that of
    ``theta_ref`` wins, ties toward the smaller folded value.
    """
    p_d, p_dm1, theta_ref, d_max = np.broadcast_arrays(
        np.asarray(p_d, dtype=float), np.asarray(p_dm1, dtype=float),
        np.asarray(theta_ref, dtype=float), np.asarray(d_max, dtype=np.int64))
    if np.any(d_max < 2):
        raise ValueError("CRT needs maximum depth >= 2")
    for name, values in (("p_d", p_d), ("p_dm1", p_dm1), ("theta_ref", theta_ref)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    n1, n2 = 2 * d_max - 1, 2 * d_max + 1
    modulus = n1 * n2
    l = (2 * n1 / math.pi) * _elementwise(math.asin, np.sqrt(np.clip(p_d, 0.0, 1.0)))
    h = (2 * n2 / math.pi) * _elementwise(math.asin, np.sqrt(np.clip(p_dm1, 0.0, 1.0)))
    s1 = np.where(_elementwise(math.sin, 2 * n1 * theta_ref) >= 0, 1, -1)
    s2 = np.where(_elementwise(math.sin, 2 * n2 * theta_ref) >= 0, 1, -1)
    # sin^2(f pi / modulus) of every folded candidate f, one row per distinct depth
    depths, row = np.unique(d_max.ravel(), return_inverse=True)
    row = row.reshape(d_max.shape)
    folded_p = np.zeros((len(depths), 2 * int(depths.max(initial=2)) ** 2))
    for i, d in enumerate(depths.tolist()):
        m = 4 * d * d - 1
        folded_p[i, :m // 2 + 1] = [math.sin(f * math.pi / m) ** 2 for f in range(m // 2 + 1)]
    offsets = np.array(EXTENDED_OFFSETS)
    n1_, n2_, modulus_, d_ = n1[..., None], n2[..., None], modulus[..., None], d_max[..., None]
    r1 = (np.rint(s2 * l / 2).astype(np.int64)[..., None] + offsets[:, 0]) % n1_
    r2 = (np.rint(s1 * h / 2).astype(np.int64)[..., None] + offsets[:, 1]) % n2_
    # n1 D = D (2D + 1) - 2D = 1 (mod n2): D is the inverse of n1 modulo n2
    candidates = r1 + n1_ * ((r2 - r1) * d_ % n2_)
    folded = np.minimum(candidates, modulus_ - candidates)  # sin^2 cannot tell v from modulus - v
    err = np.abs(folded_p[row[..., None], folded] - sin_squared(theta_ref)[..., None])
    # the smallest error, ties toward the smaller folded value
    best = np.where(err == err.min(axis=-1, keepdims=True), folded, modulus_).min(axis=-1)
    return CrtReadings(best * math.pi / modulus, folded_p[row, best], l, h, s1, s2)
