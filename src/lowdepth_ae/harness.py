"""End-to-end experiment driver.

A run first draws every trial: a random vector pair, one shot pool per
depth and the power-law subsample, gathered into one (trials, depths, 3)
array of good, bad and discarded counts.  Each enabled estimator then
fills its columns of one :class:`RunTable` for all trials at once: the
MLE passes update chunks of trials together, CRT reconstructs every
(trial, depth) pair in one call and the hybrid chooses with one mask.
Emission writes per-trial and aggregate CSVs plus a JSON manifest, the
per-trial rows a fixed-size chunk at a time.  All randomness flows from
a single seed through :func:`run_streams`, one calibration stream and
one stream per trial, so identical configs produce byte-identical output
files, and ``calibrate`` and ``fit-noise`` see the very draws a run sees.

Oracle-call accounting is cumulative for the MLE rows: the point at
maximum depth d charges all shots taken at depths 0..d, each shot at
depth d' costing 2d'+1 calls.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .estimators import (CHUNK_BYTES, CrtReadings, HybridCalibration, _bits, _elementwise,
                         _grid_size, _oracle_calls, _per_distinct, crt_columns, hybrid_fallback,
                         mle_estimate, sin_squared)
from .noise import (NONNEGATIVE, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, REAL,
                    CorrelatedNoise, NoiseModel, _checked_counts, check_fields, checked,
                    damped_cosine, sample_noisy_shots)
from .schedules import InfeasibleScheduleError, optimize_exponent, power_law_schedule

ALGORITHMS = ("direct", "mle", "crt", "hybrid", "powerlaw")
VECTOR_MODES = ("haar", "uniform-theta")
BETA_TUNING_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
# spawn keys whose seed words run_streams derives at once; a power of two,
# so no block straddles key 2**32, where a key starts to take two words
STREAM_BLOCK = 1024
# trials whose vector pairs one set of numpy calls draws; their generators
# live together, so not STREAM_BLOCK of them (about 1 KB each)
PAIR_BLOCK = 64
# (trial, slot) cells whose trials.csv rows aggregate_and_emit formats and
# writes at a time, CHUNK_BYTES of scratch: a chunk peaks at about 512 B a
# row (measured with tracemalloc), its lines and its cells' strings.
ROW_CHUNK = CHUNK_BYTES // 512

TRIAL_COLUMNS = ("algorithm", "depth", "oracle_calls", "trial_id", "theta_true",
                 "p_true", "theta_hat", "p_hat", "abs_err_p", "abs_err_theta",
                 "branch_tag")
AGGREGATE_COLUMNS = ("algorithm", "depth", "total_oracle_calls", "mean_abs_err_p",
                     "std_err_p", "mean_abs_err_theta")


JSON_OBJECT = (dict, "an object of named fields")  # the rule of a config and its noise


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes to/from a JSON config file."""

    n_trials: int = 50
    n_shots: int = 500
    max_depth: int = 7
    epsilon: float = 0.001
    seed: int = 0
    vector_mode: str = "haar"
    algorithms: tuple[str, ...] = ALGORITHMS
    noise: NoiseModel = field(default_factory=NoiseModel.linear_ramp)
    mle_noise_aware: bool = False
    beta_hybrid: float = 1.0
    tune_beta: bool = False
    calib_trials: int = 200
    powerlaw_target_eps: float = 0.01

    def __post_init__(self):
        check_fields(self, {
            "n_trials": POSITIVE_INT, "n_shots": POSITIVE_INT, "max_depth": NONNEGATIVE_INT,
            "epsilon": (REAL, "a number in (0, 1)", lambda v: 0 < v < 1),
            "seed": NONNEGATIVE_INT,
            "vector_mode": (str, f"one of {VECTOR_MODES}", VECTOR_MODES.__contains__),
            "algorithms": ((list, tuple), "a list of names",
                           lambda v: all(isinstance(a, str) for a in v)),
            "noise": (NoiseModel, "a noise model"), "mle_noise_aware": (bool, "true or false"),
            "beta_hybrid": NONNEGATIVE, "tune_beta": (bool, "true or false"),
            "calib_trials": POSITIVE_INT, "powerlaw_target_eps": POSITIVE})
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        _grid_size(self.epsilon)
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"algorithms {list(self.algorithms)} name one more than once")
        if self.noise.max_depth < self.max_depth:
            raise ValueError("noise model does not cover max_depth")
        if ("crt" in self.algorithms or "hybrid" in self.algorithms) and self.max_depth < 2:
            raise ValueError("crt/hybrid need max_depth >= 2")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(checked("config", data, *JSON_OBJECT))
        noise = data.pop("noise", None)
        if noise is not None:
            corr = checked("noise", noise, *JSON_OBJECT).get("correlation")
            data["noise"] = NoiseModel(**{**noise, "correlation": None if corr is None else
                                          CorrelatedNoise(**checked("noise correlation", corr,
                                                                    *JSON_OBJECT))})
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(eq=False)
class RunTable:
    """The trials of a run and every row their estimators produced, as columns.

    Trial ``t`` (its id in the outputs) has true angle ``theta_true[t]`` and
    shot pool ``counts[t, d]`` of (good, bad, discarded) tallies at depth
    ``d``.  Slot ``k`` is the row (``algorithm[k]``, ``label[k]``) of every
    trial, in ``trials.csv`` order.  Cell ``[t, k]`` holds ``theta_hat``
    (``nan`` if the row was dropped), ``oracle_calls``, the hybrid
    ``branch`` and the ``reason`` a row was dropped (else ``None``).  With
    CRT or hybrid on, ``anchor`` is each trial's depth-2 MLE angle (``nan``
    if none) and ``crt`` holds the CRT columns of depths 2..D, which mean
    something where the trial's CRT row at that depth is kept.
    """

    theta_true: np.ndarray
    counts: np.ndarray
    algorithm: tuple[str, ...]
    label: tuple
    theta_hat: np.ndarray
    oracle_calls: np.ndarray
    branch: np.ndarray
    reason: np.ndarray
    anchor: np.ndarray | None = None
    crt: CrtReadings | None = None

    @cached_property
    def p_true(self) -> np.ndarray:
        return sin_squared(self.theta_true)

    @cached_property
    def p_hat(self) -> np.ndarray:
        return sin_squared(self.theta_hat)

    @cached_property
    def kept(self) -> np.ndarray:
        return ~np.isnan(self.theta_hat)

    def slot(self, algorithm: str, label) -> int:
        return list(zip(self.algorithm, self.label)).index((algorithm, label))

    def err_p(self, algorithm: str, label) -> np.ndarray:
        """``|p_hat - p_true|`` of the kept rows of one slot, in trial order."""
        k = self.slot(algorithm, label)
        kept = self.kept[:, k]
        return np.abs(self.p_hat[kept, k] - self.p_true[kept])

    def errors(self) -> dict[str, dict[str, str]]:
        """Per trial id and algorithm, ``"depth <label>: <reason>"`` of each dropped row."""
        dropped: dict[str, dict[str, list]] = {}
        for t, k in zip(*(i.tolist() for i in np.nonzero(~self.kept))):
            dropped.setdefault(str(t), {}).setdefault(
                self.algorithm[k], []).append(f"depth {self.label[k]}: {self.reason[t, k]}")
        return {t: {alg: "; ".join(rows) for alg, rows in by_alg.items()}
                for t, by_alg in dropped.items()}


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i].dot(b[i])`` of each row pair, as an (n, 1) column, bit for bit.

    numpy runs a row-by-column matmul on ``ndarray.dot``'s loop; ``einsum``
    and ``(a * b).sum(1)`` round differently.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0]


def sample_vector_pairs(rngs, mode: str = "haar") -> tuple[np.ndarray, np.ndarray]:
    """A random 4-dimensional unit-vector pair from each of a block of generators, as (n, 4) arrays.

    ``haar`` normalizes independent Gaussian draws; ``uniform-theta`` first
    draws the target angle uniformly on [0, pi/2] and builds a pair with
    ``x . y = sin(theta)``, spreading the estimated probability over [0, 1].
    Each generator draws its angle, then its eight normals into its row;
    the arithmetic then runs once over the block, with :func:`_dots`,
    ``np.sqrt`` (correctly rounded, as ``math.sqrt`` is) and ``math.sin``
    and ``math.cos`` per row, so row i is the pair that generator would
    make alone.  A block holds each generator once.
    """
    if mode not in VECTOR_MODES:
        raise ValueError(f"unknown vector mode {mode!r}")
    if len(set(map(id, rngs))) != len(rngs):
        raise ValueError("a block of pairs holds a generator more than once")
    # rng.uniform(0, pi / 2), bit for bit, before the normals
    thetas = [math.pi / 2 * rng.random() for rng in rngs] if mode == "uniform-theta" else None
    normals = np.empty((len(rngs), 2, 4))
    for rng, row in zip(rngs, normals):
        rng.standard_normal(out=row)
    x, u = normals[:, 0], normals[:, 1]
    if mode == "haar":
        return x / np.sqrt(_dots(x, x)), u / np.sqrt(_dots(u, u))
    x /= np.sqrt(_dots(x, x))
    u -= _dots(u, x) * x
    u /= np.sqrt(_dots(u, u))
    y = np.array([math.sin(t) for t in thetas])[:, None] * x \
        + np.array([math.cos(t) for t in thetas])[:, None] * u
    return x, y / np.sqrt(_dots(y, y))


def _trial_pairs(rngs, mode: str) -> Iterator[tuple[np.random.Generator, tuple]]:
    """Each generator of ``rngs`` with its vector pair, drawn a block of trials at a time.

    A block ends at ``PAIR_BLOCK`` generators, or just before one it
    already holds, so a generator that feeds many trials draws each pair
    right before that trial's pools.  A block's generators are pulled, and
    draw their pairs, when it starts (none past a full block); each then
    draws the rest of its trial as it comes.
    """
    def drawn(block):
        return zip(block.values(), zip(*sample_vector_pairs(block.values(), mode)))

    block = {}  # the block's generators by id, in order
    for rng in rngs:
        if id(rng) in block:
            yield from drawn(block)
            block = {}
        block[id(rng)] = rng
        if len(block) == PAIR_BLOCK:
            yield from drawn(block)
            block = {}
    yield from drawn(block)


def _hash_consts(init: int, mult: int, skip: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``SeedSequence``'s hash calls ``skip`` to ``skip + n - 1`` xor in and multiply by.

    Each call xors in the running constant, advances it by ``mult`` and
    multiplies by the advanced one.
    """
    consts = np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(skip, skip + n + 1)],
                      dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _spawned_seed_words(seed_seq, keys: range) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=(k,)).generate_state(4, np.uint64)`` for each k, as rows.

    ``seed_seq``, the seed's own ``SeedSequence``, holds the seed's words
    mixed as every child first mixes them; only the keys' words are mixed
    here, with numpy's arithmetic (fixed by NEP 19).  Every key must take
    as many 32-bit words as the others, as in a power-of-two-aligned block.
    """
    # the hex constants are numpy's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R, INIT_B, MULT_B
    n_seed = max(4, -(-int(seed_seq.entropy).bit_length() // 32))
    n_key = max(1, -(-(keys.stop - 1).bit_length() // 32))
    xor, mul = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * n_seed, 4 * n_key)
    pool = np.repeat(seed_seq.pool[:, None], len(keys), axis=1)
    spawn_key = np.arange(keys.start, keys.stop, dtype=np.uint64)
    for j in range(n_key):
        word = (spawn_key >> np.uint64(32 * j)).astype(np.uint32)
        hashed = (word ^ xor[4 * j:4 * j + 4]) * mul[4 * j:4 * j + 4]
        hashed ^= hashed >> np.uint32(16)
        pool = np.uint32(0xCA01F9DD) * pool - np.uint32(0x4973F715) * hashed
        pool ^= pool >> np.uint32(16)
    xor, mul = _hash_consts(0x8B51F9DD, 0x58F38DED, 0, 8)
    state = (np.tile(pool, (2, 1)) ^ xor) * mul
    state ^= state >> np.uint32(16)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedWords:
    """A seed sequence that hands a bit generator precomputed seed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def run_streams(seed: int, n_trials: int
                ) -> tuple[np.random.Generator, Iterator[np.random.Generator]]:
    """The random streams of a run: ``(calibration_rng, trial_rngs)``.

    Stream 0 calibrates and stream i + 1 feeds trial i.  Stream i is
    ``SeedSequence(seed).spawn(n_trials + 1)[i]``, the child with the
    seed's entropy and spawn key ``(i,)``.  No child is spawned: the
    PCG64 seed words of ``STREAM_BLOCK`` keys are derived at once when the
    iterator reaches their block, with numpy's SeedSequence arithmetic
    (the seed's words mixed once per run, each key's per row), so every
    generator, built only when its trial starts, begins in the child's
    state and draws what the child would.
    """
    n_trials = checked("n_trials", n_trials, *NONNEGATIVE_INT)
    from numpy.random.bit_generator import ISeedSequence  # numpy.random loads on first use
    ISeedSequence.register(_SeedWords)
    seed_seq = np.random.SeedSequence(checked("seed", seed, *NONNEGATIVE_INT))
    generator, pcg64 = np.random.Generator, np.random.PCG64

    def streams() -> Iterator[np.random.Generator]:
        for start in range(0, n_trials + 1, STREAM_BLOCK):
            keys = range(start, min(start + STREAM_BLOCK, n_trials + 1))
            for words in _spawned_seed_words(seed_seq, keys):
                yield generator(pcg64(_SeedWords(words)))

    trial_rngs = streams()
    return next(trial_rngs), trial_rngs


def _powerlaw_plan(config: ExperimentConfig) -> tuple[int, ...] | str | None:
    """The power-law shots per depth of a config, or why it has none.

    ``None`` when the power-law estimator is off.  The schedule depends on
    the config alone, so a run solves for it once.
    """
    if "powerlaw" not in config.algorithms:
        return None
    try:
        nu = optimize_exponent(config.powerlaw_target_eps, config.n_shots,
                               config.max_depth, config.noise.gamma_by_depth)
    except InfeasibleScheduleError as exc:
        return str(exc)
    return power_law_schedule(nu, config.n_shots, config.max_depth)


def _draw(config: ExperimentConfig, pair, rng: np.random.Generator, plan):
    """The true angle, shot pool and power-law subsample tallies of one trial.

    Tallies are the good, bad and discarded counts of each depth in turn,
    flat.  The pool and then the subsample (``None`` without a schedule)
    are drawn from ``rng``, which has already drawn the trial's pair.
    """
    x, y = pair
    theta_true = math.asin(min(abs(float(x.dot(y))), 1.0))
    n_shots, noise = config.n_shots, config.noise
    tallies = []
    for d in range(config.max_depth + 1):
        tallies += sample_noisy_shots(theta_true, d, n_shots, noise, rng)[1:]
    subsampled = None
    if isinstance(plan, tuple):
        # m of the depth's kept shots without replacement; m = 0 takes no draw
        subsampled = []
        for m, good, bad in zip(plan, tallies[::3], tallies[1::3]):
            m = min(m, good + bad)
            n_good = int(rng.hypergeometric(good, bad, m)) if m else 0
            subsampled += (n_good, m - n_good, 0)
    return theta_true, tallies, subsampled


def _estimate(config: ExperimentConfig, draws, plan, calibrations=None) -> RunTable:
    """Every enabled estimator on every trial drawn by :func:`_draw`, as one table.

    ``plan`` is the :func:`_powerlaw_plan` the draws were made with.
    """
    n_depths = config.max_depth + 1
    depths = range(n_depths)
    thetas, pools, subsampled = zip(*draws) if draws else ((), (), ())
    theta_true = np.array(thetas, dtype=float)
    counts = np.array(pools, dtype=np.int64).reshape(-1, n_depths, 3)
    if not config.algorithms:  # sampling only: no estimate columns
        n = len(draws)
        none = np.empty((n, 0), object)  # holds no cell, so branch and reason share it
        return RunTable(theta_true, counts, (), (), np.empty((n, 0)), np.empty((n, 0), np.int64),
                        none, none)
    blocks = {}  # algorithm -> labels and (trials x labels) theta, reason, calls, branch

    def add(algorithm, labels, theta, calls, *drops, branch=""):
        """Each of ``drops`` holds a reason where a row drops, else ``None``; the first wins."""
        reason = np.full(theta.shape, None, dtype=object)
        for why in drops:
            reason = np.where(np.equal(reason, None), why, reason)
        blocks[algorithm] = (tuple(labels), np.where(np.equal(reason, None), theta, np.nan),
                             reason, calls, np.broadcast_to(branch, theta.shape))

    # kept good fraction and no-kept-shot flag per (trial, depth)
    empty = counts[..., 0] + counts[..., 1] == 0
    rate = counts[..., 0] / np.maximum(counts[..., 0] + counts[..., 1], 1)
    shot_calls = _oracle_calls(counts, depths)
    if "direct" in config.algorithms:
        add("direct", (0,), _elementwise(math.asin, np.sqrt(rate[:, :1])), shot_calls[:, :1],
            np.where(empty[:, :1], "all shots were discarded", None))
    mle_noise = config.noise if config.mle_noise_aware else None
    if "mle" in config.algorithms:
        mle = mle_estimate(counts, depths, config.epsilon, mle_noise)
        add("mle", depths, mle.theta, mle.calls, mle.reason[:, None],
            np.where(np.isnan(mle.theta), [f"no kept shots at depths 0..{d}" for d in depths],
                     None))

    anchor, crt = None, None
    if "crt" in config.algorithms or "hybrid" in config.algorithms:
        # the depth-2 estimate of a noise-unaware MLE pass over the pools;
        # a trial without one gets its own pass over depths 0..2
        anchor = np.full(len(draws), np.nan)
        anchor_calls = np.zeros(len(draws), dtype=np.int64)
        anchor_why = np.full(len(draws), None, dtype=object)
        if "mle" in config.algorithms and mle_noise is None:
            anchor, anchor_calls = mle.theta[:, 2].copy(), mle.calls[:, 2].copy()
        redo = np.flatnonzero(np.isnan(anchor))
        if redo.size:
            again = mle_estimate(counts[redo, :3], range(3), config.epsilon, last_only=True)
            anchor[redo], anchor_calls[redo], anchor_why[redo] = \
                again.theta[:, 2], again.calls[:, 2], again.reason
        d = np.arange(2, n_depths)
        crt = crt_columns(rate[:, 2:], rate[:, 1:-1], np.nan_to_num(anchor)[:, None], d)
        calls = anchor_calls[:, None] + shot_calls[:, 2:] + shot_calls[:, 1:-1]
        drops = (np.where(np.isnan(anchor), [f"anchor: {why}" for why in anchor_why],
                          None)[:, None],
                 np.where(empty[:, 2:], [f"no kept shots at depth {x}" for x in d], None),
                 np.where(empty[:, 1:-1], [f"no kept shots at depth {x - 1}" for x in d], None))
        add("crt", d.tolist(), crt.theta, calls, *drops)
        if "hybrid" in config.algorithms:
            cal = calibrations or {}  # a depth's calibration, or why it has none
            threshold = np.array([getattr(cal.get(x), "threshold", np.nan) for x in d.tolist()])
            fallback = hybrid_fallback(sin_squared(anchor)[:, None], crt.p_hat, threshold)
            add("hybrid", d.tolist(), np.where(fallback, anchor[:, None], crt.theta), calls,
                *drops, np.where(np.isnan(threshold), "no calibration", None),
                branch=np.where(fallback, "mle", "crt"))

    if "powerlaw" in config.algorithms:
        label = (f"eps={config.powerlaw_target_eps:g}",)
        if isinstance(plan, str):
            zeros = np.zeros((len(draws), 1), dtype=np.int64)
            add("powerlaw", label, zeros, zeros, np.full(zeros.shape, plan, dtype=object))
        else:
            subsampled = np.array(subsampled, dtype=np.int64).reshape(-1, n_depths, 3)
            powerlaw = mle_estimate(subsampled, depths, config.epsilon, config.noise,
                                    last_only=True)
            add("powerlaw", label, powerlaw.theta[:, -1:], powerlaw.calls[:, -1:],
                powerlaw.reason[:, None])

    labels, thetas, reasons, calls, branches = zip(*(blocks[alg] for alg in config.algorithms))

    def join(parts, dtype):
        return np.concatenate(parts, axis=1, dtype=dtype)

    return RunTable(
        theta_true=theta_true, counts=counts,
        algorithm=tuple(alg for alg, slots in zip(config.algorithms, labels) for _ in slots),
        label=sum(labels, ()), theta_hat=join(thetas, float), oracle_calls=join(calls, np.int64),
        branch=join(branches, object), reason=join(reasons, object), anchor=anchor, crt=crt)


def run_trial(config: ExperimentConfig, pair, rng: np.random.Generator,
              calibrations: dict[int, HybridCalibration | str] | None = None) -> RunTable:
    """Simulate one shot pool and run every enabled estimator on it.

    The true angle is ``asin(min(|x . y|, 1))``, the angle whose squared
    sine the depth-0 oracle circuit succeeds with.  Each depth is sampled
    exactly once; the power-law estimator subsamples the recorded pool
    without replacement rather than taking fresh shots.  One MLE pass over
    the pool gives the MLE row at every depth.  CRT and hybrid rows share a
    depth-2 anchor, kept in the table's ``anchor``: the depth-2 MLE row
    when that pass is noise-unaware and has one, else the estimate of a
    separate noise-unaware pass over depths 0..2.  A row whose own inputs
    kept no shot is dropped with its reason; the other rows stay.
    """
    plan = _powerlaw_plan(config)
    return _estimate(config, [_draw(config, pair, rng, plan)], plan, calibrations)


def run_trials(config: ExperimentConfig, rngs,
               calibrations: dict[int, HybridCalibration | str] | None = None) -> RunTable:
    """:func:`run_trial` on a vector pair drawn from each generator, trial ids from 0.

    Every trial's stream is consumed first, in the order pair, pool,
    power-law subsample, so a generator may feed many trials, each in
    turn; the pairs of a block of trials are drawn together by
    :func:`sample_vector_pairs`, and the power-law schedule is solved once.
    The estimators then fill their columns for all trials at once.
    """
    plan = _powerlaw_plan(config)
    draws = [_draw(config, pair, rng, plan)
             for rng, pair in _trial_pairs(rngs, config.vector_mode)]
    return _estimate(config, draws, plan, calibrations)


def calibrate_hybrid(config: ExperimentConfig,
                     rng: np.random.Generator) -> dict[int, HybridCalibration | str]:
    """Each CRT depth's hybrid calibration, from ``config.calib_trials`` draws.

    The draws are :func:`run_trials` of CRT alone on ``rng`` (the
    calibration stream of :func:`run_streams`) given once per draw, so
    each draws its pair right before its pools.  First each depth's
    inputs, once: depth d is calibrated on the draws that kept its CRT
    row (the anchor and depths d - 1 and d), as every estimator drops a
    row alone; ``mle_avg_depth2`` is their mean error of the depth-2 MLE
    anchor under the configured noise and shot budget, ``crt_exact_at_d``
    their mean error of the CRT reconstruction fed exact (infinite-shot,
    noiseless) probabilities.  Then the multiplier: ``config.beta_hybrid``,
    or with ``config.tune_beta`` the first of ``BETA_TUNING_GRID`` with
    the smallest best-depth hybrid error among those whose hybrid never
    loses to plain CRT (by more than 1e-12) at any calibrated depth, if
    one qualifies.  Each depth gets its calibration at that multiplier,
    or, where no draw kept its CRT row, the reason it has none, and the
    hybrid drops its rows there.  Calibration needs CRT depths
    2..max_depth: a ``max_depth`` below 2 raises ``ValueError``.
    """
    if config.max_depth < 2:
        raise ValueError("calibration needs CRT depths 2..max_depth, "
                         f"but max_depth is {config.max_depth}")
    crt_config = dataclasses.replace(config, algorithms=("crt",))  # no power-law plan
    table = run_trials(crt_config, [rng] * config.calib_trials)
    d_max = np.array(table.label)
    theta = table.theta_true[:, None]
    exact = crt_columns(sin_squared((2 * d_max + 1) * theta),
                        sin_squared((2 * d_max - 1) * theta), theta, d_max)
    anchor_p = sin_squared(table.anchor)

    def mean_err(p_hat, j) -> float:
        """The mean ``|p_hat - p_true|`` over the draws that kept CRT slot ``j``."""
        rows = table.kept[:, j]
        return float(np.mean(np.abs(p_hat[rows] - table.p_true[rows])))

    # per CRT slot that some draw kept, its depth's calibration at the configured multiplier
    calibrated = {j: HybridCalibration(mle_avg_depth2=mean_err(anchor_p, j),
                                       crt_exact_at_d=mean_err(exact.p_hat[:, j], j),
                                       beta_hybrid=config.beta_hybrid)
                  for j in range(len(table.label)) if table.kept[:, j].any()}
    beta, best_err = config.beta_hybrid, math.inf
    if config.tune_beta and calibrated:
        for candidate in BETA_TUNING_GRID:
            hybrid, crt = [], []  # mean errors at each calibrated depth
            for j, cal in calibrated.items():
                crt_p = table.p_hat[:, j]
                threshold = dataclasses.replace(cal, beta_hybrid=candidate).threshold
                hybrid.append(mean_err(np.where(hybrid_fallback(anchor_p, crt_p, threshold),
                                                anchor_p, crt_p), j))
                crt.append(mean_err(crt_p, j))
            if all(h <= c + 1e-12 for h, c in zip(hybrid, crt)) and min(hybrid) < best_err:
                beta, best_err = candidate, min(hybrid)
    return {d: dataclasses.replace(calibrated[j], beta_hybrid=beta) if j in calibrated
            else f"no calibration trial of {config.calib_trials} kept a CRT row at depth {d}"
            for j, d in enumerate(table.label)}


def calibration_record(calibrations: dict[int, HybridCalibration | str]) -> dict:
    """JSON form of per-depth calibrations, as ``calibrate`` and the manifest write it.

    A depth without calibration holds the reason in place of its values.
    """
    return {str(d): c if isinstance(c, str) else dataclasses.asdict(c)
            for d, c in sorted(calibrations.items())}


def write_output(out_dir, name: str, chunks) -> Path:
    """The one writer of every output file: ``chunks``' strings, in order, to ``out_dir/name``.

    It makes ``out_dir``, parents included, writes UTF-8 with ``\\n`` line
    ends on every platform and returns the path.  ``chunks`` may be a generator.
    """
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
    return path


def write_json(out_dir, name: str, record) -> Path:
    """Write ``record`` as indented, key-sorted JSON and a newline, in ``json.dump``'s chunks."""
    text = json.JSONEncoder(indent=2, sort_keys=True).iterencode(record)
    return write_output(out_dir, name, itertools.chain(text, ["\n"]))


def fit_depolarizing(counts, true_thetas) -> list[float | str]:
    """Least-squares depolarizing rates from observed good fractions, one entry per depth.

    ``counts[t, d]`` holds trial ``t``'s (good, bad, discarded) tallies at
    depth ``d``, as in :attr:`RunTable.counts`; trials that kept no shot
    at a depth are left out there.  Per depth the law's inverse
    :func:`noise.damped_cosine` is regressed on the cosine through the
    origin for ``a = 1 - eta_d``, and the entry is ``-log a = gamma_d -
    log(1 - beta)`` (0 for ``a >= 1``): counts cannot tell readout error
    from damping.  A depth's entry is instead the reason it has no rate
    when fewer than two trials kept a shot, when every probability sits at
    1/2, or when the fitted damping is not positive or lies within two
    standard errors of 0; every other depth keeps its rate.  Counts of any
    other shape or dtype, or below 0, raise ``ValueError`` as :func:`mle_estimate`'s do.
    """
    counts = _checked_counts(counts)
    thetas = np.asarray(true_thetas, dtype=float)
    if thetas.shape != (len(counts),):
        raise ValueError(f"true_thetas holds {thetas.size} angles, counts {len(counts)} trials")

    def rate(d: int) -> float | str:
        """Depth ``d``'s rate or reason; its per-trial temporaries die when it returns."""
        good = counts[:, d, 0]
        kept = good + counts[:, d, 1]
        has_rate = kept > 0
        n = np.count_nonzero(has_rate)
        if n < 2:
            return "fewer than two trials kept a shot"
        c = np.cos(2 * (2 * d + 1) * thetas[has_rate])
        z = damped_cosine(good[has_rate] / kept[has_rate])
        denom = float(np.sum(c * c))
        if denom < 1e-9:
            return "all probabilities near 1/2, damping unidentifiable"
        a = float(np.sum(c * z) / denom)
        if a <= 0.0:
            return f"fitted damping {a:.6g} <= 0, no rate"
        se = math.sqrt(float(np.sum((z - a * c) ** 2)) / (n - 1) / denom)
        if a <= 2.0 * se:
            return f"fitted damping {a:.6g} within two standard errors ({se:.6g}) of 0, no rate"
        return -math.log(a) if a < 1.0 else 0.0  # -log(1.0) is -0.0

    return [rate(d) for d in range(counts.shape[1])]


def fit_record(fit) -> dict:
    """The record of :func:`fit_depolarizing`'s entries that ``gamma_fit.json`` holds.

    ``gamma_by_depth`` holds each depth's rate, ``None`` at a depth without
    one; only then is there a ``gamma_fit_error``, the ``"depth <d>:
    <reason>"`` of each such depth joined by ``"; "``.
    """
    reasons = "; ".join(f"depth {d}: {g}" for d, g in enumerate(fit) if isinstance(g, str))
    rates = {"gamma_by_depth": [None if isinstance(g, str) else g for g in fit]}
    return rates | {"gamma_fit_error": reasons} if reasons else rates


def _strings(values: np.ndarray) -> np.ndarray:
    """``repr`` of each element, as written to the CSVs; an int's is its ``str``.

    Each distinct value is formatted once: the estimates repeat a few grid
    angles over many rows.  Returns an object array of ``values``' shape.
    """
    return _per_distinct(repr, values, object)


def _distinct(column: np.ndarray) -> np.ndarray:
    """Sorted distinct :func:`_bits` of ``column``'s cells, merged :data:`ROW_CHUNK` at a time."""
    flat = _bits(column.reshape(-1))
    keys = flat[:0]
    for a in range(0, flat.size, ROW_CHUNK):
        # asked for no inverse, np.unique (numpy >= 2.3) first imports numpy.ma, a cost per run
        keys = np.unique(np.concatenate([keys, flat[a:a + ROW_CHUNK]]), return_inverse=True)[0]
    return keys


def _csv_lines(header, chunks) -> Iterator[str]:
    """A header line and, chunk by chunk, equal-length columns of strings as lines.

    The fields are names, labels and numbers, none of which ``csv`` would
    quote, so the lines are what ``csv.writer`` writes, only faster.  Each
    chunk's lines are joined from its columns' lists and yielded as one string.
    """
    yield ",".join(header) + "\n"
    for chunk in chunks:  # the empty last line ends the others; a chunk of none gives ""
        yield "\n".join([*map(",".join, zip(*(np.asarray(c).tolist() for c in chunk))), ""])


def _trial_rows(table: RunTable, theta_keys: np.ndarray, p_keys: np.ndarray):
    """The columns of ``trials.csv``'s rows, one chunk of :data:`ROW_CHUNK` cells at a time.

    A chunk is that many (trial, slot) cells in row order, and its rows are
    the kept ones.  It formats its own error cells and trials; the other
    columns are looked up in strings formatted once per run: ``theta_hat``
    and ``p_hat`` by the index of ``theta_hat``'s bits in ``theta_keys``
    (``p_keys`` holds the squared sine of each), the oracle calls by value.
    """
    kept = table.kept.reshape(-1)
    algorithm = np.array(table.algorithm, dtype=object)
    label = np.array([str(label) for label in table.label], dtype=object)
    calls = _distinct(table.oracle_calls)
    calls_strings, theta_strings, p_strings = map(_strings, (calls, theta_keys.view(float), p_keys))
    for a in range(0, kept.size, ROW_CHUNK):
        t, k = np.divmod(np.flatnonzero(kept[a:a + ROW_CHUNK]) + a, len(table.label))
        if not t.size:
            continue
        theta = table.theta_hat[t, k]
        key = np.searchsorted(theta_keys, _bits(theta))
        # the chunk's trials, each formatted once, then its error cells
        lo, hi = t[0], t[-1] + 1
        floats = _strings(np.concatenate([table.theta_true[lo:hi], table.p_true[lo:hi],
                                          np.abs(p_keys[key] - table.p_true[t]),
                                          np.abs(theta - table.theta_true[t])]))
        truth = floats[:2 * (hi - lo)].reshape(2, -1)[:, t - lo]
        calls_key = np.searchsorted(calls, table.oracle_calls[t, k])
        yield [algorithm[k], label[k], calls_strings[calls_key],
               _strings(np.arange(lo, hi))[t - lo], *truth, theta_strings[key], p_strings[key],
               *floats[2 * (hi - lo):].reshape(2, -1), table.branch[t, k]]


def aggregate_and_emit(table: RunTable, config: ExperimentConfig, out_dir,
                       calibrations=None, gamma_fit=None) -> dict[str, Path]:
    """Write per-trial and aggregate CSVs, CRT error histograms and a manifest into ``out_dir``.

    ``trials.csv`` has one line per kept row of ``table``, trial by trial
    and slot by slot, written :data:`ROW_CHUNK` cells at a time.  Each
    (algorithm, label) slot aggregates its kept rows in trial order, slots
    in the order their first row is written.  The histogram bins each CRT
    depth's ``abs_err_p`` over [0, 0.5) in steps of 0.02, and the last bin
    holds [0.5, 1.0].  No array of a cell per row is held: the errors are
    computed a chunk, or a slot, at a time, with each ``p_hat`` looked up
    from the distinct estimates.  The manifest's ``gamma_fit`` and
    ``gamma_fit_error`` are the :func:`fit_record` of ``gamma_fit``, the
    entries of :func:`fit_depolarizing` (both ``None`` without them), and its
    ``config`` is ``config.to_dict()``: the directory is not part of the
    experiment, so identical configs write identical bytes wherever they go.
    """
    if len(table.theta_true) == 0:
        raise ValueError("no trials to aggregate")

    kept = table.kept
    theta_keys = _distinct(table.theta_hat)
    p_keys = sin_squared(theta_keys.view(float))
    paths = {"trials": write_output(out_dir, "trials.csv", _csv_lines(
        TRIAL_COLUMNS, _trial_rows(table, theta_keys, p_keys)))}

    n_slots = kept.shape[1]
    first_row = kept.argmax(axis=0) * n_slots + np.arange(n_slots)
    slots = [s for s in sorted(range(n_slots), key=first_row.__getitem__) if kept[:, s].any()]
    labels = [str(table.label[s]) for s in slots]
    calls, stats, crt_labels, hist_counts = [], [], [], []
    edges = np.append(np.linspace(0.0, 0.5, 26), 1.0)
    for s, label in zip(slots, labels):
        rows = kept[:, s]
        theta = table.theta_hat[rows, s]
        errs_p = np.abs(p_keys[np.searchsorted(theta_keys, _bits(theta))] - table.p_true[rows])
        errs_t = np.abs(theta - table.theta_true[rows])
        calls.append(table.oracle_calls[rows, s].sum())
        stats.append([errs_p.mean(), errs_p.std(), errs_t.mean()])
        if table.algorithm[s] == "crt":
            crt_labels.append(label)
            hist_counts.append(np.histogram(errs_p, bins=edges)[0])
    stats = _strings(np.array(stats, dtype=float).reshape(-1, 3))
    paths["aggregate"] = write_output(out_dir, "aggregate.csv", _csv_lines(
        AGGREGATE_COLUMNS, [[[table.algorithm[s] for s in slots], labels,
                             _strings(np.array(calls, dtype=np.int64)), *stats.T]]))
    bins = len(edges) - 1
    edge_strings = _strings(edges)
    paths["crt_histogram"] = write_output(out_dir, "crt_error_histogram.csv", _csv_lines(
        ("depth", "bin_lo", "bin_hi", "count"),
        [[np.repeat(np.array(crt_labels, dtype=object), bins),
          np.tile(edge_strings[:-1], len(crt_labels)), np.tile(edge_strings[1:], len(crt_labels)),
          _strings(np.array(hist_counts, dtype=np.int64).reshape(-1))]]))

    fit = {"gamma_by_depth": None} if gamma_fit is None else fit_record(gamma_fit)
    manifest = {
        "version": __version__,
        "config": config.to_dict(),
        "oracle_call_convention": "cumulative over depths 0..d for MLE rows; "
                                  "2d+1 calls per shot, discarded shots included",
        "gamma_fit": fit["gamma_by_depth"],
        "gamma_fit_error": fit.get("gamma_fit_error"),
        "calibration": calibration_record(calibrations) if calibrations else None,
        "trial_errors": table.errors(),
    }
    paths["manifest"] = write_json(out_dir, "manifest.json", manifest)
    return paths


def run_experiment(config: ExperimentConfig, out_dir):
    """Calibrate, run all trials, fit the depolarizing model and emit files.

    The files go to ``out_dir``, made with its parents if missing.  Returns
    ``(table, paths)``, the run's :class:`RunTable` and the written files.
    The streams of :func:`run_streams` make the run reproducible bit for bit.
    """
    calib_rng, trial_rngs = run_streams(config.seed, config.n_trials)
    calibrations = None
    if "hybrid" in config.algorithms:
        calibrations = calibrate_hybrid(config, calib_rng)
    table = run_trials(config, trial_rngs, calibrations)
    paths = aggregate_and_emit(table, config, out_dir, calibrations=calibrations,
                               gamma_fit=fit_depolarizing(table.counts, table.theta_true))
    return table, paths
