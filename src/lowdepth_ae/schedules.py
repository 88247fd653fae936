"""Power-law measurement schedules and the noisy Fisher-information tradeoff.

A schedule assigns ``N_d = floor(N_shots (2d+1)^nu)`` shots to depth ``d``.
Depolarizing noise damps the information carried by deep circuits, so the
parameter-agnostic Fisher proxy

    F_noisy(nu) = N_shots * sum_d (2d+1)^(nu+2) exp(-2 gamma_d)

must reach ``1/eps^2`` for a target error ``eps``.  Oracle cost scales like
``sum_d (2d+1)^(nu+1)``, increasing in ``nu``, so the cheapest feasible
exponent is the smallest one satisfying the constraint; it is found by
bisection on the binding constraint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import DepthCounts

NU_RANGE = (-6.0, 6.0)
NU_TOL = 1e-4


class InfeasibleScheduleError(RuntimeError):
    """Target error unreachable within the noise and depth budget."""


@dataclass(frozen=True)
class Schedule:
    """Shot counts per circuit depth: entries of (depth, n_shots)."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((int(d), int(n)) for d, n in self.entries))
        depths = [d for d, _ in self.entries]
        if len(set(depths)) != len(depths):
            raise ValueError("schedule depths must be distinct")
        if any(d < 0 for d in depths) or any(n < 0 for _, n in self.entries):
            raise ValueError("depths and shot counts must be nonnegative")

    @property
    def total_oracle_calls(self) -> int:
        return sum(n * (2 * d + 1) for d, n in self.entries)

    @property
    def total_shots(self) -> int:
        return sum(n for _, n in self.entries)


@dataclass(frozen=True)
class PowerLawConfig:
    """Exponent, base shot count, depth budget and target error."""

    nu: float
    n_shots: int
    max_depth: int
    target_eps: float

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.target_eps <= 0:
            raise ValueError("target_eps must be positive")


def power_law_schedule(config: PowerLawConfig) -> Schedule:
    """Schedule with ``floor(N_shots (2d+1)^nu)`` shots at each depth 0..D.

    Depths whose floor comes out to zero shots are kept as explicit
    zero-shot entries.
    """
    entries = tuple(
        (d, math.floor(config.n_shots * (2 * d + 1) ** config.nu))
        for d in range(config.max_depth + 1)
    )
    return Schedule(entries=entries)


def fisher_noisy(nu: float, n_shots: int, max_depth: int, gamma_by_depth) -> float:
    """Noise-damped Fisher proxy ``N_shots sum_d (2d+1)^(nu+2) exp(-2 gamma_d)``."""
    gammas = np.asarray(gamma_by_depth, dtype=float)
    if gammas.size < max_depth + 1:
        raise ValueError("gamma_by_depth must cover depths 0..max_depth")
    d = np.arange(max_depth + 1)
    return float(n_shots * np.sum((2 * d + 1.0) ** (nu + 2) * np.exp(-2 * gammas[:max_depth + 1])))


def optimize_exponent(target_eps: float, n_shots: int, max_depth: int,
                      gamma_by_depth) -> float:
    """Smallest exponent whose schedule reaches the target precision.

    ``F_noisy`` is nondecreasing in ``nu``, so the oracle-cost constraint
    binds and bisection of :data:`NU_RANGE` suffices.  Returns the range
    floor when even it is feasible; raises :class:`InfeasibleScheduleError`
    when the range top cannot reach ``1/eps^2``.
    """
    if target_eps <= 0:
        raise ValueError("target_eps must be positive")
    required = target_eps ** -2
    lo, hi = NU_RANGE

    def feasible(nu: float) -> bool:
        return fisher_noisy(nu, n_shots, max_depth, gamma_by_depth) >= required

    if not feasible(hi):
        raise InfeasibleScheduleError(
            f"eps={target_eps} needs Fisher {required:.4g}, but the budget tops out at "
            f"{fisher_noisy(hi, n_shots, max_depth, gamma_by_depth):.4g}")
    if feasible(lo):
        return lo
    while hi - lo > NU_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def subsample_without_replacement(counts: DepthCounts, n_target: int,
                                  rng: np.random.Generator) -> DepthCounts:
    """Hypergeometric draw of ``n_target`` shots from the kept pool.

    The good/bad composition of the subsample follows the hypergeometric
    law of drawing without replacement from the recorded measurements.
    """
    if n_target < 0:
        raise ValueError("n_target must be nonnegative")
    if n_target > counts.kept:
        raise ValueError(f"cannot draw {n_target} shots from a pool of {counts.kept}")
    if n_target == 0:
        return DepthCounts(depth=counts.depth, n_good=0, n_bad=0)
    n_good = int(rng.hypergeometric(counts.n_good, counts.n_bad, n_target))
    return DepthCounts(depth=counts.depth, n_good=n_good, n_bad=n_target - n_good)
