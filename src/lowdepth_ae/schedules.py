"""Power-law measurement schedules and the noisy Fisher-information tradeoff.

A schedule assigns ``N_d = floor(N_shots (2d+1)^nu)`` shots to depth ``d``.
Depolarizing noise damps the information carried by deep circuits, so the
parameter-agnostic Fisher proxy

    F_noisy(nu) = N_shots * sum_d (2d+1)^(nu+2) exp(-2 gamma_d)

must reach ``1/eps^2`` for a target error ``eps``.  Oracle cost scales like
``sum_d (2d+1)^(nu+1)``, increasing in ``nu``, so the cheapest feasible
exponent is the smallest one satisfying the constraint; it is found by
bisection on the binding constraint.  A target whose ``1/eps^2`` overflows
a float is infeasible like any other out of reach.

The module holds no sampler: a run takes each depth's scheduled shots from
the pool it already recorded, without replacement, in one hypergeometric
call per block of trials in ``harness._draw_block``.
"""
from __future__ import annotations

import math

import numpy as np

from .noise import FINITE, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, checked

NU_RANGE = (-6.0, 6.0)
NU_TOL = 1e-4


class InfeasibleScheduleError(RuntimeError):
    """Target error unreachable within the noise and depth budget."""


def power_law_schedule(nu: float, n_shots: int, max_depth: int) -> tuple[int, ...]:
    """Shots ``floor(n_shots (2d+1)^nu)`` at each depth ``d`` of 0..max_depth.

    Depths whose floor comes out to zero shots keep a zero entry.
    """
    nu, n_shots, max_depth = _checked_schedule(nu, n_shots, max_depth)
    return tuple(math.floor(n_shots * (2 * d + 1) ** nu) for d in range(max_depth + 1))


def _checked_schedule(nu, n_shots, max_depth) -> tuple[float, int, int]:
    """The exponent, shots and top depth a schedule takes, each by its rule."""
    return (checked("nu", nu, *FINITE), checked("n_shots", n_shots, *POSITIVE_INT),
            checked("max_depth", max_depth, *NONNEGATIVE_INT))


def fisher_noisy(nu: float, n_shots: int, max_depth: int, gamma_by_depth) -> float:
    """Noise-damped Fisher proxy ``N_shots sum_d (2d+1)^(nu+2) exp(-2 gamma_d)``.

    A proxy over the gammas alone: ``exp(-2 gamma_d)`` is ``a_d^2`` of :mod:`noise`'s
    outcome law with ``beta_readout`` left out, the law's one statement outside it.
    """
    nu, n_shots, max_depth = _checked_schedule(nu, n_shots, max_depth)
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
    target_eps = checked("target_eps", target_eps, *POSITIVE)
    try:
        required = target_eps ** -2
    except OverflowError:  # target_eps below about 7.5e-155: no finite Fisher reaches it
        required = math.inf
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
