"""Exact statevector execution on four qubits, and the shot tallies of one depth.

Basis convention: qubit 0 is the most significant bit, so the good state
|1000> sits at index 8 and the remaining unary states at 4, 2, 1.  Shots
landing outside the unary code space are detected errors and discarded.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .circuits import Circuit, rbs_unitary

NUM_QUBITS = 4
DIM = 16
GOOD_INDEX = 8
BAD_INDICES = (4, 2, 1)
UNARY_INDICES = (GOOD_INDEX,) + BAD_INDICES

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


class DepthCounts(namedtuple("DepthCounts", "depth n_good n_bad n_discarded")):
    """Postselected measurement tallies at one circuit depth, an immutable tuple.

    Equal to the plain tuple of its four fields.  ``_make`` and ``_replace``
    validate through the constructor too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable) -> "DepthCounts":
        return cls(*iterable)

    def __new__(cls, depth: int, n_good: int, n_bad: int, n_discarded: int = 0):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if n_good < 0 or n_bad < 0 or n_discarded < 0:
            raise ValueError("counts must be nonnegative")
        return tuple.__new__(cls, (depth, n_good, n_bad, n_discarded))

    @property
    def shots(self) -> int:
        return self.n_good + self.n_bad + self.n_discarded

    @property
    def kept(self) -> int:
        return self.n_good + self.n_bad


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    st = state.reshape([2] * NUM_QUBITS)
    st = np.moveaxis(st, q, 0)
    st = (mat @ st.reshape(2, -1)).reshape([2] * NUM_QUBITS)
    return np.moveaxis(st, 0, q).reshape(DIM)


def _apply_2q(state: np.ndarray, mat: np.ndarray, q1: int, q2: int) -> np.ndarray:
    st = state.reshape([2] * NUM_QUBITS)
    st = np.moveaxis(st, (q1, q2), (0, 1))
    st = (mat @ st.reshape(4, -1)).reshape([2] * NUM_QUBITS)
    return np.moveaxis(st, (0, 1), (q1, q2)).reshape(DIM)


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Final state of ``circuit`` applied to |0000>, as 16 complex amplitudes."""
    if circuit.num_qubits != NUM_QUBITS:
        raise ValueError(f"simulator is fixed at {NUM_QUBITS} qubits")
    state = np.zeros(DIM, dtype=complex)
    state[0] = 1.0
    for g in circuit.gates:
        if g.kind == "x":
            state = _apply_1q(state, _X, g.targets[0])
        elif g.kind == "z":
            state = _apply_1q(state, _Z, g.targets[0])
        elif g.kind == "h":
            state = _apply_1q(state, _H, g.targets[0])
        elif g.kind == "ry":
            state = _apply_1q(state, _ry(g.angle), g.targets[0])
        elif g.kind == "cz":
            state = _apply_2q(state, _CZ, *g.targets)
        elif g.kind == "rbs":
            state = _apply_2q(state, rbs_unitary(g.angle), *g.targets)
        else:
            raise ValueError(f"unsupported gate kind {g.kind!r}")
    return state


def outcome_distribution(state: np.ndarray) -> np.ndarray:
    """Born-rule probabilities over the 16 computational outcomes."""
    return np.abs(np.asarray(state)) ** 2


def analytic_success_prob(theta: float, t: int) -> float:
    """sin^2((2t+1) theta): the amplified good-outcome probability."""
    if t < 0:
        raise ValueError("depth t must be nonnegative")
    return math.sin((2 * t + 1) * theta) ** 2
