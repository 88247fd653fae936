"""Exact statevector execution on four qubits.

Basis convention: qubit 0 is the most significant bit, so the good state
|1000> sits at index 8 and the remaining unary states at 4, 2, 1.  Shots
landing outside the unary code space are detected errors and discarded.
Every gate runs through one kernel: the state is viewed as a 2x2x2x2
tensor, the gate's targets are moved to the front axes, and its 2x2 or
4x4 matrix multiplies them.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, rbs_unitary
from .noise import NONNEGATIVE_INT, checked

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


# each gate kind's matrix: a constant, or a function of the gate's angle
_FIXED = {"x": _X, "z": _Z, "h": _H, "cz": _CZ}
_ROTATIONS = {"ry": _ry, "rbs": rbs_unitary}


def _apply(state: np.ndarray, mat: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """``mat`` on the ``targets`` qubits of ``state``, the first target most significant."""
    front = tuple(range(len(targets)))
    st = np.moveaxis(state.reshape([2] * NUM_QUBITS), targets, front)
    st = (mat @ st.reshape(2 ** len(targets), -1)).reshape([2] * NUM_QUBITS)
    return np.moveaxis(st, front, targets).reshape(DIM)


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Final state of ``circuit`` applied to |0000>, as 16 complex amplitudes."""
    if circuit.num_qubits != NUM_QUBITS:
        raise ValueError(f"simulator is fixed at {NUM_QUBITS} qubits")
    state = np.zeros(DIM, dtype=complex)
    state[0] = 1.0
    for g in circuit.gates:
        mat = _FIXED[g.kind] if g.angle is None else _ROTATIONS[g.kind](g.angle)
        state = _apply(state, mat, g.targets)
    return state


def outcome_distribution(state: np.ndarray) -> np.ndarray:
    """Born-rule probabilities over the 16 computational outcomes."""
    return np.abs(np.asarray(state)) ** 2


def analytic_success_prob(theta: float, t: int) -> float:
    """sin^2((2t+1) theta): the amplified good-outcome probability."""
    return math.sin((2 * checked("t", t, *NONNEGATIVE_INT) + 1) * theta) ** 2
