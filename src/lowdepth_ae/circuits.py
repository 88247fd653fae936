"""Circuits for unary inner-product oracles and their amplified iterates.

The evaluation oracle prepares ``(x . y)|1000> + |G>`` for two 4-dimensional
unit vectors, using an X gate and four RBS gates: the binary-tree loader
of ``x`` (angles from :func:`loader_angles`) followed by the inverted
loader of ``y``, adjacent RBS gates on the same wire pair merged.
Amplified circuits interleave the oracle and its adjoint with Z
reflections on the flag qubit.  Only the merged form meant for hardware
is built, in closed form: the X gates meeting at each reflection cancel,
and each RBS pair straddling a reflection combines into one gate, so the
depth-t circuit uses 6t+4 RBS gates.  Compiled to the {H, Ry, CZ} gate
set, the two-qubit cost is 12t+8 gates at two-qubit depth 8t+6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .noise import NONNEGATIVE_INT, checked

TWO_QUBIT_KINDS = ("cz", "rbs")
ONE_QUBIT_KINDS = ("x", "z", "h", "ry")
PARAMETRIC_KINDS = ("ry", "rbs")


@dataclass(frozen=True)
class Gate:
    """A single gate: kind, target qubits and (for ry/rbs) a rotation angle."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in ONE_QUBIT_KINDS + TWO_QUBIT_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} expects {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"negative target in {self.targets}")
        if self.kind in PARAMETRIC_KINDS:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qubit register."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.targets) >= self.num_qubits:
                raise ValueError(f"gate {g} exceeds register of {self.num_qubits} qubits")

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)


class CompiledStats(NamedTuple):
    """Two-qubit resource counts of a compiled circuit."""

    two_qubit_count: int
    two_qubit_depth: int


class LoaderAngles(NamedTuple):
    """Binary-tree angles of the 4-dimensional unary loader."""

    top: float
    left: float
    right: float


def rbs_unitary(angle: float) -> np.ndarray:
    """4x4 unitary of RBS(angle): a planar rotation on span{|01>, |10>}.

    Satisfies ``rbs_unitary(-a) == rbs_unitary(a).conj().T``.
    """
    c, s = math.cos(angle), math.sin(angle)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, -s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def decompose_rbs(angle: float, targets: tuple[int, int]) -> list[Gate]:
    """Expand one RBS gate into Hadamards, two Ry rotations and two CZ gates.

    The returned sequence composes to ``rbs_unitary(angle)`` on the two
    targets (up to global phase):  H H . CZ . Ry(+a) Ry(-a) . CZ . H H.
    """
    q1, q2 = targets  # equal targets fail the first CZ's check
    return [
        Gate("h", (q1,)),
        Gate("h", (q2,)),
        Gate("cz", (q1, q2)),
        Gate("ry", (q1,), angle),
        Gate("ry", (q2,), -angle),
        Gate("cz", (q1, q2)),
        Gate("h", (q1,)),
        Gate("h", (q2,)),
    ]


def loader_angles(x) -> LoaderAngles:
    """Tree angles loading a 4-dim unit vector into the unary basis.

    Convention: the cosine branch keeps the amplitude on the lower-index
    qubit, so ``cos(top) = ||(x0, x1)||`` and the leaf angles carry the
    within-half ratios (atan2, so entries of either sign round-trip).
    Branches with zero norm get angle 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("expected a 4-dimensional vector")
    nrm = float(np.linalg.norm(x))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"vector must have unit norm, got {nrm}")
    n01 = math.hypot(x[0], x[1])
    n23 = math.hypot(x[2], x[3])
    top = math.acos(min(max(n01, 0.0), 1.0))
    left = math.atan2(x[1], x[0]) if n01 > 0.0 else 0.0
    right = math.atan2(x[3], x[2]) if n23 > 0.0 else 0.0
    return LoaderAngles(top=top, left=left, right=right)


def build_oracle_circuit(x, y) -> Circuit:
    """Inner-product evaluation oracle: X flag + four RBS gates, depth three.

    Loads ``x`` then unloads ``y``; the two middle loader layers act on the
    same wire pairs and merge into single RBS gates with subtracted angles.
    The |1000> amplitude of the output equals ``x . y``.
    """
    ax = loader_angles(x)
    ay = loader_angles(y)
    gates = [
        Gate("x", (0,)),
        Gate("rbs", (0, 2), ax.top),
        Gate("rbs", (0, 1), ax.left - ay.left),
        Gate("rbs", (2, 3), ax.right - ay.right),
        Gate("rbs", (0, 2), -ay.top),
    ]
    return Circuit(4, tuple(gates))


def build_iterated_circuit(x, y, t: int) -> Circuit:
    """Amplified oracle circuit with ``t`` reflection rounds (2t+1 oracle calls).

    The success probability on |1000> is ``sin^2((2t+1) theta)`` with
    ``sin(theta) = x . y``.  Both reflections reduce to Z gates on the flag
    qubit, so the literal circuit is the oracle ``X, RBS02(a), RBS01(b),
    RBS23(c), RBS02(u)`` then ``t`` rounds of ``Z, adjoint, Z, oracle``.
    ``X.Z.X`` is ``Z`` up to global phase, and a Z on one wire of an RBS
    pair turns the rotation into its inverse, so ``RBS(p).Z.RBS(q)`` is
    ``RBS(p - q).Z``.  Merged by both, each round is ``RBS02(u - -u), Z,
    RBS23(-c), RBS01(-b), RBS02(-a - a), Z, RBS01(b), RBS23(c)`` and
    ``RBS02(u)`` ends the circuit: 6t+4 RBS gates, the form for hardware.
    """
    t = checked("t", t, *NONNEGATIVE_INT)
    flip, top, left, right, untop = build_oracle_circuit(x, y).gates
    a, b, c, u = top.angle, left.angle, right.angle, untop.angle
    z = Gate("z", (0,))
    one_round = (Gate("rbs", (0, 2), u - -u), z, Gate("rbs", (2, 3), -c), Gate("rbs", (0, 1), -b),
                 Gate("rbs", (0, 2), -a - a), z, left, right)
    return Circuit(4, (flip, top, left, right, *one_round * t, untop))


def compile_to_two_qubit(circuit: Circuit) -> Circuit:
    """Replace every RBS gate by its {H, Ry, CZ} decomposition."""
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind == "rbs":
            out.extend(decompose_rbs(g.angle, g.targets))
        else:
            out.append(g)
    return Circuit(circuit.num_qubits, tuple(out))


def compiled_stats(circuit: Circuit) -> CompiledStats:
    """Count two-qubit gates and their layered depth (1-qubit gates are free)."""
    count = 0
    level = [0] * circuit.num_qubits
    for g in circuit.gates:
        if g.kind in TWO_QUBIT_KINDS:
            count += 1
            d = max(level[q] for q in g.targets) + 1
            for q in g.targets:
                level[q] = d
    return CompiledStats(two_qubit_count=count, two_qubit_depth=max(level, default=0))
