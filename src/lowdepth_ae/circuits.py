"""Circuits for unary inner-product oracles and their amplified iterates.

The evaluation oracle prepares ``(x . y)|1000> + |G>`` for two 4-dimensional
unit vectors, using an X gate and four RBS gates: the binary-tree loader
of ``x`` (angles from :func:`loader_angles`) followed by the inverted
loader of ``y``, adjacent RBS gates on the same wire pair merged.
Amplified circuits interleave the oracle and its adjoint with Z
reflections on the flag qubit; a peephole pass merges RBS pairs across
those reflections, and only that merged form is built: the depth-t
circuit uses 6t+4 RBS gates.  Compiled to the {H, Ry, CZ} gate set, the
two-qubit cost is 12t+8 gates at two-qubit depth 8t+6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS


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


@dataclass(frozen=True)
class CompiledStats:
    """Two-qubit resource counts of a compiled circuit."""

    two_qubit_count: int
    two_qubit_depth: int

    def __post_init__(self):
        if self.two_qubit_count < 0 or self.two_qubit_depth < 0:
            raise ValueError("counts must be nonnegative")
        if self.two_qubit_depth > self.two_qubit_count:
            raise ValueError("depth cannot exceed gate count")


@dataclass(frozen=True)
class LoaderAngles:
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
    q1, q2 = targets
    if q1 == q2:
        raise ValueError("rbs targets must be distinct")
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


def adjoint_circuit(circuit: Circuit) -> Circuit:
    """Reverse the gate order and negate rotation angles."""
    out = []
    for g in reversed(circuit.gates):
        if g.kind in PARAMETRIC_KINDS:
            out.append(Gate(g.kind, g.targets, -g.angle))
        else:
            out.append(g)
    return Circuit(circuit.num_qubits, tuple(out))


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


def _cancel_x_z_x(gates: list[Gate]) -> list[Gate]:
    """Collapse X.Z.X on one qubit to Z (global phase dropped)."""
    out = list(gates)
    i = 0
    while i + 2 < len(out):
        a, b, c = out[i], out[i + 1], out[i + 2]
        if (a.kind == "x" and b.kind == "z" and c.kind == "x"
                and a.targets == b.targets == c.targets):
            out[i:i + 3] = [Gate("z", a.targets)]
            i = max(i - 2, 0)
        else:
            i += 1
    return out


def _merge_rbs_across_z(gates: list[Gate]) -> list[Gate]:
    """Collapse RBS(a).Z.RBS(b) on a shared pair to RBS(a-b).Z.

    A Z on one wire of the pair conjugates the planar rotation into its
    inverse, so the pair of rotations combines with a subtracted angle.
    """
    out = list(gates)
    i = 0
    while i + 2 < len(out):
        a, b, c = out[i], out[i + 1], out[i + 2]
        if (a.kind == "rbs" and c.kind == "rbs" and b.kind == "z"
                and a.targets == c.targets and b.targets[0] in a.targets):
            out[i:i + 3] = [Gate("rbs", a.targets, a.angle - c.angle), b]
            i = max(i - 2, 0)
        else:
            i += 1
    return out


def build_iterated_circuit(x, y, t: int) -> Circuit:
    """Amplified oracle circuit with ``t`` reflection rounds (2t+1 oracle calls).

    The success probability on |1000> is ``sin^2((2t+1) theta)`` with
    ``sin(theta) = x . y``.  Both reflections reduce to Z gates on the flag
    qubit in the unary encoding, between which the oracle and its adjoint
    alternate.  RBS pairs straddling those Z gates are combined, leaving
    the 6t+4 RBS gates of the form meant for hardware.
    """
    if t < 0:
        raise ValueError("depth t must be nonnegative")
    oracle = build_oracle_circuit(x, y)
    gates = list(oracle.gates)
    adj = adjoint_circuit(oracle).gates
    for _ in range(t):
        gates.append(Gate("z", (0,)))
        gates.extend(adj)
        gates.append(Gate("z", (0,)))
        gates.extend(oracle.gates)
    return Circuit(4, tuple(_merge_rbs_across_z(_cancel_x_z_x(gates))))


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
        if g.is_two_qubit:
            count += 1
            d = max(level[q] for q in g.targets) + 1
            for q in g.targets:
                level[q] = d
    return CompiledStats(two_qubit_count=count, two_qubit_depth=max(level, default=0))
