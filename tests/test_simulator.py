"""Statevector execution, analytic probabilities and shot tallies."""
import itertools
import math

import numpy as np
import pytest

from lowdepth_ae.circuits import Circuit, Gate, build_iterated_circuit
from lowdepth_ae.noise import DepthCounts
from lowdepth_ae.simulator import (GOOD_INDEX, analytic_success_prob, outcome_distribution,
                                   run_statevector)

RNG = np.random.default_rng(42)


def random_unit():
    x = RNG.standard_normal(4)
    return x / np.linalg.norm(x)


def test_empty_circuit_stays_in_vacuum():
    state = run_statevector(Circuit(4, ()))
    assert state[0] == 1.0
    assert np.all(state[1:] == 0.0)


def test_single_x_prepares_good_state():
    state = run_statevector(Circuit(4, (Gate("x", (0,)),)))
    assert state[GOOD_INDEX] == 1.0


def test_wrong_register_size_rejected():
    with pytest.raises(ValueError):
        run_statevector(Circuit(3, ()))


def test_iterated_circuit_matches_analytic_probability():
    for _ in range(100):
        x, y = random_unit(), random_unit()
        theta = math.asin(max(-1.0, min(1.0, float(np.dot(x, y)))))
        for t in range(8):
            probs = outcome_distribution(run_statevector(build_iterated_circuit(x, y, t)))
            assert abs(probs[GOOD_INDEX] - analytic_success_prob(theta, t)) < 1e-9


def test_analytic_success_prob_values():
    assert abs(analytic_success_prob(math.pi / 6, 1) - 1.0) < 1e-15
    theta = 0.37
    assert abs(analytic_success_prob(theta, 0) - math.sin(theta) ** 2) < 1e-15
    # sin^2(1.4) for theta=0.2, t=3, frozen from a high-precision evaluation
    assert abs(analytic_success_prob(0.2, 3) - 0.9711111703343291) < 1e-12
    with pytest.raises(ValueError):
        analytic_success_prob(0.2, -1)


def test_norm_preserved_over_random_circuits():
    kinds = ("x", "z", "h", "ry", "rbs", "cz")
    for _ in range(1000):
        gates = []
        for _ in range(RNG.integers(1, 12)):
            kind = kinds[RNG.integers(len(kinds))]
            if kind in ("rbs", "cz"):
                q1, q2 = RNG.choice(4, size=2, replace=False)
                angle = float(RNG.uniform(-math.pi, math.pi)) if kind == "rbs" else None
                gates.append(Gate(kind, (int(q1), int(q2)), angle))
            else:
                angle = float(RNG.uniform(-math.pi, math.pi)) if kind == "ry" else None
                gates.append(Gate(kind, (int(RNG.integers(4)),), angle))
        state = run_statevector(Circuit(4, tuple(gates)))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def _ry(angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


def _rbs(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]])


# each kind's matrix on its targets, the first target the most significant bit
REFERENCE = {"x": lambda a: np.array([[0, 1], [1, 0]]), "z": lambda a: np.diag([1, -1]),
             "h": lambda a: np.array([[1, 1], [1, -1]]) / math.sqrt(2), "ry": _ry,
             "cz": lambda a: np.diag([1, 1, 1, -1]), "rbs": _rbs}
TARGETED_KINDS = ([(k, q) for k in ("x", "z", "h", "ry") for q in itertools.permutations(range(4), 1)]
                  + [(k, q) for k in ("cz", "rbs") for q in itertools.permutations(range(4), 2)])


def dense_operator(mat, targets):
    """The 16x16 operator of ``mat`` on ``targets``: ``mat`` kron the identity
    acts on the qubits in the order targets first, then the rest ascending;
    a permutation of the basis takes that order back to qubits 0..3."""
    order = list(targets) + [q for q in range(4) if q not in targets]
    full = np.kron(mat, np.eye(2 ** (4 - len(targets))))
    perm = [sum(((b >> (3 - q)) & 1) << (3 - i) for i, q in enumerate(order)) for b in range(16)]
    return full[np.ix_(perm, perm)]


def generic_gates(rng):
    """Gates taking |0000> to a state with no structure the kernel could rely on."""
    gates = [Gate("h", (q,)) for q in range(4)]
    for _ in range(2):
        gates += [Gate("ry", (q,), float(rng.uniform(-math.pi, math.pi))) for q in range(4)]
        gates += [Gate("cz", (0, 1)), Gate("cz", (2, 3)),
                  Gate("rbs", (1, 2), float(rng.uniform(-math.pi, math.pi))),
                  Gate("rbs", (3, 0), float(rng.uniform(-math.pi, math.pi)))]
    return tuple(gates)


def test_dense_operator_places_the_first_target_as_the_most_significant_bit():
    # X on qubit 1 flips the bit of value 4; CZ on (3, 1) signs indices with bits 4 and 1 set
    assert np.array_equal(dense_operator(REFERENCE["x"](None), (1,)) @ np.eye(16)[0],
                          np.eye(16)[4])
    assert [i for i in range(16) if dense_operator(REFERENCE["cz"](None), (3, 1))[i, i] < 0] \
        == [5, 7, 13, 15]


@pytest.mark.parametrize("kind,targets", TARGETED_KINDS,
                         ids=[f"{k}{''.join(map(str, q))}" for k, q in TARGETED_KINDS])
def test_each_gate_acts_as_its_dense_operator(kind, targets):
    rng = np.random.default_rng(list(targets))
    angle = float(rng.uniform(-math.pi, math.pi)) if kind in ("ry", "rbs") else None
    gate = Gate(kind, targets, angle)
    operator = dense_operator(REFERENCE[kind](angle), targets)
    # sixteen generic states span the register, so the gate's whole matrix is checked
    preps = [generic_gates(rng) for _ in range(16)]
    before = np.column_stack([run_statevector(Circuit(4, p)) for p in preps])
    after = np.column_stack([run_statevector(Circuit(4, p + (gate,))) for p in preps])
    assert np.linalg.matrix_rank(before) == 16
    assert np.max(np.abs(after - operator @ before)) < 1e-14


def test_depth_counts_validation():
    with pytest.raises(ValueError):
        DepthCounts(depth=-1, n_good=0, n_bad=0)
    with pytest.raises(ValueError):
        DepthCounts(depth=0, n_good=-1, n_bad=0)
    counts = DepthCounts(depth=2, n_good=3, n_bad=4, n_discarded=5)
    assert counts.shots == 12
    assert counts.kept == 7


@pytest.mark.parametrize("fields", [(0, 0, -1, 0), (0, 0, 0, -1), (-1, 1, 1, 1)])
def test_depth_counts_rejects_any_negative_field(fields):
    with pytest.raises(ValueError):
        DepthCounts(*fields)


@pytest.mark.parametrize("fields,name", [
    ((0, 2.5, 1), "n_good"), ((0, True, 2), "n_good"), ((0, math.nan, 1), "n_good"),
    ((1.5, 3, 4), "depth"), ((0, "1", 1), "n_good"), ((0, 1, 1, 0.5), "n_discarded"),
    ((0, 1, None), "n_bad")])
def test_depth_counts_rejects_a_field_that_is_not_an_integer(fields, name):
    # accepted before, direct_estimate then returned 3.5 oracle calls or a NaN
    # estimate, and "1" died in a TypeError that named no field
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer"):
        DepthCounts(*fields)
    counts = DepthCounts(np.int64(2), np.int64(3), 4)
    assert counts == (2, 3, 4, 0) and type(counts.depth) is type(counts.n_good) is int


def test_depth_counts_is_an_immutable_tuple():
    counts = DepthCounts(2, 3, 4)
    assert counts == (2, 3, 4, 0) == DepthCounts(depth=2, n_good=3, n_bad=4, n_discarded=0)
    assert hash(counts) == hash((2, 3, 4, 0))
    assert repr(counts) == "DepthCounts(depth=2, n_good=3, n_bad=4, n_discarded=0)"
    with pytest.raises(AttributeError):
        counts.n_good = 5


def test_depth_counts_make_and_replace_validate():
    counts = DepthCounts(2, 3, 4)
    assert DepthCounts._make([2, 3, 4, 1]) == counts._replace(n_discarded=1) == (2, 3, 4, 1)
    assert type(counts._replace(n_good=1)) is DepthCounts
    with pytest.raises(ValueError):
        DepthCounts._make([2, -3, 4, 0])
    with pytest.raises(ValueError):
        counts._replace(n_bad=-1)
