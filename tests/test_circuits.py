"""Gate algebra, loader construction and circuit resource counts."""
import math

import numpy as np
import pytest

from lowdepth_ae.circuits import (Circuit, Gate, adjoint_circuit,
                                  build_iterated_circuit, build_oracle_circuit,
                                  compile_to_two_qubit, compiled_stats,
                                  decompose_rbs, loader_angles, rbs_unitary)
from lowdepth_ae.simulator import (GOOD_INDEX, UNARY_INDICES, run_statevector)

RNG = np.random.default_rng(20240817)

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CZ4 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def ry2(angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def loader_circuit(x):
    """Circuit preparing ``sum_i x_i |e_i>`` from |0000>: X flag + 3 RBS gates."""
    a = loader_angles(x)
    return Circuit(4, (Gate("x", (0,)), Gate("rbs", (0, 2), a.top),
                       Gate("rbs", (0, 1), a.left), Gate("rbs", (2, 3), a.right)))


def literal_iterated_circuit(x, y, t):
    """The oracle and its adjoint alternating between Z gates on the flag,
    unmerged: what build_iterated_circuit merges."""
    oracle = build_oracle_circuit(x, y)
    gates = list(oracle.gates)
    for _ in range(t):
        gates += [Gate("z", (0,)), *adjoint_circuit(oracle).gates, Gate("z", (0,)), *oracle.gates]
    return Circuit(4, tuple(gates))


def gate_matrix(gate):
    if gate.kind == "h":
        return H2
    if gate.kind == "ry":
        return ry2(gate.angle)
    if gate.kind == "cz":
        return CZ4
    raise AssertionError(f"unexpected kind {gate.kind}")


def compose_on_pair(gates, pair):
    """Independent oracle: multiply the 4x4 factor matrices of a 2-wire sequence."""
    total = np.eye(4, dtype=complex)
    for g in gates:
        mat = gate_matrix(g)
        if len(g.targets) == 1:
            mat = np.kron(mat, np.eye(2)) if g.targets[0] == pair[0] else np.kron(np.eye(2), mat)
        total = mat @ total
    return total


def max_dev_up_to_phase(u, v):
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


def random_unit(rng=RNG):
    x = rng.standard_normal(4)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------- rbs unitary

def test_rbs_zero_angle_is_identity():
    assert np.allclose(rbs_unitary(0.0), np.eye(4), atol=1e-15)


def test_rbs_half_pi_swaps_middle_states():
    u = rbs_unitary(math.pi / 2)
    # |01> -> -|10>, |10> -> |01>
    assert np.allclose(u @ np.eye(4)[1], -np.eye(4)[2], atol=1e-15)
    assert np.allclose(u @ np.eye(4)[2], np.eye(4)[1], atol=1e-15)


def test_rbs_quarter_pi_middle_block():
    u = rbs_unitary(math.pi / 4)
    block = u[1:3, 1:3]
    assert np.allclose(np.abs(block), math.sqrt(2) / 2, atol=1e-15)


def test_rbs_negated_angle_is_adjoint():
    for angle in RNG.uniform(-math.pi, math.pi, 200):
        assert np.allclose(rbs_unitary(-angle), rbs_unitary(angle).conj().T, atol=1e-15)


# -------------------------------------------------------------- decomposition

def test_decompose_identity_case():
    total = compose_on_pair(decompose_rbs(0.0, (0, 1)), (0, 1))
    assert max_dev_up_to_phase(total, np.eye(4)) < 1e-12


def test_decompose_matches_rbs_at_pi_thirds():
    total = compose_on_pair(decompose_rbs(math.pi / 3, (0, 1)), (0, 1))
    assert max_dev_up_to_phase(total, rbs_unitary(math.pi / 3)) < 1e-12


def test_decompose_has_exactly_two_cz_and_two_ry():
    for angle in (0.0, 0.7, -2.1):
        gates = decompose_rbs(angle, (2, 3))
        kinds = [g.kind for g in gates]
        assert kinds.count("cz") == 2
        assert kinds.count("ry") == 2
        assert all(k in ("h", "ry", "cz") for k in kinds)


def test_decompose_random_angles_match_to_1e12():
    for angle in RNG.uniform(-math.pi, math.pi, 200):
        total = compose_on_pair(decompose_rbs(angle, (0, 1)), (0, 1))
        assert max_dev_up_to_phase(total, rbs_unitary(angle)) < 1e-12


def test_decompose_rejects_identical_targets():
    with pytest.raises(ValueError):
        decompose_rbs(0.3, (1, 1))


# --------------------------------------------------------------------- loader

def test_loader_angles_basis_vector_is_identity():
    a = loader_angles(np.array([1.0, 0.0, 0.0, 0.0]))
    assert (a.top, a.left, a.right) == (0.0, 0.0, 0.0)


def test_loader_angles_uniform_vector():
    a = loader_angles(np.array([0.5, 0.5, 0.5, 0.5]))
    assert abs(a.top - math.pi / 4) < 1e-12
    assert abs(a.left - math.pi / 4) < 1e-12
    assert abs(a.right - math.pi / 4) < 1e-12
    state = run_statevector(loader_circuit([0.5, 0.5, 0.5, 0.5]))
    amps = [state[i].real for i in UNARY_INDICES]
    assert np.allclose(amps, 0.5, atol=1e-12)


def test_loader_angles_second_basis_vector():
    a = loader_angles(np.array([0.0, 1.0, 0.0, 0.0]))
    assert abs(a.top) < 1e-12
    assert abs(a.left - math.pi / 2) < 1e-12
    state = run_statevector(loader_circuit([0.0, 1.0, 0.0, 0.0]))
    assert abs(state[4] - 1.0) < 1e-12


def test_loader_rejects_bad_vectors():
    with pytest.raises(ValueError):
        loader_angles([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        loader_angles([0.0, 0.0, 0.0, 0.0])


def test_loader_round_trip_100_random_vectors():
    for _ in range(100):
        x = random_unit()
        state = run_statevector(loader_circuit(x))
        amps = np.array([state[i].real for i in UNARY_INDICES])
        assert np.max(np.abs(amps - x)) < 1e-9
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def test_loader_adjoint_restores_flag_state():
    for _ in range(20):
        x = random_unit()
        circ = loader_circuit(x)
        inverse = adjoint_circuit(Circuit(4, circ.gates[1:]))  # undo the RBS tree only
        state = run_statevector(Circuit(4, circ.gates + inverse.gates))
        assert abs(abs(state[GOOD_INDEX]) - 1.0) < 1e-9


# ----------------------------------------------------------- iterated circuit

def test_oracle_amplitude_is_inner_product():
    for _ in range(50):
        x, y = random_unit(), random_unit()
        state = run_statevector(build_oracle_circuit(x, y))
        assert abs(state[GOOD_INDEX].real - float(np.dot(x, y))) < 1e-9


def test_depth_zero_oracle_has_four_rbs_depth_three():
    circ = build_iterated_circuit(random_unit(), random_unit(), 0)
    assert circ.count("rbs") == 4
    assert compiled_stats(circ).two_qubit_depth == 3  # RBS-level layering


def test_depth_one_structure():
    circ = build_iterated_circuit(random_unit(), random_unit(), 1)
    assert circ.count("rbs") == 10
    assert circ.count("z") == 2
    assert circ.count("x") == 1


@pytest.mark.parametrize("t", range(8))
def test_rbs_count_is_6t_plus_4(t):
    circ = build_iterated_circuit(random_unit(), random_unit(), t)
    assert circ.count("rbs") == 6 * t + 4


@pytest.mark.parametrize("t", range(8))
def test_merged_matches_unmerged_statevector(t):
    x, y = random_unit(), random_unit()
    merged = run_statevector(build_iterated_circuit(x, y, t))
    literal = run_statevector(literal_iterated_circuit(x, y, t))
    assert abs(abs(np.vdot(merged, literal)) - 1.0) < 1e-12


def test_identical_vectors_succeed_with_certainty():
    x = random_unit()
    for t in (0, 3):
        state = run_statevector(build_iterated_circuit(x, x, t))
        assert abs(abs(state[GOOD_INDEX]) ** 2 - 1.0) < 1e-9


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        build_iterated_circuit(random_unit(), random_unit(), -1)


# ---------------------------------------------------------------- compilation

def test_compile_single_rbs_gives_two_cz():
    circ = Circuit(4, (Gate("rbs", (0, 1), 0.4),))
    compiled = compile_to_two_qubit(circ)
    assert compiled.count("rbs") == 0
    assert compiled.count("cz") == 2


def test_compile_empty_circuit():
    compiled = compile_to_two_qubit(Circuit(4, ()))
    assert compiled.gates == ()


@pytest.mark.parametrize("t,count,depth", [(0, 8, 6), (3, 44, 30), (7, 92, 62)])
def test_compiled_stats_reference_points(t, count, depth):
    circ = compile_to_two_qubit(build_iterated_circuit(random_unit(), random_unit(), t))
    stats = compiled_stats(circ)
    assert (stats.two_qubit_count, stats.two_qubit_depth) == (count, depth)


def test_compiled_stats_formula_for_20_random_pairs():
    for _ in range(20):
        x, y = random_unit(), random_unit()
        for t in range(8):
            stats = compiled_stats(compile_to_two_qubit(build_iterated_circuit(x, y, t)))
            assert (stats.two_qubit_count, stats.two_qubit_depth) == (12 * t + 8, 8 * t + 6)


# ------------------------------------------------------------------ dataclass

def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cz", (1,))
    with pytest.raises(ValueError):
        Gate("x", (0, 1))
    with pytest.raises(ValueError):
        Gate("rbs", (0, 0), 0.1)
    with pytest.raises(ValueError):
        Gate("ry", (0,))
    with pytest.raises(ValueError):
        Gate("x", (0,), 0.5)
    with pytest.raises(ValueError):
        Gate("foo", (0,))


def test_circuit_validates_register_bounds():
    with pytest.raises(ValueError):
        Circuit(2, (Gate("x", (2,)),))
