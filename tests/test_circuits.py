"""Gate IR, cooling-gate constructors, circuit evaluation, QASM emission."""
import dataclasses
import re

import numpy as np
import pytest

from qfridge import qcore
from qfridge.circuits import (
    Circuit,
    CouplingMap,
    Gate,
    LINE3,
    SWAP_BLOCK,
    SX_MATRIX,
    V_CHOICES,
    V_SUBSPACE,
    W_SUBSPACE,
    build_identity_circuit,
    build_target_unitary,
    build_vstar_circuit,
    cx,
    emit_qasm,
    rz,
    rz_matrix,
    sx,
    unitary_of_circuit,
    x,
)
from qfridge.noise import NoiseModel
from qfridge.oracles import global_phase_distance
from qfridge.sweep import engine_circuit
from qfridge.thermo import transition_matrix


# ---------------------------------------------------------------------------
# gate IR

def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("h", (0,))
    with pytest.raises(ValueError):
        Gate("cx", (0,))
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("rz", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("x", (0,), angle=0.5)
    with pytest.raises(ValueError):
        Gate("rz", (0,), angle=float("nan"))
    # a wire is an int, numpy integers included, a bool not, as the register size is:
    # Gate("x", (0.5,)) emitted "x q[0.5];" and Gate("cx", (True, 2)) "cx q[True],q[2];"
    for wire in (0.5, True, False, np.True_, np.float64(1.0), "1", None):
        for gate in (lambda: Gate("x", (wire,)), lambda: Gate("sx", (wire,)), lambda: rz(wire, 0.5),
                     lambda: Gate("cx", (wire, 2)), lambda: Gate("cx", (2, wire))):
            with pytest.raises(ValueError, match="not all ints"):
                gate()
    g = Gate("cx", (np.int64(1), np.int32(2)))
    assert g == cx(1, 2) and emit_qasm(Circuit(3, [g])).endswith("cx q[1],q[2];\n")


def test_fixed_gates_are_built_once_and_bad_wires_always_raise():
    # the caches are typed: True == 1 and hash(True) == hash(1), so an untyped
    # cache filled by cx(True, 2) handed that gate to every later cx(1, 2), and
    # the V* QASM read "cx q[True],q[2];"
    for cache in (x, sx, cx):
        cache.cache_clear()
    for _ in range(2):  # before and after the int entries are cached
        with pytest.raises(ValueError, match="distinct"):
            cx(1, 1)
        for call in (lambda: cx(True, 2), lambda: cx(0, True), lambda: x(True), lambda: sx(False)):
            with pytest.raises(ValueError, match="not all ints"):
                call()
        qasm = emit_qasm(build_vstar_circuit())
        assert "cx q[1],q[2];" in qasm and "True" not in qasm
    assert x(1) is x(1) and sx(2) is sx(2) and cx(0, 1) is cx(0, 1)
    assert cx(0, 1) is not cx(1, 0) and cx(1, 0) == Gate("cx", (1, 0))


def test_sx_squares_to_x_up_to_phase():
    x_mat = Gate("x", (0,)).matrix()
    assert global_phase_distance(SX_MATRIX @ SX_MATRIX, x_mat) < 1e-15
    qcore.check_unitary(SX_MATRIX)


def test_rz_matrix_convention():
    m = rz_matrix(np.pi)
    assert np.allclose(m, np.diag([-1j, 1j]))
    assert global_phase_distance(rz_matrix(0.7) @ rz_matrix(0.3), rz_matrix(1.0)) < 1e-15


def test_cx_matrix_control_most_significant():
    m = Gate("cx", (0, 1)).matrix()
    assert np.array_equal(m.real, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_coupling_map():
    assert LINE3.allows(0, 1) and LINE3.allows(2, 1)
    assert not LINE3.allows(0, 2)
    assert CouplingMap.line(3) == LINE3
    with pytest.raises(ValueError):
        CouplingMap([(0, 0)])


def test_circuit_validation_and_counters():
    c = Circuit(3, [cx(0, 1), x(2), cx(1, 2)], LINE3)
    assert c.cnot_count() == 2
    assert c.depth() == 2
    with pytest.raises(ValueError, match="coupling"):
        Circuit(3, [cx(0, 2)], LINE3)
    with pytest.raises(ValueError, match="wire"):
        Circuit(2, [x(2)])
    # the register is an int of at least one wire: numpy integers count, a bool does not
    for n_wires in (-1, 0, 2.5, True, np.True_, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="register size"):
            Circuit(n_wires, [])
    c = Circuit(np.int64(2), [cx(0, 1)])
    assert "qreg q[2];" in emit_qasm(c)
    assert np.array_equal(unitary_of_circuit(c), Gate("cx", (0, 1)).matrix())


def test_circuits_and_couplings_are_frozen():
    c = build_vstar_circuit()
    for obj, name in ((c, "gates"), (c, "n_wires"), (LINE3, "pairs"), (c.gates[0], "wires")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert Gate("cx", [0, 1]).wires == (0, 1)
    assert CouplingMap([(1, 0)]).pairs == frozenset({frozenset({0, 1})})
    assert isinstance(engine_circuit("identity").gates, tuple)


# ---------------------------------------------------------------------------
# target unitary

def _oracle_permutation(v_choice: str) -> dict[int, int]:
    """Independent mapping oracle from the block definitions.

    Swap block: |00,1> <-> |11,0>, fixing |00,0> and |11,1>.  The vstar block
    has the same shape on the i != j states: |01,1> <-> |10,0>.
    """
    perm = {m: m for m in range(8)}
    a, b = qcore.basis_index(0, 0, 1), qcore.basis_index(1, 1, 0)
    perm[a], perm[b] = b, a
    if v_choice == "vstar":
        c, d = qcore.basis_index(0, 1, 1), qcore.basis_index(1, 0, 0)
        perm[c], perm[d] = d, c
    return perm


@pytest.mark.parametrize("v_choice", ["identity", "vstar"])
def test_target_unitary_permutation(v_choice):
    u = build_target_unitary(v_choice)
    perm = _oracle_permutation(v_choice)
    for m in range(8):
        col = u[:, m]
        assert col[perm[m]] == 1.0
        assert np.count_nonzero(col) == 1
    qcore.check_unitary(u)


def test_vstar_target_matches_index_formula():
    u = build_target_unitary("vstar")
    for m in range(8):
        i, j, k = qcore.basis_label(m)
        assert u[qcore.basis_index(k, i ^ j ^ k, i), m] == 1.0


@pytest.mark.parametrize("v_choice", V_CHOICES)
def test_target_block_structure(v_choice):
    u = build_target_unitary(v_choice)
    qcore.check_unitary(u)
    # no coupling between the two invariant subspaces
    assert np.max(np.abs(u[np.ix_(W_SUBSPACE, V_SUBSPACE)])) == 0.0
    assert np.max(np.abs(u[np.ix_(V_SUBSPACE, W_SUBSPACE)])) == 0.0
    assert np.array_equal(u[np.ix_(W_SUBSPACE, W_SUBSPACE)], SWAP_BLOCK)
    v_block = SWAP_BLOCK if v_choice == "vstar" else np.eye(4)
    assert np.array_equal(u[np.ix_(V_SUBSPACE, V_SUBSPACE)], v_block)


def test_target_unitary_rejects_bad_v():
    with pytest.raises(ValueError):
        build_target_unitary("nonsense")
    with pytest.raises(ValueError):
        build_target_unitary(np.ones((4, 4)))
    with pytest.raises(ValueError):
        build_target_unitary(np.eye(2))


# ---------------------------------------------------------------------------
# circuit evaluation

def test_empty_circuit_is_identity():
    assert np.array_equal(unitary_of_circuit(Circuit(3)), np.eye(8))


def test_two_wire_cnot_action():
    u = unitary_of_circuit(Circuit(2, [cx(0, 1)]))
    assert u[3, 2] == 1.0 and u[2, 3] == 1.0
    assert u[0, 0] == 1.0 and u[1, 1] == 1.0


def test_three_wire_evaluation_uses_logical_order():
    # physical wire 1 carries the cold bit k, the least significant logical bit
    u = unitary_of_circuit(Circuit(3, [x(1)]))
    for m in range(8):
        assert u[m ^ 1, m] == 1.0


def test_vstar_circuit_is_exact():
    c = build_vstar_circuit()
    assert c.cnot_count() == 4
    assert len(c.gates) == 4
    assert c.coupling == LINE3
    d = global_phase_distance(unitary_of_circuit(c), build_target_unitary("vstar"))
    assert d < 1e-12


def test_identity_circuit_is_seven_cx_on_the_line():
    c = build_identity_circuit()
    assert c.coupling == LINE3
    assert (c.cnot_count(), len(c.gates), c.depth()) == (7, 23, 23)


def test_identity_circuit_is_the_target_after_a_diagonal_phase():
    # D = diag(1, 1, 1, -1, 1, 1, 1, 1): the -1 on |01,1>
    d = np.ones(8)
    d[qcore.basis_index(0, 1, 1)] = -1.0
    u = unitary_of_circuit(build_identity_circuit())
    assert np.max(np.abs(u - d[:, None] * build_target_unitary("identity"))) < 1e-15


def test_identity_circuit_reads_out_as_the_exact_target():
    nm = NoiseModel()
    got = transition_matrix(build_identity_circuit(), nm, 0, 0).p
    want = transition_matrix(build_target_unitary("identity"), nm, 0, 0).p
    assert np.max(np.abs(got - want)) < 1e-15


# ---------------------------------------------------------------------------
# QASM

QASM_LINE = re.compile(
    r"^(rz\(-?[0-9.e+-]+\) q\[\d+\];|x q\[\d+\];|sx q\[\d+\];|cx q\[\d+\],q\[\d+\];)$"
)


def _parse_qasm(text: str) -> Circuit:
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    n = int(re.fullmatch(r"qreg q\[(\d+)\];", lines[2]).group(1))
    gates = []
    for line in lines[3:]:
        assert QASM_LINE.fullmatch(line), line
        if line.startswith("rz"):
            m = re.fullmatch(r"rz\((\S+)\) q\[(\d+)\];", line)
            gates.append(rz(int(m.group(2)), float(m.group(1))))
        elif line.startswith("cx"):
            m = re.fullmatch(r"cx q\[(\d+)\],q\[(\d+)\];", line)
            gates.append(cx(int(m.group(1)), int(m.group(2))))
        elif line.startswith("sx"):
            gates.append(sx(int(re.search(r"\d+", line).group())))
        else:
            gates.append(x(int(re.search(r"\d+", line).group())))
    return Circuit(n, gates)


def test_qasm_vstar_has_four_cx_lines():
    text = emit_qasm(build_vstar_circuit())
    assert sum(1 for line in text.splitlines() if line.startswith("cx ")) == 4


def test_qasm_roundtrip_preserves_circuit():
    gates = [rz(0, 0.1234567890123), sx(1), x(2), cx(0, 1), rz(2, -2.5), cx(1, 2)]
    c = Circuit(3, gates, LINE3)
    back = _parse_qasm(emit_qasm(c))
    assert len(back.gates) == len(gates)
    d = global_phase_distance(unitary_of_circuit(back), unitary_of_circuit(c))
    assert d < 1e-12
