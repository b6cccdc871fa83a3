"""Gate IR, cooling-gate constructors, circuit evaluation, QASM emission."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import qcore
from qfridge.circuits import (
    Circuit,
    CouplingMap,
    Gate,
    LINE3,
    PhaseChoice,
    SX_MATRIX,
    V_SUBSPACE,
    W_SUBSPACE,
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
from qfridge.compiler import global_phase_distance
from qfridge.oracles import haar_unitary
from qfridge.sweep import engine_circuit


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


def _frozen_validate(n_wires, gates, coupling):
    """Circuit.validate() as it was before circuits were checked when built."""
    for g in gates:
        if max(g.wires) >= n_wires or min(g.wires) < 0:
            raise ValueError(f"gate {g} uses a wire outside the register")
        if g.name == "cx" and coupling is not None:
            if not coupling.allows(*g.wires):
                raise ValueError(f"cx on {g.wires} violates the coupling map")


# wires -1 and 4 fall outside every register drawn; cx(0, 2) is off LINE3
_WIRE = st.integers(-1, 4)
_GATE = st.one_of(
    st.builds(rz, _WIRE, st.floats(-7.0, 7.0)),
    st.builds(x, _WIRE),
    st.builds(sx, _WIRE),
    st.tuples(_WIRE, _WIRE).filter(lambda w: w[0] != w[1]).map(lambda w: cx(*w)),
)
_COUPLING = st.sampled_from([None, LINE3, CouplingMap.line(4), CouplingMap([(0, 2)])])


@settings(max_examples=400, deadline=None)
@given(n_wires=st.integers(1, 4), gates=st.lists(_GATE, max_size=6), coupling=_COUPLING)
def test_circuit_is_checked_when_built_as_validate_checked(n_wires, gates, coupling):
    try:
        _frozen_validate(n_wires, gates, coupling)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            Circuit(n_wires, gates, coupling)
        assert str(got.value) == str(err)
        return
    c = Circuit(n_wires, gates, coupling)
    assert c.gates == tuple(gates)
    again = Circuit(c.n_wires, list(c.gates), c.coupling and CouplingMap(c.coupling.pairs))
    assert again == c and hash(again) == hash(c)


def test_circuits_and_couplings_are_frozen():
    c = build_vstar_circuit()
    for obj, name in ((c, "gates"), (c, "n_wires"), (LINE3, "pairs"), (c.gates[0], "wires")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert Gate("cx", [0, 1]).wires == (0, 1)
    assert CouplingMap([(1, 0)]).pairs == frozenset({frozenset({0, 1})})
    assert isinstance(engine_circuit("identity").gates, tuple)


def test_phase_choice_length():
    with pytest.raises(ValueError):
        PhaseChoice(w=(0.0, 0.0))


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


def test_phase_placement_on_swap_block():
    phases = PhaseChoice(w=(0.3, 0.5, 0.7, 0.9))
    u = build_target_unitary("identity", phases)
    assert abs(u[0, 0] - np.exp(0.3j)) < 1e-15
    assert abs(u[W_SUBSPACE[1], W_SUBSPACE[2]] - np.exp(0.5j)) < 1e-15
    assert abs(u[W_SUBSPACE[2], W_SUBSPACE[1]] - np.exp(0.7j)) < 1e-15
    assert abs(u[7, 7] - np.exp(0.9j)) < 1e-15


def test_custom_v_block_structure():
    rng = np.random.default_rng(5)
    v = haar_unitary(4, rng)
    u = build_target_unitary(v)
    qcore.check_unitary(u)
    # no coupling between the two invariant subspaces
    assert np.max(np.abs(u[np.ix_(W_SUBSPACE, V_SUBSPACE)])) == 0.0
    assert np.max(np.abs(u[np.ix_(V_SUBSPACE, W_SUBSPACE)])) == 0.0
    assert np.allclose(u[np.ix_(V_SUBSPACE, V_SUBSPACE)], v)


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
