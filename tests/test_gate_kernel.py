"""The gate kernel (``circuits.embed_gate``, its one caller
``circuits.gate_stack``, and the noise plan that ``noise.circuit_channel``
and ``noise.channel_polynomial`` read) against the dense per-gate path that
it replaced.  The plan fuses the noise of each cx and the one-wire gates
before it into one Pauli-basis step, so the long-circuit pins below draw
runs of one-wire gates between cx gates, where a step carries several
noises on one wire.

The reference below builds every gate's full-register matrix with Kronecker
products or a loop over basis states, depolarizes through an einsum over
letter subscripts, and permutes with the logical/physical permutation
matrix, one density operator at a time; its channel evolves each basis
input on its own and reads the Born diagonal.
"""
import itertools
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import qcore
from qfridge.circuits import (
    CX_MATRIX,
    SX_MATRIX,
    X_MATRIX,
    Circuit,
    Gate,
    build_vstar_circuit,
    cx,
    embed_gate,
    gate_stack,
    rz,
    rz_matrix,
    sx,
    unitary_of_circuit,
    x,
)
from qfridge.noise import (
    NoiseModel,
    _pauli_basis,
    _plan,
    channel_polynomial,
    circuit_channel,
    evaluate_channel,
)
from qfridge.sweep import engine


def _logical_to_physical_matrix() -> np.ndarray:
    """Permutation matrix P with v_phys = P @ v_logical."""
    return np.eye(qcore.DIM)[:, qcore.phys_of_logical]


def _reference_embed(g: Gate, n_wires: int) -> np.ndarray:
    """Full-register matrix of a gate, physical order, wire 0 most significant."""
    if g.name == "cx":
        dim = 2 ** n_wires
        c, t = g.wires
        m = np.zeros((dim, dim), dtype=complex)
        for s in range(dim):
            cbit = (s >> (n_wires - 1 - c)) & 1
            out = s ^ (cbit << (n_wires - 1 - t))
            m[out, s] = 1.0
        return m
    w = g.wires[0]
    m = np.eye(1, dtype=complex)
    for pos in range(n_wires):
        m = np.kron(m, g.matrix() if pos == w else np.eye(2, dtype=complex))
    return m


def _reference_mixed(rho: np.ndarray, wires, n: int) -> np.ndarray:
    """Trace out `wires` (physical order) and reinsert maximally mixed there."""
    keep = [w for w in range(n) if w not in wires]
    t = rho.reshape([2] * (2 * n))
    letters = string.ascii_lowercase
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    traced = list(col)
    for w in wires:
        traced[w] = row[w]
    sigma_sub = "".join([row[w] for w in keep] + [col[w] for w in keep])
    sigma = np.einsum("".join(row + traced) + "->" + sigma_sub, t)
    operands = [sigma]
    subs = [sigma_sub]
    for w in wires:
        operands.append(np.eye(2) / 2)
        subs.append(row[w] + col[w])
    out = np.einsum(",".join(subs) + "->" + "".join(row + col), *operands)
    return out.reshape(2 ** n, 2 ** n)


def _reference_unitary(c: Circuit) -> np.ndarray:
    u = np.eye(2 ** c.n_wires, dtype=complex)
    for g in c.gates:
        u = _reference_embed(g, c.n_wires) @ u
    if c.n_wires == qcore.N_WIRES:
        p = _logical_to_physical_matrix()
        u = p.T @ u @ p
    return u


def _reference_evolve(c: Circuit, rho: np.ndarray, nm: NoiseModel) -> np.ndarray:
    p_mat = _logical_to_physical_matrix()
    if c.n_wires == qcore.N_WIRES:
        rho = p_mat @ rho @ p_mat.T
    for g in c.gates:
        u = _reference_embed(g, c.n_wires)
        rho = u @ rho @ u.conj().T
        p = nm.p2 if g.name == "cx" else nm.p1
        if p:
            rho = (1 - p) * rho + p * _reference_mixed(rho, g.wires, c.n_wires)
    if c.n_wires == qcore.N_WIRES:
        rho = p_mat.T @ rho @ p_mat
    return rho


def _reference_channel(c: Circuit, nm: NoiseModel) -> np.ndarray:
    """Row m: the Born diagonal of basis input m evolved by _reference_evolve."""
    return np.array([np.diagonal(_reference_evolve(c, np.diag(b), nm)).real
                     for b in np.eye(2 ** c.n_wires)])


@st.composite
def circuits(draw, max_gates=12):
    n = draw(st.integers(1, 4))
    kinds = ["rz", "x", "sx"] + (["cx"] if n > 1 else [])
    wire = st.integers(0, n - 1)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_gates)):
        if kind == "cx":
            a, b = draw(st.lists(wire, min_size=2, max_size=2, unique=True))
            gates.append(cx(a, b))
        elif kind == "rz":
            gates.append(rz(draw(wire), draw(st.floats(-2 * np.pi, 2 * np.pi))))
        else:
            gates.append((x if kind == "x" else sx)(draw(wire)))
    return Circuit(n, gates)


@st.composite
def long_circuits(draw):
    """Up to 8 cx gates, each after a run of up to 6 one-wire gates, and a
    last run: up to 62 gates on 1-4 wires."""
    n = draw(st.integers(1, 4))
    wire = st.integers(0, n - 1)
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    one_wire = st.one_of(st.builds(rz, wire, angle), st.builds(x, wire), st.builds(sx, wire))
    pair = st.lists(wire, min_size=2, max_size=2, unique=True)
    gates = []
    for _ in range(draw(st.integers(0, 8 if n > 1 else 0))):
        gates += draw(st.lists(one_wire, max_size=6))
        gates.append(cx(*draw(pair)))
    return Circuit(n, gates + draw(st.lists(one_wire, max_size=6)))


probabilities = st.floats(0.0, 1.0)
# the ends 0 and 1 drawn as often as the rest
unit = st.one_of(st.sampled_from([0.0, 1.0]), probabilities)


@settings(max_examples=200, deadline=None)
@given(c=circuits())
def test_unitary_of_circuit_matches_dense_reference(c):
    assert np.max(np.abs(unitary_of_circuit(c) - _reference_unitary(c))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(c=circuits(), p1=probabilities, p2=probabilities)
def test_circuit_channel_matches_dense_reference(c, p1, p2):
    nm = NoiseModel(p1=p1, p2=p2)
    got = circuit_channel(c, nm)
    assert np.max(np.abs(got - _reference_channel(c, nm))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(c=long_circuits(), p1=unit, p2=unit)
def test_long_circuit_channels_match_the_dense_reference(c, p1, p2):
    nm = NoiseModel(p1=p1, p2=p2)
    assert np.max(np.abs(circuit_channel(c, nm) - _reference_channel(c, nm))) < 1e-12


@pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (2e-4, 2e-3), (0.2, 0.3), (1.0, 1.0)])
def test_identity_engine_channel_matches_the_dense_reference(p1, p2):
    c = engine("identity").circuit
    nm = NoiseModel(p1=p1, p2=p2)
    assert np.max(np.abs(circuit_channel(c, nm) - _reference_channel(c, nm))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(c=circuits(), p1=unit, p2=unit)
def test_polynomials_of_random_circuits_give_the_circuit_channel(c, p1, p2):
    # the polynomial sums its terms in another order than the evolution
    nm = NoiseModel(p1=p1, p2=p2)
    got = evaluate_channel(channel_polynomial(c), nm)
    assert np.max(np.abs(got - circuit_channel(c, nm))) <= 1e-15


@pytest.mark.parametrize(
    "n_wires,wires",
    [(n, pair) for n in (2, 3, 4) for pair in itertools.permutations(range(n), 2)],
)
def test_cx_on_every_ordered_wire_pair(n_wires, wires):
    # includes the unrouted (0, 2) and (2, 0) on the three-wire register
    g = cx(*wires)
    assert np.array_equal(embed_gate(g.matrix(), g.wires, n_wires), _reference_embed(g, n_wires))
    c = Circuit(n_wires, [sx(wires[0]), g, rz(wires[1], 0.7)])
    assert np.max(np.abs(unitary_of_circuit(c) - _reference_unitary(c))) < 1e-12
    nm = NoiseModel(p1=0.1, p2=0.3)
    assert np.max(np.abs(circuit_channel(c, nm) - _reference_channel(c, nm))) < 1e-12


def test_embed_gate_reads_a_stack_of_matrices():
    stack = np.array([rz(0, t).matrix() for t in (0.1, 0.2, 0.3)])
    got = embed_gate(stack, (1,), 3)
    for k, t in enumerate((0.1, 0.2, 0.3)):
        assert np.array_equal(got[k], _reference_embed(rz(1, t), 3))


def test_full_depolarization_of_the_whole_register_is_maximally_mixed():
    out = circuit_channel(Circuit(2, [cx(0, 1)]), NoiseModel(p2=1.0))
    assert np.max(np.abs(out - 0.25)) < 1e-15


# frozen copies of the per-gate paths that gate_stack replaced

def _frozen_rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def _frozen_gate_matrix(g: Gate) -> np.ndarray:
    if g.name == "rz":
        return _frozen_rz_matrix(g.angle)
    return {"x": X_MATRIX, "sx": SX_MATRIX, "cx": CX_MATRIX}[g.name]


def _frozen_plan(c: Circuit):
    n = c.n_wires
    to_pauli, from_pauli, mask = _pauli_basis(n)
    ptm = np.empty((c.cnot_count() + 1, 4 ** n, 4 ** n))
    e1, e2 = np.zeros((2,) + ptm.shape[:2], dtype=int)
    counts = np.zeros(n, dtype=int)

    def transfer(u):
        return (to_pauli @ np.kron(u, u.conj()) @ from_pauli).real

    i, u = 0, np.eye(2 ** n, dtype=complex)
    for g in c.gates:
        u = embed_gate(_frozen_gate_matrix(g), g.wires, n) @ u
        if g.name != "cx":
            counts[g.wires[0]] += 1
            continue
        ptm[i], e1[i], e2[i] = transfer(u), counts @ mask, mask[list(g.wires)].max(axis=0)
        counts[:], i, u = 0, i + 1, np.eye(2 ** n, dtype=complex)
    ptm[i], e1[i] = transfer(u), counts @ mask
    return ptm, e1, e2


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values and equal signs of zero, for float or complex arrays."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


@settings(max_examples=200, deadline=None)
@given(c=st.one_of(circuits(), long_circuits()))
def test_each_stack_row_is_the_per_gate_embed(c):
    stack = gate_stack(c)
    assert stack.shape == (len(c.gates),) + (2 ** c.n_wires,) * 2
    for g, row in zip(c.gates, stack, strict=True):
        assert _same_bits(g.matrix(), _frozen_gate_matrix(g))
        assert _same_bits(row, embed_gate(g.matrix(), g.wires, c.n_wires))
        assert _same_bits(row, embed_gate(_frozen_gate_matrix(g), g.wires, c.n_wires))


@settings(max_examples=100, deadline=None)
@given(angles=st.lists(st.floats(-1e6, 1e6), max_size=16))
def test_rz_matrix_of_an_array_stacks_the_scalar_matrices(angles):
    # signs of zero in the exponents, tiny angles and both ends of (-pi, pi]
    angles = [0.0, -0.0, 5e-324, -5e-324, 1e-13, -1e-13, np.pi, -np.pi] + angles
    stack = rz_matrix(np.array(angles))
    assert stack.shape == (len(angles), 2, 2)
    for a, m in zip(angles, stack, strict=True):
        assert _same_bits(m, _frozen_rz_matrix(a))
        assert _same_bits(rz_matrix(a), _frozen_rz_matrix(a))


@pytest.mark.parametrize("n_gates", [0, 1, 2, 3, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("n_wires", [1, 2, 3])
def test_pairwise_product_at_odd_and_even_levels(n_gates, n_wires):
    rng = np.random.default_rng(100 * n_gates + n_wires)
    gates = []
    for _ in range(n_gates):
        w = int(rng.integers(n_wires))
        kind = rng.integers(4 if n_wires > 1 else 3)
        if kind == 3:
            gates.append(cx(w, (w + 1) % n_wires))
        else:
            gates.append([rz(w, float(rng.uniform(-np.pi, np.pi))), x(w), sx(w)][kind])
    c = Circuit(n_wires, gates)
    u = unitary_of_circuit(c)
    assert u.shape == (2 ** n_wires,) * 2
    assert np.max(np.abs(u - _reference_unitary(c))) < 1e-12


def test_the_empty_circuit_evaluates_to_the_identity():
    for n in (1, 2, 3, 4):
        assert np.array_equal(unitary_of_circuit(Circuit(n)), np.eye(2 ** n))
        assert gate_stack(Circuit(n)).shape == (0, 2 ** n, 2 ** n)


def _assert_plan_is_frozen(c: Circuit):
    for got, want in zip(_plan(c), _frozen_plan(c), strict=True):
        assert _same_bits(got, want)


@pytest.mark.parametrize("c", [engine("identity").circuit, build_vstar_circuit()], ids=["identity", "vstar"])
def test_plan_of_the_engines_is_the_per_gate_plan(c):
    _assert_plan_is_frozen(c)


@settings(max_examples=50, deadline=None)
@given(c=long_circuits())
def test_plan_of_long_circuits_is_the_per_gate_plan(c):
    _assert_plan_is_frozen(c)
