"""The gate kernel (``circuits.embed_gate``, stacked ``noise.evolve_noisy``)
against the dense per-gate path that it replaced.

The reference below builds every gate's full-register matrix with Kronecker
products or a loop over basis states, depolarizes through an einsum over
letter subscripts, and permutes with the logical/physical permutation
matrix, one density operator at a time.
"""
import itertools
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import qcore
from qfridge.circuits import Circuit, Gate, cx, embed_gate, rz, sx, unitary_of_circuit, x
from qfridge.noise import NoiseModel, evolve_noisy

from helpers import random_density


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
        p = qcore.logical_to_physical_matrix()
        u = p.T @ u @ p
    return u


def _reference_evolve(c: Circuit, rho: np.ndarray, nm: NoiseModel) -> np.ndarray:
    p_mat = qcore.logical_to_physical_matrix()
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


probabilities = st.floats(0.0, 1.0)


def _densities(n_wires, seed, k):
    rng = np.random.default_rng(seed)
    return np.array([random_density(2 ** n_wires, rng) for _ in range(k)])


@settings(max_examples=200, deadline=None)
@given(c=circuits())
def test_unitary_of_circuit_matches_dense_reference(c):
    assert np.max(np.abs(unitary_of_circuit(c) - _reference_unitary(c))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(c=circuits(), p1=probabilities, p2=probabilities, seed=st.integers(0, 2 ** 32 - 1))
def test_evolve_noisy_matches_dense_reference(c, p1, p2, seed):
    nm = NoiseModel.uniform(p1=p1, p2=p2)
    (rho,) = _densities(c.n_wires, seed, 1)
    got = evolve_noisy(c, rho, nm)
    assert got.shape == rho.shape
    assert np.max(np.abs(got - _reference_evolve(c, rho, nm))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    c=circuits(),
    p1=probabilities,
    p2=probabilities,
    seed=st.integers(0, 2 ** 32 - 1),
    shape=st.sampled_from([(1,), (3,), (2, 2)]),
)
def test_a_stack_evolves_like_single_calls(c, p1, p2, seed, shape):
    nm = NoiseModel.uniform(p1=p1, p2=p2)
    dim = 2 ** c.n_wires
    stack = _densities(c.n_wires, seed, int(np.prod(shape))).reshape(shape + (dim, dim))
    got = evolve_noisy(c, stack, nm)
    assert got.shape == stack.shape
    for idx in np.ndindex(shape):
        assert np.max(np.abs(got[idx] - evolve_noisy(c, stack[idx], nm))) < 1e-12


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
    nm = NoiseModel.uniform(p1=0.1, p2=0.3)
    (rho,) = _densities(n_wires, sum(wires), 1)
    assert np.max(np.abs(evolve_noisy(c, rho, nm) - _reference_evolve(c, rho, nm))) < 1e-12


def test_embed_gate_reads_a_stack_of_matrices():
    stack = np.array([rz(0, t).matrix() for t in (0.1, 0.2, 0.3)])
    got = embed_gate(stack, (1,), 3)
    for k, t in enumerate((0.1, 0.2, 0.3)):
        assert np.array_equal(got[k], _reference_embed(rz(1, t), 3))


def test_full_depolarization_of_the_whole_register_is_maximally_mixed():
    rho = qcore.pure_density(qcore.basis_state(1, 4))
    out = evolve_noisy(Circuit(2, [cx(0, 1)]), rho, NoiseModel(p2=1.0))
    assert np.max(np.abs(out - np.eye(4) / 4)) < 1e-15
