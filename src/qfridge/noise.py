"""Depolarizing gate noise, readout error, calibration, and mitigation.

The gate-noise model is deliberately minimal: after each gate's unitary, the
gate's wires are depolarized with probability p1 (single-qubit gates) or p2
(two-qubit gates); depolarizing is unital, so it cannot cool anything for
free.  Readout error flips each qubit's outcome bit with the same two
probabilities, eps01 and eps10, on every qubit.  :func:`circuit_channel`
gives a circuit's readout-free outcome channel: it carries the Pauli
components of the basis inputs, and nothing else, through a plan of the
circuit that keeps the noise per gate but fuses it into one step per cx, a
diagonal scale followed by a real Pauli transfer matrix.  The plan reads its
gates from ``circuits.gate_stack``, so ``circuits.embed_gate`` stays the one
gate kernel.  :func:`channel_polynomial` carries the same inputs through the
same steps with the noise kept symbolic, which makes the channel an exact
polynomial in (1 - p1, 1 - p2); :func:`evaluate_channel` gives it at any
noise model in one weighted sum.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qcore
from .circuits import X_MATRIX, Circuit, gate_stack


@dataclass(frozen=True)
class NoiseModel:
    """p1/p2: depolarizing probability per 1q/2q gate; eps01 = P(read 1 | state 0)
    and eps10 = P(read 0 | state 1), the same on every qubit."""

    p1: float = 0.0
    p2: float = 0.0
    eps01: float = 0.0
    eps10: float = 0.0

    def __post_init__(self):
        for v in (self.p1, self.p2, self.eps01, self.eps10):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"probability {v} outside [0, 1]")

    def is_gate_noiseless(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0


@functools.lru_cache(maxsize=None)
def _pauli_basis(n: int):
    """Pauli strings P_s on n wires (the base-4 digits of s, wire 0 first, pick I, X, Y, Z):
    the matrices taking vec(rho) to c_s = Tr(P_s rho) and c back to vec(rho), and
    mask[w, s] = 1 where P_s acts on wire w; all shared, so read-only."""
    sigma = np.array([np.eye(2), X_MATRIX, [[0, -1j], [1j, 0]], np.diag([1, -1])], dtype=complex)
    p = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        p = np.einsum("sij,tkl->stikjl", p, sigma).reshape(4 * len(p), 2 * p.shape[1], -1)
    mask = (np.arange(4 ** n) // 4 ** np.arange(n - 1, -1, -1)[:, None] % 4 != 0).astype(int)
    return tuple(map(qcore.read_only, (p.transpose(0, 2, 1).reshape(4 ** n, -1),
                                       p.reshape(4 ** n, -1).T / 2 ** n, mask)))


def _plan(c: Circuit):
    """The circuit as steps in the Pauli basis: per step, a real transfer
    matrix R and the exponents E1, E2 of (1 - p1), (1 - p2) that scale each
    Pauli component before R.  Built at every call: sweeps keep the one
    build per V they need, in sweep.engine(v).polynomial.

    Each cx closes a step, the product of the one-wire gates since the
    previous cx and the cx; the last step holds the gates after the last cx.
    Depolarizing wires commutes with unitaries elsewhere and is covariant
    under unitaries on those wires, so every gate's noise can act at its
    step's start, where it scales each Pauli string that is not the
    identity on the gate's wires by 1 - p.
    """
    n = c.n_wires
    to_pauli, from_pauli, mask = _pauli_basis(n)
    ptm = np.empty((c.cnot_count() + 1, 4 ** n, 4 ** n))
    e1, e2 = np.zeros((2,) + ptm.shape[:2], dtype=int)
    counts = np.zeros(n, dtype=int)  # one-wire gates per wire in the current step

    def transfer(u):
        return (to_pauli @ np.kron(u, u.conj()) @ from_pauli).real

    i, u = 0, np.eye(2 ** n, dtype=complex)
    for g, m in zip(c.gates, gate_stack(c)):
        u = m @ u
        if g.name != "cx":
            counts[g.wires[0]] += 1
            continue
        ptm[i], e1[i], e2[i] = transfer(u), counts @ mask, mask[list(g.wires)].max(axis=0)
        counts[:], i, u = 0, i + 1, np.eye(2 ** n, dtype=complex)
    ptm[i], e1[i] = transfer(u), counts @ mask
    return ptm, e1, e2


def _basis_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where an outcome channel starts and ends in the Pauli basis: the
    components of the basis inputs |m><m|, one real column per physical
    basis input (to_pauli's columns at the diagonal entries of vec(rho)),
    and the real rows of from_pauli there, which read Born diagonals back."""
    d = 2 ** n
    to_pauli, from_pauli, _ = _pauli_basis(n)
    return to_pauli[:, ::d + 1].real, from_pauli[::d + 1].real


def circuit_channel(c: Circuit, nm: NoiseModel) -> np.ndarray:
    """The circuit's readout-free outcome channel under nm's per-gate
    depolarizing noise: row m is the Born distribution of basis input m
    after the circuit, (d, d) in logical order, through
    qcore.clip_probabilities.  The inputs' Pauli components go through
    _plan's steps in physical wire order."""
    ptm, e1, e2 = _plan(c)
    x, diagonals = _basis_ends(c.n_wires)
    for r, s in zip(ptm, (1 - nm.p1) ** e1 * (1 - nm.p2) ** e2):
        x = r @ (s[:, None] * x)
    return qcore.clip_probabilities(qcore.to_logical((diagonals @ x).T))


def channel_polynomial(c: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The circuit's readout-free outcome channel as an exact polynomial
    sum_k a^i_k b^j_k C_k in a = 1 - p1 and b = 1 - p2: the exponent pairs
    (i_k, j_k) as (K, 2) and the coefficients C_k as (K, d, d), row m the
    Born diagonal that basis input m contributes, in logical order; both
    read-only, and evaluated by :func:`evaluate_channel`.

    This is circuit_channel with the noise kept symbolic: at each of
    _plan's steps every term splits by the (E1, E2) exponents of its
    components before R.  Every pair the split reaches is kept, even where
    its diagonals cancel.
    """
    ptm, e1, e2 = _plan(c)
    start, diagonals = _basis_ends(c.n_wires)
    terms = {(0, 0): start}
    for r, u, w in zip(ptm, e1, e2):
        split = {}
        for du, dw in sorted(set(zip(u.tolist(), w.tolist()))):
            rows = (u == du) & (w == dw)
            for (i, j), x in terms.items():
                key, y = (i + du, j + dw), r[:, rows] @ x[rows]
                split[key] = split[key] + y if key in split else y
        terms = split
    pairs = sorted(terms)
    coefficients = qcore.to_logical(np.array([(diagonals @ terms[k]).T for k in pairs]))
    return qcore.read_only(np.array(pairs)), qcore.read_only(coefficients)


def evaluate_channel(polynomial: tuple[np.ndarray, np.ndarray], nm: NoiseModel) -> np.ndarray:
    """channel_polynomial's channel at nm's gate noise, as circuit_channel
    gives it: one weighted sum of the coefficients, through qcore.clip_probabilities."""
    exponents, coefficients = polynomial
    weights = (1 - nm.p1) ** exponents[:, 0] * (1 - nm.p2) ** exponents[:, 1]
    channel = weights @ coefficients.reshape(len(weights), -1)  # one product, not tensordot's copies
    return qcore.clip_probabilities(channel.reshape(coefficients.shape[1:]))


def readout_matrix(nm: NoiseModel) -> np.ndarray:
    """The confusion matrix, entries[m, t] = P(measure m | true state t): a
    tensor product of one flip matrix per qubit; the factors are equal, so
    their order, and with it the register's wire order, does not matter.

    The matrix depends on nm's readout probabilities alone; it is cached
    for the last few (eps01, eps10) pairs and shared, so it is read-only."""
    return _confusion(nm.eps01, nm.eps10)


@functools.lru_cache(maxsize=8)
def _confusion(eps01: float, eps10: float) -> np.ndarray:
    f = np.array([[1 - eps01, eps10], [eps01, 1 - eps10]])
    return qcore.read_only(np.einsum("ab,cd,ef->acebdf", f, f, f).reshape(qcore.DIM, qcore.DIM))


def apply_readout_error(p: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Read out p, or each vector of a stack (..., 8), rounding as R @ p does."""
    p = qcore.check_probabilities(p)
    if p.shape[-1] != qcore.DIM:
        raise ValueError(f"readout acts on {qcore.DIM} outcomes, not {p.shape[-1]}")
    return (readout_matrix(nm) @ p[..., None])[..., 0]


def calibrate(nm: NoiseModel, shots: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Empirical readout_matrix: prepare each basis state, read out, count.
    All columns are one multinomial draw from the generator seeded by seed."""
    counts = qcore.sample_counts(readout_matrix(nm).T, shots, seed)
    return counts.T / shots


def readout_inverse(confusion: np.ndarray) -> np.ndarray:
    """The inverse of a confusion matrix (square, its columns checked by
    qcore.check_probabilities), from the one SVD that also gives its
    condition number; cond > 1e12 counts as singular and raises ValueError."""
    m = np.asarray(confusion, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("confusion matrix must be square")
    qcore.check_probabilities(m.T)
    u, s, vt = np.linalg.svd(m)
    if not s[0] <= 1e12 * s[-1]:  # cond = s[0] / s[-1]; NaN fails too
        raise ValueError(f"confusion matrix is singular (cond={s[0] / s[-1] if s[-1] else np.inf:.3g})")
    return (vt.T / s) @ u.T


def mitigate(raw: np.ndarray, unmix: np.ndarray) -> np.ndarray:
    """raw, or each vector of a stack (..., d), mapped through a readout
    inverse (readout_inverse) and clipped to the simplex; matmul rejects a
    dimension mismatch."""
    raw = qcore.check_probabilities(raw)
    q = np.clip(raw @ unmix.T, 0.0, None)
    total = q.sum(axis=-1, keepdims=True)
    if np.min(total) <= 0:
        raise ValueError("mitigated distribution vanished")
    return q / total
