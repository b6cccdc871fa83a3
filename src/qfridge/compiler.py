"""Generic unitary-to-elementary-gate compiler.

The Quantum Shannon Decomposition (Shende, Bullock & Markov, "Synthesis of
quantum logic circuits", IEEE TCAD 25 (2006), arXiv:quant-ph/0406176):

1. split the physical-order target on its first wire by a cosine-sine
   decomposition, u = (L0 + L1) CS (R0 + R1) with + the direct sum; CS is
   an Ry on that wire uniformly controlled by the others,
2. demultiplex each block pair, A1 + A2 = (I x V)(D + D^dagger)(I x W),
   where D + D^dagger is a uniformly controlled Rz,
3. recurse on every V and W down to one-wire leaves, and realize each
   uniformly controlled rotation by a Gray-code cx ladder (Mottonen et al.,
   "Quantum circuits for general multiqubit gates", PRL 93, 130502 (2004)),
4. merge adjacent single-qubit operations and rewrite each survivor into
   rz-sx-rz-sx-rz form,
5. route each cx the coupling map forbids as a 4-cx bridge through a wire
   coupled to both of its wires, then cancel adjacent equal cx pairs.

The compiled circuit reproduces the target up to a global phase.
"""
from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from . import qcore
from .circuits import (
    Circuit,
    CouplingMap,
    Gate,
    SX_MATRIX,
    X_MATRIX,
    cx,
    rz,
    rz_matrix,
    sx,
    x,
)

_ATOL = 1e-12


@dataclass(frozen=True)
class CompileReport:
    total_gates: int
    cnot_count: int
    depth: int

    @classmethod
    def of(cls, circuit: Circuit) -> "CompileReport":
        return cls(len(circuit.gates), circuit.cnot_count(), circuit.depth())


# ---------------------------------------------------------------------------
# Quantum Shannon Decomposition (raw ops: ("u", wire, 2x2) | ("cx", ctrl, tgt))

def _ry2(a: float) -> np.ndarray:
    c, s = np.cos(a / 2), np.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _cossin(u: np.ndarray):
    """Cosine-sine decomposition of u about its first (most significant) wire.

    Returns (l0, l1, theta, r0, r1) with u = (l0 + l1) CS (r0 + r1), where +
    is the direct sum and CS = [[C, -S], [S, C]], C = diag(cos theta),
    S = diag(sin theta), 0 <= theta <= pi/2; a block-diagonal u has
    theta = 0 and r0 = r1 = I.
    """
    h = u.shape[0] // 2
    u00, u01, u10, u11 = u[:h, :h], u[:h, h:], u[h:, :h], u[h:, h:]
    if max(np.max(np.abs(u01)), np.max(np.abs(u10))) <= _ATOL:
        eye = np.eye(h, dtype=complex)
        return u00, u11, np.zeros(h), eye, eye
    l0, c, r0 = np.linalg.svd(u00)
    # Cosines near 1 fix their rows of r0 only up to a rotation among
    # themselves, and their sines are too small to read off 1 - c^2; an SVD
    # of u10 on those rows picks the rotation and gives the sines.  Below
    # 1/sqrt(2) the SVD of u00 resolves the rows, and the sines come from
    # column norms of u10 r0^dagger.
    k = int(np.count_nonzero(c >= np.sqrt(0.5)))
    p, s_near, qh = np.linalg.svd(u10 @ r0[:k].conj().T)
    r0[:k] = qh @ r0[:k]
    x_near = u00 @ r0[:k].conj().T
    c[:k] = np.linalg.norm(x_near, axis=0)
    l0[:, :k] = x_near / c[:k]
    y_far = u10 @ r0[k:].conj().T
    s = np.concatenate([s_near, np.linalg.norm(y_far, axis=0)])
    tiny = s <= _ATOL
    s[tiny] = 0.0
    # l1 = (u10 r0^dagger) / s where s is not tiny, completed from l0's
    # columns elsewhere; one QR, largest sines first, makes it unitary
    l1 = np.concatenate([p[:, :k], y_far / s[k:]], axis=1)
    l1[:, tiny] = l0[:, tiny]
    order = np.argsort(-s, kind="stable")
    q, r = np.linalg.qr(l1[:, order])
    l1[:, order] = q * np.exp(1j * np.angle(np.diagonal(r)))
    r1 = c[:, None] * (l1.conj().T @ u11) - s[:, None] * (l0.conj().T @ u01)
    return l0, l1, np.arctan2(s, c), r0, r1


def _separating_angle(lam: list[complex]) -> float:
    """psi at which Re(e^{-i psi} lam) keeps the distinct eigenvalues apart.

    A pair at lam_j - lam_k = r e^{i phi} ends r |cos(psi - phi)| apart, so
    every fixed psi merges some pairs.  Of m = pairs + 1 angles k pi / m one
    keeps each |cos(psi - phi)| >= sin(pi / 2m).  Pairs within _ATOL are
    equal to rounding: any basis of their eigenspace serves.
    """
    pairs = [a - b for i, a in enumerate(lam) for b in lam[i + 1:]]
    dirs = [p / abs(p) for p in pairs if abs(p) > _ATOL]
    m = len(dirs) + 1

    def spread(psi: float) -> float:
        turn = cmath.exp(-1j * psi)
        return min((abs((turn * u).real) for u in dirs), default=1.0)

    return max((np.pi * k / m for k in range(m)), key=spread)


def _demultiplex(a1: np.ndarray, a2: np.ndarray):
    """Split a1 + a2 (direct sum) into (I x V)(D + D^dagger)(I x W).

    Returns (v, d, w) with d the diagonal of D: a1 = v D w and
    a2 = v D^dagger w.  V diagonalizes the normal matrix a1 a2^dagger =
    v D^2 v^dagger as the eigenbasis of its Hermitian part turned by the
    psi of _separating_angle, which resolves every spectrum; V = I when
    a1 a2^dagger is diagonal, where its eigenbasis would be rounding noise.
    """
    nrm = a1 @ a2.conj().T
    diag = np.diagonal(nrm)
    if np.max(np.abs(nrm - np.diag(diag))) <= _ATOL:
        d = np.exp(0.5j * np.angle(diag))
        return np.eye(len(nrm), dtype=complex), d, d[:, None] * a2
    nrm_psi = np.exp(-1j * _separating_angle(np.linalg.eigvals(nrm).tolist())) * nrm
    _, v = np.linalg.eigh((nrm_psi + nrm_psi.conj().T) / 2)
    d = np.exp(0.5j * np.angle(np.diagonal(v.conj().T @ nrm @ v)))
    return v, d, d[:, None] * (v.conj().T @ a2)


@functools.lru_cache(maxsize=None)
def _walsh_gray(m: int) -> np.ndarray:
    """The 2^m x 2^m Walsh-Hadamard matrix, rows in Gray-code order; read-only."""
    walsh = functools.reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * m, np.ones((1, 1)))
    table = walsh[[k ^ (k >> 1) for k in range(2 ** m)]]
    table.flags.writeable = False
    return table


def _ucr_ops(
    rot, angles: np.ndarray, target: int, controls: tuple[int, ...]
) -> list:
    """rot(angles[j]) on target under control state j (controls[0] most
    significant), as a Gray-code cx ladder (Mottonen et al., PRL 93, 130502).

    X rot(a) X = rot(-a) for rot in {Rz, Ry}, so a rotation made while the
    target carries the parity p of the controls turns by
    (-1)^popcount(j & p) a under state j; the angle per parity is a
    Walsh-Hadamard transform of the angles.  Vanishing angles are skipped
    together with the cx that would only serve them.
    """
    m = len(controls)
    gray = [k ^ (k >> 1) for k in range(2 ** m)]
    thetas = _walsh_gray(m) @ angles / 2 ** m

    def flip(mask: int) -> list:
        bits = (mask >> (m - 1 - i) & 1 for i in range(m))
        return [("cx", c, target) for c, bit in zip(controls, bits) if bit]

    ops: list = []
    parity = 0
    for p, theta in zip(gray, thetas):
        if abs(theta) > _ATOL:
            ops += flip(parity ^ p)
            ops.append(("u", target, rot(theta)))
            parity = p
    return ops + flip(parity)


def _qsd_ops(u: np.ndarray, wires: tuple[int, ...]) -> list:
    """Raw ops, in application order, realizing u on wires (first most
    significant) by recursive cosine-sine splits down to one-wire leaves."""
    if len(wires) == 1:
        return [("u", wires[0], u)]
    top, rest = wires[0], wires[1:]
    l0, l1, theta, r0, r1 = _cossin(u)

    def demultiplexed(a1, a2) -> list:
        v, d, w = _demultiplex(a1, a2)
        return (
            _qsd_ops(w, rest)
            + _ucr_ops(rz_matrix, -2 * np.angle(d), top, rest)
            + _qsd_ops(v, rest)
        )

    return (
        demultiplexed(r0, r1)
        + _ucr_ops(_ry2, 2 * theta, top, rest)
        + demultiplexed(l0, l1)
    )


# ---------------------------------------------------------------------------
# single-qubit rewriting

def _is_phase_of(m: np.ndarray, ref: np.ndarray) -> bool:
    k = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    if abs(m[k]) < _ATOL:
        return False
    return np.max(np.abs(m - (m[k] / ref[k]) * ref)) < 1e-11


def _norm_angle(a: float) -> float:
    return (a + np.pi) % (2 * np.pi) - np.pi


def _rewrite_single(wire: int, m: np.ndarray) -> list[Gate]:
    """Rewrite a 2x2 unitary into the {rz, x, sx} basis, up to global phase.
    A probe match to 1e-11 implies |m10| < 2e-11 for I, |m00| < 2e-11 for X, and for SX,
    whose entries share one modulus, ||m10| - |m00|| < 2e-11; a probe runs only then."""
    a00, a10 = abs(m[0, 0]), abs(m[1, 0])
    if a10 < 2e-11 and _is_phase_of(m, np.eye(2)):
        return []
    if a00 < 2e-11 and _is_phase_of(m, X_MATRIX):
        return [x(wire)]
    if abs(a10 - a00) < 2e-11 and _is_phase_of(m, SX_MATRIX):
        return [sx(wire)]
    if a10 < _ATOL:  # diagonal -> one rz
        ang = _norm_angle(np.angle(m[1, 1]) - np.angle(m[0, 0]))
        return [rz(wire, ang)] if abs(ang) > _ATOL else []
    if a00 < _ATOL:  # antidiagonal
        theta, lam = np.pi, 0.0
        phi = np.angle(m[1, 0]) - np.angle(-m[0, 1])
    else:
        gamma = np.angle(m[0, 0])
        theta = 2 * np.arctan2(a10, a00)
        phi = np.angle(m[1, 0]) - gamma
        # read phi + lam from m[1, 1] when the off-diagonal entries are the
        # small ones: their phases carry an error of about eps / |m[1, 0]|
        if a10 < a00:
            lam = np.angle(m[1, 1]) - gamma - phi
        else:
            lam = np.angle(-m[0, 1]) - gamma
    gates = []
    for ang in (lam, None, theta + np.pi, None, phi + np.pi):
        if ang is None:
            gates.append(sx(wire))
        else:
            ang = _norm_angle(ang)
            if abs(ang) > _ATOL:
                gates.append(rz(wire, ang))
    return gates


def _merge_and_rewrite(ops: list, n: int) -> list[Gate]:
    """Fuse runs of single-qubit ops per wire, then rewrite each product."""
    pending: dict[int, np.ndarray] = {}
    gates: list[Gate] = []

    def flush(w: int) -> None:
        m = pending.pop(w, None)
        if m is not None:
            gates.extend(_rewrite_single(w, m))

    for op in ops:
        if op[0] == "u":
            _, w, m = op
            pending[w] = m @ pending[w] if w in pending else m
        else:
            _, c, t = op
            flush(c)
            flush(t)
            gates.append(cx(c, t))
    for w in range(n):
        flush(w)
    return gates


# ---------------------------------------------------------------------------
# routing

def _route(gates: list[Gate], coupling: CouplingMap | None, n: int) -> list[Gate]:
    """Bridge each cx(a, c) the coupling map forbids through a register wire
    b coupled to both: cx(a, c) = cx(a, b) cx(b, c) cx(a, b) cx(b, c) in
    application order, 4 cx in all."""
    if coupling is None:
        return gates
    routed: list[Gate] = []
    for g in gates:
        if g.name != "cx" or coupling.allows(*g.wires):
            routed.append(g)
            continue
        a, c = g.wires
        b = next(
            (b for b in range(n) if coupling.allows(a, b) and coupling.allows(b, c)),
            None,
        )
        if b is None:
            raise ValueError(f"no wire is coupled to both wires {a} and {c}")
        routed += [cx(a, b), cx(b, c), cx(a, b), cx(b, c)]
    return routed


def _cancel_cx_pairs(gates: list[Gate], n: int) -> list[Gate]:
    """Drop pairs of equal cx with no gate between them on either wire.

    Each wire keeps a stack of the kept gates on it, so a pair that meets
    only once the pairs inside it are gone cancels in the same pass.
    """
    kept: list[Gate | None] = []
    stacks: list[list[int]] = [[] for _ in range(n)]
    for g in gates:
        if g.name == "cx":
            a, b = (stacks[w] for w in g.wires)
            if a and b and a[-1] == b[-1] and kept[a[-1]] == g:
                kept[a.pop()] = None
                b.pop()
                continue
        for w in g.wires:
            stacks[w].append(len(kept))
        kept.append(g)
    return [g for g in kept if g is not None]


# ---------------------------------------------------------------------------

def compile_generic(
    u: np.ndarray, coupling: CouplingMap | None = None
) -> tuple[Circuit, CompileReport]:
    """Compile a unitary (logical order for 8x8) to elementary gates.

    Returns a circuit over {rz, x, sx, cx} respecting the coupling map whose
    evaluated matrix matches u up to a global phase.
    """
    u = qcore.check_unitary(u)
    d = u.shape[0]
    n = int(round(np.log2(d)))
    if 2 ** n != d or n < 1:
        raise ValueError("dimension must be a power of two >= 2")
    gates = _merge_and_rewrite(_qsd_ops(qcore.to_physical(u), tuple(range(n))), n)
    gates = _cancel_cx_pairs(_route(gates, coupling, n), n)
    circuit = Circuit(n, gates, coupling)
    return circuit, CompileReport.of(circuit)


def global_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - e^{i phi} b| over the optimal global phase phi."""
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[k]) < _ATOL:
        return float(np.max(np.abs(a - b)))
    phase = a[k] / b[k]
    if abs(phase) > _ATOL:
        phase /= abs(phase)
    else:
        phase = 1.0
    return float(np.max(np.abs(a - phase * b)))
