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
   "Quantum circuits for general multiqubit gates", PRL 93, 130502 (2004));
   steps 1-3 run level by level, each level as one stack of its blocks,
4. merge adjacent single-qubit operations, then rewrite every merged
   product at once, as one (k, 2, 2) stack, into rz-sx-rz-sx-rz form,
5. route each cx the coupling map forbids as a 4-cx bridge through a wire
   coupled to both of its wires, then cancel adjacent equal cx pairs.

The compiled circuit reproduces the target up to a global phase.
"""
from __future__ import annotations

import cmath
import functools

import numpy as np

from . import qcore
from .circuits import (
    Circuit,
    CompileReport,
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


# ---------------------------------------------------------------------------
# Quantum Shannon Decomposition (raw ops: ("u", wire, 2x2) | ("cx", ctrl, tgt))

def _ry2(a: float | np.ndarray) -> np.ndarray:
    """Ry(a), or a stack (..., 2, 2) of them for an array of angles."""
    c, s = np.cos(a / 2), np.sin(a / 2)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _cossin(u: np.ndarray):
    """Cosine-sine decomposition of each block of u about its first wire.

    Returns stacks (l0, l1, theta, r0, r1) with u = (l0 + l1) CS (r0 + r1)
    per block, where + is the direct sum and CS = [[C, -S], [S, C]],
    C = diag(cos theta), S = diag(sin theta), 0 <= theta <= pi/2; a
    block-diagonal block has theta = 0 and r0 = r1 = I.
    """
    h = u.shape[-1] // 2
    quadrants = u[:, :h, :h], u[:, :h, h:], u[:, h:, :h], u[:, h:, h:]
    l0, l1, theta = quadrants[0].copy(), quadrants[3].copy(), np.zeros((len(u), h))
    r0, r1 = np.tile(np.eye(h, dtype=complex), (2, len(u), 1, 1))
    split = np.flatnonzero(np.abs(np.stack(quadrants[1:3], 1)).max(axis=(1, 2, 3)) > _ATOL)
    svd = np.linalg.svd(quadrants[0][split])
    # Cosines near 1 fix their rows of r0 only up to a rotation among
    # themselves, and their sines are too small to read off 1 - c^2; an SVD
    # of u10 on those rows picks the rotation and gives the sines.  Below
    # 1/sqrt(2) the SVD of u00 resolves the rows, and the sines come from
    # column norms of u10 r0^dagger.  Blocks of equal k go together.
    ks = np.count_nonzero(svd[1] >= np.sqrt(0.5), axis=1)
    for k in sorted(set(ks.tolist())):
        g = split[ks == k]
        l0[g], l1[g], theta[g], r0[g], r1[g] = _cossin_split(
            k, *(a[ks == k] for a in svd), *(q[g] for q in quadrants))
    return l0, l1, theta, r0, r1


def _cossin_split(k, l0, c, r0, u00, u01, u10, u11):
    """_cossin of the blocks with k cosines >= 1/sqrt(2), from the SVD
    u00 = l0 c r0 of each."""
    p, s_near, qh = np.linalg.svd(u10 @ _dagger(r0[:, :k]))
    r0[:, :k] = qh @ r0[:, :k]
    x_near = u00 @ _dagger(r0[:, :k])
    c[:, :k] = np.linalg.norm(x_near, axis=-2)
    l0[:, :, :k] = x_near / c[:, None, :k]
    y_far = u10 @ _dagger(r0[:, k:])
    s = np.concatenate([s_near, np.linalg.norm(y_far, axis=-2)], axis=-1)
    tiny = s <= _ATOL
    s[tiny] = 0.0
    # l1 = (u10 r0^dagger) / s where s is not tiny, completed from l0's
    # columns elsewhere; one QR, largest sines first, makes it unitary
    l1 = np.concatenate([p[:, :, :k], y_far / s[:, None, k:]], axis=-1)
    l1 = np.where(tiny[:, None, :], l0, l1)
    order = np.argsort(-s, axis=-1, kind="stable")[:, None, :]
    q, r = np.linalg.qr(np.take_along_axis(l1, order, axis=-1))
    phases = np.exp(1j * np.angle(np.diagonal(r, axis1=-2, axis2=-1)))
    np.put_along_axis(l1, order, q * phases[:, None, :], axis=-1)
    r1 = c[:, :, None] * (_dagger(l1) @ u11) - s[:, :, None] * (_dagger(l0) @ u01)
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
    """Split each a1 + a2 (direct sum) of two stacks into (I x V)(D + D^dagger)(I x W).

    Returns stacks (v, d, w) with d the diagonal of D: a1 = v D w and
    a2 = v D^dagger w.  V diagonalizes the normal matrix a1 a2^dagger =
    v D^2 v^dagger as the eigenbasis of its Hermitian part turned by the
    psi of _separating_angle, which resolves every spectrum; V = I when
    a1 a2^dagger is diagonal, where its eigenbasis would be rounding noise.
    """
    nrm = a1 @ _dagger(a2)
    eye = np.eye(nrm.shape[-1], dtype=complex)
    v = np.tile(eye, (len(nrm), 1, 1))
    d = np.exp(0.5j * np.angle(np.diagonal(nrm, axis1=-2, axis2=-1)))
    w = d[:, :, None] * a2
    mixed = np.abs(np.where(eye == 1, 0, nrm)).max(axis=(1, 2)) > _ATOL
    nrm, a2 = nrm[mixed], a2[mixed]
    turns = [np.exp(-1j * _separating_angle(lam)) for lam in np.linalg.eigvals(nrm).tolist()]
    nrm_psi = np.array(turns)[:, None, None] * nrm
    _, vm = np.linalg.eigh((nrm_psi + _dagger(nrm_psi)) / 2)
    dm = np.exp(0.5j * np.angle(np.diagonal(_dagger(vm) @ nrm @ vm, axis1=-2, axis2=-1)))
    v[mixed], d[mixed], w[mixed] = vm, dm, dm[:, :, None] * (_dagger(vm) @ a2)
    return v, d, w


@functools.lru_cache(maxsize=None)
def _walsh_gray(m: int) -> np.ndarray:
    """The 2^m x 2^m Walsh-Hadamard matrix, rows in Gray-code order; read-only."""
    walsh = functools.reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * m, np.ones((1, 1)))
    return qcore.read_only(walsh[[k ^ (k >> 1) for k in range(2 ** m)]])


def _ucr_ops(
    rot, angles: np.ndarray, target: int, controls: tuple[int, ...]
) -> list[list]:
    """Per row of angles, rot(angles[j]) on target under control state j
    (controls[0] most significant) as a Gray-code cx ladder (Mottonen et al.,
    PRL 93, 130502); rot maps an array of angles to a stack of 2x2s.

    X rot(a) X = rot(-a) for rot in {Rz, Ry}, so a rotation made while the
    target carries the parity p of the controls turns by
    (-1)^popcount(j & p) a under state j; the angle per parity is a
    Walsh-Hadamard transform of the angles.  Vanishing angles are skipped
    together with the cx that would only serve them.
    """
    m = len(controls)
    gray = [k ^ (k >> 1) for k in range(2 ** m)]
    # a matrix-vector product per row: one gemm over all rows rounds differently
    thetas = (_walsh_gray(m) @ angles[..., None])[..., 0] / 2 ** m
    flips = [[("cx", c, target) for i, c in enumerate(controls) if mask >> (m - 1 - i) & 1]
             for mask in range(2 ** m)]  # the cx by which each parity mask flips the target
    kept = np.abs(thetas) > _ATOL
    rotations = iter(rot(thetas[kept]))
    rows = []
    for row in kept.tolist():
        ops, parity = [], 0
        for p, keep in zip(gray, row):
            if keep:
                ops += flips[parity ^ p] + [("u", target, next(rotations))]
                parity = p
        rows.append(ops + flips[parity])
    return rows


def _qsd_ops(u: np.ndarray, wires: tuple[int, ...]) -> list[list]:
    """Raw ops, in application order, realizing each block of the (B, d, d)
    stack u on wires (first most significant), one list per block, by
    cosine-sine splits down to one-wire leaves, one stack per level."""
    if len(wires) == 1:
        return [[("u", wires[0], m)] for m in u]
    top, rest, b = wires[0], wires[1:], len(u)
    l0, l1, theta, r0, r1 = _cossin(u)
    v, d, w = _demultiplex(np.concatenate([r0, l0]), np.concatenate([r1, l1]))
    halves = _qsd_ops(np.concatenate([w, v]), rest)
    w_r, w_l, v_r, v_l = (halves[i * b:(i + 1) * b] for i in range(4))
    rz = _ucr_ops(rz_matrix, -2 * np.angle(d), top, rest)
    ry = _ucr_ops(_ry2, 2 * theta, top, rest)
    return [sum(ops, []) for ops in zip(w_r, rz[:b], v_r, ry, w_l, rz[b:], v_l)]


# ---------------------------------------------------------------------------
# single-qubit rewriting

# the gates of a product that is I, X, SX, diagonal or none of these: a gate
# constructor, or the column of an rz angle, left out when within _ATOL of zero
_GATES_OF_KIND = ((), (x,), (sx,), (0,), (0, sx, 1, sx, 2))


def _rewrite_stack(wires: list[int], ms: np.ndarray) -> list[list[Gate]]:
    """Rewrite each 2x2 unitary ms[j] on wires[j] into the {rz, x, sx} basis,
    up to global phase, with array operations over the whole (k, 2, 2) stack.

    A product is I, X or SX when it matches that matrix to 1e-11 after the
    phase of the reference's largest entry; else one rz if diagonal, else
    rz(lam) sx rz(theta + pi) sx rz(phi + pi) in application order.
    """
    m00, m01, m10, m11 = ms[:, 0, 0], ms[:, 0, 1], ms[:, 1, 0], ms[:, 1, 1]
    # hypot, not np.abs: numpy's SIMD complex abs may differ from the scalar abs by an ulp
    a00, a10 = np.hypot(m00.real, m00.imag), np.hypot(m10.real, m10.imag)

    def phase_of(ref, i, j):  # ref's largest entry (i, j) fixes the phase
        z = ms[:, i, j]
        diff = ms - (z / ref[i, j])[:, None, None] * ref
        return (np.hypot(z.real, z.imag) >= _ATOL) & (np.abs(diff).max(axis=(1, 2)) < 1e-11)

    diagonal, anti = a10 < _ATOL, a00 < _ATOL
    gamma, gamma01 = np.angle(m00), np.angle(-m01)
    turn = np.angle(m11) - gamma  # a diagonal product's one rz
    # an antidiagonal one has theta = pi, lam = 0 and phi from m10 against -m01
    phi = np.angle(m10) - np.where(anti, gamma01, gamma)
    theta = np.where(anti, np.pi, 2 * np.arctan2(a10, a00))
    # read phi + lam from m11 when the off-diagonal entries are the small
    # ones: their phases carry an error of about eps / |m10|
    lam = np.where(anti, 0.0, np.where(a10 < a00, turn - phi, gamma01 - gamma))
    angles = np.stack([np.where(diagonal, turn, lam), theta + np.pi, phi + np.pi], 1)
    angles = (angles + np.pi) % (2 * np.pi) - np.pi
    kinds = np.select(
        [phase_of(np.eye(2), 0, 0), phase_of(X_MATRIX, 0, 1), phase_of(SX_MATRIX, 0, 0), diagonal],
        [0, 1, 2, 3], 4,
    )
    return [
        [t(w) if callable(t) else rz(w, a[t]) for t in _GATES_OF_KIND[k]
         if callable(t) or abs(a[t]) > _ATOL]
        for w, k, a in zip(wires, kinds.tolist(), angles.tolist())
    ]


def _merge_and_rewrite(ops: list, n: int) -> list[Gate]:
    """Fuse runs of single-qubit ops per wire; each flushed product holds a
    slot in the gate list, filled by one _rewrite_stack call over them all."""
    pending: dict[int, np.ndarray] = {}
    slots: list[Gate | None] = []  # None: the next product's gates
    wires: list[int] = []
    products: list[np.ndarray] = []

    def flush(w: int) -> None:
        m = pending.pop(w, None)
        if m is not None:
            slots.append(None)
            wires.append(w)
            products.append(m)

    for op in ops:
        if op[0] == "u":
            _, w, m = op
            pending[w] = m @ pending[w] if w in pending else m
        else:
            _, c, t = op
            flush(c)
            flush(t)
            slots.append(cx(c, t))
    for w in range(n):
        flush(w)
    rewritten = iter(_rewrite_stack(wires, np.array(products)))
    return [g for s in slots for g in (next(rewritten) if s is None else (s,))]


# ---------------------------------------------------------------------------
# routing

def _route(gates: list[Gate], coupling: CouplingMap | None, n: int) -> list[Gate]:
    """Bridge each cx(a, c) the coupling map forbids through a register wire
    b coupled to both: cx(a, c) = cx(a, b) cx(b, c) cx(a, b) cx(b, c) in
    application order, 4 cx in all.  Each distinct cx wire pair is decided
    once, in the order of its first gate."""
    if coupling is None:
        return gates
    bridges: dict[tuple[int, ...], list[Gate]] = {}
    for a, c in dict.fromkeys(g.wires for g in gates if g.name == "cx"):
        if coupling.allows(a, c):
            continue
        b = next(
            (b for b in range(n) if coupling.allows(a, b) and coupling.allows(b, c)),
            None,
        )
        if b is None:
            raise ValueError(f"no wire is coupled to both wires {a} and {c}")
        bridges[a, c] = [cx(a, b), cx(b, c), cx(a, b), cx(b, c)]
    routed: list[Gate] = []
    for g in gates:  # only cx has two wires, so no other gate's wires name a bridge
        if g.wires in bridges:
            routed += bridges[g.wires]
        else:
            routed.append(g)
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
    gates = _merge_and_rewrite(_qsd_ops(qcore.to_physical(u)[None], tuple(range(n)))[0], n)
    gates = _cancel_cx_pairs(_route(gates, coupling, n), n)
    circuit = Circuit(n, gates, coupling)
    return circuit, CompileReport.of(circuit)
