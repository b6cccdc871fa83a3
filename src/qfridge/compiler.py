"""Generic unitary-to-elementary-gate compiler.

Textbook pipeline, correctness over gate-count optimality:

1. factor the target into two-level Givens rotations,
2. realize each two-level rotation by Gray-code conditioning with
   multi-controlled single-qubit operations,
3. expand multi-controls recursively into cx + single-qubit operations,
4. merge adjacent single-qubit operations and rewrite each survivor into
   rz-sx-rz-sx-rz form,
5. route cx gates that violate the coupling map via SWAP chains
   (SWAP = 3 cx).

The compiled circuit reproduces the target up to a global phase.
"""
from __future__ import annotations

from collections import deque
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
    sx,
    x,
)

_ATOL = 1e-12


@dataclass(frozen=True)
class CompileReport:
    total_gates: int
    cnot_count: int
    depth: int


# ---------------------------------------------------------------------------
# two-level factorization

def _lmul_rows(a: np.ndarray, g: np.ndarray, i: int, j: int) -> None:
    rows = g @ np.vstack((a[i], a[j]))
    a[i], a[j] = rows[0], rows[1]


def _two_level_factor(u: np.ndarray) -> list[tuple[np.ndarray, int, int]]:
    """Factor u into two-level unitaries, returned in application order.

    Each item is (g, a, b) with a < b and g the 2x2 action on span{|a>,|b>}.
    """
    d = u.shape[0]
    a_mat = u.astype(complex).copy()
    left: list[tuple[np.ndarray, int, int]] = []
    for c in range(d - 1):
        for r in range(d - 1, c, -1):
            x0, x1 = a_mat[c, c], a_mat[r, c]
            if abs(x1) <= _ATOL:
                continue
            n = np.hypot(abs(x0), abs(x1))
            g = np.array(
                [[x0.conjugate() / n, x1.conjugate() / n], [-x1 / n, x0 / n]]
            )
            _lmul_rows(a_mat, g, c, r)
            left.append((g, c, r))
    for k in range(d):
        ph = a_mat[k, k]
        if abs(ph - 1.0) > _ATOL:
            partner = k + 1 if k + 1 < d else k - 1
            lo, hi = min(k, partner), max(k, partner)
            g = np.eye(2, dtype=complex)
            g[0 if lo == k else 1, 0 if lo == k else 1] = ph.conjugate()
            _lmul_rows(a_mat, g, lo, hi)
            left.append((g, lo, hi))
    return [(g.conj().T, i, j) for (g, i, j) in reversed(left)]


# ---------------------------------------------------------------------------
# multi-controlled expansion (raw ops: ("u", wire, 2x2) | ("cx", ctrl, tgt))

def _sqrt_unitary2(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary."""
    alpha = np.angle(np.linalg.det(u)) / 2
    v = u * np.exp(-1j * alpha)  # now in SU(2): v = cos(t/2) I - i sin(t/2) n.sigma
    cos_half = np.clip(v.trace().real / 2, -1.0, 1.0)
    theta = 2 * np.arccos(cos_half)
    sin_half = np.sin(theta / 2)
    if abs(sin_half) < _ATOL:
        axis = np.diag([1.0, -1.0]).astype(complex)  # arbitrary axis, v = +/- I
    else:
        axis = (v - cos_half * np.eye(2)) / (-1j * sin_half)
    root = np.cos(theta / 4) * np.eye(2) - 1j * np.sin(theta / 4) * axis
    return np.exp(1j * alpha / 2) * root


def _zyz_angles(v: np.ndarray) -> tuple[float, float, float]:
    """Euler angles with v = Rz(beta) Ry(gamma) Rz(delta), v in SU(2)."""
    gamma = 2 * np.arctan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[0, 0]) > _ATOL and abs(v[1, 0]) > _ATOL:
        s = np.angle(v[1, 1])
        d2 = np.angle(v[1, 0])
        return s + d2, gamma, s - d2
    if abs(v[1, 0]) <= _ATOL:
        return 2 * np.angle(v[1, 1]), gamma, 0.0
    return 2 * np.angle(v[1, 0]), gamma, 0.0


def _rz2(a: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * a), 0], [0, np.exp(0.5j * a)]])


def _ry2(a: float) -> np.ndarray:
    c, s = np.cos(a / 2), np.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _controlled_u_ops(control: int, target: int, u: np.ndarray) -> list:
    """ABC decomposition of a singly controlled 2x2 unitary."""
    alpha = np.angle(np.linalg.det(u)) / 2
    v = u * np.exp(-1j * alpha)
    beta, gamma, delta = _zyz_angles(v)
    a = _rz2(beta) @ _ry2(gamma / 2)
    b = _ry2(-gamma / 2) @ _rz2(-(delta + beta) / 2)
    c = _rz2((delta - beta) / 2)
    phase = np.diag([1.0, np.exp(1j * alpha)]).astype(complex)
    return [
        ("u", target, c),
        ("cx", control, target),
        ("u", target, b),
        ("cx", control, target),
        ("u", target, a),
        ("u", control, phase),
    ]


def _cku_ops(controls: tuple[int, ...], target: int, u: np.ndarray) -> list:
    """u on target, conditioned on every control wire being |1>."""
    if not controls:
        return [("u", target, u)]
    if len(controls) == 1:
        if np.max(np.abs(u - X_MATRIX)) < _ATOL:
            return [("cx", controls[0], target)]
        return _controlled_u_ops(controls[0], target, u)
    head, last = controls[:-1], controls[-1]
    v = _sqrt_unitary2(u)
    return (
        _cku_ops((last,), target, v)
        + _cku_ops(head, last, X_MATRIX)
        + _cku_ops((last,), target, v.conj().T)
        + _cku_ops(head, last, X_MATRIX)
        + _cku_ops(head, target, v)
    )


def _mcu_ops(controls, ctrl_values, target: int, u: np.ndarray) -> list:
    """Multi-controlled u with arbitrary control values (0-controls X-wrapped)."""
    wrap = [("u", c, X_MATRIX) for c, v in zip(controls, ctrl_values) if v == 0]
    return wrap + _cku_ops(tuple(controls), target, u) + wrap


def _bit(state: int, wire: int, n: int) -> int:
    return (state >> (n - 1 - wire)) & 1


def _inverse_ops(ops: list) -> list:
    inv = []
    for op in reversed(ops):
        if op[0] == "u":
            inv.append(("u", op[1], op[2].conj().T))
        else:
            inv.append(op)
    return inv


def _two_level_ops(g: np.ndarray, a: int, b: int, n: int) -> list:
    """Gray-code realization of a two-level unitary on basis states a < b."""
    if n == 1:
        return [("u", 0, g)]
    diffs = [w for w in range(n) if _bit(a, w, n) != _bit(b, w, n)]
    chain: list = []
    state = a
    for w in diffs[:-1]:
        nxt = state ^ (1 << (n - 1 - w))
        others = [q for q in range(n) if q != w]
        values = [_bit(nxt, q, n) for q in others]
        chain += _mcu_ops(others, values, w, X_MATRIX)
        state = nxt
    d = diffs[-1]
    others = [q for q in range(n) if q != d]
    values = [_bit(state, q, n) for q in others]
    if _bit(state, d, n) == 0:
        central = g
    else:
        central = g[::-1, ::-1].copy()
    ops = list(chain)
    ops += _mcu_ops(others, values, d, central)
    ops += _inverse_ops(chain)
    return ops


# ---------------------------------------------------------------------------
# single-qubit rewriting

def _is_phase_of(m: np.ndarray, ref: np.ndarray) -> bool:
    k = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    if abs(m[k]) < _ATOL:
        return False
    return np.max(np.abs(m - (m[k] / ref[k]) * ref)) < 1e-11


def _norm_angle(a: float) -> float:
    a = (a + np.pi) % (2 * np.pi) - np.pi
    return a


def _rewrite_single(wire: int, m: np.ndarray) -> list[Gate]:
    """Rewrite a 2x2 unitary into the {rz, x, sx} basis, up to global phase."""
    if _is_phase_of(m, np.eye(2)):
        return []
    if _is_phase_of(m, X_MATRIX):
        return [x(wire)]
    if _is_phase_of(m, SX_MATRIX):
        return [sx(wire)]
    if abs(m[1, 0]) < _ATOL:  # diagonal -> one rz
        ang = _norm_angle(np.angle(m[1, 1]) - np.angle(m[0, 0]))
        return [rz(wire, ang)] if abs(ang) > _ATOL else []
    if abs(m[0, 0]) < _ATOL:  # antidiagonal
        theta, lam = np.pi, 0.0
        phi = np.angle(m[1, 0]) - np.angle(-m[0, 1])
    else:
        gamma = np.angle(m[0, 0])
        theta = 2 * np.arctan2(abs(m[1, 0]), abs(m[0, 0]))
        phi = np.angle(m[1, 0]) - gamma
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
            pending[w] = m @ pending.get(w, np.eye(2, dtype=complex))
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

def _shortest_path(coupling: CouplingMap, a: int, b: int) -> list[int]:
    prev = {a: None}
    queue = deque([a])
    while queue:
        w = queue.popleft()
        if w == b:
            path = [b]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for nb in coupling.neighbors(w):
            if nb not in prev:
                prev[nb] = w
                queue.append(nb)
    raise ValueError(f"wires {a} and {b} are not connected in the coupling map")


def _swap_gates(a: int, b: int) -> list[Gate]:
    return [cx(a, b), cx(b, a), cx(a, b)]


def _route(gates: list[Gate], coupling: CouplingMap | None) -> list[Gate]:
    if coupling is None:
        return gates
    routed: list[Gate] = []
    for g in gates:
        if g.name != "cx" or coupling.allows(*g.wires):
            routed.append(g)
            continue
        path = _shortest_path(coupling, *g.wires)
        swaps: list[Gate] = []
        for i in range(len(path) - 2):
            swaps += _swap_gates(path[i], path[i + 1])
        routed += swaps
        routed.append(cx(path[-2], path[-1]))
        routed += swaps[::-1]
    return routed


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
    u_phys = qcore.to_physical(u) if n == qcore.N_WIRES else u
    ops: list = []
    for g, a, b in _two_level_factor(u_phys):
        ops += _two_level_ops(g, a, b, n)
    gates = _merge_and_rewrite(ops, n)
    gates = _route(gates, coupling)
    circuit = Circuit(n, gates, coupling).validate()
    report = CompileReport(
        total_gates=len(gates),
        cnot_count=circuit.cnot_count(),
        depth=circuit.depth(),
    )
    return circuit, report


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
