"""Thermal preparations, transition matrices, the per-point rules, analytics.

Each per-point rule is an array function that ``sweep.evaluate_grid``
composes over a whole grid (one point is a 1x1 grid); the closed forms for
the ideal engine are array rules too, over columns of (T_H, T_C) points.

Unit conventions, used consistently everywhere:

* frequencies are ordinary frequencies in GHz, one quantum = h * f,
* energies are in h*GHz,
* temperatures are in mK,
* the single conversion constant is h/k_B = 47.9924 mK/GHz.

The hot subsystem is the (q0, q2) compound with resonance Omega = f0 + f2;
the cold subsystem is qubit q1 at frequency f1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .circuits import Circuit
from .noise import ConfusionMatrix, NoiseModel, apply_readout_error, evolve_noisy, mitigate

#: h / k_B in mK per GHz
H_OVER_KB = 47.9924

SCHEMES = ("swap4", "full8")
HOT_ENERGY_MODES = ("ideal", "detuned")

#: default boundary tolerance for exact (non-sampled) runs, in h*GHz
BOUNDARY_EPS = 1e-4


@dataclass(frozen=True)
class DeviceSpec:
    """Qubit frequencies in GHz; q0 and q2 form the hot compound."""

    f0: float
    f1: float
    f2: float

    def __post_init__(self):
        if not all(math.isfinite(f) and f > 0 for f in (self.f0, self.f1, self.f2)):
            raise ValueError("all frequencies must be finite and positive")

    @property
    def omega_sum(self) -> float:
        """Hot-compound resonance f0 + f2 (GHz)."""
        return self.f0 + self.f2

    @property
    def detuning(self) -> float:
        """f0 - f2 (GHz)."""
        return self.f0 - self.f2

    @classmethod
    def jakarta(cls) -> "DeviceSpec":
        return cls(5.24, 5.01, 5.11)

    @classmethod
    def casablanca(cls) -> "DeviceSpec":
        return cls(4.82, 4.76, 4.90)


def _positive_temperatures(*columns) -> list[np.ndarray]:
    """The columns as float arrays; a temperature that is not > 0 (NaN
    included) raises ValueError, infinity passes."""
    columns = [np.asarray(t, float) for t in columns]
    if not all((t > 0).all() for t in columns):  # NaN fails too
        raise ValueError("temperatures must be positive")
    return columns


def ground_populations(p: np.ndarray) -> np.ndarray:
    """Ground populations (g0, g1, g2) of q0, q1, q2 in each 8-outcome row of
    `p` (..., 8), stacked on a new first axis."""
    # logical index 4i + 2j + k: q0 bit i, q2 bit j, cold (q1) bit k
    return np.stack([p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3],
                     p[..., 0] + p[..., 2] + p[..., 4] + p[..., 6],
                     p[..., 0] + p[..., 1] + p[..., 4] + p[..., 5]])


def _gibbs_weights(energies: np.ndarray, u_per_unit: float) -> np.ndarray:
    """softmax of -u*E along the last axis, stable for very low temperatures."""
    z = -u_per_unit * energies
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


#: logical bits (i, j, k) of the 8 basis states, one row per bit
_BITS_I, _BITS_J, _BITS_K = np.array([qcore.basis_label(m) for m in range(qcore.DIM)]).T


def cold_energies(spec: DeviceSpec) -> np.ndarray:
    """E^C over the 8 logical states: -f1/2 for k=0, +f1/2 for k=1."""
    return (_BITS_K - 0.5) * spec.f1


def hot_energies(spec: DeviceSpec, mode: str) -> np.ndarray:
    """Hot-compound energies over the 8 logical states.

    "ideal": two-level spectrum -/+ Omega/2 on the (00)/(11) states, 0 on the
    intermediate states.  "detuned": additionally +Delta/2 on (10) and
    -Delta/2 on (01), i.e. the per-qubit split of the compound.
    """
    if mode not in HOT_ENERGY_MODES:
        raise ValueError(f"unknown hot energy mode {mode!r}")
    off = (_BITS_I - _BITS_J) / 2 * spec.detuning if mode == "detuned" else 0.0
    return np.where(_BITS_I == _BITS_J, (_BITS_I - 0.5) * spec.omega_sum, off)


def preparation_grid(scheme: str, spec: DeviceSpec, t_h_axis, t_c_axis) -> np.ndarray:
    """Bi-thermal preparations over the 8 logical basis states, one row per
    grid point (t_h_axis[h], t_c_axis[c]): (n_h * n_c, 8), row-major, T_H outer.

    swap4: mass only on the four i = j states, hot part Gibbs-weighted with
    the ideal -/+ Omega/2 spectrum at T_H, cold part at T_C.
    full8: product of three single-qubit Gibbs states, q0 and q2 at T_H,
    q1 at T_C.  Each axis value's weights are computed once.
    """
    t_h, t_c = _positive_temperatures(t_h_axis, t_c_axis)
    if scheme == "swap4":
        # joint exponent on the states (i, i, k), (i, k) = 00, 01, 10, 11: hot part + cold part
        hot = np.array([-0.5, -0.5, 0.5, 0.5]) * spec.omega_sum * (H_OVER_KB / t_h)[:, None]
        cold = np.array([-0.5, 0.5, -0.5, 0.5]) * spec.f1 * (H_OVER_KB / t_c)[:, None]
        probs = np.zeros((t_h.size * t_c.size, qcore.DIM))
        probs[:, [0, 1, 6, 7]] = _gibbs_weights((hot[:, None] + cold).reshape(-1, 4), 1.0)
    elif scheme == "full8":
        # single-qubit Gibbs weights of q0 and q2 per T_H, q1 per T_C
        u = np.concatenate([H_OVER_KB * spec.f0 / t_h, H_OVER_KB * spec.f2 / t_h,
                            H_OVER_KB * spec.f1 / t_c])
        s = _gibbs_weights(np.array([-0.5, 0.5]), u[:, None])
        s0, s2, s1 = s[:t_h.size], s[t_h.size:2 * t_h.size], s[2 * t_h.size:]
        # logical index 4i + 2j + k: q0 bit i, q2 bit j, cold bit k
        hot = (s0[:, :, None] * s2[:, None, :]).reshape(-1, 1, 4, 1)
        probs = (hot * s1[:, None, :]).reshape(-1, 8)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if probs.min() < 0 or np.max(np.abs(probs.sum(axis=1) - 1.0)) > qcore.STATE_ATOL:
        raise ValueError("preparation is not a probability vector")
    return probs


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic p[i'|i] over the 8 logical basis states.

    raw holds the read-out columns that p was estimated from, and unmix the
    linear map from them to p before clipping: the pseudo-inverse of the
    confusion matrix when mitigated, else the identity (the defaults).
    """

    p: np.ndarray
    raw: np.ndarray | None = None
    unmix: np.ndarray | None = None

    def __post_init__(self):
        p = np.ascontiguousarray(self.p, dtype=float)  # BLAS may round by layout
        if p.shape != (qcore.DIM, qcore.DIM):
            raise ValueError("transition matrix must be 8x8")
        if not np.isfinite(p).all():
            raise ValueError("transition matrix has a non-finite entry")
        if np.min(p) < 0:
            raise ValueError("transition matrix has a negative entry")
        if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-9:
            raise ValueError("transition matrix columns must sum to 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "raw", p if self.raw is None else np.asarray(self.raw, float))
        object.__setattr__(self, "unmix", np.eye(qcore.DIM) if self.unmix is None else self.unmix)

    def shot_variances(self, e: np.ndarray) -> np.ndarray:
        """Per column i, the variance of one shot's estimate of e @ p[:, i], by
        the delta method through unmix before clipping: e @ p[:, i] is
        f @ raw[:, i] with f = unmix.T @ e.  The confusion matrix counts as
        exact; its calibration's sampling noise is not included."""
        f = self.unmix.T @ e
        return (f ** 2) @ self.raw - (f @ self.raw) ** 2


def transition_matrix(
    engine: Circuit | np.ndarray,
    nm: NoiseModel,
    shots: int,
    seed: int | np.random.SeedSequence,
    mitigation: ConfusionMatrix | None = None,
) -> TransitionMatrix:
    """Measure the engine's outcome statistics per prepared basis state.

    engine may be a circuit (evolved with per-gate depolarizing noise) or a
    bare unitary in logical order (exact conjugation; gate noise does not
    apply since there are no gates).  The 8 basis densities are evolved,
    read out and mitigated together as one stack.  shots = 0 means exact
    probabilities; otherwise the 8 columns are one multinomial draw from the
    generator seeded by seed (an int or a SeedSequence).
    """
    basis = np.eye(qcore.DIM, dtype=complex)
    rhos = basis[:, :, None] * basis[:, None, :]
    if isinstance(engine, Circuit):
        rhos = evolve_noisy(engine, rhos, nm)
    else:
        rhos = engine @ rhos @ engine.conj().T
    # row i is the outcome distribution of basis input i: column i of p
    raw = apply_readout_error(qcore.born_probabilities(rhos), nm)
    if shots:
        raw = qcore.sample_counts(raw, shots, seed) / shots
    if mitigation is None:
        return TransitionMatrix(raw.T)
    unmix = np.linalg.pinv(mitigation.entries)
    return TransitionMatrix(mitigate(raw, mitigation).T, raw.T, unmix)


def roles_exchanged(t_hot, t_cold) -> np.ndarray:
    """Per point: is the subsystem labeled hot the colder one (t_hot < t_cold)?"""
    return np.less(t_hot, t_cold)


def analytic_energy_changes(spec: DeviceSpec, t_hot, t_cold) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (dE_H, dE_C) per (t_hot, t_cold) point for the ideal
    V = identity engine on the full thermal (product Gibbs) preparation."""
    t_hot, t_cold = _positive_temperatures(t_hot, t_cold)
    f = np.tanh(H_OVER_KB * spec.omega_sum / t_hot / 2) - np.tanh(H_OVER_KB * spec.f1 / t_cold / 2)
    g = 1.0 + np.tanh(H_OVER_KB * spec.f0 / t_hot / 2) * np.tanh(H_OVER_KB * spec.f2 / t_hot / 2)
    return spec.omega_sum / 4 * f * g, -spec.f1 / 4 * f * g


def mode_tags(de_hot, de_cold, eps=BOUNDARY_EPS) -> np.ndarray:
    """Operation mode tag per point from the signs of the energy changes.

    Any quantity within eps of zero makes the point a boundary.  R takes
    precedence over E; they are disjoint for exact dynamics, and the
    precedence only resolves noise-induced sign conflicts.
    """
    w = de_hot + de_cold
    near_zero = np.minimum(np.minimum(abs(de_hot), abs(de_cold)), abs(w)) < eps
    return np.select([near_zero, de_cold < 0, w < 0, de_hot < 0], ["Boundary", "R", "E", "A"], "H")


def _isclose(a, b, rtol: float) -> np.ndarray:
    """math.isclose per point: the tolerance scales with the larger of the
    two values, and an infinity is close only to itself."""
    with np.errstate(invalid="ignore"):  # inf - inf
        near = abs(a - b) <= rtol * np.maximum(abs(a), abs(b))
    return (a == b) | (near & np.isfinite(a) & np.isfinite(b))


def analytic_regions(spec: DeviceSpec, t_hot, t_cold,
                     rtol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (mode tags, purifier flags) per (t_hot, t_cold) point for
    the ideal V = identity engine on the full thermal preparation; equalities
    to rtol (see _isclose) are reported as boundaries."""
    t_hot, t_cold = np.broadcast_arrays(*_positive_temperatures(t_hot, t_cold))
    line = spec.omega_sum / spec.f1 * t_cold
    tags = np.select(
        [_isclose(t_hot, t_cold, rtol) | _isclose(t_hot, line, rtol), t_hot < t_cold, t_hot > line],
        ["Boundary", "A", "E"], "R")
    # the purifier test in closed form: the cold qubit ends at ground
    # population g1 - dE_C / f1
    g = [0.5 + 0.5 * np.tanh(H_OVER_KB * f / t / 2)
         for f, t in ((spec.f0, t_hot), (spec.f1, t_cold), (spec.f2, t_hot))]
    final = g[1] - analytic_energy_changes(spec, t_hot, t_cold)[1] / spec.f1
    return tags, (tags == "R") & purifies(g, final, t_hot, t_cold)


def cold_excitation(after: np.ndarray) -> np.ndarray:
    """Excited population of the cold qubit (k = 1) in each 8-outcome row."""
    return after[..., 1] + after[..., 3] + after[..., 5] + after[..., 7]


def final_temperatures(q, f1: float) -> tuple[np.ndarray, np.ndarray]:
    """(kind, mK) per cold excited population q at frequency f1 (GHz).

    kind is "infinite" within 1e-12 of q = 1/2, "inverted" above it, else
    "finite"; q <= 0 reads 0 mK.  mK is NaN where the kind is not finite.
    """
    q = np.asarray(q, float)
    kind = np.select([abs(q - 0.5) < 1e-12, q > 0.5], ["infinite", "inverted"], "finite")
    with np.errstate(all="ignore"):  # q = 0 and subnormal q read 0 mK
        t = np.where(q <= 0.0, 0.0, H_OVER_KB * f1 / np.log((1 - q) / q))
    return kind, np.where(kind == "finite", t, np.nan)


def ground_population_map(x: float) -> float:
    """Cold-qubit ground population after one stroke at equal preparations."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("population must be in [0, 1]")
    return 3 * x ** 2 - 2 * x ** 3


def purifies(g, final_ground, t_hot, t_cold) -> np.ndarray:
    """Per point: does the cold qubit end at a ground population final_ground
    above every initial one, g = (g0, g1, g2) of a full thermal preparation?

    Defined only when every initial ground population is at least 1/2.
    Purification is a claim about the refrigeration regime, so preparations
    with t_hot < t_cold never qualify.
    """
    return (~roles_exchanged(t_hot, t_cold) & (np.min(g, axis=0) >= 0.5)
            & (final_ground > np.max(g, axis=0)))


def swap_engine_cop(spec: DeviceSpec) -> float:
    """Best cooling coefficient of performance of the population swap."""
    if spec.omega_sum <= spec.f1:
        raise ValueError("cooling requires the hot resonance to exceed the cold one")
    return 1.0 / (spec.omega_sum / spec.f1 - 1.0)


def renyi2_purity_check(rho: np.ndarray) -> tuple[float, float]:
    """(full purity Tr rho^2, purity of the diagonal projection).

    The first is never smaller than the second: diagonal projection is a
    unital channel and order-2 Renyi entropy is monotone under those.
    """
    rho = qcore.check_density(rho)
    full = float(np.trace(rho @ rho).real)
    diag = np.diag(rho).real
    return full, float(np.sum(diag ** 2))
