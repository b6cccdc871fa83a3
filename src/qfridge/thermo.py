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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .circuits import Circuit
from .noise import NoiseModel, apply_readout_error, circuit_channel, mitigate, readout_inverse

#: h / k_B in mK per GHz
H_OVER_KB = 47.9924

SCHEMES = ("swap4", "full8")
HOT_ENERGY_MODES = ("ideal", "detuned")

#: default boundary tolerance for exact (non-sampled) runs, in h*GHz
BOUNDARY_EPS = 1e-4
#: the relative tolerance of analytic_regions' boundaries (see _isclose)
_REGION_RTOL = 1e-12


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
    return np.array([p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3],
                     p[..., 0] + p[..., 2] + p[..., 4] + p[..., 6],
                     p[..., 0] + p[..., 1] + p[..., 4] + p[..., 5]])


def _gibbs_weights(energies: np.ndarray, u_per_unit: float) -> np.ndarray:
    """softmax of -u*E along the last axis, stable for very low temperatures."""
    z = -u_per_unit * energies
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


#: logical bits (i, j, k) of the 8 basis states, one row per bit
_BITS_I, _BITS_J, _BITS_K = qcore.read_only(
    np.array([qcore.basis_label(m) for m in range(qcore.DIM)])).T


@functools.lru_cache(maxsize=8)
def cold_energies(spec: DeviceSpec) -> np.ndarray:
    """E^C over the 8 logical states: -f1/2 for k=0, +f1/2 for k=1."""
    return qcore.read_only((_BITS_K - 0.5) * spec.f1)


@functools.lru_cache(maxsize=8)
def hot_energies(spec: DeviceSpec, mode: str) -> np.ndarray:
    """Hot-compound energies over the 8 logical states.

    "ideal": two-level spectrum -/+ Omega/2 on the (00)/(11) states, 0 on the
    intermediate states.  "detuned": additionally +Delta/2 on (10) and
    -Delta/2 on (01), i.e. the per-qubit split of the compound.
    """
    if mode not in HOT_ENERGY_MODES:
        raise ValueError(f"unknown hot energy mode {mode!r}")
    off = (_BITS_I - _BITS_J) / 2 * spec.detuning if mode == "detuned" else 0.0
    return qcore.read_only(np.where(_BITS_I == _BITS_J, (_BITS_I - 0.5) * spec.omega_sum, off))


#: the two levels of a qubit in units of its quantum
_LEVELS = qcore.read_only(np.array([-0.5, 0.5]))


# below about 1e-306 mK, h f / (k_B T) overflows and the rows it reaches come
# out NaN; the check at the end rejects them, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
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
        s = _gibbs_weights(_LEVELS, u[:, None])
        s0, s2, s1 = s[:t_h.size], s[t_h.size:2 * t_h.size], s[2 * t_h.size:]
        # logical index 4i + 2j + k: q0 bit i, q2 bit j, cold bit k
        hot = (s0[:, :, None] * s2[:, None, :]).reshape(-1, 1, 4, 1)
        probs = (hot * s1[:, None, :]).reshape(-1, 8)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    # one verdict over the grid, as qcore.check_probabilities (NaN fails too, a
    # grid without rows passes); the per-row mask only names the first bad row
    off = abs(probs.sum(axis=1) - 1.0)
    if not ((probs >= 0).all() and (off <= qcore.STATE_ATOL).all()):
        bad = ~((probs.min(axis=1) >= 0) & (off <= qcore.STATE_ATOL))
        h, c = divmod(int(np.argmax(bad)), t_c.size)
        raise ValueError(f"no preparation at T_H = {t_h[h].item()!r} mK, "
                         f"T_C = {t_c[c].item()!r} mK: h f / (k_B T) overflows")
    return probs


_BASIS = qcore.read_only(np.eye(qcore.DIM, dtype=complex))
#: |m><m| for each of the 8 logical basis states m, stacked
_BASIS_DENSITIES = qcore.read_only(_BASIS[:, :, None] * _BASIS[:, None, :])
#: the default unmix of a TransitionMatrix
_IDENTITY = qcore.read_only(np.eye(qcore.DIM))


@dataclass(frozen=True, eq=False)  # arrays have no one truth value: == is identity
class TransitionMatrix:
    """Column-stochastic p[i'|i] over the 8 logical basis states: each
    column passes qcore.check_probabilities, as p.T, at STATE_ATOL.

    raw holds the read-out columns that p was estimated from, and unmix the
    linear map from them to p before clipping: the readout_inverse of the
    confusion matrix when mitigated, else one shared read-only identity (the
    defaults).  channel is the outcome channel measure_channel read out,
    shared, not copied; None for a matrix built by hand.  Each is 8x8 floats.
    """

    p: np.ndarray
    raw: np.ndarray | None = None
    unmix: np.ndarray | None = None
    channel: np.ndarray | None = None

    def __post_init__(self):
        p = np.ascontiguousarray(self.p, dtype=float)  # BLAS may round by layout
        for name, a in (("p", p), ("raw", p if self.raw is None else self.raw),
                        ("unmix", _IDENTITY if self.unmix is None else self.unmix),
                        ("channel", self.channel)):
            if a is not None:
                a = np.asarray(a, float)
                if a.shape != (qcore.DIM, qcore.DIM):
                    raise ValueError(f"transition matrix {name} must be 8x8")
            object.__setattr__(self, name, a)
        qcore.check_probabilities(p.T)

    def shot_variances(self, e: np.ndarray) -> np.ndarray:
        """Per column i, the variance of one shot's estimate of e @ p[:, i], by
        the delta method through unmix before clipping: e @ p[:, i] is
        f @ raw[:, i] with f = e @ unmix.  e is an energy vector (8,) or a
        stack (k, 8) of them, one row each; each row goes through as a 1x8
        matrix, a matrix-vector product, so it has the bits of a lone call.
        The confusion matrix counts as exact; its calibration's sampling
        noise is not included."""
        f = np.asarray(e)[..., None, :] @ self.unmix
        return ((f ** 2) @ self.raw - (f @ self.raw) ** 2)[..., 0, :]


def outcome_channel(engine: Circuit | np.ndarray, nm: NoiseModel) -> np.ndarray:
    """The engine's readout-free outcome channel: row i is the Born
    distribution of basis input i after the engine, before readout (8, 8).

    engine may be a circuit (noise.circuit_channel under nm's per-gate
    depolarizing noise) or a bare unitary in logical order (the 8 basis
    densities conjugated as one stack; gate noise does not apply since there
    are no gates).  nm's readout probabilities play no part.
    """
    if isinstance(engine, Circuit):
        return circuit_channel(engine, nm)
    return qcore.born_probabilities(engine @ _BASIS_DENSITIES @ engine.conj().T)


def transition_matrix(
    engine: Circuit | np.ndarray,
    nm: NoiseModel,
    shots: int,
    seed: int | np.random.SeedSequence,
    mitigation: np.ndarray | None = None,
) -> TransitionMatrix:
    """Measure the engine's outcome statistics per prepared basis state:
    measure_channel of the engine's outcome_channel.  This is the general
    path from any circuit or unitary to a matrix.  Sweeps build the exact
    target unitary's matrix with it once per V; under gate noise they
    measure the fixed engine's noise.channel_polynomial instead, which this
    path checks."""
    return measure_channel(outcome_channel(engine, nm), nm, shots, seed, mitigation)


def measure_channel(
    channel: np.ndarray,
    nm: NoiseModel,
    shots: int,
    seed: int | np.random.SeedSequence,
    mitigation: np.ndarray | None = None,
) -> TransitionMatrix:
    """The transition matrix measured through a readout-free outcome channel
    (outcome_channel's rows, one per basis input): the matrix's channel, never written.

    The 8 rows are read out with nm's flip probabilities and mitigated
    together as one stack.  shots = 0 means exact probabilities; otherwise
    the 8 columns are one multinomial draw from the generator seeded by seed
    (an int or a SeedSequence).  One readout_inverse of the confusion matrix
    `mitigation` both mitigates and becomes unmix.
    """
    # row i is the outcome distribution of basis input i: column i of p
    raw = apply_readout_error(channel, nm)
    if shots:
        raw = qcore.sample_counts(raw, shots, seed) / shots
    if mitigation is None:
        return TransitionMatrix(raw.T, channel=channel)
    unmix = readout_inverse(mitigation)
    return TransitionMatrix(mitigate(raw, unmix).T, raw.T, unmix, channel)


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


#: mode tag per 4-bit code (near zero, dE_C < 0, W < 0, dE_H < 0), highest
#: bit first: the first of them that holds decides the tag.  Indexing a
#: table with `[code, ...]` keeps a 0-d code a 0-d array.
_MODE_TAGS = qcore.read_only(np.array(["H", "A", "E", "E", "R", "R", "R", "R"] + ["Boundary"] * 8))


def mode_tags(de_hot, de_cold, eps=BOUNDARY_EPS) -> np.ndarray:
    """Operation mode tag per point from the signs of the energy changes.

    Any quantity within eps of zero makes the point a boundary, and so does
    a NaN among them (or a NaN eps), which has no sign to read.  R takes
    precedence over E; they are disjoint for exact dynamics, and the
    precedence only resolves noise-induced sign conflicts.  No NaN reaches
    here from a sweep: preparation_grid rejects a row that is not a
    distribution, and TransitionMatrix a NaN entry.
    """
    w = de_hot + de_cold
    near_zero = ~(np.minimum(np.minimum(abs(de_hot), abs(de_cold)), abs(w)) >= eps)  # NaN too
    return _MODE_TAGS[near_zero * 8 + (de_cold < 0) * 4 + (w < 0) * 2 + (de_hot < 0), ...]


def _isclose(a, b) -> np.ndarray:
    """math.isclose per point at _REGION_RTOL: the tolerance scales with the
    larger of the two values, and an infinity is close only to itself."""
    with np.errstate(invalid="ignore"):  # inf - inf
        near = abs(a - b) <= _REGION_RTOL * np.maximum(abs(a), abs(b))
    return (a == b) | (near & np.isfinite(a) & np.isfinite(b))


def analytic_regions(spec: DeviceSpec, t_hot, t_cold) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (mode tags, purifier flags) per (t_hot, t_cold) point for
    the ideal V = identity engine on the full thermal preparation; equalities
    to _REGION_RTOL (see _isclose) are reported as boundaries."""
    t_hot, t_cold = np.broadcast_arrays(*_positive_temperatures(t_hot, t_cold))
    line = spec.omega_sum / spec.f1 * t_cold
    tags = np.select(
        [_isclose(t_hot, t_cold) | _isclose(t_hot, line), t_hot < t_cold, t_hot > line],
        ["Boundary", "A", "E"], "R")
    # the purifier test in closed form: the cold qubit ends at ground
    # population g1 - dE_C / f1
    g = [0.5 + 0.5 * np.tanh(H_OVER_KB * f / t / 2)
         for f, t in ((spec.f0, t_hot), (spec.f1, t_cold), (spec.f2, t_hot))]
    final = g[1] - analytic_energy_changes(spec, t_hot, t_cold)[1] / spec.f1
    return tags, (tags == "R") & purifies(g, final, roles_exchanged(t_hot, t_cold))


def cold_excitation(after: np.ndarray) -> np.ndarray:
    """Excited population of the cold qubit (k = 1) in each 8-outcome row."""
    return after[..., 1] + after[..., 3] + after[..., 5] + after[..., 7]


#: final-temperature kind per 2-bit code (within 1e-12 of 1/2, above 1/2)
_FINAL_KINDS = qcore.read_only(np.array(["finite", "inverted", "infinite", "infinite"]))


def final_temperatures(q, f1: float) -> tuple[np.ndarray, np.ndarray]:
    """(kind, mK) per cold excited population q at frequency f1 (GHz).

    kind is "infinite" within 1e-12 of q = 1/2, "inverted" above it, else
    "finite"; q <= 0 reads 0 mK.  mK is NaN where the kind is not finite,
    and a NaN q reads kind "finite" with NaN mK.  No NaN q reaches here from
    a sweep: preparation_grid rejects a row that is not a distribution, and
    TransitionMatrix a NaN entry.
    """
    q = np.asarray(q, float)
    kind = _FINAL_KINDS[(abs(q - 0.5) < 1e-12) * 2 + (q > 0.5), ...]
    with np.errstate(all="ignore"):  # q = 0 and subnormal q read 0 mK
        t = np.where(q <= 0.0, 0.0, H_OVER_KB * f1 / np.log((1 - q) / q))
    return kind, np.where(kind == "finite", t, np.nan)


def purifies(g, final_ground, exchanged) -> np.ndarray:
    """Per point: does the cold qubit end at a ground population final_ground
    above every initial one, g = (g0, g1, g2) of a full thermal preparation?

    Defined only when every initial ground population is at least 1/2.
    Purification is a claim about the refrigeration regime, so preparations
    whose roles are exchanged (roles_exchanged: t_hot < t_cold) never qualify.
    """
    return (np.logical_not(exchanged) & (np.min(g, axis=0) >= 0.5)
            & (final_ground > np.max(g, axis=0)))


def swap_engine_cop(spec: DeviceSpec) -> float:
    """Best cooling coefficient of performance of the population swap."""
    if spec.omega_sum <= spec.f1:
        raise ValueError("cooling requires the hot resonance to exceed the cold one")
    return 1.0 / (spec.omega_sum / spec.f1 - 1.0)
