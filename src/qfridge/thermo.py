"""Thermal preparations, energy accounting, mode classification, analytics.

Unit conventions, used consistently everywhere:

* frequencies are ordinary frequencies in GHz, one quantum = h * f,
* energies are in h*GHz,
* temperatures are in mK,
* the single conversion constant is h/k_B = 47.9924 mK/GHz.

The hot subsystem is the (q0, q2) compound with resonance Omega = f0 + f2;
the cold subsystem is qubit q1 at frequency f1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .circuits import Circuit, unitary_of_circuit
from .noise import ConfusionMatrix, NoiseModel, apply_readout_error, evolve_noisy, mitigate

#: h / k_B in mK per GHz
H_OVER_KB = 47.9924

SCHEMES = ("swap4", "full8")
HOT_ENERGY_MODES = ("ideal", "detuned")
MODE_TAGS = ("E", "R", "A", "H", "Boundary")

#: default boundary tolerance for exact (non-sampled) runs, in h*GHz
BOUNDARY_EPS = 1e-4


@dataclass(frozen=True)
class DeviceSpec:
    """Qubit frequencies in GHz; q0 and q2 form the hot compound."""

    f0: float
    f1: float
    f2: float

    def __post_init__(self):
        if min(self.f0, self.f1, self.f2) <= 0:
            raise ValueError("all frequencies must be positive")

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


def dimensionless_beta_omega(f_ghz: float, t_mk: float) -> float:
    """h f / (k_B T)."""
    if t_mk <= 0:
        raise ValueError("temperature must be positive")
    return H_OVER_KB * f_ghz / t_mk


@dataclass(frozen=True)
class ThermalPrep:
    scheme: str
    t_hot: float
    t_cold: float
    probs: np.ndarray

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "probs", qcore.check_probabilities(self.probs))

    def ground_marginals(self) -> tuple[float, float, float]:
        """(q0, q1, q2) probabilities of reading 0, from the 8-outcome vector."""
        p = self.probs
        labels = [qcore.basis_label(m) for m in range(qcore.DIM)]
        g0 = sum(p[m] for m, (i, _, _) in enumerate(labels) if i == 0)
        g1 = sum(p[m] for m, (_, _, k) in enumerate(labels) if k == 0)
        g2 = sum(p[m] for m, (_, j, _) in enumerate(labels) if j == 0)
        return float(g0), float(g1), float(g2)


def _gibbs_weights(energies: np.ndarray, u_per_unit: float) -> np.ndarray:
    """softmax of -u*E along the last axis, stable for very low temperatures."""
    z = -u_per_unit * energies
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def cold_energies(spec: DeviceSpec) -> np.ndarray:
    """E^C over the 8 logical states: -f1/2 for k=0, +f1/2 for k=1."""
    return np.array(
        [(0.5 if qcore.basis_label(m)[2] else -0.5) * spec.f1 for m in range(qcore.DIM)]
    )


def hot_energies(spec: DeviceSpec, mode: str) -> np.ndarray:
    """Hot-compound energies over the 8 logical states.

    "ideal": two-level spectrum -/+ Omega/2 on the (00)/(11) states, 0 on the
    intermediate states.  "detuned": additionally +Delta/2 on (10) and
    -Delta/2 on (01), i.e. the per-qubit split of the compound.
    """
    if mode not in HOT_ENERGY_MODES:
        raise ValueError(f"unknown hot energy mode {mode!r}")
    e = np.zeros(qcore.DIM)
    for m in range(qcore.DIM):
        i, j, _ = qcore.basis_label(m)
        if i == j:
            e[m] = (0.5 if i else -0.5) * spec.omega_sum
        elif mode == "detuned":
            e[m] = (0.5 if i > j else -0.5) * spec.detuning
    return e


def prepare(scheme: str, spec: DeviceSpec, t_hot: float, t_cold: float) -> ThermalPrep:
    """Bi-thermal preparation over the 8 logical basis states.

    swap4: mass only on the four i = j states, hot part Gibbs-weighted with
    the ideal -/+ Omega/2 spectrum at t_hot, cold part at t_cold.
    full8: product of three single-qubit Gibbs states, q0 and q2 at t_hot,
    q1 at t_cold.
    """
    if t_hot <= 0 or t_cold <= 0:
        raise ValueError("temperatures must be positive")
    if scheme == "swap4":
        u_h = dimensionless_beta_omega(1.0, t_hot)
        u_c = dimensionless_beta_omega(1.0, t_cold)
        # joint exponent over the 4 populated states, then embed
        states = [(i, k) for i in (0, 1) for k in (0, 1)]
        e = np.array(
            [
                (0.5 if i else -0.5) * spec.omega_sum * u_h
                + (0.5 if k else -0.5) * spec.f1 * u_c
                for i, k in states
            ]
        )
        w = _gibbs_weights(e, 1.0)
        probs = np.zeros(qcore.DIM)
        for (i, k), wk in zip(states, w):
            probs[qcore.basis_index(i, i, k)] = wk
    elif scheme == "full8":
        singles = []
        for f, t in ((spec.f0, t_hot), (spec.f2, t_hot), (spec.f1, t_cold)):
            u = dimensionless_beta_omega(f, t)
            singles.append(_gibbs_weights(np.array([-0.5, 0.5]), u))
        probs = np.zeros(qcore.DIM)
        for m in range(qcore.DIM):
            i, j, k = qcore.basis_label(m)
            probs[m] = singles[0][i] * singles[1][j] * singles[2][k]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return ThermalPrep(scheme, t_hot, t_cold, probs)


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic p[i'|i] over the 8 logical basis states."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (qcore.DIM, qcore.DIM):
            raise ValueError("transition matrix must be 8x8")
        if np.min(p) < 0:
            raise ValueError("transition matrix has a negative entry")
        if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-9:
            raise ValueError("transition matrix columns must sum to 1")
        object.__setattr__(self, "p", p)

    def propagate(self, probs: np.ndarray) -> np.ndarray:
        return self.p @ probs


def transition_matrix(
    engine: Circuit | np.ndarray,
    nm: NoiseModel,
    shots: int,
    seed: int,
    mitigation: ConfusionMatrix | None = None,
) -> TransitionMatrix:
    """Measure the engine's outcome statistics per prepared basis state.

    engine may be a circuit (evolved with per-gate depolarizing noise) or a
    bare unitary in logical order (exact conjugation; gate noise does not
    apply since there are no gates).  shots = 0 means exact probabilities,
    otherwise column i is a multinomial sample with seed + i, optionally
    mitigated.  The 8 basis densities are evolved together as one stack.
    """
    basis = np.eye(qcore.DIM, dtype=complex)
    rhos = basis[:, :, None] * basis[:, None, :]
    if isinstance(engine, Circuit):
        rhos = evolve_noisy(engine, rhos, nm)
    else:
        rhos = qcore.apply_unitary(engine, rhos)
    cols = []
    for i, rho in enumerate(rhos):
        p = qcore.born_probabilities(rho)
        p = apply_readout_error(p, nm)
        if shots:
            p = qcore.sample_counts(p, shots, seed + i) / shots
        if mitigation is not None:
            p = mitigate(p, mitigation)
        cols.append(p)
    return TransitionMatrix(np.column_stack(cols))


@dataclass(frozen=True)
class EnergyLedger:
    """Mean energy changes in h*GHz; work is their sum by construction."""

    de_hot: float
    de_cold: float

    @property
    def work(self) -> float:
        return self.de_hot + self.de_cold

    def role_ordered(self, t_hot: float, t_cold: float) -> "EnergyLedger":
        """Ledger with the hot/cold fields tied to the actually hotter body.

        The sign rules that classify operation modes assume the subsystem
        labeled hot really is the hotter one; when t_hot < t_cold the roles
        of the two subsystems are exchanged before classification.
        """
        if t_hot < t_cold:
            return EnergyLedger(self.de_cold, self.de_hot)
        return self


def energy_changes(
    p: TransitionMatrix,
    prep: ThermalPrep,
    spec: DeviceSpec,
    hot_energy_mode: str = "detuned",
) -> EnergyLedger:
    """First-moment energy balance of one engine stroke."""
    e_h = hot_energies(spec, hot_energy_mode)
    e_c = cold_energies(spec)
    before = prep.probs
    after = p.propagate(before)
    return EnergyLedger(
        de_hot=float(e_h @ (after - before)),
        de_cold=float(e_c @ (after - before)),
    )


def analytic_energy_changes(spec: DeviceSpec, t_hot: float, t_cold: float) -> EnergyLedger:
    """Closed-form energy changes for the ideal V = identity engine on the
    full thermal (product Gibbs) preparation."""
    if t_hot <= 0 or t_cold <= 0:
        raise ValueError("temperatures must be positive")
    x_h = dimensionless_beta_omega(spec.omega_sum, t_hot)
    y_c = dimensionless_beta_omega(spec.f1, t_cold)
    u0 = dimensionless_beta_omega(spec.f0, t_hot)
    u2 = dimensionless_beta_omega(spec.f2, t_hot)
    f = np.tanh(x_h / 2) - np.tanh(y_c / 2)
    g = 1.0 + np.tanh(u0 / 2) * np.tanh(u2 / 2)
    return EnergyLedger(
        de_hot=spec.omega_sum / 4 * f * g,
        de_cold=-spec.f1 / 4 * f * g,
    )


@dataclass(frozen=True)
class OperationMode:
    tag: str
    purifier: bool = False

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise ValueError(f"unknown mode tag {self.tag!r}")


def classify_mode(ledger: EnergyLedger, eps: float = BOUNDARY_EPS) -> OperationMode:
    """Operation mode from the signs of the energy changes.

    Any quantity within eps of zero makes the point a boundary.  R takes
    precedence over E; they are disjoint for exact dynamics, and the
    precedence only resolves noise-induced sign conflicts.
    """
    de_h, de_c, w = ledger.de_hot, ledger.de_cold, ledger.work
    if min(abs(de_h), abs(de_c), abs(w)) < eps:
        return OperationMode("Boundary")
    if de_c < 0:
        return OperationMode("R")
    if w < 0:
        return OperationMode("E")
    if de_h < 0:
        return OperationMode("A")
    return OperationMode("H")


def analytic_regions(
    spec: DeviceSpec, t_hot: float, t_cold: float, rtol: float = 1e-12
) -> OperationMode:
    """Closed-form mode map for the ideal V = identity engine on the full
    thermal preparation; equalities are reported as boundaries."""
    if t_hot <= 0 or t_cold <= 0:
        raise ValueError("temperatures must be positive")
    ratio = spec.omega_sum / spec.f1
    tol = rtol * max(t_hot, t_cold)
    if abs(t_hot - t_cold) <= tol or abs(t_hot - ratio * t_cold) <= tol:
        return OperationMode("Boundary")
    if t_hot < t_cold:
        return OperationMode("A")
    if t_hot > ratio * t_cold:
        return OperationMode("E")
    # is_purifier in closed form (t_hot > t_cold holds here): the cold qubit
    # ends at ground population g1 - dE_C / f1
    g0, g1, g2 = (0.5 + 0.5 * np.tanh(dimensionless_beta_omega(f, t) / 2)
                  for f, t in ((spec.f0, t_hot), (spec.f1, t_cold), (spec.f2, t_hot)))
    final = g1 - analytic_energy_changes(spec, t_hot, t_cold).de_cold / spec.f1
    return OperationMode("R", purifier=bool(min(g0, g1, g2) >= 0.5 and final > max(g0, g1, g2)))


@dataclass(frozen=True)
class ColdTemperature:
    """Final cold-qubit temperature, or a tagged non-thermal outcome."""

    kind: str  # "finite" | "infinite" | "inverted"
    millikelvin: float | None = None

    def __post_init__(self):
        if self.kind not in ("finite", "infinite", "inverted"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if (self.kind == "finite") != (self.millikelvin is not None):
            raise ValueError("finite outcomes and only those carry a value")


def excited_cold_population(p: TransitionMatrix, prep: ThermalPrep) -> float:
    """Final population Q of the cold qubit's excited state."""
    after = p.propagate(prep.probs)
    return float(sum(after[m] for m in range(qcore.DIM) if qcore.basis_label(m)[2]))


def final_cold_temperature(
    p: TransitionMatrix, prep: ThermalPrep, spec: DeviceSpec
) -> ColdTemperature:
    """Invert the two-level Gibbs relation on the cold qubit's final state."""
    q = excited_cold_population(p, prep)
    if abs(q - 0.5) < 1e-12:
        return ColdTemperature("infinite")
    if q > 0.5:
        return ColdTemperature("inverted")
    if q <= 0.0:
        return ColdTemperature("finite", 0.0)
    return ColdTemperature("finite", H_OVER_KB * spec.f1 / np.log((1 - q) / q))


def ground_population_map(x: float) -> float:
    """Cold-qubit ground population after one stroke at equal preparations."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("population must be in [0, 1]")
    return 3 * x ** 2 - 2 * x ** 3


def projected_purity(pg: float) -> float:
    """Purity of the diagonal qubit state with ground population pg."""
    if not 0.0 <= pg <= 1.0:
        raise ValueError("population must be in [0, 1]")
    return 2 * pg ** 2 - 2 * pg + 1


def is_purifier(p: TransitionMatrix, prep: ThermalPrep) -> bool:
    """Did the cold qubit end purer than every qubit started?

    Requires the full thermal preparation; defined only when every initial
    ground population is at least 1/2.  Purification is a claim about the
    refrigeration regime, so preparations with t_hot < t_cold never qualify.
    """
    if prep.scheme != "full8":
        raise ValueError("purification is assessed on the full thermal scheme")
    if prep.t_hot < prep.t_cold:
        return False
    g0, g1, g2 = prep.ground_marginals()
    if min(g0, g1, g2) < 0.5:
        return False
    final_ground = 1.0 - excited_cold_population(p, prep)
    return final_ground > max(g0, g1, g2)


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
