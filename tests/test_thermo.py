"""Thermal preparations, the per-point array rules, analytics, and the
kernel that composes the rules on small grids.

``_reference_analytic_energy_changes`` and ``_reference_analytic_regions``
are the closed forms' scalar bodies as they stood before they became array
rules (one point in, one ledger or mode out); the array forms must agree
with them bit for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfridge import qcore
from qfridge.circuits import W_SUBSPACE, build_target_unitary, build_vstar_circuit
from qfridge.noise import NoiseModel
from qfridge.oracles import random_density
from qfridge.sweep import SweepConfig, evaluate_grid
from qfridge.thermo import (
    H_OVER_KB,
    HOT_ENERGY_MODES,
    DeviceSpec,
    TransitionMatrix,
    analytic_energy_changes,
    analytic_regions,
    cold_energies,
    final_temperatures,
    ground_population_map,
    ground_populations,
    hot_energies,
    mode_tags,
    preparation_grid,
    purifies,
    renyi2_purity_check,
    roles_exchanged,
    swap_engine_cop,
    transition_matrix,
)


def _exact_tm(v_choice="identity"):
    return transition_matrix(build_target_unitary(v_choice), NoiseModel(), 0, 0)


def _kernel(spec, tm, t_h_axis, t_c_axis, scheme="full8"):
    """The exact-run sweep kernel on spec's device over the two axes."""
    cfg = SweepConfig(f0=spec.f0, f1=spec.f1, f2=spec.f2, scheme=scheme, shots=0)
    return evaluate_grid(cfg, tm, t_h_axis, t_c_axis)


def _temp_for_ground_population(x: float, f_ghz: float) -> float:
    """Invert the two-level Gibbs relation: T with P(ground) = x."""
    return H_OVER_KB * f_ghz / np.log(x / (1.0 - x))


# ---------------------------------------------------------------------------
# units and device

def test_device_spec():
    spec = DeviceSpec.jakarta()
    assert (spec.f0, spec.f1, spec.f2) == (5.24, 5.01, 5.11)
    assert abs(spec.omega_sum - 10.35) < 1e-12
    assert abs(spec.detuning - 0.13) < 1e-12
    assert DeviceSpec.casablanca() == DeviceSpec(4.82, 4.76, 4.90)
    with pytest.raises(ValueError):
        DeviceSpec(1.0, -1.0, 1.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for k in range(3):
            freqs = [4.82, 4.76, 4.90]
            freqs[k] = bad
            with pytest.raises(ValueError, match="finite"):
                DeviceSpec(*freqs)


def test_energy_spectra():
    spec = DeviceSpec.casablanca()
    e_c = cold_energies(spec)
    for m in range(8):
        assert e_c[m] == (0.5 if qcore.basis_label(m)[2] else -0.5) * spec.f1
    e_ideal = hot_energies(spec, "ideal")
    e_det = hot_energies(spec, "detuned")
    assert e_ideal[0] == -spec.omega_sum / 2 and e_ideal[7] == spec.omega_sum / 2
    assert e_ideal[2] == 0.0 and e_ideal[4] == 0.0
    assert e_det[4] == spec.detuning / 2 and e_det[2] == -spec.detuning / 2
    with pytest.raises(ValueError):
        hot_energies(spec, "bogus")


def _frozen_cold_energies(spec):
    """The state-by-state loop that cold_energies replaced, kept verbatim."""
    return np.array(
        [(0.5 if qcore.basis_label(m)[2] else -0.5) * spec.f1 for m in range(qcore.DIM)]
    )


def _frozen_hot_energies(spec, mode):
    """The state-by-state loop that hot_energies replaced, kept verbatim."""
    e = np.zeros(qcore.DIM)
    for m in range(qcore.DIM):
        i, j, _ = qcore.basis_label(m)
        if i == j:
            e[m] = (0.5 if i else -0.5) * spec.omega_sum
        elif mode == "detuned":
            e[m] = (0.5 if i > j else -0.5) * spec.detuning
    return e


@settings(max_examples=300, deadline=None)
@given(
    freqs=st.tuples(*[st.floats(1e-3, 1e3, allow_subnormal=False)] * 3),
    resonant=st.booleans(),
)
def test_energy_spectra_match_the_state_loops_bit_for_bit(freqs, resonant):
    # f0 = f2 makes the detuning 0, where the loop writes -0.0 on (01)
    f0, f1, f2 = freqs
    spec = DeviceSpec(f0, f1, f0 if resonant else f2)
    assert cold_energies(spec).tobytes() == _frozen_cold_energies(spec).tobytes()
    for mode in HOT_ENERGY_MODES:
        got, want = hot_energies(spec, mode), _frozen_hot_energies(spec, mode)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# preparations

def test_swap4_prep_support_and_ground_limit():
    spec = DeviceSpec.jakarta()
    probs = preparation_grid("swap4", spec, [150.0], [100.0])[0]
    outside = [m for m in range(8) if m not in W_SUBSPACE]
    assert np.max(probs[outside]) == 0.0
    assert abs(probs.sum() - 1.0) < 1e-12
    cold = preparation_grid("swap4", spec, [1.0], [1.0])[0]
    assert cold[0] > 1.0 - 1e-12


def test_full8_prep_is_a_product_of_gibbs_marginals():
    spec = DeviceSpec.casablanca()
    t_hot, t_cold = 320.0, 140.0
    probs = preparation_grid("full8", spec, [t_hot], [t_cold])[0]
    singles = {}
    for name, f, t in (("i", spec.f0, t_hot), ("j", spec.f2, t_hot), ("k", spec.f1, t_cold)):
        u = H_OVER_KB * f / t
        singles[name] = 1.0 / (1.0 + np.exp(-u))  # ground probability
    for m in range(8):
        i, j, k = qcore.basis_label(m)
        want = (
            (singles["i"] if i == 0 else 1 - singles["i"])
            * (singles["j"] if j == 0 else 1 - singles["j"])
            * (singles["k"] if k == 0 else 1 - singles["k"])
        )
        assert abs(probs[m] - want) < 1e-14


def test_full8_high_temperature_limit_is_uniform():
    probs = preparation_grid("full8", DeviceSpec.casablanca(), [1e9], [1e9])
    assert np.max(np.abs(probs - 0.125)) < 1e-7


def test_ground_marginals():
    spec = DeviceSpec(4.76, 4.76, 4.76)
    t = _temp_for_ground_population(0.8, 4.76)
    g = ground_populations(preparation_grid("full8", spec, [t], [t]))
    assert g.shape == (3, 1)
    assert np.max(np.abs(g - 0.8)) < 1e-12


def test_prepare_rejects_bad_input():
    spec = DeviceSpec.casablanca()
    with pytest.raises(ValueError):
        preparation_grid("swap4", spec, [-1.0], [100.0])
    with pytest.raises(ValueError):
        preparation_grid("bogus", spec, [100.0], [100.0])


@pytest.mark.parametrize("scheme", ["swap4", "full8"])
def test_preparation_grid_rejects_nan_and_accepts_infinite_temperatures(scheme):
    spec = DeviceSpec.casablanca()
    for t_h_axis, t_c_axis in (([np.nan], [50.0]), ([100.0, 200.0], [50.0, np.nan])):
        with pytest.raises(ValueError, match="temperatures must be positive"):
            preparation_grid(scheme, spec, t_h_axis, t_c_axis)
    # infinite temperature is the maximally mixed limit
    probs = preparation_grid(scheme, spec, [np.inf], [50.0])
    assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# transition matrices

def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(np.eye(4))
    with pytest.raises(ValueError):
        TransitionMatrix(-np.eye(8))
    with pytest.raises(ValueError):
        TransitionMatrix(np.eye(8) * 0.5)
    # a unitary of the wrong dimension cannot act on the 8 basis states
    with pytest.raises(ValueError):
        transition_matrix(np.eye(4), NoiseModel(), 0, 0)


def test_transition_matrix_rejects_non_finite_entries():
    one_nan = np.eye(8)
    one_nan[3, 5] = np.nan
    for p in (np.full((8, 8), np.nan), one_nan):
        with pytest.raises(ValueError, match="non-finite"):
            TransitionMatrix(p)


def test_exact_transition_matrices_are_the_basis_permutations():
    tm = _exact_tm("identity")
    want = np.eye(8)
    want[[1, 6]] = want[[6, 1]]
    assert np.max(np.abs(tm.p - want)) < 1e-12
    tm_v = transition_matrix(build_vstar_circuit(), NoiseModel(), 0, 0)
    assert np.max(np.abs(tm_v.p - np.abs(build_target_unitary("vstar")) ** 2)) < 1e-12


def test_sampled_transition_matrix_is_deterministic_and_stochastic():
    nm = NoiseModel.uniform(eps01=0.02, eps10=0.02)
    a = transition_matrix(build_target_unitary("identity"), nm, 4096, 3)
    b = transition_matrix(build_target_unitary("identity"), nm, 4096, 3)
    assert np.array_equal(a.p, b.p)
    assert np.allclose(a.p.sum(axis=0), 1.0)


def test_phase_choices_do_not_change_outcome_statistics():
    from qfridge.circuits import PhaseChoice

    rng = np.random.default_rng(41)
    for v_choice in ("identity", "vstar"):
        base = transition_matrix(build_target_unitary(v_choice), NoiseModel(), 0, 0)
        phases = PhaseChoice(
            w=tuple(rng.uniform(-np.pi, np.pi, 4)),
            v=tuple(rng.uniform(-np.pi, np.pi, 4)),
        )
        other = transition_matrix(
            build_target_unitary(v_choice, phases), NoiseModel(), 0, 0
        )
        assert np.max(np.abs(base.p - other.p)) < 1e-12


# ---------------------------------------------------------------------------
# energy accounting and classification

def test_identity_dynamics_moves_no_energy():
    spec = DeviceSpec.casablanca()
    res = _kernel(spec, TransitionMatrix(np.eye(8)), [300.0], [100.0])
    assert res.de_hot[0] == 0.0 and res.de_cold[0] == 0.0 and res.work[0] == 0.0


def test_roles_exchanged():
    # the body labeled hot is the colder one only when t_hot < t_cold
    assert roles_exchanged([100.0, 300.0, 200.0], [300.0, 100.0, 200.0]).tolist() == [
        True, False, False]


def test_analytic_sign_structure():
    spec = DeviceSpec.casablanca()
    ratio = spec.omega_sum / spec.f1
    # inside R, above the ratio line, on it
    t_hot = np.array([150.0, 300.0, ratio * 100.0])
    assert 300.0 > ratio * 100.0
    de_hot, de_cold = analytic_energy_changes(spec, t_hot, np.full(3, 100.0))
    work = de_hot + de_cold
    assert de_cold[0] < 0 and de_hot[0] > 0 and work[0] > 0
    assert de_cold[1] > 0 and de_hot[1] < 0 and work[1] < 0
    assert abs(de_cold[2]) < 1e-12


def test_analytics_match_simulation_on_a_grid():
    spec = DeviceSpec.jakarta()
    axis = np.linspace(40, 900, 10)
    res = _kernel(spec, _exact_tm(), axis, axis)
    de_hot, de_cold = analytic_energy_changes(spec, res.t_hot, res.t_cold)
    assert np.max(np.abs(res.de_hot - de_hot)) < 1e-12
    assert np.max(np.abs(res.de_cold - de_cold)) < 1e-12


def test_classify_mode():
    de_hot = [2.0, -2.0, -1.0, 1.0, 1e-5, 1.0]
    de_cold = [-1.0, 1.0, 2.0, 2.0, 2.0, -1e-5]
    assert mode_tags(np.array(de_hot), np.array(de_cold)).tolist() == [
        "R", "E", "A", "H", "Boundary", "Boundary"]


def test_analytic_regions():
    spec = DeviceSpec.casablanca()
    ratio = spec.omega_sum / spec.f1
    # A, R, E, both boundaries, and R below T_H = (f2 / f1) T_C (102) and
    # above it (103): every R point of this device purifies
    t_hot = [100.0, 150.0, 700.0, 200.0, ratio * 100.0, 102.0, 103.0]
    t_cold = [300.0, 100.0, 100.0, 200.0, 100.0, 100.0, 100.0]
    tags, purifier = analytic_regions(spec, t_hot, t_cold)
    assert tags.tolist() == ["A", "R", "E", "Boundary", "Boundary", "R", "R"]
    assert purifier.tolist() == [False, True, False, False, False, True, True]
    # a strongly unequal hot pair leaves a non-purifying band inside R, whose
    # edge (near T_H = 1.7 T_C here) is below T_H = (f2 / f1) T_C = 1.8 T_C
    tags, purifier = analytic_regions(DeviceSpec(1.0, 5.0, 9.0), [30.0, 35.0], 20.0)
    assert tags.tolist() == ["R", "R"] and purifier.tolist() == [False, True]


def test_analytic_purifier_flag_matches_is_purifier():
    # the purifier rule on the kernel's final populations, on the analytic R region
    tm = _exact_tm()
    for spec, n in ((DeviceSpec.casablanca(), 200), (DeviceSpec(1.0, 5.0, 9.0), 60)):
        axis = np.linspace(20, 1000, n)
        res = _kernel(spec, tm, axis, axis)
        g = ground_populations(preparation_grid("full8", spec, axis, axis))
        flags = purifies(g, res.p_g_final, res.t_hot, res.t_cold)
        tags, purifier = analytic_regions(spec, res.t_hot, res.t_cold)
        inside_r = tags == "R"
        assert np.array_equal(purifier[inside_r], flags[inside_r])
        assert inside_r.sum() > n * n // 5


def test_analytic_regions_validates_temperatures():
    spec = DeviceSpec.casablanca()
    for closed_form in (analytic_regions, analytic_energy_changes):
        for t_hot, t_cold in (([100.0, 0.0], [100.0, 100.0]), ([np.nan], [100.0]),
                              ([100.0], [np.nan]), ([200.0, 100.0], [100.0, -1.0])):
            with pytest.raises(ValueError, match="temperatures must be positive"):
                closed_form(spec, t_hot, t_cold)
        closed_form(spec, [np.inf, 100.0], [100.0, np.inf])  # infinite temperatures stay accepted


def test_analytic_regions_at_infinite_temperature():
    # an infinite temperature is close only to itself, so T_H = inf lies
    # above every finite multiple of T_C, where the simulation finds E
    spec = DeviceSpec.casablanca()
    tags, purifier = analytic_regions(spec, [np.inf, 100.0, np.inf], [100.0, np.inf, np.inf])
    assert tags.tolist() == ["E", "A", "Boundary"] and not purifier.any()
    assert _kernel(spec, _exact_tm(), [np.inf], [100.0]).mode.tolist() == ["E"]


def _reference_beta_omega(f_ghz, t_mk):
    return H_OVER_KB * f_ghz / t_mk


def _reference_analytic_energy_changes(spec, t_hot, t_cold):
    """(dE_H, dE_C) of one point."""
    if not (t_hot > 0 and t_cold > 0):  # NaN fails too
        raise ValueError("temperatures must be positive")
    x_h = _reference_beta_omega(spec.omega_sum, t_hot)
    y_c = _reference_beta_omega(spec.f1, t_cold)
    u0 = _reference_beta_omega(spec.f0, t_hot)
    u2 = _reference_beta_omega(spec.f2, t_hot)
    f = np.tanh(x_h / 2) - np.tanh(y_c / 2)
    g = 1.0 + np.tanh(u0 / 2) * np.tanh(u2 / 2)
    return spec.omega_sum / 4 * f * g, -spec.f1 / 4 * f * g


def _reference_analytic_regions(spec, t_hot, t_cold, rtol=1e-12):
    """(tag, purifier) of one point."""
    if not (t_hot > 0 and t_cold > 0):  # NaN fails too
        raise ValueError("temperatures must be positive")
    ratio = spec.omega_sum / spec.f1
    if math.isclose(t_hot, t_cold, rel_tol=rtol) or math.isclose(t_hot, ratio * t_cold, rel_tol=rtol):
        return "Boundary", False
    if t_hot < t_cold:
        return "A", False
    if t_hot > ratio * t_cold:
        return "E", False
    g = [0.5 + 0.5 * np.tanh(_reference_beta_omega(f, t) / 2)
         for f, t in ((spec.f0, t_hot), (spec.f1, t_cold), (spec.f2, t_hot))]
    final = g[1] - _reference_analytic_energy_changes(spec, t_hot, t_cold)[1] / spec.f1
    # t_hot > t_cold holds here, so the roles are not exchanged
    return "R", bool(min(g) >= 0.5 and final > max(g))


TEMPERATURES = st.one_of(st.floats(1e-3, 1e9), st.just(math.inf))
#: relative offsets of a point from T_H = T_C or T_H = (Omega / f1) T_C: on
#: the curve, inside the 1e-12 tolerance, just outside it (where a tolerance
#: scaled by max(T_H, T_C) still reads a boundary when Omega / f1 < 1/2), and
#: 1e-10 off, which np.isclose's absolute 1e-8 still reads equal below 100 mK
OFFSETS = (0.0, 1e-13, -1e-13, 2e-12, -2e-12, 1e-10, -1e-10)


@st.composite
def closed_form_points(draw):
    """A device and a column of points, some drawn freely and some placed on
    either boundary curve at one of OFFSETS."""
    spec = DeviceSpec(*draw(st.tuples(*[st.floats(1.0, 10.0)] * 3)))
    t_hot, t_cold = [], []
    for _ in range(draw(st.integers(1, 12))):
        t_cold.append(draw(TEMPERATURES))
        slope = draw(st.sampled_from([None, 1.0, spec.omega_sum / spec.f1]))
        if slope is None:
            t_hot.append(draw(TEMPERATURES))
        else:
            t_hot.append(slope * t_cold[-1] * (1.0 + draw(st.sampled_from(OFFSETS))))
    return spec, t_hot, t_cold


@settings(max_examples=300, deadline=None)
@given(points=closed_form_points())
@example(points=(DeviceSpec(1.0, 10.0, 1.0), [0.2 * (1 + 2e-12), 1.0 + 1e-10, math.inf],
                 [1.0, 1.0, 7.0]))
def test_closed_forms_match_the_scalar_references_exactly(points):
    spec, t_hot, t_cold = points
    de_hot, de_cold = analytic_energy_changes(spec, t_hot, t_cold)
    tags, purifier = analytic_regions(spec, t_hot, t_cold)
    want = [_reference_analytic_energy_changes(spec, th, tc) for th, tc in zip(t_hot, t_cold)]
    assert np.array_equal(de_hot, [w[0] for w in want])
    assert np.array_equal(de_cold, [w[1] for w in want])
    want = [_reference_analytic_regions(spec, th, tc) for th, tc in zip(t_hot, t_cold)]
    assert tags.tolist() == [w[0] for w in want]
    assert purifier.tolist() == [w[1] for w in want]


# ---------------------------------------------------------------------------
# final cold temperature and purification

def test_final_temperature_roundtrip_identity_dynamics():
    tm = TransitionMatrix(np.eye(8))
    t_c_axis = np.array([77.0, 300.0, 650.0])
    for f1 in (4.76, 5.01):
        spec = DeviceSpec(4.82, f1, 4.90)
        for scheme in ("swap4", "full8"):
            res = _kernel(spec, tm, [400.0], t_c_axis, scheme)
            assert (res.t_cold_final_kind == "finite").all()
            assert np.max(np.abs(res.t_cold_final - t_c_axis) / t_c_axis) < 1e-9


def test_final_temperature_special_kinds():
    spec = DeviceSpec.casablanca()
    hot = _kernel(spec, TransitionMatrix(np.eye(8)), [1e15], [1e15])
    assert hot.t_cold_final_kind.tolist() == ["infinite"]
    # flipping the cold bit of a cold preparation inverts its population
    flip = np.zeros((8, 8))
    for m in range(8):
        flip[m ^ 1, m] = 1.0
    cold = _kernel(spec, TransitionMatrix(flip), [100.0], [100.0])
    assert cold.t_cold_final_kind.tolist() == ["inverted"]
    # everything funneled to the ground state reads as exactly zero
    sink = np.zeros((8, 8))
    sink[0] = 1.0
    out = _kernel(spec, TransitionMatrix(sink), [100.0], [100.0])
    assert out.t_cold_final_kind.tolist() == ["finite"] and out.t_cold_final[0] == 0.0


def test_final_temperatures_carry_a_value_only_when_finite():
    q = np.array([0.0, 5e-324, 0.2, 0.5 - 1e-13, 0.5, 0.5 + 1e-13, 0.8, 1.0])
    kind, mk = final_temperatures(q, 5.0)
    assert kind.tolist() == ["finite"] * 3 + ["infinite"] * 3 + ["inverted"] * 2
    assert np.array_equal(np.isnan(mk), kind != "finite")
    assert mk[0] == 0.0 and mk[1] == 0.0


def _brute_force_ground_map(x: float) -> float:
    """Independent oracle: enumerate the 8 product outcomes, swap the pair."""
    p = {}
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                p[(i, j, k)] = (
                    (x if i == 0 else 1 - x)
                    * (x if j == 0 else 1 - x)
                    * (x if k == 0 else 1 - x)
                )
    p[(0, 0, 1)], p[(1, 1, 0)] = p[(1, 1, 0)], p[(0, 0, 1)]
    return sum(v for (i, j, k), v in p.items() if k == 0)


def test_ground_population_map_against_enumeration():
    rng = np.random.default_rng(51)
    for x in rng.uniform(0.0, 1.0, 100):
        assert abs(ground_population_map(x) - _brute_force_ground_map(x)) < 1e-14
    assert ground_population_map(0.0) == 0.0
    assert ground_population_map(1.0) == 1.0
    assert ground_population_map(0.5) == 0.5
    assert abs(ground_population_map(0.8) - 0.896) < 1e-15
    with pytest.raises(ValueError):
        ground_population_map(1.5)


def test_ground_population_map_matches_the_engine():
    spec = DeviceSpec(4.76, 4.76, 4.76)
    tm = _exact_tm()
    for x in (0.55, 0.7, 0.9):
        t = _temp_for_ground_population(x, 4.76)
        got = _kernel(spec, tm, [t], [t]).p_g_final[0]
        assert abs(got - ground_population_map(x)) < 1e-12


def test_is_purifier():
    spec = DeviceSpec(4.76, 4.76, 4.76)
    t = _temp_for_ground_population(0.8, 4.76)
    assert _kernel(spec, _exact_tm(), [t], [t]).purifier.tolist() == [True]
    assert _kernel(spec, TransitionMatrix(np.eye(8)), [t], [t]).purifier.tolist() == [False]
    # a colder target than the hot pair: roles exchanged, never a purifier
    assert _kernel(spec, _exact_tm(), [0.9 * t], [t]).purifier.tolist() == [False]
    # the swap4 preparation is not the full thermal one: no purifier flag
    assert _kernel(spec, _exact_tm(), [t], [t], "swap4").purifier.tolist() == [False]
    # a non-Gibbs start with every qubit excited: the rule is not defined there
    g = ground_populations(np.eye(8)[7])
    assert not purifies(g, 1.0, 300.0, 200.0)
    assert purifies(np.full(3, 0.8), 0.9, 300.0, 200.0)


def test_swap_engine_cop():
    spec = DeviceSpec.jakarta()
    assert abs(swap_engine_cop(spec) - 5.01 / 5.34) < 1e-12
    assert abs(swap_engine_cop(spec) - 0.938) < 1e-3
    with pytest.raises(ValueError):
        swap_engine_cop(DeviceSpec(1.0, 5.0, 1.0))


def test_renyi2_purity_check():
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    full, projected = renyi2_purity_check(plus)
    assert abs(full - 1.0) < 1e-12
    assert abs(projected - 0.5) < 1e-12
    diag = np.diag([0.7, 0.3]).astype(complex)
    full, projected = renyi2_purity_check(diag)
    assert abs(full - projected) < 1e-12
    rng = np.random.default_rng(52)
    for _ in range(100):
        full, projected = renyi2_purity_check(random_density(2, rng))
        assert full - projected >= -1e-12
