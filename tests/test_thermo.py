"""Thermal preparations, energy ledgers, mode classification, analytics."""
import numpy as np
import pytest

from qfridge import qcore
from qfridge.circuits import W_SUBSPACE, build_target_unitary, build_vstar_circuit
from qfridge.noise import NoiseModel
from qfridge.oracles import random_density
from qfridge.thermo import (
    H_OVER_KB,
    ColdTemperature,
    DeviceSpec,
    EnergyLedger,
    OperationMode,
    ThermalPrep,
    TransitionMatrix,
    analytic_energy_changes,
    analytic_regions,
    classify_mode,
    cold_energies,
    dimensionless_beta_omega,
    energy_changes,
    excited_cold_population,
    final_cold_temperature,
    ground_population_map,
    hot_energies,
    is_purifier,
    prepare,
    preparation_grid,
    projected_purity,
    renyi2_purity_check,
    swap_engine_cop,
    transition_matrix,
)


def _exact_tm(v_choice="identity"):
    return transition_matrix(build_target_unitary(v_choice), NoiseModel(), 0, 0)


def _temp_for_ground_population(x: float, f_ghz: float) -> float:
    """Invert the two-level Gibbs relation: T with P(ground) = x."""
    return H_OVER_KB * f_ghz / np.log(x / (1.0 - x))


# ---------------------------------------------------------------------------
# units and device

def test_dimensionless_beta_omega():
    # 5.01 GHz at 240.4 mK sits almost exactly at the thermal crossover
    assert abs(dimensionless_beta_omega(5.01, 240.4) - 1.000175) < 1e-4
    assert dimensionless_beta_omega(1.0, H_OVER_KB) == 1.0
    for t in (0.0, np.nan):
        with pytest.raises(ValueError):
            dimensionless_beta_omega(5.0, t)
    assert dimensionless_beta_omega(5.0, np.inf) == 0.0


def test_device_spec():
    spec = DeviceSpec.jakarta()
    assert (spec.f0, spec.f1, spec.f2) == (5.24, 5.01, 5.11)
    assert abs(spec.omega_sum - 10.35) < 1e-12
    assert abs(spec.detuning - 0.13) < 1e-12
    assert DeviceSpec.casablanca() == DeviceSpec(4.82, 4.76, 4.90)
    with pytest.raises(ValueError):
        DeviceSpec(1.0, -1.0, 1.0)


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


# ---------------------------------------------------------------------------
# preparations

def test_swap4_prep_support_and_ground_limit():
    spec = DeviceSpec.jakarta()
    prep = prepare("swap4", spec, 150.0, 100.0)
    outside = [m for m in range(8) if m not in W_SUBSPACE]
    assert np.max(prep.probs[outside]) == 0.0
    assert abs(prep.probs.sum() - 1.0) < 1e-12
    cold = prepare("swap4", spec, 1.0, 1.0)
    assert cold.probs[0] > 1.0 - 1e-12


def test_full8_prep_is_a_product_of_gibbs_marginals():
    spec = DeviceSpec.casablanca()
    t_hot, t_cold = 320.0, 140.0
    prep = prepare("full8", spec, t_hot, t_cold)
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
        assert abs(prep.probs[m] - want) < 1e-14


def test_full8_high_temperature_limit_is_uniform():
    prep = prepare("full8", DeviceSpec.casablanca(), 1e9, 1e9)
    assert np.max(np.abs(prep.probs - 0.125)) < 1e-7


def test_ground_marginals():
    spec = DeviceSpec(4.76, 4.76, 4.76)
    t = _temp_for_ground_population(0.8, 4.76)
    prep = prepare("full8", spec, t, t)
    g = prep.ground_marginals()
    assert np.max(np.abs(np.array(g) - 0.8)) < 1e-12


def test_prepare_rejects_bad_input():
    spec = DeviceSpec.casablanca()
    with pytest.raises(ValueError):
        prepare("swap4", spec, -1.0, 100.0)
    with pytest.raises(ValueError):
        prepare("bogus", spec, 100.0, 100.0)
    with pytest.raises(ValueError):
        ThermalPrep("bogus", 1.0, 1.0, np.full(8, 0.125))


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
    tm = TransitionMatrix(np.eye(8))
    ledger = energy_changes(tm, prepare("full8", spec, 300.0, 100.0), spec)
    assert ledger.de_hot == 0.0 and ledger.de_cold == 0.0 and ledger.work == 0.0


def test_energy_ledger_work_and_role_ordering():
    ledger = EnergyLedger(de_hot=-2.0, de_cold=0.5)
    assert ledger.work == -1.5
    swapped = ledger.role_ordered(100.0, 300.0)
    assert (swapped.de_hot, swapped.de_cold) == (0.5, -2.0)
    assert ledger.role_ordered(300.0, 100.0) is ledger


def test_analytic_sign_structure():
    spec = DeviceSpec.casablanca()
    ratio = spec.omega_sum / spec.f1
    inside_r = analytic_energy_changes(spec, 150.0, 100.0)
    assert inside_r.de_cold < 0 and inside_r.de_hot > 0 and inside_r.work > 0
    engine = analytic_energy_changes(spec, 300.0, 100.0)  # above the ratio line
    assert 300.0 > ratio * 100.0
    assert engine.de_cold > 0 and engine.de_hot < 0 and engine.work < 0
    balanced = analytic_energy_changes(spec, ratio * 100.0, 100.0)
    assert abs(balanced.de_cold) < 1e-12


def test_analytics_match_simulation_on_a_grid():
    spec = DeviceSpec.jakarta()
    tm = _exact_tm()
    for th in np.linspace(40, 900, 10):
        for tc in np.linspace(40, 900, 10):
            sim = energy_changes(tm, prepare("full8", spec, th, tc), spec, "detuned")
            ana = analytic_energy_changes(spec, th, tc)
            assert abs(sim.de_hot - ana.de_hot) < 1e-12
            assert abs(sim.de_cold - ana.de_cold) < 1e-12


def test_classify_mode():
    assert classify_mode(EnergyLedger(2.0, -1.0)).tag == "R"
    assert classify_mode(EnergyLedger(-2.0, 1.0)).tag == "E"
    assert classify_mode(EnergyLedger(-1.0, 2.0)).tag == "A"
    assert classify_mode(EnergyLedger(1.0, 2.0)).tag == "H"
    assert classify_mode(EnergyLedger(1e-5, 2.0)).tag == "Boundary"
    assert classify_mode(EnergyLedger(1.0, -1e-5)).tag == "Boundary"


def test_analytic_regions():
    spec = DeviceSpec.casablanca()
    ratio = spec.omega_sum / spec.f1
    assert analytic_regions(spec, 100.0, 300.0).tag == "A"
    assert analytic_regions(spec, 150.0, 100.0).tag == "R"
    assert analytic_regions(spec, 700.0, 100.0).tag == "E"
    assert analytic_regions(spec, 200.0, 200.0).tag == "Boundary"
    assert analytic_regions(spec, ratio * 100.0, 100.0).tag == "Boundary"
    # every R point of this device purifies, also below T_H = (f2 / f1) T_C
    low = analytic_regions(spec, 102.0, 100.0)
    high = analytic_regions(spec, 103.0, 100.0)
    assert low.tag == "R" and low.purifier
    assert high.tag == "R" and high.purifier
    # a strongly unequal hot pair leaves a non-purifying band inside R, whose
    # edge (near T_H = 1.7 T_C here) is below T_H = (f2 / f1) T_C = 1.8 T_C
    skew = DeviceSpec(1.0, 5.0, 9.0)
    assert analytic_regions(skew, 30.0, 20.0) == OperationMode("R", purifier=False)
    assert analytic_regions(skew, 35.0, 20.0) == OperationMode("R", purifier=True)


def test_analytic_purifier_flag_matches_is_purifier():
    tm = _exact_tm()
    for spec, n in ((DeviceSpec.casablanca(), 200), (DeviceSpec(1.0, 5.0, 9.0), 60)):
        checked = 0
        for th in np.linspace(20, 1000, n):
            for tc in np.linspace(20, 1000, n):
                ana = analytic_regions(spec, th, tc)
                if ana.tag == "R":
                    prep = prepare("full8", spec, th, tc)
                    assert ana.purifier == is_purifier(tm, prep), (th, tc)
                    checked += 1
        assert checked > n * n // 5


def test_analytic_regions_validates_temperatures():
    spec = DeviceSpec.casablanca()
    for closed_form in (analytic_regions, analytic_energy_changes):
        for t_hot, t_cold in ((0.0, 100.0), (np.nan, 100.0), (100.0, np.nan)):
            with pytest.raises(ValueError):
                closed_form(spec, t_hot, t_cold)
        closed_form(spec, np.inf, 100.0)  # infinite temperatures stay accepted


def test_analytic_regions_at_infinite_temperature():
    # an infinite temperature is close only to itself, so T_H = inf lies
    # above every finite multiple of T_C, where the simulation finds E
    spec = DeviceSpec.casablanca()
    assert analytic_regions(spec, np.inf, 100.0) == OperationMode("E")
    assert analytic_regions(spec, 100.0, np.inf) == OperationMode("A")
    assert analytic_regions(spec, np.inf, np.inf) == OperationMode("Boundary")
    prep = prepare("full8", spec, np.inf, 100.0)
    assert classify_mode(energy_changes(_exact_tm(), prep, spec)).tag == "E"


# ---------------------------------------------------------------------------
# final cold temperature and purification

def test_final_temperature_roundtrip_identity_dynamics():
    tm = TransitionMatrix(np.eye(8))
    for f1 in (4.76, 5.01):
        spec = DeviceSpec(4.82, f1, 4.90)
        for t in (77.0, 300.0, 650.0):
            for scheme in ("swap4", "full8"):
                prep = prepare(scheme, spec, 400.0, t)
                out = final_cold_temperature(tm, prep, spec)
                assert out.kind == "finite"
                assert abs(out.millikelvin - t) / t < 1e-9


def test_final_temperature_special_kinds():
    spec = DeviceSpec.casablanca()
    tm = TransitionMatrix(np.eye(8))
    hot = prepare("full8", spec, 1e15, 1e15)
    assert final_cold_temperature(tm, hot, spec).kind == "infinite"
    # flipping the cold bit of a cold preparation inverts its population
    flip = np.zeros((8, 8))
    for m in range(8):
        flip[m ^ 1, m] = 1.0
    cold = prepare("full8", spec, 100.0, 100.0)
    assert final_cold_temperature(TransitionMatrix(flip), cold, spec).kind == "inverted"
    # everything funneled to the ground state reads as exactly zero
    sink = np.zeros((8, 8))
    sink[0] = 1.0
    out = final_cold_temperature(TransitionMatrix(sink), cold, spec)
    assert out.kind == "finite" and out.millikelvin == 0.0


def test_cold_temperature_dataclass_validation():
    with pytest.raises(ValueError):
        ColdTemperature("warm")
    with pytest.raises(ValueError):
        ColdTemperature("infinite", 3.0)
    with pytest.raises(ValueError):
        ColdTemperature("finite")


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
        prep = prepare("full8", spec, t, t)
        got = 1.0 - excited_cold_population(tm, prep)
        assert abs(got - ground_population_map(x)) < 1e-12


def test_projected_purity():
    assert projected_purity(1.0) == 1.0
    assert projected_purity(0.0) == 1.0
    assert projected_purity(0.5) == 0.5
    assert abs(projected_purity(0.8) - 0.68) < 1e-15
    with pytest.raises(ValueError):
        projected_purity(-0.1)


def test_is_purifier():
    spec = DeviceSpec(4.76, 4.76, 4.76)
    t = _temp_for_ground_population(0.8, 4.76)
    prep = prepare("full8", spec, t, t)
    assert is_purifier(_exact_tm(), prep)
    assert not is_purifier(TransitionMatrix(np.eye(8)), prep)
    colder_target = prepare("full8", spec, 0.9 * t, t)
    assert not is_purifier(_exact_tm(), colder_target)
    inverted = ThermalPrep("full8", 300.0, 200.0, np.eye(8)[7])
    assert not is_purifier(_exact_tm(), inverted)
    with pytest.raises(ValueError):
        is_purifier(_exact_tm(), prepare("swap4", spec, t, t))


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
