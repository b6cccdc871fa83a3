"""Acceptance gate: one test per release criterion, one printed line each.

Every test prints a single PASS/FAIL line through capsys.disabled() so the
verdicts are visible in a normal captured pytest run.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qfridge import qcore
from qfridge.circuits import (
    LINE3,
    build_target_unitary,
    build_vstar_circuit,
    unitary_of_circuit,
)
from qfridge.compiler import compile_generic, global_phase_distance
from qfridge.noise import NoiseModel, apply_readout_error, calibrate, exact_confusion, mitigate
from qfridge.sweep import SweepConfig, grid_axes, run_sweep
from qfridge.thermo import (
    H_OVER_KB,
    DeviceSpec,
    TransitionMatrix,
    analytic_energy_changes,
    analytic_regions,
    energy_changes,
    excited_cold_population,
    final_cold_temperature,
    ground_population_map,
    prepare,
    transition_matrix,
)

from helpers import haar_unitary, random_density


@contextmanager
def criterion(capsys, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")


def _exact_tm(v_choice="identity"):
    return transition_matrix(build_target_unitary(v_choice), NoiseModel(), 0, 0)


def _temp_for_ground_population(x, f_ghz):
    return H_OVER_KB * f_ghz / np.log(x / (1.0 - x))


def test_criterion_01_gate_map_oracle(capsys):
    with criterion(capsys, "criterion 1/11: exhaustive gate-map oracle"):
        start = time.monotonic()
        perm = {m: m for m in range(8)}
        a, b = qcore.basis_index(0, 0, 1), qcore.basis_index(1, 1, 0)
        perm[a], perm[b] = b, a
        u = build_target_unitary("identity")
        for m in range(8):
            col = u[:, m]
            assert col[perm[m]] == 1.0
            assert np.count_nonzero(col) == 1
        c, d = qcore.basis_index(0, 1, 1), qcore.basis_index(1, 0, 0)
        perm[c], perm[d] = d, c
        u = build_target_unitary("vstar")
        for m in range(8):
            col = u[:, m]
            assert col[perm[m]] == 1.0
            assert np.count_nonzero(col) == 1
        assert time.monotonic() - start < 1.0


def test_criterion_02_four_cnot_circuit(capsys):
    with criterion(capsys, "criterion 2/11: 4-CNOT cooling circuit"):
        circuit = build_vstar_circuit()
        assert circuit.cnot_count() == 4
        assert len(circuit.gates) == 4
        for g in circuit.gates:
            assert g.name == "cx"
            assert LINE3.allows(*g.wires)
        dist = global_phase_distance(
            unitary_of_circuit(circuit), build_target_unitary("vstar")
        )
        assert dist < 1e-12


def test_criterion_03_compiler_roundtrip(capsys):
    with criterion(capsys, "criterion 3/11: compiler round-trip on 50 random + cooling targets"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            u = haar_unitary(8, rng)
            circuit, _ = compile_generic(u, LINE3)
            assert global_phase_distance(unitary_of_circuit(circuit), u) < 1e-8
        target = build_target_unitary("identity")
        circuit, report = compile_generic(target, LINE3)
        assert global_phase_distance(unitary_of_circuit(circuit), target) < 1e-8
        assert report.total_gates > 50
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        with capsys.disabled():
            print(
                f"\n       compiled cooling gate: {report.total_gates} gates, "
                f"{report.cnot_count} cx, depth {report.depth} ({elapsed:.1f}s)"
            )


def test_criterion_04_analytics_match_simulation(capsys):
    with criterion(capsys, "criterion 4/11: closed-form energy changes vs simulation"):
        tm = _exact_tm()
        for spec in (DeviceSpec.casablanca(), DeviceSpec.jakarta()):
            for th in np.linspace(25, 975, 10):
                for tc in np.linspace(25, 975, 10):
                    prep = prepare("full8", spec, th, tc)
                    sim = energy_changes(tm, prep, spec, "detuned")
                    ana = analytic_energy_changes(spec, th, tc)
                    assert abs(sim.de_hot - ana.de_hot) < 1e-12
                    assert abs(sim.de_cold - ana.de_cold) < 1e-12


def test_criterion_05_mode_map_vs_analytic_regions(capsys):
    with criterion(capsys, "criterion 5/11: 64x64 mode map matches analytic regions"):
        start = time.monotonic()
        cfg = SweepConfig(shots=0, n_h=64, n_c=64)
        res = run_sweep(cfg)
        spec = cfg.device()
        ths, tcs = grid_axes(cfg)
        dth, dtc = ths[1] - ths[0], tcs[1] - tcs[0]
        slopes = (
            1.0,
            spec.omega_sum / spec.f1,
            max(spec.f0 / spec.f1, spec.f2 / spec.f1, 1.0),
        )
        checked = 0
        for t_hot, t_cold, mode, purifier in zip(res.t_hot, res.t_cold, res.mode, res.purifier):
            near_curve = any(
                abs(t_hot - m * t_cold) <= 2.0 * (dth + m * dtc) for m in slopes
            )
            if near_curve:
                continue
            ana = analytic_regions(spec, t_hot, t_cold)
            assert mode == ana.tag, (t_hot, t_cold, mode, ana.tag)
            assert purifier == ana.purifier, (t_hot, t_cold)
            checked += 1
        assert checked > 2500
        # identical frequencies: the purifying set is exactly the R region
        cfg_eq = SweepConfig(f0=4.76, f1=4.76, f2=4.76, shots=0, n_h=32, n_c=32)
        res_eq = run_sweep(cfg_eq)
        for t_hot, t_cold, mode, purifier in zip(
            res_eq.t_hot, res_eq.t_cold, res_eq.mode, res_eq.purifier
        ):
            assert purifier == (mode == "R"), (t_hot, t_cold, mode)
        assert time.monotonic() - start < 10.0


def test_criterion_06_purification_cubic(capsys):
    with criterion(capsys, "criterion 6/11: purification map 0.8 -> 0.896, exact and sampled"):
        spec = DeviceSpec(4.76, 4.76, 4.76)
        t = _temp_for_ground_population(0.8, 4.76)
        prep = prepare("full8", spec, t, t)
        exact = 1.0 - excited_cold_population(_exact_tm(), prep)
        assert abs(exact - ground_population_map(0.8)) < 1e-12
        assert abs(exact - 0.896) < 1e-12
        tm_mc = transition_matrix(
            build_target_unitary("identity"), NoiseModel(), 8192, 1
        )
        sampled = 1.0 - excited_cold_population(tm_mc, prep)
        # 3 binomial standard errors at 8192 shots around 0.896
        assert abs(sampled - 0.896) < 0.0101


def test_criterion_07_final_temperature(capsys):
    with criterion(capsys, "criterion 7/11: final cold temperature readout"):
        spec = DeviceSpec(4.82, 5.01, 4.90)
        t = _temp_for_ground_population(0.8, 5.01)  # excited population 0.2
        prep = prepare("full8", spec, 400.0, t)
        out = final_cold_temperature(TransitionMatrix(np.eye(8)), prep, spec)
        assert out.kind == "finite"
        assert abs(out.millikelvin - 173.4) < 0.1
        # identity-dynamics round-trip at 1e-9 relative accuracy
        for t_in in (77.0, 173.4, 300.0, 650.0):
            for scheme in ("swap4", "full8"):
                prep = prepare(scheme, spec, 400.0, t_in)
                got = final_cold_temperature(TransitionMatrix(np.eye(8)), prep, spec)
                assert got.kind == "finite"
                assert abs(got.millikelvin - t_in) / t_in < 1e-9


def test_criterion_08_readout_mitigation(capsys):
    with criterion(capsys, "criterion 8/11: readout-error mitigation recovery"):
        nm = NoiseModel.uniform(eps01=0.05, eps10=0.05)
        rng = np.random.default_rng(88)
        p = rng.dirichlet(np.ones(8))
        raw = apply_readout_error(p, nm)
        exact_rec = mitigate(raw, exact_confusion(nm))
        assert np.max(np.abs(exact_rec - p)) < 1e-10
        shots = 8192
        sampled_conf = calibrate(nm, shots, 17)
        sampled_rec = mitigate(raw, sampled_conf)
        # propagate 3 standard errors of the calibration through the inverse
        inv_norm = np.linalg.norm(np.linalg.inv(exact_confusion(nm).entries), np.inf)
        bound = 3.0 * inv_norm * 0.5 / np.sqrt(shots)
        assert np.max(np.abs(sampled_rec - p)) < bound


def test_criterion_09_second_law(capsys):
    with criterion(capsys, "criterion 9/11: no cooling with work extraction anywhere"):
        tm = _exact_tm()
        spec = DeviceSpec.casablanca()
        for th in np.linspace(20, 1000, 50):
            for tc in np.linspace(20, 1000, 50):
                ledger = energy_changes(tm, prepare("full8", spec, th, tc), spec)
                assert not (ledger.de_cold < 0 and ledger.work < 0), (th, tc)


def test_criterion_10_noise_threshold(capsys):
    with criterion(capsys, "criterion 10/11: depolarizing noise shrinks R and opens H"):
        start = time.monotonic()
        r_counts, h_counts = [], []
        for p2 in (0.0, 0.01, 0.03, 0.05):
            cfg = SweepConfig(
                f0=5.24, f1=5.01, f2=5.11, scheme="swap4", v="vstar",
                p2=p2, shots=0, n_h=24, n_c=24,
            )
            tags = run_sweep(cfg).mode.tolist()
            r_counts.append(tags.count("R"))
            h_counts.append(tags.count("H"))
        assert all(a >= b for a, b in zip(r_counts, r_counts[1:])), r_counts
        assert h_counts[0] == 0
        assert h_counts[-1] > 0
        first_h = next(i for i, h in enumerate(h_counts) if h > 0)
        assert all(h > 0 for h in h_counts[first_h:]), h_counts
        assert time.monotonic() - start < 60.0
        with capsys.disabled():
            print(f"\n       R cells {r_counts}, H cells {h_counts}")


def test_criterion_11_renyi_data_processing(capsys):
    with criterion(capsys, "criterion 11/11: diagonal projection never gains purity"):
        from qfridge.thermo import renyi2_purity_check

        rng = np.random.default_rng(911)
        for _ in range(500):
            full, projected = renyi2_purity_check(random_density(2, rng))
            assert full - projected >= -1e-12
