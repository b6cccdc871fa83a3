"""The eleven release criteria: one oracle set for the acceptance gate and
``qfridge selftest``.

``CRITERIA`` holds ``(label, check)`` pairs in criterion order.  A check
returns None, or a detail line worth printing (criteria 3 and 10), and
raises AssertionError with a message when its criterion fails.  Every test
goes through ``_require``, an explicit raise, so the checks still run under
``python -O``.  The random-input generators the test suite shares live here
too.
"""
from __future__ import annotations

import time

import numpy as np

from . import qcore, thermo
from .circuits import LINE3, build_target_unitary, build_vstar_circuit, unitary_of_circuit
from .compiler import compile_generic, global_phase_distance
from .noise import NoiseModel, apply_readout_error, calibrate, exact_confusion, mitigate
from .sweep import SweepConfig, evaluate_grid, grid_axes, run_sweep
from .thermo import (
    H_OVER_KB, DeviceSpec, TransitionMatrix, analytic_energy_changes, analytic_regions,
    transition_matrix,
)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _require(ok, detail: str) -> None:
    if not ok:
        raise AssertionError(detail)


def _exact_tm(v_choice="identity"):
    return transition_matrix(build_target_unitary(v_choice), NoiseModel(), 0, 0)


def _grid(spec, tm, t_h_axis, t_c_axis, scheme="full8"):
    """The exact-run kernel on spec's device over the grid of the two axes."""
    cfg = SweepConfig(f0=spec.f0, f1=spec.f1, f2=spec.f2, scheme=scheme, shots=0)
    return evaluate_grid(cfg, tm, t_h_axis, t_c_axis)


def _temp_for_ground_population(x, f_ghz):
    return H_OVER_KB * f_ghz / np.log(x / (1.0 - x))


def _gate_map_oracle() -> None:
    start = time.monotonic()
    perm = {m: m for m in range(8)}
    a, b = qcore.basis_index(0, 0, 1), qcore.basis_index(1, 1, 0)
    perm[a], perm[b] = b, a
    u = build_target_unitary("identity")
    for m in range(8):
        col = u[:, m]
        _require(col[perm[m]] == 1.0, f"identity gate sends |{m}> elsewhere than |{perm[m]}>")
        _require(np.count_nonzero(col) == 1, f"identity gate column {m} is not a basis vector")
    c, d = qcore.basis_index(0, 1, 1), qcore.basis_index(1, 0, 0)
    perm[c], perm[d] = d, c
    u = build_target_unitary("vstar")
    for m in range(8):
        col = u[:, m]
        _require(col[perm[m]] == 1.0, f"V* gate sends |{m}> elsewhere than |{perm[m]}>")
        _require(np.count_nonzero(col) == 1, f"V* gate column {m} is not a basis vector")
    _require(time.monotonic() - start < 1.0, "gate maps took 1 s or more")


def _four_cnot_circuit() -> None:
    circuit = build_vstar_circuit()
    _require(circuit.cnot_count() == 4, f"{circuit.cnot_count()} cx, want 4")
    _require(len(circuit.gates) == 4, f"{len(circuit.gates)} gates, want 4")
    for g in circuit.gates:
        _require(g.name == "cx", f"gate {g.name} is not cx")
        _require(LINE3.allows(*g.wires), f"cx on {g.wires} is off the coupling map")
    dist = global_phase_distance(
        unitary_of_circuit(circuit), build_target_unitary("vstar")
    )
    _require(dist < 1e-12, f"circuit is {dist:.3g} from the V* target")


def _compiler_roundtrip() -> str:
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for i in range(50):
        u = haar_unitary(8, rng)
        circuit, _ = compile_generic(u, LINE3)
        _require(global_phase_distance(unitary_of_circuit(circuit), u) < 1e-8,
                 f"Haar target {i} does not round-trip to 1e-8")
    target = build_target_unitary("identity")
    circuit, report = compile_generic(target, LINE3)
    _require(global_phase_distance(unitary_of_circuit(circuit), target) < 1e-8,
             "cooling gate does not round-trip to 1e-8")
    _require(report.total_gates > 50, f"cooling gate in {report.total_gates} gates, want > 50")
    elapsed = time.monotonic() - start
    _require(elapsed < 30.0, f"round-trips took {elapsed:.1f} s, limit 30 s")
    return (
        f"compiled cooling gate: {report.total_gates} gates, "
        f"{report.cnot_count} cx, depth {report.depth} ({elapsed:.1f}s)"
    )


def _analytics_match_simulation() -> None:
    tm = _exact_tm()
    axis = np.linspace(25, 975, 10)
    for spec in (DeviceSpec.casablanca(), DeviceSpec.jakarta()):
        res = _grid(spec, tm, axis, axis)
        for th, tc, de_hot, de_cold in zip(res.t_hot, res.t_cold, res.de_hot, res.de_cold):
            ana = analytic_energy_changes(spec, th, tc)
            _require(abs(de_hot - ana.de_hot) < 1e-12, f"dE_H at ({th}, {tc}) mK")
            _require(abs(de_cold - ana.de_cold) < 1e-12, f"dE_C at ({th}, {tc}) mK")


def _mode_map_vs_analytic_regions() -> None:
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
        _require(mode == ana.tag, f"({t_hot}, {t_cold}) mK: mode {mode}, analytic {ana.tag}")
        _require(purifier == ana.purifier, f"({t_hot}, {t_cold}) mK: purifier {purifier}")
        checked += 1
    _require(checked > 2500, f"only {checked} points off the boundary curves")
    # identical frequencies: the purifying set is exactly the R region
    cfg_eq = SweepConfig(f0=4.76, f1=4.76, f2=4.76, shots=0, n_h=32, n_c=32)
    res_eq = run_sweep(cfg_eq)
    for t_hot, t_cold, mode, purifier in zip(
        res_eq.t_hot, res_eq.t_cold, res_eq.mode, res_eq.purifier
    ):
        _require(purifier == (mode == "R"),
                 f"({t_hot}, {t_cold}) mK: purifier {purifier} in {mode}")
    _require(time.monotonic() - start < 10.0, "mode maps took 10 s or more")


def _purification_cubic() -> None:
    spec = DeviceSpec(4.76, 4.76, 4.76)
    t = _temp_for_ground_population(0.8, 4.76)
    exact = _grid(spec, _exact_tm(), [t], [t]).p_g_final[0]
    cubic = thermo.ground_population_map(0.8)
    _require(abs(exact - cubic) < 1e-12, f"engine gives {exact}, the cubic map {cubic}")
    _require(abs(exact - 0.896) < 1e-12, f"engine gives {exact}, want 0.896")
    tm_mc = transition_matrix(
        build_target_unitary("identity"), NoiseModel(), 8192, 1
    )
    sampled = _grid(spec, tm_mc, [t], [t]).p_g_final[0]
    # 3 binomial standard errors at 8192 shots around 0.896
    _require(abs(sampled - 0.896) < 0.0101, f"8192 shots give {sampled}, want 0.896 +- 0.0101")


def _final_temperature() -> None:
    spec = DeviceSpec(4.82, 5.01, 4.90)
    t = _temp_for_ground_population(0.8, 5.01)  # excited population 0.2
    t_c_axis = [t, 77.0, 173.4, 300.0, 650.0]
    for scheme in ("swap4", "full8"):
        res = _grid(spec, TransitionMatrix(np.eye(8)), [400.0], t_c_axis, scheme)
        kinds, readouts = res.t_cold_final_kind.tolist(), res.t_cold_final.tolist()
        _require(kinds[0] == "finite", f"{scheme} readout is {kinds[0]}")
        _require(abs(readouts[0] - 173.4) < 0.1, f"{scheme} readout {readouts[0]} mK, want 173.4")
        # identity-dynamics round-trip at 1e-9 relative accuracy
        for t_in, kind, got in zip(t_c_axis[1:], kinds[1:], readouts[1:]):
            _require(kind == "finite", f"{scheme} at {t_in} mK reads {kind}")
            _require(abs(got - t_in) / t_in < 1e-9, f"{scheme} at {t_in} mK reads {got} mK")


def _readout_mitigation() -> None:
    nm = NoiseModel.uniform(eps01=0.05, eps10=0.05)
    rng = np.random.default_rng(88)
    p = rng.dirichlet(np.ones(8))
    raw = apply_readout_error(p, nm)
    exact_rec = mitigate(raw, exact_confusion(nm))
    _require(np.max(np.abs(exact_rec - p)) < 1e-10, "exact mitigation misses p by 1e-10 or more")
    shots = 8192
    sampled_conf = calibrate(nm, shots, 17)
    sampled_rec = mitigate(raw, sampled_conf)
    # propagate 3 standard errors of the calibration through the inverse
    inv_norm = np.linalg.norm(np.linalg.inv(exact_confusion(nm).entries), np.inf)
    bound = 3.0 * inv_norm * 0.5 / np.sqrt(shots)
    _require(np.max(np.abs(sampled_rec - p)) < bound, f"sampled mitigation misses p by {bound:.3g}")


def _second_law() -> None:
    axis = np.linspace(20, 1000, 50)
    res = _grid(DeviceSpec.casablanca(), _exact_tm(), axis, axis)
    bad = (res.de_cold < 0) & (res.work < 0)
    _require(not bad.any(), "cools while extracting work at (T_H, T_C) = "
             f"{list(zip(res.t_hot[bad].tolist(), res.t_cold[bad].tolist()))} mK")


def _noise_threshold() -> str:
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
    counts = f"R cells {r_counts}, H cells {h_counts}"
    _require(all(a >= b for a, b in zip(r_counts, r_counts[1:])), f"R grows with p2: {counts}")
    _require(h_counts[0] == 0, f"H without noise: {counts}")
    _require(h_counts[-1] > 0, f"no H at p2 = 0.05: {counts}")
    first_h = next(i for i, h in enumerate(h_counts) if h > 0)
    _require(all(h > 0 for h in h_counts[first_h:]), f"H closes again: {counts}")
    _require(time.monotonic() - start < 60.0, "noise sweeps took 60 s or more")
    return counts


def _renyi_data_processing() -> None:
    rng = np.random.default_rng(911)
    for i in range(500):
        full, projected = thermo.renyi2_purity_check(random_density(2, rng))
        _require(full - projected >= -1e-12,
                 f"draw {i}: projection raises purity {full} -> {projected}")


CRITERIA = (
    ("exhaustive gate-map oracle", _gate_map_oracle),
    ("4-CNOT cooling circuit", _four_cnot_circuit),
    ("compiler round-trip on 50 random + cooling targets", _compiler_roundtrip),
    ("closed-form energy changes vs simulation", _analytics_match_simulation),
    ("64x64 mode map matches analytic regions", _mode_map_vs_analytic_regions),
    ("purification map 0.8 -> 0.896, exact and sampled", _purification_cubic),
    ("final cold temperature readout", _final_temperature),
    ("readout-error mitigation recovery", _readout_mitigation),
    ("no cooling with work extraction anywhere", _second_law),
    ("depolarizing noise shrinks R and opens H", _noise_threshold),
    ("diagonal projection never gains purity", _renyi_data_processing),
)
