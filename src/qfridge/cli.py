"""Command line front door.

Subcommands:

* ``sweep <config>``: run a grid sweep and write the configured outputs.
* ``point --th <mK> --tc <mK> [flags]``: evaluate one grid point, print JSON.
* ``compile --v {identity,vstar} [--qasm <path>]``: compile the cooling gate,
  print the gate-count report, optionally emit OpenQASM 2.0.
* ``selftest``: run the built-in oracle checks.

Exit codes: 0 success, 1 usage error, 2 runtime error (selftest failures
included).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import qcore, thermo
from .circuits import LINE3, build_target_unitary, build_vstar_circuit, emit_qasm
from .compiler import CompileReport, compile_generic, global_phase_distance
from .noise import NoiseModel, exact_confusion, mitigate, readout_matrix
from .sweep import (
    SweepConfig,
    as_records,
    evaluate_grid,
    parse_config,
    run_sweep,
    sweep_transition_matrix,
    write_outputs,
)
from .thermo import DeviceSpec, analytic_energy_changes, energy_changes


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want code 1
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qfridge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a grid sweep from a config file")
    p_sweep.add_argument("config", help="path to a key = value config file")

    p_point = sub.add_parser("point", help="evaluate a single (T_H, T_C) point")
    p_point.add_argument("--th", type=float, required=True, help="hot temperature, mK")
    p_point.add_argument("--tc", type=float, required=True, help="cold temperature, mK")
    for key in ("f0", "f1", "f2", "p1", "p2", "eps01", "eps10"):
        p_point.add_argument(f"--{key}", type=float)
    p_point.add_argument("--scheme", choices=thermo.SCHEMES)
    p_point.add_argument("--v", choices=("identity", "vstar"))
    p_point.add_argument("--shots", type=int)
    p_point.add_argument("--seed", type=int)
    p_point.add_argument("--mitigation", choices=("on", "off"))
    p_point.add_argument("--hot-energy-mode", choices=thermo.HOT_ENERGY_MODES)

    p_compile = sub.add_parser("compile", help="compile the cooling gate")
    p_compile.add_argument("--v", choices=("identity", "vstar"), required=True)
    p_compile.add_argument("--qasm", help="write OpenQASM 2.0 to this path")

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return parser


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    for path in write_outputs(cfg, run_sweep(cfg)):
        print(path)
    return 0


def _cmd_point(args) -> int:
    cfg = SweepConfig()
    for key in ("f0", "f1", "f2", "p1", "p2", "eps01", "eps10", "scheme", "v",
                "shots", "seed", "hot_energy_mode"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    if args.mitigation is not None:
        cfg.mitigation = args.mitigation == "on"
    cfg.validate()
    # a 1x1 grid holding the temperatures as given (grid_axes needs n >= 2)
    res = evaluate_grid(cfg, sweep_transition_matrix(cfg), [args.th], [args.tc])
    print(json.dumps(as_records(res)[0], indent=2))
    return 0


def _cmd_compile(args) -> int:
    if args.v == "vstar":
        circuit = build_vstar_circuit()
    else:
        circuit, _ = compile_generic(build_target_unitary("identity"), LINE3)
    print(json.dumps(dataclasses.asdict(CompileReport.of(circuit)), indent=2))
    if args.qasm:
        with open(args.qasm, "w") as fh:
            fh.write(emit_qasm(circuit))
        print(args.qasm, file=sys.stderr)
    return 0


def _selftest_checks():
    from .circuits import unitary_of_circuit
    from .thermo import prepare, transition_matrix

    exact_tm = transition_matrix(build_target_unitary("identity"), NoiseModel(), 0, 0)

    def check_gate_maps():
        u = build_target_unitary("identity")
        perm = np.abs(u) ** 2
        want = np.eye(8)
        a, b = qcore.basis_index(0, 0, 1), qcore.basis_index(1, 1, 0)
        want[[a, b]] = want[[b, a]]
        assert np.max(np.abs(perm - want)) < 1e-12
        u = build_target_unitary("vstar")
        for m in range(8):
            i, j, k = qcore.basis_label(m)
            target = qcore.basis_index(k, i ^ j ^ k, i)
            assert abs(abs(u[target, m]) - 1.0) < 1e-12

    def check_vstar_circuit():
        c = build_vstar_circuit()
        assert c.cnot_count() == 4
        d = global_phase_distance(
            unitary_of_circuit(c), build_target_unitary("vstar")
        )
        assert d < 1e-12

    def check_analytics():
        spec = DeviceSpec.casablanca()
        for th in (80.0, 240.0, 700.0):
            for tc in (50.0, 300.0, 900.0):
                sim = energy_changes(exact_tm, prepare("full8", spec, th, tc), spec)
                ana = analytic_energy_changes(spec, th, tc)
                assert abs(sim.de_hot - ana.de_hot) < 1e-12
                assert abs(sim.de_cold - ana.de_cold) < 1e-12

    def check_mitigation():
        nm = NoiseModel.uniform(eps01=0.05, eps10=0.05)
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(8))
        raw = readout_matrix(nm) @ p
        rec = mitigate(raw, exact_confusion(nm))
        assert np.max(np.abs(rec - p)) < 1e-10

    def check_population_map():
        # equal preparations at ground population 0.8 purify to 0.896
        spec = DeviceSpec(4.76, 4.76, 4.76)
        t = float(thermo.final_temperatures(0.2, 4.76)[1])
        final = 1.0 - thermo.excited_cold_population(exact_tm, prepare("full8", spec, t, t))
        assert abs(final - thermo.ground_population_map(0.8)) < 1e-12
        assert abs(final - 0.896) < 1e-12

    def check_final_temperature():
        # identity dynamics reads the preparation temperature back
        spec = DeviceSpec(4.82, 5.01, 4.90)
        identity = thermo.TransitionMatrix(np.eye(8))
        for t_in in (77.0, 173.4, 300.0, 650.0):
            for scheme in thermo.SCHEMES:
                prep = prepare(scheme, spec, 400.0, t_in)
                got = thermo.final_cold_temperature(identity, prep, spec)
                assert got.kind == "finite"
                assert abs(got.millikelvin - t_in) / t_in < 1e-9

    def check_renyi():
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            full, projected = thermo.renyi2_purity_check(rho)
            assert full - projected >= -1e-12

    def check_second_law():
        spec = DeviceSpec.casablanca()
        for th in np.linspace(20, 1000, 20):
            for tc in np.linspace(20, 1000, 20):
                ledger = energy_changes(exact_tm, prepare("full8", spec, th, tc), spec)
                assert not (ledger.de_cold < 0 and ledger.work < 0)

    return [
        ("gate maps", check_gate_maps),
        ("4-CNOT circuit", check_vstar_circuit),
        ("analytics vs simulation", check_analytics),
        ("readout mitigation", check_mitigation),
        ("population map", check_population_map),
        ("final temperature", check_final_temperature),
        ("renyi-2 data processing", check_renyi),
        ("second law", check_second_law),
    ]


def _cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as err:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "compile":
            return _cmd_compile(args)
        return _cmd_selftest()
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
