"""Command line front door.

Subcommands:

* ``sweep <config>``: run a grid sweep and write the configured outputs.
* ``point --th <mK> --tc <mK> [flags]``: evaluate one grid point, print JSON.
* ``compile --v {identity,vstar} [--qasm <path>]``: print the gate-count
  report of the circuit that sweeps run for V (``sweep.engine_circuit``),
  optionally emit it as OpenQASM 2.0.
* ``selftest``: run the eleven release criteria of ``qfridge.oracles``.

Exit codes: 0 success, 1 usage error, 2 runtime error (selftest failures
included).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import thermo
from .circuits import emit_qasm
from .compiler import CompileReport
from .sweep import (
    SweepConfig,
    V_CHOICES,
    as_records,
    engine_circuit,
    evaluate_grid,
    parse_config,
    run_sweep,
    sweep_transition_matrix,
    write_outputs,
)


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
    p_point.add_argument("--v", choices=V_CHOICES)
    p_point.add_argument("--shots", type=int)
    p_point.add_argument("--seed", type=int)
    p_point.add_argument("--mitigation", choices=("on", "off"))
    p_point.add_argument("--hot-energy-mode", choices=thermo.HOT_ENERGY_MODES)

    p_compile = sub.add_parser("compile", help="compile the cooling gate")
    p_compile.add_argument("--v", choices=V_CHOICES, required=True)
    p_compile.add_argument("--qasm", help="write OpenQASM 2.0 to this path")

    sub.add_parser("selftest", help="run the eleven release criteria")
    return parser


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    for path in write_outputs(cfg, run_sweep(cfg)):
        print(path)
    return 0


def _cmd_point(args) -> int:
    cfg = SweepConfig()
    # every given flag that names a config field; --mitigation reads on/off
    keys = {f.name for f in dataclasses.fields(cfg)}
    for key, value in vars(args).items():
        if key in keys and value is not None:
            setattr(cfg, key, value == "on" if key == "mitigation" else value)
    cfg.validate()
    # a 1x1 grid holding the temperatures as given (grid_axes needs n >= 2)
    res = evaluate_grid(cfg, sweep_transition_matrix(cfg), [args.th], [args.tc])
    print(json.dumps(as_records(res)[0], indent=2))
    return 0


def _cmd_compile(args) -> int:
    circuit = engine_circuit(args.v)
    print(json.dumps(dataclasses.asdict(CompileReport.of(circuit)), indent=2))
    if args.qasm:
        with open(args.qasm, "w") as fh:
            fh.write(emit_qasm(circuit))
        print(args.qasm, file=sys.stderr)
    return 0


def _cmd_selftest() -> int:
    from .oracles import CRITERIA  # loaded on demand: the other commands never need it

    failures = 0
    for label, check in CRITERIA:
        try:
            check()
        except Exception as err:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {label}: {err}")
        else:
            print(f"ok   {label}")
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
