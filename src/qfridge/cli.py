"""Command line front door.

Subcommands:

* ``sweep <config>``: run a grid sweep and write the configured outputs.
* ``point --th <mK> --tc <mK> [flags]``: evaluate one grid point, print JSON
  (``sweep.write_record``); each flag is a ``SweepConfig`` key.
* ``compile --v {identity,vstar} [--qasm <path>]``: print the gate-count
  report of the circuit that sweeps run for V (``sweep.engine(v).circuit``),
  optionally emit it as OpenQASM 2.0: the fixed 4-cx circuit for vstar, the
  fixed 7-cx one for identity, which realises the cooling gate up to a final
  diagonal phase.  Nothing is compiled; criterion 3 compiles the target
  itself.
* ``selftest``: run the eleven release criteria of ``qfridge.oracles``.

Each command has its own argparse parser, built once per process.  argv
that starts with a command name goes straight to that command's parser; only
argv that names no command (none, ``-h``, an unknown one) is read by the
top-level parser.

Exit codes: 0 success, 1 usage error, 2 runtime error (selftest failures
included).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .circuits import CompileReport, emit_qasm
from .sweep import (
    CHOICES,
    SweepConfig,
    engine,
    evaluate_grid,
    parse_config,
    run_sweep,
    sweep_transition_matrix,
    write_outputs,
    write_record,
)


#: the config keys that `point` takes as flags, in the order of its help
_POINT_KEYS = ("f0", "f1", "f2", "p1", "p2", "eps01", "eps10", "scheme", "v", "shots", "seed",
               "mitigation", "hot_energy_mode")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want code 1
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qfridge")
    sub = parser.add_subparsers(dest="command", required=True)
    #: command name -> its own parser, which _parse_args calls directly
    parser.commands = sub.choices

    p_sweep = sub.add_parser("sweep", help="run a grid sweep from a config file")
    p_sweep.add_argument("config", help="path to a key = value config file")

    p_point = sub.add_parser("point", help="evaluate a single (T_H, T_C) point")
    p_point.add_argument("--th", type=float, required=True, help="hot temperature, mK")
    p_point.add_argument("--tc", type=float, required=True, help="cold temperature, mK")
    for key in _POINT_KEYS:
        # each flag has its key's type; the bool key reads on/off
        kind = type(getattr(SweepConfig, key))
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p_point.add_argument(flag, choices=("on", "off"))
        else:
            p_point.add_argument(flag, type=kind, choices=CHOICES.get(key))

    p_compile = sub.add_parser(
        "compile",
        help="report and emit the cooling-gate circuit that noisy runs use (V = identity: "
        "7 cx, exact up to a final diagonal phase)",
    )
    p_compile.add_argument("--v", choices=CHOICES["v"], required=True)
    p_compile.add_argument("--qasm", help="write OpenQASM 2.0 to this path")

    sub.add_parser("selftest", help="run the eleven release criteria")
    for name, command in parser.commands.items():
        command.set_defaults(command=name)
    return parser


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    for path in write_outputs(cfg, run_sweep(cfg)):
        print(path)
    return 0


def _cmd_point(args) -> int:
    flags = {key: getattr(args, key) for key in _POINT_KEYS if getattr(args, key) is not None}
    if "mitigation" in flags:
        flags["mitigation"] = flags["mitigation"] == "on"
    cfg = SweepConfig(**flags)
    # a 1x1 grid holding the temperatures as given (grid_axes needs n >= 2)
    res = evaluate_grid(cfg, sweep_transition_matrix(cfg), [args.th], [args.tc])
    print(write_record(res))
    return 0


def _cmd_compile(args) -> int:
    circuit = engine(args.v).circuit
    print(json.dumps(dataclasses.asdict(CompileReport.of(circuit)), indent=2))
    if args.qasm:
        with open(args.qasm, "wb") as fh:  # binary: the same bytes on every platform
            fh.write(emit_qasm(circuit).encode())
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as the top-level parser reads it.  That parser hands every token
    after a command name on to the command's own parser, so a known command
    goes there directly; argv that names no command is read by the
    top-level parser."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    return command.parse_args(argv[1:]) if command else parser.parse_args(argv)


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
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
