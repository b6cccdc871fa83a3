"""The four workloads: seeded inputs, the timed operation, and its checks.

Each workload is a single-client closed loop in one process.  Inputs come in
blocks drawn from ``numpy.random.default_rng([seed, block])``, so a seed
fixes every input and no two blocks repeat.  An operation is split into
``prepare`` (untimed: write the config file, build argv), ``execute`` (the
timed call into qfridge, between two runs of ``ref_units`` reference units
that measure the machine's speed), ``save`` (untimed: put what it returned
on disk, so the process does not grow with the number of operations) and
``check`` (after the timed loop; it regenerates the inputs from the seed).

qfridge is driven only through interfaces that refactors must keep:
``qfridge.cli.cli_main`` with generated config files and argv, the files and
JSON it writes, and the exported ``compile_generic``, ``unitary_of_circuit``
and ``emit_qasm``.  Functions are looked up on their module at call time, so
the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

import qfridge
from qfridge import cli

import checks

#: config keys in the order the package README documents them
KEY_ORDER = (
    "f0", "f1", "f2", "scheme", "v", "p1", "p2", "eps01", "eps10", "mitigation",
    "shots", "seed", "t_h_min", "t_h_max", "t_c_min", "t_c_max", "n_h", "n_c",
    "hot_energy_mode", "outputs", "heatmap_field", "output_prefix",
)


def config_text(values):
    return "".join(f"{k} = {values[k]}\n" for k in KEY_ORDER if k in values)


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def _draw_bounds(rng):
    """Grid bounds inside 20..1000 mK that span all the region curves."""
    lo_h, hi_h, lo_c, hi_c = rng.uniform((20, 600, 20, 600), (300, 1000, 300, 1000))
    return float(lo_h), float(hi_h), float(lo_c), float(hi_c)


def _pop(path, mode="r"):
    """Contents of an output file, which is then deleted."""
    with open(path, mode) as fh:
        data = fh.read()
    os.remove(path)
    return data


class _CliWorkload:
    """Operations are `qfridge ...` calls; save() keeps the exit code and
    printed text on disk until the check."""

    def execute(self, argv):
        return call_cli(argv)

    def save(self, out, index):
        with open(f"op{index}.out.json", "w") as fh:
            json.dump(out, fh)

    def load(self, index):
        rc, stdout, stderr = json.loads(_pop(f"op{index}.out.json"))
        errors = [] if rc == 0 else [f"qfridge exited {rc}: {stderr.strip()[:200]}"]
        return stdout, errors

    def check_block(self, stats):
        return set()


class _SweepWorkload(_CliWorkload):
    """An operation is one `qfridge sweep <config>`."""

    n: int
    outputs = "csv"

    def prepare(self, spec, index):
        values = dict(self.values(spec), output_prefix=f"op{index}")
        path = f"op{index}.conf"
        with open(path, "w") as fh:
            fh.write(config_text(values))
        return ["sweep", path]

    def check(self, spec, index):
        stdout, errors = self.load(index)
        os.remove(f"op{index}.conf")
        if errors:
            return errors, {}
        expected = [f"op{index}.csv"]
        if "json" in self.outputs:
            expected.append(f"op{index}.json")
        if "heatmap" in self.outputs:
            expected += [f"op{index}.ppm", f"op{index}.ppm.range.txt"]
        if stdout.split() != expected:
            return [f"sweep printed {stdout.split()}, expected {expected}"], {}
        try:
            blobs = {path.removeprefix(f"op{index}"): _pop(path, "rb") for path in expected}
            rows = checks.parse_csv(blobs[".csv"].decode())
        except (OSError, ValueError) as err:
            return [f"outputs: {err}"], {}
        errors = checks.grid_errors(rows, spec["bounds"], self.n, self.n)
        if errors:
            return errors, {}
        errors += checks.row_invariant_errors(rows, checks.CSV_RTOL, checks.csv_delta)
        errors += self.check_rows(spec, rows, blobs)
        stats = {
            "points": len(rows["T_H"]),
            "bytes_written": sum(len(b) for b in blobs.values()),
            "r_cells": rows["mode"].count("R"),
        }
        return errors, stats

    def check_rows(self, spec, rows, blobs):
        return []


class GridExact(_SweepWorkload):
    """64x64 (the README's default grid) exact full8 V = identity sweep
    writing csv, json and a t_c_final heatmap: the paper's phase-diagram job."""

    n = 64
    outputs = "csv, json, heatmap"
    block = 4
    ref_units = 20

    def inputs(self, rng):
        return [{"bounds": _draw_bounds(rng)} for _ in range(self.block)]

    def values(self, spec):
        lo_h, hi_h, lo_c, hi_c = spec["bounds"]
        return {
            "scheme": "full8", "v": "identity", "shots": 0,
            "t_h_min": repr(lo_h), "t_h_max": repr(hi_h),
            "t_c_min": repr(lo_c), "t_c_max": repr(hi_c),
            "n_h": self.n, "n_c": self.n, "outputs": self.outputs,
            "heatmap_field": "t_c_final",
        }

    def check_rows(self, spec, rows, blobs):
        errors = checks.exact_identity_errors(rows, spec["bounds"], self.n, self.n)
        try:
            errors += checks.json_matches_csv_errors(blobs[".json"].decode(), rows)
        except ValueError as err:
            errors.append(f"JSON output: {err}")
        errors += checks.t_c_final_heatmap_errors(
            blobs[".ppm"], blobs[".ppm.range.txt"].decode(), rows, self.n, self.n
        )
        return errors


class NoiseScan(_SweepWorkload):
    """16x16 sweeps of the compiled V = identity engine under depolarizing
    noise; a block shares its grid and rises in p2 (criterion 10)."""

    n = 16
    block = 8
    ref_units = 10

    def inputs(self, rng):
        bounds = _draw_bounds(rng)
        p2s = np.sort(rng.uniform(0.0, 0.003, self.block))
        return [{"bounds": bounds, "p2": float(p2)} for p2 in p2s]

    def values(self, spec):
        lo_h, hi_h, lo_c, hi_c = spec["bounds"]
        return {
            "scheme": "full8", "v": "identity",
            "p1": repr(spec["p2"] / 10), "p2": repr(spec["p2"]),
            "eps01": 0.01, "eps10": 0.01, "shots": 0,
            "t_h_min": repr(lo_h), "t_h_max": repr(hi_h),
            "t_c_min": repr(lo_c), "t_c_max": repr(hi_c),
            "n_h": self.n, "n_c": self.n, "outputs": self.outputs,
        }

    def check_block(self, stats):
        """R cells never increase as p2 rises across a block."""
        counts = [s.get("r_cells") for s in stats]
        return {i for i in range(1, len(counts))
                if None not in counts[i - 1:i + 1] and counts[i] > counts[i - 1]}


class CompileRoundtrip:
    """compile_generic -> unitary_of_circuit -> emit_qasm for seeded Haar 8x8
    targets on the line q0 - q1 - q2; each block ends with the V = identity
    cooling gate (criterion 3)."""

    block = 8
    ref_units = 10

    def inputs(self, rng):
        targets = [checks.haar_unitary(8, rng) for _ in range(self.block - 1)]
        return targets + [checks.identity_cooling_gate()]

    def prepare(self, target, index):
        return target

    def execute(self, target):
        circuit, _ = qfridge.compile_generic(target, qfridge.LINE3)
        return qfridge.unitary_of_circuit(circuit), qfridge.emit_qasm(circuit)

    def save(self, out, index):
        evaluated, qasm = out
        np.save(f"op{index}.npy", evaluated)
        with open(f"op{index}.qasm", "w") as fh:
            fh.write(qasm)

    def check(self, target, index):
        evaluated = np.load(f"op{index}.npy")
        os.remove(f"op{index}.npy")
        errors, counts = checks.compiled_errors(_pop(f"op{index}.qasm"), evaluated, target)
        return errors, {} if counts is None else {"cx": counts[0], "depth": counts[1]}

    def check_block(self, stats):
        return set()


class PointQueries(_CliWorkload):
    """An operation is three `qfridge point` calls at seeded (T_H, T_C): the
    exact identity engine, V* at 8192 shots, and V* with readout error and
    mitigation on.  Their costs differ (about 2, 3 and 4.5 ms), so the
    median operation moves when any one engine slows down."""

    block = 10
    ref_units = 2
    engines = ("exact", "vstar", "mitigated")

    def inputs(self, rng):
        specs = []
        for _ in range(self.block):
            calls = []
            for engine in self.engines:
                th, tc = rng.uniform(20.0, 1000.0, 2)
                calls.append({"engine": engine, "th": float(th), "tc": float(tc),
                              "seed": int(rng.integers(0, 2**31)),
                              "eps": [float(e) for e in rng.uniform(0.01, 0.05, 2)]})
            specs.append(calls)
        return specs

    def prepare(self, spec, index):
        return [self._argv(call) for call in spec]

    @staticmethod
    def _argv(call):
        argv = ["point", "--th", repr(call["th"]), "--tc", repr(call["tc"])]
        if call["engine"] == "exact":
            return argv + ["--v", "identity", "--shots", "0"]
        argv += ["--v", "vstar", "--shots", "8192", "--seed", str(call["seed"])]
        if call["engine"] == "mitigated":
            e01, e10 = call["eps"]
            argv += ["--eps01", repr(e01), "--eps10", repr(e10), "--mitigation", "on"]
        return argv

    def execute(self, argvs):
        """(exit code, stdout, stderr, wall seconds) of each call."""
        outs = []
        for argv in argvs:
            t0 = time.perf_counter()
            outs.append((*call_cli(argv), time.perf_counter() - t0))
        return outs

    def check(self, spec, index):
        outs = json.loads(_pop(f"op{index}.out.json"))
        errors, engine_s = [], {}
        for call, (rc, stdout, stderr, seconds) in zip(spec, outs):
            engine_s[call["engine"]] = seconds
            if rc != 0:
                errors.append(f"qfridge exited {rc}: {stderr.strip()[:200]}")
                continue
            errors += checks.point_errors(stdout, call["th"], call["tc"],
                                          call["engine"] == "exact")
        return errors, {"points": len(spec), "engine_s": engine_s}


WORKLOADS = {
    "grid_exact": GridExact,
    "noise_scan": NoiseScan,
    "compile_roundtrip": CompileRoundtrip,
    "point_queries": PointQueries,
}
