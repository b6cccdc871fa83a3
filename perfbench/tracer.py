"""Spans around calls into qfridge's public functions, recorded from outside.

The tracer replaces each traced function with a timing wrapper at module
attribute level, in its home module and in every other qfridge module that
bound the same function object by name (``from .thermo import prepare`` in
``sweep``, ``from .sweep import run_sweep`` in ``cli``, the package's own
re-exports).  Calls that go through any of those names land in a span.
Self time is a span's duration minus the time covered by its child spans.

A traced function that no longer exists is reported as absent.
"""
from __future__ import annotations

import importlib
import sys
import time

#: (module, function) pairs under qfridge that get a span
SPANS = (
    ("cli", "cli_main"),
    ("sweep", "parse_config"),
    ("sweep", "run_sweep"),
    ("sweep", "evaluate_point"),
    ("thermo", "prepare"),
    ("thermo", "energy_changes"),
    ("thermo", "classify_mode"),
    ("thermo", "final_cold_temperature"),
    ("thermo", "is_purifier"),
    ("sweep", "write_csv"),
    ("sweep", "write_json"),
    ("sweep", "write_heatmap"),
    ("sweep", "write_outputs"),
    ("noise", "evolve_noisy"),
    ("circuits", "unitary_of_circuit"),
    ("circuits", "emit_qasm"),
    ("compiler", "compile_generic"),
    ("thermo", "transition_matrix"),
    ("qcore", "sample_counts"),
    ("qcore", "apply_unitary"),
    ("qcore", "born_probabilities"),
    ("noise", "apply_readout_error"),
    ("noise", "calibrate"),
    ("noise", "mitigate"),
)

#: work counts taken at span boundaries; the benchmark adds
#: sweep.points and sweep.bytes_written from the outputs it checks
COUNTS = (
    "noise.gates_applied",
    "circuits.gates_evaluated",
    "compiler.cx_out",
    "compiler.gates_out",
)


def _n_gates(args, _result):
    return {"gates": len(args[0].gates)}


def _compiled(_args, result):
    gates = result[0].gates
    return {"gates": len(gates), "cx": sum(g.name == "cx" for g in gates)}


#: span -> (how to count from the call's arguments and result, {count key: metric})
_COUNTERS = {
    "noise.evolve_noisy": (_n_gates, {"gates": "noise.gates_applied"}),
    "circuits.unitary_of_circuit": (_n_gates, {"gates": "circuits.gates_evaluated"}),
    "compiler.compile_generic": (
        _compiled, {"gates": "compiler.gates_out", "cx": "compiler.cx_out"}
    ),
}


class Tracer:
    def __init__(self):
        self.calls = {f"{m}.{f}": 0 for m, f in SPANS}
        self.self_s = {f"{m}.{f}": 0.0 for m, f in SPANS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        counter = _COUNTERS.get(key)
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[key] += dt - child
                calls[key] += 1
                if stack:
                    stack[-1] += dt
            if counter is not None:
                count, names = counter
                try:
                    for k, v in count(args, result).items():
                        self.counts[names[k]] += v
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        self.absent = []
        originals = {}
        for mod, fn in SPANS:
            key = f"{mod}.{fn}"
            try:
                obj = getattr(importlib.import_module(f"qfridge.{mod}"), fn)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            originals[id(obj)] = (obj, self._wrap(key, obj))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qfridge" or name.startswith("qfridge."))]
        for m in modules:
            for attr, val in list(vars(m).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(m, attr, hit[1])
                    self._patched.append((m, attr, val))

    def uninstall(self):
        for m, attr, val in reversed(self._patched):
            setattr(m, attr, val)
        self._patched.clear()
