"""One workload in a fresh process: set up, run the timed loop, check.

Started by run.py with BLAS/OpenMP threads pinned to 1 and the working
directory set to a scratch directory.  Prints one JSON object on its last
stdout line.  With --setup-only it stops where the first timed operation
would start and reports only the set-up time.

Machine speed.  On a shared VM the speed of one core can swing by 1.8x
within a minute, which hides any change of 25% or less in a wall time.
So each timed operation sits between two runs of a fixed reference
computation (`reference_unit`), and its time is also given at reference
speed: wall time / measured time of one unit * REF_UNIT_MS.  Drift in
machine speed cancels in that ratio; a change in qfridge does not.  Set-up
time is scaled the same way by a reference run right after set-up.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from typing import NamedTuple

import numpy as np


#: nominal time of one reference unit: about what it takes on one core of
#: a 2-vCPU Intel Xeon VM at that machine's full speed
REF_UNIT_MS = 1.0
#: reference units run right after set-up, to scale it
SETUP_REF_UNITS = 40


def reference_unit():
    """Fixed work in the mix qfridge does: small complex matrix products,
    float arithmetic and dict traffic in the interpreter."""
    a = np.eye(8, dtype=complex)
    b = np.full((8, 8), 0.1 + 0.2j)
    acc, d = 0.0, {}
    for i in range(200):
        a = (a @ b) / np.abs(a).max()
        d[i & 7] = acc * 0.5 + i
        acc += d[i & 7] * 1e-9
    return acc


def unit_seconds(units):
    """Wall time of one reference unit, averaged over `units` runs."""
    t0 = time.perf_counter()
    for _ in range(units):
        reference_unit()
    return (time.perf_counter() - t0) / units


def setup_unit_seconds():
    """Reference unit time for scaling set-up: median of single units."""
    return statistics.median(unit_seconds(1) for _ in range(SETUP_REF_UNITS))


class Record(NamedTuple):
    """One timed operation: which input it ran, how long it took, the
    reference unit's time around it, and the error it raised, if any.  Its
    output waits on disk, under its index in the list of records, for the
    check."""

    run: int  # blocks run so far in this process
    block: int  # which input block, for drawing the inputs again
    pos: int
    seconds: float
    unit_s: float  # mean of the reference unit's time before and after
    failure: str | None

    @property
    def ref_ms(self):
        """The operation's time at reference speed, in ms."""
        return self.seconds / self.unit_s * REF_UNIT_MS


def run_block(wl, specs, block, records):
    """Run one block of operations, appending a Record for each."""
    run = records[-1].run + 1 if records else 0
    before = unit_seconds(wl.ref_units)
    for pos, spec in enumerate(specs):
        index = len(records)
        prepared = wl.prepare(spec, index)
        failure = None
        t0 = time.perf_counter()
        try:
            out = wl.execute(prepared)
        except Exception as err:  # noqa: BLE001 - a failed op is counted, not fatal
            failure = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        after = unit_seconds(wl.ref_units)
        if failure is None:
            wl.save(out, index)
        records.append(Record(run, block, pos, seconds, (before + after) / 2, failure))
        before = after


def run_blocks(wl, rng_for, seconds, first_block):
    """Run whole blocks of fresh inputs until `seconds` have passed."""
    records = []
    deadline = time.perf_counter() + seconds
    block, specs = 0, first_block
    while True:
        run_block(wl, specs, block, records)
        block += 1
        if time.perf_counter() >= deadline:
            return records
        specs = wl.inputs(rng_for(block))


def run_traced(wl, seconds, first_block, tracer):
    """Repeat the first block, alternately untraced and traced, until
    `seconds` have passed; both sides see the same inputs and machine state.
    Returns all records and the set of traced runs."""
    records, traced_runs = [], set()
    deadline = time.perf_counter() + seconds
    while True:
        run_block(wl, first_block, 0, records)
        tracer.install()
        try:
            run_block(wl, first_block, 0, records)
        finally:
            tracer.uninstall()
        traced_runs.add(records[-1].run)
        if time.perf_counter() >= deadline:
            return records, traced_runs


def check_records(wl, records, rng_for):
    """Per-record (errors, stats), with block-level checks folded in.  The
    inputs are drawn again from the seed rather than kept in memory."""
    results = []
    specs, block = None, None
    for index, r in enumerate(records):
        if r.block != block:
            specs, block = wl.inputs(rng_for(r.block)), r.block
        if r.failure is not None:
            results.append(([r.failure], {}))
            continue
        try:
            results.append(wl.check(specs[r.pos], index))
        except Exception as err:  # noqa: BLE001 - a malformed output is a failure
            results.append(([f"check raised {type(err).__name__}: {err}"], {}))
    start = 0
    for _, group in itertools.groupby(records, key=lambda r: r.run):
        end = start + len(list(group))
        for i in wl.check_block([stats for _, stats in results[start:end]]):
            results[start + i][0].append("R cells rose with p2 within the block")
        start = end
    return results


def summarize(results):
    failures = [(i, errs) for i, (errs, _) in enumerate(results) if errs]
    notes = [f"failure op {i}: {'; '.join(errs[:3])}" for i, errs in failures[:5]]
    return len(results), len(failures), notes


def end_to_end(wl_name, records, results, peak_rss_mb):
    """Gated metrics and report-only extras.  Times are at reference speed
    (Record.ref_ms); the raw wall-clock median is reported beside them."""
    op_ms = sorted(r.ref_ms for r in records)
    n = len(op_ms)
    metrics = {
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "op_wall_ms.p50": (statistics.median(1e3 * r.seconds for r in records), "ms"),
        "ref_unit_ms.p50": (statistics.median(1e3 * r.unit_s for r in records), "ms"),
    }
    beyond_p99 = n - math.ceil(0.99 * n)
    if wl_name == "point_queries":
        if beyond_p99 >= 10:
            p99 = statistics.quantiles(op_ms, n=100, method="inclusive")[98]
            extra["op_ms.p99"] = (p99, "ms")
        else:
            extra["op_ms.p99"] = (None, f"ms (only {beyond_p99} samples beyond p99)")
        for engine in ("exact", "vstar", "mitigated"):
            ms = [1e3 * s["engine_s"][engine] for _, s in results if "engine_s" in s]
            extra[f"call_wall_ms.p50.{engine}"] = (statistics.median(ms) if ms else None, "ms")
    if wl_name in ("grid_exact", "noise_scan"):
        points = sum(s.get("points", 0) for _, s in results)
        extra["points_per_s"] = (1e3 * points / sum(op_ms), "1/s")
    if wl_name == "compile_roundtrip":
        cx = [s["cx"] for _, s in results if "cx" in s]
        depth = [s["depth"] for _, s in results if "depth" in s]
        extra["compiled_cx"] = (statistics.fmean(cx) if cx else None, "count")
        extra["compiled_depth"] = (statistics.fmean(depth) if depth else None, "count")
    notes = [f"op_ms: n={n}, {beyond_p99} samples beyond p99; op_ms and points_per_s "
             f"are at reference speed (REF_UNIT_MS = {REF_UNIT_MS:g} ms per unit)"]
    return metrics, extra, notes


def per_layer(tracer, records, results, traced_runs):
    traced = [i for i, r in enumerate(records) if r.run in traced_runs]
    untraced = [i for i, r in enumerate(records) if r.run not in traced_runs]
    ops = len(traced)
    metrics = {}
    for key in tracer.calls:
        metrics[f"{key}.calls"] = (tracer.calls[key] / ops, "count/op")
        metrics[f"{key}.self_ms"] = (1e3 * tracer.self_s[key] / ops, "ms/op")
    for key, value in tracer.counts.items():
        metrics[key] = (value / ops, "count/op")
    for key in ("points", "bytes_written"):
        total = sum(results[i][1].get(key, 0) for i in traced)
        metrics[f"sweep.{key}"] = (total / ops, "count/op")
    traced_ms = 1e3 * sum(records[i].seconds for i in traced) / ops
    untraced_ms = 1e3 * sum(records[i].seconds for i in untraced) / len(untraced)
    metrics["trace.op_ms"] = (traced_ms, "ms/op")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms/op")

    notes = [f"traced {ops} ops, {len(untraced)} untraced on the same inputs; "
             f"mean op {traced_ms:.3f} ms traced, {untraced_ms:.3f} ms untraced, "
             f"overhead {traced_ms - untraced_ms:.3f} ms/op"]
    by_module = {}
    for key, s in tracer.self_s.items():
        by_module[key.split(".")[0]] = by_module.get(key.split(".")[0], 0.0) + s
    outside = traced_ms * ops - 1e3 * sum(by_module.values())
    for mod, s in sorted(by_module.items(), key=lambda kv: -kv[1]):
        if s > 0:
            ms = 1e3 * s / ops
            notes.append(f"share module {mod}: {ms:.3f} of {traced_ms:.3f} ms/op "
                         f"({100 * ms / traced_ms:.1f}%)")
    notes.append(f"share outside spans: {outside / ops:.3f} of {traced_ms:.3f} ms/op "
                 f"({100 * outside / ops / traced_ms:.1f}%)")
    for key, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        if s > 0:
            ms = 1e3 * s / ops
            notes.append(f"share span {key}: self {ms:.3f} of {traced_ms:.3f} ms/op "
                         f"({100 * ms / traced_ms:.1f}%), "
                         f"{tracer.calls[key] / ops:g} calls/op")
    if tracer.absent:
        notes.append(f"absent spans (reported as 0): {', '.join(tracer.absent)}")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload]()

    def rng_for(block):
        return np.random.default_rng([args.seed, block])

    first_block = wl.inputs(rng_for(0))
    setup_wall_s = time.monotonic() - args.t0
    unit_s = setup_unit_seconds()
    result = {"setup_s": setup_wall_s / (1e3 * unit_s) * REF_UNIT_MS,
              "setup_wall_s": setup_wall_s, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        records, traced_runs = run_traced(wl, args.seconds, first_block, tracer)
        results = check_records(wl, records, rng_for)
        metrics, notes = per_layer(tracer, records, results, traced_runs)
        extra = {}
    else:
        records = run_blocks(wl, rng_for, args.seconds, first_block)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results = check_records(wl, records, rng_for)
        metrics, extra, notes = end_to_end(args.workload, records, results, peak_rss_mb)
    attempted, failed, fail_notes = summarize(results)
    extra["fail_ratio"] = (failed / attempted, "ratio")
    result.update(attempted=attempted, failed=failed, metrics=metrics, extra=extra,
                  notes=notes + fail_notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
