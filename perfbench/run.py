"""qfridge benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload grid_exact --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): grid_exact, noise_scan, compile_roundtrip,
point_queries.  The script starts the workload in fresh worker processes
with BLAS and OpenMP limited to one thread, so that set-up time and peak
memory belong to that workload.  Set-up is measured in SETUP_PROBES extra
processes plus the measuring one and reported as the median.

setup_s and op_ms are at reference speed: wall time rescaled by a fixed
reference computation timed next to it (see worker.py), so that drift in
the machine's speed cancels.  The raw wall-clock figures are reported on
'# metric' lines as setup_wall_s and op_wall_ms.p50.

Output: report lines starting with '#' (metrics by name and unit, the
environment, failures, and with --trace 1 the share of each module and span
in the operation time), then one JSON line with the keys correct, attempted,
failed and metrics.  --trace 0 reports the END_TO_END metrics, --trace 1 the
per_layer_metrics(); both lists match BENCHMARK.json.

Exits non-zero without a result line when the qfridge sources are missing
or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import COUNTS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_exact", "noise_scan", "compile_roundtrip", "point_queries")
SETUP_PROBES = 8
#: a run must end within 180 s; leave room for set-up and checks
WORKER_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "op_ms.p50": "ms", "peak_rss_mb": "MB"}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def per_layer_metrics():
    """Names and units of the traced run's metrics."""
    names = {}
    for mod, fn in SPANS:
        names[f"{mod}.{fn}.calls"] = "count/op"
        names[f"{mod}.{fn}.self_ms"] = "ms/op"
    for key in (*COUNTS, "sweep.points", "sweep.bytes_written"):
        names[key] = "count/op"
    names["trace.op_ms"] = "ms/op"
    names["trace.overhead_ms"] = "ms/op"
    return names


def git_commit():
    """HEAD commit, or 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def start_worker(args, workdir, setup_only, deadline):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=workdir, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qfridge" / "__init__.py").is_file():
        print(f"perfbench: no qfridge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probes.append(start_worker(args, workdir, True, deadline))
        result = start_worker(args, workdir, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace:
        probes.append(result)
        setups = [p["setup_s"] for p in probes]
        metrics["setup_s"] = (statistics.median(setups), "s")
        result["extra"]["setup_wall_s"] = (
            statistics.median(p["setup_wall_s"] for p in probes), "s")
        wanted = END_TO_END
    else:
        wanted = per_layer_metrics()

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={git_commit()} python={platform.python_version()} "
          f"numpy={result['numpy']} nproc={os.cpu_count()}")
    if not args.trace:
        print(f"# setup_s samples (reference speed): {', '.join(f'{s:.4f}' for s in setups)}")
    for name, (value, unit) in {**metrics, **result["extra"]}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# metric {name} = {shown} {unit}")
    for note in result["notes"]:
        print(f"# {note}")
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
