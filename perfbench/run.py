#!/usr/bin/env python3
"""orbfree benchmark: runs one workload and prints its metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh worker process with BLAS pinned
to one thread, one step at a time (a closed loop with one client).  With
--trace 0 the run repeats passes until S seconds of steps are measured
(two passes at least, when they fit, so report hashes can be compared
across passes) and reports end-to-end medians.  With --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics of the
traced pass.  Times at reference speed are wall times scaled by the
machine speed the worker's probe measured during them (see
worker.SpeedProbe).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment and the
per-pass details.  Exits 2 without a result when the checkout holds no
orbfree sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3  # setup-only processes per untraced run, besides the passes
MIN_PASSES = 2
# no pass is started that would end later than this after the run began,
# so that a full set of runs fits its time budget even on a slow machine
PASS_CAP_S = 44.0
HARD_CAP_S = 170.0  # workers still running at this point are killed


class RunFailed(Exception):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), *args, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise RunFailed(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    # numpy is imported here only to read its build configuration
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def score(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): a step fails on a non-zero exit, an
    exception, a failed oracle check, or a report.json that differs from
    the first pass's (same seed, so the bytes must repeat)."""
    attempted = failed = 0
    reasons = []
    first = {row["name"]: row.get("sha256") for row in passes[0]["steps"]}
    for k, p in enumerate(passes):
        for row in p["steps"]:
            attempted += 1
            why = row.get("error")
            if why is None and row["sha256"] != first[row["name"]]:
                why = "report.json differs from the first pass with the same seed"
            if why is not None:
                failed += 1
                reasons.append(f"pass {k} {row['name']}: {why}")
    return attempted, failed, reasons


def step_details(passes: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for p in passes:
        for row in p["steps"]:
            out.setdefault(row["name"], []).append(
                {"seconds": row["seconds"], "speed": row["speed"]})
    return out


def pass_wall(p: dict) -> float:
    return sum(row["seconds"] for row in p["steps"])


def pass_ref_wall(p: dict) -> float:
    """Total step time at the probe's reference machine speed."""
    return sum(row["seconds"] * row["speed"] for row in p["steps"])


def run_untraced(workload: str, seed: int, seconds: float, started: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed), "--trace", "0"]
    setups = []
    for k in range(SETUP_PROBES):
        probe = spawn(base + ["--work", str(WORK / workload / f"probe{k}"), "--setup-only"],
                      deadline - time.monotonic())
        setups.append(probe["setup_s"] * probe["setup_speed"])
    passes = []
    measured = 0.0
    while True:
        t0 = time.monotonic()
        passes.append(spawn(base + ["--work", str(WORK / workload / f"pass{len(passes)}")],
                            deadline - t0))
        last = time.monotonic() - t0
        measured += pass_wall(passes[-1])
        wanted = len(passes) < MIN_PASSES or measured + pass_wall(passes[-1]) <= seconds
        if not wanted or time.monotonic() + last > started + PASS_CAP_S:
            break
    setups += [p["setup_s"] * p["setup_speed"] for p in passes]
    metrics = {
        "wall_ref_s": statistics.median(pass_ref_wall(p) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics


def layer_metric(name: str, trace: dict, untraced: dict, traced: dict) -> float:
    calls, secs = trace["calls"], trace["seconds"]
    counters = trace["counters"]
    if name == "trace.overhead_s":
        return pass_ref_wall(traced) - pass_ref_wall(untraced)
    if name.startswith("step.") and name.endswith("_s"):
        times = {row["name"]: row["seconds"] * row["speed"] for row in untraced["steps"]}
        return times.get(name[len("step."):-len("_s")], 0.0)
    if name == "gibbs.acceptance":
        return counters.get("gibbs.accepted", 0) / max(1, counters.get("gibbs.proposals", 0))
    if name == "gibbs.energy_per_proposal":
        return calls.get("gibbs.energy", 0) / max(1, counters.get("gibbs.proposals", 0))
    if name in ("gibbs.proposals", "pressure.eta_objective_evals", "sdsolver.sd_iterations"):
        return counters.get(name, 0)
    if name.endswith(".self_s"):
        return trace["self_seconds"].get(name[: -len(".self_s")], 0.0)
    qual, _, kind = name.rpartition(".")
    if qual not in trace["wrapped"]:
        raise RunFailed(f"per-layer metric {name} names no wrapped function")
    return calls.get(qual, 0) if kind == "calls" else secs.get(qual, 0.0)


def run_traced(workload: str, seed: int, deadline: float, names: list[str]):
    base = ["--workload", workload, "--seed", str(seed)]
    untraced = spawn(base + ["--trace", "0", "--work", str(WORK / workload / "untraced")],
                     deadline - time.monotonic())
    traced = spawn(base + ["--trace", "1", "--work", str(WORK / workload / "traced")],
                   deadline - time.monotonic())
    if traced["unwrapped"]:
        raise RunFailed(f"unwrapped bindings remain: {traced['unwrapped']}")
    metrics = {n: layer_metric(n, traced["trace"], untraced, traced) for n in names}
    return [untraced, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not (ROOT / "src" / "orbfree" / "cli.py").is_file():
        print(f"no orbfree sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[group]}

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    deadline = start + HARD_CAP_S
    try:
        if args.trace:
            passes, metrics = run_traced(args.workload, args.seed, deadline, list(units))
        else:
            passes, metrics = run_untraced(args.workload, args.seed, args.seconds, start,
                                           deadline)
    except RunFailed as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    attempted, failed, reasons = score(passes)

    print(json.dumps({
        "environment": environment(args.seed),
        "passes": len(passes),
        "setup": [{"seconds": p["setup_s"], "speed": p["setup_speed"]} for p in passes],
        "steps": step_details(passes),
        "failures": reasons,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
