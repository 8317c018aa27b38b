#!/usr/bin/env python3
"""Self-test of the benchmark's tracing, from the root of a checkout:

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Checks, per workload:
1. every step's report.json is byte-identical with and without tracing,
   and with and without the speed probe;
2. two traced passes with one seed give identical work counts and
   identical report.json bytes.
Then, once: after the tracer is installed, no orbfree namespace still
holds an unwrapped original of a function the benchmark wraps, and the
scan does find a binding that is put back on purpose.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402  (pins BLAS threads before numpy is imported)
import workloads  # noqa: E402
from run import WORK, spawn  # noqa: E402

# work counts that must repeat exactly for one seed
WORK_COUNTS = (
    ("calls", "gibbs.step"),
    ("counters", "gibbs.proposals"),
    ("calls", "gibbs.energy"),
    ("counters", "sdsolver.sd_iterations"),
    ("counters", "pressure.eta_objective_evals"),
    ("calls", "moments.canonical_word"),
)


def check_scan_detects_unwrapped() -> list[str]:
    """The namespace scan must report a binding that holds an original."""
    import orbfree.gibbs
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    problems = [f"unwrapped after install: {b}" for b in tracer.unwrapped_bindings()]
    wrapped = orbfree.gibbs.gue
    orbfree.gibbs.gue = tracer.originals["matrices.gue"]
    try:
        if "orbfree.gibbs.gue" not in tracer.unwrapped_bindings():
            problems.append("scan missed an unwrapped orbfree.gibbs.gue")
    finally:
        orbfree.gibbs.gue = wrapped
    return problems


def unprobed_hashes(workload: str, seed: int) -> dict[str, str]:
    """report.json hashes of the steps run in this process, without the
    speed probe's timer signal."""
    import hashlib

    cli = worker.load_orbfree()
    work = WORK / "selftest" / "unprobed"
    work.mkdir(parents=True, exist_ok=True)
    out = {}
    for step, step_seed in workloads.steps(workload, seed):
        spec = workloads.write_spec(step, step_seed, work)
        worker.run_step(cli, step, spec, work / step.name)
        out[step.name] = hashlib.sha256((work / step.name / "report.json").read_bytes()).hexdigest()
    return out


def check_workload(workload: str, seed: int) -> list[str]:
    base = ["--workload", workload, "--seed", str(seed)]
    plain = spawn(base + ["--trace", "0", "--work", str(WORK / "selftest" / "plain")], 170)
    unprobed = unprobed_hashes(workload, seed)
    traced = [spawn(base + ["--trace", "1", "--work", str(WORK / "selftest" / f"traced{k}")],
                    170) for k in range(2)]
    problems = []
    for p in (plain, *traced):
        problems += [f"{row['name']}: {row['error']}" for row in p["steps"] if not row["ok"]]
        problems += [f"unwrapped binding {b}" for b in p.get("unwrapped", [])]
    for row in plain["steps"]:
        if row.get("sha256") != unprobed[row["name"]]:
            problems.append(f"{row['name']}: report.json differs without the speed probe")
    for k, t in enumerate(traced):
        for a, b in zip(plain["steps"], t["steps"]):
            if a.get("sha256") != b.get("sha256"):
                problems.append(f"{a['name']}: report.json differs with tracing (pass {k})")
    first, second = (t["trace"] for t in traced)
    for table, name in WORK_COUNTS:
        x, y = first[table].get(name, 0), second[table].get(name, 0)
        if x != y:
            problems.append(f"{name}: {x} vs {y} in two traced passes with one seed")
    return [f"{workload}: {p}" for p in problems]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = []
    for workload in args.workload:
        problems += check_workload(workload, args.seed)
        print(f"{workload}: checked", flush=True)
    # last: installing the tracer wraps orbfree for the rest of this process
    problems += check_scan_detects_unwrapped()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
