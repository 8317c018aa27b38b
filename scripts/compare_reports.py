#!/usr/bin/env python3
"""Check that a checkout writes byte-identical outputs to a reference commit.

Usage, from the root of a checkout:
    python3 scripts/compare_reports.py REF [--seeds 3 7 11] [--workloads W ...]

REF is any git revision.  Its tree is exported with ``git archive`` into a
temporary directory.  In that tree and in this checkout, every benchmark
workload runs once per seed through ``perfbench/worker.py --trace 0``, and
every file that a step writes to its output directory is compared byte for
byte.  Prints one line per differing or missing file and exits 1 if there
is any, 0 if there is none.  The temporary directory is removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def export(ref: str, dest: Path) -> None:
    blob = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def run_workload(tree: Path, workload: str, seed: int, work: Path) -> dict:
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--work", str(work),
           "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def step_files(work: Path) -> dict[str, bytes]:
    """Every file of every step's output directory, keyed by relative path."""
    return {str(f.relative_to(work)): f.read_bytes()
            for d in sorted(work.iterdir()) if d.is_dir()
            for f in sorted(d.rglob("*")) if f.is_file()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("ref", help="git revision to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11])
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args()

    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        export(args.ref, ref_tree)
        for workload in args.workloads:
            for seed in args.seeds:
                sides = []
                for label, tree in (("ref", ref_tree), ("here", ROOT)):
                    work = tmp / f"{label}-{workload}-{seed}"
                    result = run_workload(tree, workload, seed, work)
                    failed = [row["name"] for row in result["steps"] if not row["ok"]]
                    if failed:
                        print(f"note: {label} {workload} seed {seed}: "
                              f"failed steps {', '.join(failed)}")
                    sides.append(step_files(work))
                ref, here = sides
                for name in sorted(ref.keys() | here.keys()):
                    if name not in here:
                        why = "missing here"
                    elif name not in ref:
                        why = "missing at the reference"
                    elif ref[name] != here[name]:
                        why = "differs"
                    else:
                        continue
                    differing += 1
                    print(f"{workload} seed {seed}: {name} {why}")
                print(f"{workload} seed {seed}: {len(ref | here)} files compared",
                      file=sys.stderr)
    print(f"{differing} differing file(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
