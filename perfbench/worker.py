"""One pass of one workload in a fresh process.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --work DIR --spawned T [--setup-only]

BLAS threads are pinned to one before numpy is imported.  ``--spawned`` is
the CLOCK_MONOTONIC time at which the parent started this process, so
setup time covers interpreter start, imports and spec generation.  Prints
one JSON object on its last stdout line.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def load_orbfree():
    import orbfree.cli

    where = Path(orbfree.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"orbfree imported from {where}, not from this checkout")
    return orbfree.cli


class SpeedProbe:
    """Measures how fast the machine runs while a step runs.

    The host is shared, and its speed drifts by up to 1.5x within minutes,
    so raw step times of one commit spread more than a useful bound.  At
    each step boundary, and every INTERVAL_S during the step on a timer
    signal, the probe times a fixed mix of the program's two kinds of work:
    word manipulation on tuples and dicts, and small complex BLAS calls.
    The step's speed is the mean of REF_S / duration, 1.0 on a machine
    where the mix takes REF_S.  The mix touches no state of the program, so
    reports are byte-identical with or without it; the time spent in it
    during a step is taken out of the step's time.
    """

    INTERVAL_S = 0.2
    REF_S = 0.002

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.words = [tuple(int(x) for x in rng.integers(0, 3, 6)) for _ in range(400)]
        c = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.matrix = c
        self.hermitian = c + c.conj().T
        self.eigh = np.linalg.eigh
        self.samples = []
        self.busy_s = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        seen = {}
        for w in self.words:
            for k in range(len(w)):
                rot = w[k:] + w[:k]
                key = min(rot, rot[::-1])
                seen[key] = seen.get(key, 0) + 1
            sorted(w)
        c = self.matrix
        for _ in range(6):
            c @ c
        self.eigh(self.hermitian)
        d = time.perf_counter() - t0
        self.samples.append(d)
        self.busy_s += d

    def __enter__(self):
        self.samples = []
        self.sample()
        self.busy_s = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def speed(self) -> float:
        return sum(self.REF_S / s for s in self.samples) / len(self.samples)


def run_step(cli, step, spec_path: Path, out: Path) -> int:
    if step.command == "chi":
        return workloads.run_chi(json.loads(spec_path.read_text()), out)
    # the CLI reports progress on stdout, which carries this worker's result
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([step.command, "--spec", str(spec_path), "--out", str(out),
                         "--threads", "1"])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli = load_orbfree()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    plan = [(step, workloads.write_spec(step, s, work), work / step.name)
            for step, s in workloads.steps(args.workload, args.seed)]
    setup_s = time.monotonic() - args.spawned
    probe = SpeedProbe()
    for _ in range(10):
        probe.sample()
    result = {"setup_s": setup_s, "setup_speed": probe.speed(), "steps": []}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["unwrapped"] = tracer.unwrapped_bindings()

    earlier = {}
    for step, spec_path, out in plan:
        if tracer is not None:
            tracer.trace_id = step.name
        row = {"name": step.name, "ok": False}
        t0 = time.perf_counter()
        try:
            with probe:
                t0 = time.perf_counter()
                code = run_step(cli, step, spec_path, out)
                row["seconds"] = time.perf_counter() - t0 - probe.busy_s
            row["speed"] = probe.speed()
            workloads.require(code == 0, f"exit code {code}")
            blob = (out / "report.json").read_bytes()
            row["sha256"] = hashlib.sha256(blob).hexdigest()
            report = json.loads(blob)
            earlier[step.name] = report
            step.check(report, earlier)
            row["ok"] = True
        except workloads.CheckFailed as err:
            row["error"] = str(err)
        except Exception:  # a step that raises is a failed step, not a failed run
            row.setdefault("seconds", time.perf_counter() - t0)
            row.setdefault("speed", probe.speed())
            row["error"] = traceback.format_exc(limit=3)
        result["steps"].append(row)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write_spans(work / "spans.jsonl")
        result["trace"] = {
            "calls": dict(tracer.calls),
            "seconds": dict(tracer.seconds),
            "self_seconds": dict(tracer.self_seconds),
            "counters": dict(tracer.counters),
            "spans": len(tracer.spans),
            "wrapped": sorted(tracer.originals),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
