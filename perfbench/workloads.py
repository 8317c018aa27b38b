"""Workload definitions: each workload is a fixed sequence of named steps.

A step is one ``orbfree`` CLI command on a spec generated from the
workload seed, except ``chi``, which calls ``orbfree.moments.chi_single``
directly because no CLI command computes the free entropy of a named
measure.  Every step carries an oracle check that the benchmark computes
itself wherever a closed form or exact identity exists.

This module imports nothing from orbfree at import time, so the worker
can pin BLAS threads before numpy is loaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SEMI = ["semicircle:2", "semicircle:2"]
R = 2.0

# h = (t/2)(x1 x2 + x2 x1) in the N=2 thermodynamic-integration step, so
# N^2 tr_N h = 4 t tr_N(x1 x2)
TDI_T = 0.3
TDI_H = f"{TDI_T / 2}*x[1,1]*x[2,1] + {TDI_T / 2}*x[2,1]*x[1,1]"
# the quantile microstate of atomic:0.5@-1,0.5@1 at N=2 is diag(-1, 1)
TDI_FAMILY = "atomic:0.5@-1,0.5@1"
TDI_DIAG = (-1.0, 1.0)

SWEEP_COEF = 0.2
SWEEP_H = f"{SWEEP_COEF}*x[1,1]*x[2,1] + {SWEEP_COEF}*x[2,1]*x[1,1]"
SD_H = "0.005*x[1,1]*x[2,1] + 0.005*x[2,1]*x[1,1]"
RELATION_H = "0.1*x[1,1]^2 + 0.2*x[2,1]^2 + 0.075*(x[1,1]*x[2,1] + x[2,1]*x[1,1])"
SUITE_H = "0.15*x[1,1]*x[2,1] + 0.15*x[2,1]*x[1,1] + 0.2*x[1,1]^2"
SUITE_H2 = "-0.1*x[1,1]*x[2,1] - 0.1*x[2,1]*x[1,1] + 0.1*x[2,1]^2 + 0.3*x[1,1]"

CHI_CONST = 0.75 + 0.5 * math.log(2.0 * math.pi)
# closed-form single-variable free entropies of the measures the chi step uses
CHI_CASES = [
    (("semicircle", 2.0), math.log(2.0 / 2.0) - 0.25 + CHI_CONST),
    (("arcsine", -1.0, 1.0), math.log((1.0 - (-1.0)) / 4.0) + CHI_CONST),
]


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Step:
    name: str
    command: str  # orbfree CLI command, or "chi" for the library call
    spec: dict  # generated spec (seed filled in per workload seed)
    check: Callable[[dict, dict], None]  # (report, reports of earlier steps)


# ---------------------------------------------------------------------------
# oracle checks; each raises CheckFailed with the reason


def check_tdi(report, _earlier):
    from scipy.integrate import quad

    a1, a2 = TDI_DIAG
    # tr_N(A V B V*) at N=2 depends only on s = |V11|^2, uniform under Haar
    def tr_prod(s):
        return 0.5 * (s * (a1 * a1 + a2 * a2) + (1 - s) * (a1 * a2 + a2 * a1))

    val, _ = quad(lambda s: math.exp(-4 * TDI_T * tr_prod(s)), 0.0, 1.0)
    oracle = math.log(val)
    (row,) = report["per_N"]
    z = (row["logZ"] - oracle) / row["stderr"]
    require(abs(z) <= 4.0, f"logZ {row['logZ']:.6f} vs quadrature {oracle:.6f}: z = {z:.2f}")


def check_relation(report, _earlier):
    for row in report["per_N"]:
        require(row["margin"] >= -3.0 * row["stderr"],
                f"significant relation violation at N={row['N']}")
    require(not report["any_significant_violation"], "report flags a significant violation")


def check_eta(report, _earlier):
    require(not report["diverged"], "eta diverged on a marginal-consistent target")
    require(-0.05 <= report["value"] <= 0.0, f"eta value {report['value']} outside [-0.05, 0]")


def check_pressure_sweep(report, _earlier):
    # |pi_hat(h)| <= sum |coef| R^deg; the Kish ESS at N >= 32 is about 1-2,
    # so no tighter check of the value itself is honest here
    bound = 2 * SWEEP_COEF * R**2
    for v in report["normalized"]:
        require(abs(v) <= bound + 1e-9, f"normalized pressure {v} exceeds norm bound {bound}")


def check_suite(report, _earlier):
    require(report["max_violation"] <= 1e-9,
            f"property suite max violation {report['max_violation']:.3e}")


def check_sd(report, _earlier):
    require(report["converged"], "SD iteration did not converge")
    require(report["residual"] <= 1e-10, f"SD residual {report['residual']:.3e}")


def check_liberation(report, _earlier):
    require(report["pass"], f"liberation deviation {report['max_deviation']:.3e}")


def _table_values(table: dict) -> dict:
    return {k: complex(*v) for k, v in table.items() if k != "metadata"}


def mixed_word_zscores(report, sd_report) -> dict:
    """|Gibbs mean - SD pushforward| / stderr over words mixing both families."""
    pf = _table_values(sd_report["pushforward"])
    mean = _table_values(report["mean_state"])
    out = {}
    for word, v in mean.items():
        if "x[1," in word and "x[2," in word:
            se = report["stderr"][word]
            out[word] = abs(v - pf[word]) / se
    return out


def check_gibbs(report, earlier):
    sd_report = earlier.get("sd")
    require(sd_report is not None, "no sd report to compare against")
    z = mixed_word_zscores(report, sd_report)
    require(len(z) > 0, "no mixed words in the Gibbs mean state")
    worst = max(z, key=z.get)
    require(z[worst] <= 4.0, f"mixed word {worst}: |gibbs - sd| = {z[worst]:.2f} stderr")


def check_freeness(report, _earlier):
    N = report["N"]
    mean = sum(report["distances"]) / len(report["distances"])
    require(mean <= 10.0 / N, f"mean distance {mean:.4f} > 10/N = {10.0 / N:.4f}")


def check_chi(report, _earlier):
    for (label, got), (_, want) in zip(report["cases"], CHI_CASES):
        require(abs(got - want) <= 1e-5, f"chi({label}) = {got} vs closed form {want}")


# ---------------------------------------------------------------------------
# workloads


def _steps(workload: str) -> list[Step]:
    if workload == "thermo-int":
        return [
            Step("tdi-n2", "pressure", {
                "h": TDI_H, "families": [TDI_FAMILY, TDI_FAMILY], "Ns": [2],
                "gibbs": {"method": "thermodynamic", "sweeps": 2000, "burn_in": 400,
                          "thinning": 2},
            }, check_tdi),
            Step("relation-check", "relation-check", {
                "h": RELATION_H, "families": SEMI, "Ns": [8, 12],
                "gibbs": {"sweeps": 500, "burn_in": 120, "samples": 150},
            }, check_relation),
        ]
    if workload == "shared-samples":
        return [
            Step("eta-n32", "eta", {
                "families": SEMI, "Ns": [32], "basis_degree": 3,
                "gibbs": {"samples": 150, "budget": 100},
            }, check_eta),
            Step("pressure-sweep", "pressure", {
                "h": SWEEP_H, "families": SEMI, "Ns": [8, 16, 32, 64],
                "gibbs": {"samples": 600},
            }, check_pressure_sweep),
            Step("property-suite", "property-suite", {
                "h": SUITE_H, "h2": SUITE_H2, "families": SEMI, "Ns": [2, 8],
                "gibbs": {"samples": 256},
            }, check_suite),
        ]
    if workload == "free-oracles":
        return [
            Step("sd", "sd", {
                "h": SD_H, "families": SEMI, "sd": {"D": 8}, "m": 4,
            }, check_sd),
            Step("liberation", "liberation", {
                "h": SD_H, "families": SEMI, "sd": {"D": 8}, "m": 3,
            }, check_liberation),
            Step("gibbs-n64", "gibbs", {
                "h": SD_H, "families": SEMI, "Ns": [64], "m": 4,
                "gibbs": {"kind": "unitary-orbital", "sweeps": 1000, "burn_in": 250,
                          "thinning": 5},
            }, check_gibbs),
            Step("freeness-n100", "freeness", {
                "families": ["bernoulli:1", "semicircle:2"], "Ns": [100], "m": 4,
                "conjugations": 150,
            }, check_freeness),
            Step("chi", "chi", {"cases": [list(c[0]) for c in CHI_CASES]}, check_chi),
        ]
    raise KeyError(workload)


WORKLOADS = ("thermo-int", "shared-samples", "free-oracles")


def steps(workload: str, seed: int) -> list[tuple[Step, int]]:
    """The workload's steps with each step's CLI seed derived from the
    workload seed, so one seed always gives the same inputs."""
    return [(s, seed * 100 + k) for k, s in enumerate(_steps(workload))]


def write_spec(step: Step, step_seed: int, directory: Path) -> Path:
    path = directory / f"{step.name}.spec.json"
    path.write_text(json.dumps(dict(step.spec, seed=step_seed), sort_keys=True, indent=1))
    return path


def run_chi(spec: dict, out: Path) -> int:
    """Library step: chi_single on each named measure; writes report.json
    in the same canonical form as the CLI."""
    from orbfree import moments
    from orbfree.matrices import SpectralMeasure

    cases = []
    for kind, *args in spec["cases"]:
        mu = getattr(SpectralMeasure, kind)(*args)
        cases.append([f"{kind}:{','.join(map(str, args))}", moments.chi_single(mu)])
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps({"cases": cases}, sort_keys=True, indent=2) + "\n")
    return 0
