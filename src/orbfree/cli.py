"""Experiment runner: parse a JSON spec, dispatch to the estimator
modules, and emit machine-readable reports (JSON + CSV traces + manifest
with a config hash) reproducibly per seed."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import gibbs as gibbs_mod
from . import pressure as pressure_mod
from . import sdsolver as sd_mod
from .matrices import MatrixTuple, SpectralMeasure, quantile_microstate
from .moments import (
    MomentTable,
    empirical_state,
    free_product,
    moment_distance,
    table_from_measure,
)
from .poly import FamilyLayout, NCPoly, ParseError, _format_word, format_poly, parse

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

TOLERANCES = {
    "exact": 1e-12,
    "structural": 1e-9,
    "sd_residual": 1e-10,
}


class ValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# spec handling


def config_hash(spec: dict, seed: int) -> str:
    blob = json.dumps({"spec": spec, "seed": seed}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _load_family(entry, base: Path):
    """A family is a measure spec string or a path to a matrix JSON file."""
    if isinstance(entry, str) and ":" in entry:
        try:
            return SpectralMeasure.from_string(entry)
        except ValueError as err:
            raise ValidationError(str(err)) from None
    path = base / entry if isinstance(entry, str) else None
    if path is None or not path.is_file():
        raise ValidationError(f"family entry {entry!r} is neither a measure spec nor a file")
    try:
        return json.loads(path.read_text())
    except ValueError as err:
        raise ValidationError(f"family file {entry!r} is not valid JSON: {err}") from None


def _family_matrix(k: int, entry, data, layout: FamilyLayout) -> np.ndarray:
    """The Hermitian matrix that the matrix file ``entry`` gives family k."""
    try:
        tup = MatrixTuple.from_json(data, layout)
    except KeyError as err:
        raise ValidationError(f"family file {entry!r} has no key {err}") from None
    except (TypeError, ValueError) as err:
        raise ValidationError(f"family file {entry!r} rejected: {err}") from None
    if (k, 1) not in tup.sa:
        raise ValidationError(f"family file {entry!r} has no matrix for family {k}")
    return tup.sa[(k, 1)]


def build_layout(spec: dict) -> FamilyLayout:
    families = spec["families"]
    return FamilyLayout(n=len(families), r=tuple(1 for _ in families),
                        R=float(spec.get("R", 2.0)))


def load_spec(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"spec file {path} does not exist")
    try:
        spec = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ValidationError(f"spec file is not valid JSON: {err}") from None
    if not isinstance(spec, dict):
        raise ValidationError(f"spec must be a JSON object, not {type(spec).__name__}")
    return spec


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_INT = (_is_int, "an integer")
_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_NUMBER = (_is_number, "a number")
_POSITIVE_NUMBER = (lambda v: _is_number(v) and v > 0, "a positive number")
_STRING = (lambda v: isinstance(v, str), "a string")

# (test, description) per spec key; keys absent from a spec take defaults
SPEC_VALUES = {
    "Ns": (lambda v: isinstance(v, list) and v and all(_is_int(N) and N >= 1 for N in v),
           "a non-empty list of positive integers"),
    "seed": _INT,
    "R": _POSITIVE_NUMBER,
    "m": _POSITIVE_INT,
    "h": _STRING,
    "h2": _STRING,
    "basis_degree": _POSITIVE_INT,
    "conjugations": _POSITIVE_INT,
}
# the "gibbs" and "sd" objects are closed: an unknown key is an error
GIBBS_VALUES = {
    "kind": (lambda v: v in ("unitary-orbital", "matrix"), "'unitary-orbital' or 'matrix'"),
    "method": (lambda v: v in ("sample", "thermodynamic", "direct"),
               "'sample', 'thermodynamic' or 'direct'"),
    "samples": _POSITIVE_INT,
    "budget": _POSITIVE_INT,
    "beta": _NUMBER,
    "eps": _POSITIVE_NUMBER,
    "sweeps": _INT,
    "burn_in": _INT,
    "thinning": _POSITIVE_INT,
}
SD_VALUES = {
    "D": _POSITIVE_INT,
    "damping": _NUMBER,
    "max_iter": _POSITIVE_INT,
    "tol": _POSITIVE_NUMBER,
    "picard": (lambda v: isinstance(v, bool), "true or false"),
}


def _check_values(values: dict, rules: dict, where: str, closed: bool) -> None:
    for key, value in values.items():
        if key not in rules:
            if closed:
                raise ValidationError(f"unknown key {key!r} in {where}")
            continue
        test, wanted = rules[key]
        if not test(value):
            raise ValidationError(f"{key!r} in {where} must be {wanted}, got {value!r}")


def _check_spec(spec: dict, command: str) -> None:
    """Every value the commands read has the right type and range, matrix
    dimensions are positive integers, and every Gibbs chain the command
    runs has sweeps > burn_in >= 0 once defaults are filled in."""
    families = spec.get("families")
    if not isinstance(families, list) or not families:
        raise ValidationError(f"'families' must be a non-empty list, got {families!r}")
    _check_values(spec, SPEC_VALUES, "the spec", closed=False)
    for section, rules in (("gibbs", GIBBS_VALUES), ("sd", SD_VALUES)):
        g = spec.get(section, {})
        if not isinstance(g, dict):
            raise ValidationError(f"{section!r} must be a JSON object")
        _check_values(g, rules, repr(section), closed=True)
    g = spec.get("gibbs", {})
    runs_chains = command in ("gibbs", "relation-check") or (
        command == "pressure" and g.get("method", "sample") != "sample"
    )
    if not runs_chains:
        return
    if command == "relation-check":
        defaults = pressure_mod.RELATION_CHAIN_DEFAULTS
    else:
        defaults = {"sweeps": gibbs_mod.GibbsConfig.sweeps,
                    "burn_in": gibbs_mod.GibbsConfig.burn_in}
    sweeps = g.get("sweeps", defaults["sweeps"])
    burn_in = g.get("burn_in", defaults["burn_in"])
    if not sweeps > burn_in >= 0:
        raise ValidationError(
            f"gibbs needs integers sweeps > burn_in >= 0, got sweeps={sweeps!r}, "
            f"burn_in={burn_in!r}"
        )


def parse_h(spec: dict, layout: FamilyLayout, key: str = "h") -> NCPoly:
    text = spec.get(key, "0*x[1,1]")
    try:
        return parse(text, layout)
    except ParseError as err:
        raise ValidationError(f"polynomial {key!r} rejected at position {err.position}: {err}")
    except ValueError as err:
        raise ValidationError(f"polynomial {key!r} rejected: {err}")


def verify_spec(spec: dict, base: Path, command: str) -> dict:
    """Dry-run validation: grammar, layout bounds, self-adjointness,
    marginal realizability, matrix files, value types, dimensions, chain
    lengths and the SD truncation degree.  No computation."""
    _check_spec(spec, command)
    layout = build_layout(spec)
    report = {"layout": {"n": layout.n, "r": list(layout.r), "R": layout.R}, "checks": []}
    h = parse_h(spec, layout)
    if not h.is_selfadjoint():
        adj = h.adjoint()
        # h = h* fails at some word of h whose coefficient in h* differs
        bad = next(w for w, c in h.terms.items() if adj.terms.get(w) != c)
        raise ValidationError(
            f"h is not self-adjoint; offending word {format_poly(NCPoly.monomial(layout, list(bad), 1))}"
        )
    report["checks"].append("h parses and is self-adjoint")
    for k, entry in enumerate(spec["families"], start=1):
        fam = _load_family(entry, base)
        if isinstance(fam, SpectralMeasure):
            if fam.support_radius > layout.R + 1e-9:
                raise ValidationError(
                    f"family {k} support radius {fam.support_radius} exceeds R={layout.R}"
                )
            report["checks"].append(f"family {k}: measure {entry} realizable within R")
        else:
            N = len(_family_matrix(k, entry, fam, layout))
            report["checks"].append(f"family {k}: matrix file with N={N}")
    if command in ("sd", "liberation"):
        _build_sd_problem(spec, layout, base)
        report["checks"].append("sd problem well posed")
    if "h2" in spec:
        parse_h(spec, layout, "h2")
        report["checks"].append("h2 parses")
    report["ok"] = True
    return report


def _microstates(spec: dict, layout: FamilyLayout, N: int, base: Path) -> MatrixTuple:
    sa = {}
    for i, entry in enumerate(spec["families"], start=1):
        fam = _load_family(entry, base)
        if isinstance(fam, SpectralMeasure):
            sa[(i, 1)] = quantile_microstate(fam, N)
        else:
            a = _family_matrix(i, entry, fam, layout)
            if len(a) != N:
                raise ValidationError(f"matrix file for family {i} has N={len(a)}, need {N}")
            sa[(i, 1)] = a
    return MatrixTuple(layout, N, sa=sa)


def _target_table(spec: dict, layout: FamilyLayout, base: Path, m: int) -> MomentTable:
    marginals = []
    for i, entry in enumerate(spec["families"], start=1):
        fam = _load_family(entry, base)
        if not isinstance(fam, SpectralMeasure):
            raise ValidationError("moment targets need measure-spec families")
        marginals.append(table_from_measure(layout, i, 1, fam, m))
    return free_product(marginals, m)


# ---------------------------------------------------------------------------
# json helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return repr(v) if math.isinf(v) or math.isnan(v) else v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, NCPoly):
        return format_poly(obj)
    if isinstance(obj, MomentTable):
        return obj.to_json()
    return obj


def write_outputs(out: Path, report: dict, traces: dict[str, list], manifest: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    )
    (out / "manifest.json").write_text(
        json.dumps(_jsonable(manifest), sort_keys=True, indent=2) + "\n"
    )
    for name, rows in traces.items():
        with open(out / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow(row)


# ---------------------------------------------------------------------------
# commands


def _gibbs_settings(spec: dict, seed: int) -> dict:
    g = dict(spec.get("gibbs", {}))
    g["seed"] = seed
    return g


def cmd_pressure(spec, layout, base, seed):
    h = parse_h(spec, layout)
    Ns = spec.get("Ns", [4, 8])
    per_N = [(N, _microstates(spec, layout, N, base)) for N in Ns]
    settings = _gibbs_settings(spec, seed)
    method = settings.pop("method", "sample")
    est = pressure_mod.pressure_estimate(h, per_N, settings, method=method)
    report = {
        "command": "pressure",
        "h": h,
        "per_N": [{"N": N, "logZ": z, "stderr": s} for N, z, s in est.per_N],
        "normalized": est.normalized,
        "extrapolated": est.extrapolated,
        "r_squared": est.r_squared,
    }
    rows = [["N", "logZ", "stderr", "normalized"]]
    for (N, z, s), v in zip(est.per_N, est.normalized):
        rows.append([N, repr(z), repr(s), repr(v)])
    return report, {"pressure.csv": rows}, EXIT_OK


def cmd_eta(spec, layout, base, seed):
    h_degree = int(spec.get("basis_degree", 2))
    Ns = spec.get("Ns", [16])
    N = max(Ns)
    xi = _microstates(spec, layout, N, base)
    target = _target_table(spec, layout, base, max(3, h_degree))
    g = spec.get("gibbs", {})
    est = pressure_mod.eta_estimate(
        target, xi, basis_degree=h_degree,
        samples=int(g.get("samples", 200)), budget=int(g.get("budget", 200)),
        seed=seed,
    )
    report = {
        "command": "eta",
        "value": est.value,
        "minimizer": list(est.minimizer),
        "basis": [b for b in est.basis],
        "diverged": est.diverged,
        "converged": est.converged,
    }
    if est.witness is not None:
        report["witness"] = est.witness
    rows = [["evaluation", "objective"]] + [[k, repr(v)] for k, v in est.trace]
    return report, {"eta_trace.csv": rows}, EXIT_OK


def cmd_gibbs(spec, layout, base, seed):
    h = parse_h(spec, layout)
    Ns = spec.get("Ns", [8])
    N = Ns[0]
    g = dict(spec.get("gibbs", {}))
    kind = g.pop("kind", "unitary-orbital")
    g.pop("method", None)
    g.pop("samples", None)
    g.pop("budget", None)
    if kind == "unitary-orbital":
        cfg = gibbs_mod.GibbsConfig(kind, N, h, microstates=_microstates(spec, layout, N, base),
                                    seed=seed, **g)
    else:
        cfg = gibbs_mod.GibbsConfig(kind, N, h, R=layout.R, seed=seed, **g)
    chain = gibbs_mod.run(cfg)
    mean = gibbs_mod.mean_tracial_state(chain, int(spec.get("m", 3)))
    report = {
        "command": "gibbs",
        "kind": kind,
        "N": N,
        "acceptance": chain.acceptance_rate,
        "mean_state": mean,
        "stderr": {("1" if not w else _format_word(w)): v
                   for w, v in sorted(mean.stderr.items())},
        "samples": len(chain.samples),
    }
    rows = [["sweep", "beta", "energy", "acceptance"]]
    for sweep, beta, e, acc in chain.energy_trace:
        rows.append([sweep, repr(beta), repr(e), repr(acc)])
    return report, {"energy_trace.csv": rows}, EXIT_OK


def _build_sd_problem(spec, layout, base):
    h = parse_h(spec, layout)
    sd_cfg = dict(spec.get("sd", {}))
    tau0 = []
    for entry in spec["families"]:
        fam = _load_family(entry, base)
        if not isinstance(fam, SpectralMeasure):
            raise ValidationError("sd needs measure-spec families for tau0")
        tau0.append(fam)
    try:
        return sd_mod.SDProblem(
            layout, h, tau0,
            D=int(sd_cfg.get("D", 8)),
            damping=float(sd_cfg.get("damping", 0.5)),
            max_iter=int(sd_cfg.get("max_iter", 200)),
            tol=float(sd_cfg.get("tol", 1e-10)),
            picard=bool(sd_cfg.get("picard", False)),
        )
    except ValueError as err:
        raise ValidationError(f"'sd' rejected: {err}") from None


def cmd_sd(spec, layout, base, seed):
    problem = _build_sd_problem(spec, layout, base)
    table, rep = sd_mod.sd_solve(problem, pushforward_degree=int(spec.get("m", 4)))
    pf = sd_mod.pushforward_x(table, problem, int(spec.get("m", 4)))
    report = {
        "command": "sd",
        "converged": rep.converged,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "solution": table,
        "pushforward": pf,
    }
    rows = [["iteration", "max_delta"]] + [
        [k, repr(d)] for k, d in enumerate(rep.delta_history)
    ]
    code = EXIT_OK if rep.converged else EXIT_NONCONVERGENCE
    return report, {"sd_convergence.csv": rows}, code


def cmd_freeness(spec, layout, base, seed):
    Ns = spec.get("Ns", [100])
    N = max(Ns)
    m = int(spec.get("m", 4))
    conjugations = int(spec.get("conjugations", 20))
    xi = _microstates(spec, layout, N, base)
    marginals = []
    for i in range(1, layout.n + 1):
        emp = SpectralMeasure.empirical(np.linalg.eigvalsh(xi.sa[(i, 1)]))
        marginals.append(table_from_measure(layout, i, 1, emp, m))
    fp = free_product(marginals, m)
    rng = np.random.default_rng(seed)
    from .matrices import haar_unitary

    dists = []
    for _ in range(conjugations):
        vs = [haar_unitary(N, rng) for _ in range(layout.n)]
        emp = empirical_state(xi.conjugated(vs), m)
        dists.append(moment_distance(emp, fp, m))
    report = {
        "command": "freeness",
        "N": N,
        "m": m,
        "distances": dists,
        "mean_distance": float(np.mean(dists)),
        "bound": 10.0 / N,
        "pass": bool(np.mean(dists) <= 10.0 / N),
    }
    rows = [["sample", "distance"]] + [[k, repr(d)] for k, d in enumerate(dists)]
    return report, {"freeness.csv": rows}, EXIT_OK


def cmd_liberation(spec, layout, base, seed):
    problem = _build_sd_problem(spec, layout, base)
    table, rep = sd_mod.sd_solve(problem, pushforward_degree=int(spec.get("m", 3)))
    if not rep.converged:
        report = {"command": "liberation", "sd_converged": False,
                  "residual": rep.residual}
        return report, {}, EXIT_NONCONVERGENCE
    dev = sd_mod.liberation_check(table, problem, int(spec.get("m", 3)))
    report = {
        "command": "liberation",
        "max_deviation": dev,
        "tolerance": 10 * problem.tol,
        "pass": bool(dev <= 10 * problem.tol),
        "sd_converged": True,
    }
    rows = [["iteration", "max_delta"]] + [
        [k, repr(d)] for k, d in enumerate(rep.delta_history)
    ]
    return report, {"sd_convergence.csv": rows}, EXIT_OK


def cmd_property_suite(spec, layout, base, seed):
    h1 = parse_h(spec, layout, "h")
    h2 = parse_h(spec, layout, "h2") if "h2" in spec else h1.scale(0.5)
    Ns = spec.get("Ns", [2, 8])
    g = spec.get("gibbs", {})
    M = int(g.get("samples", 64))
    reports = {}
    worst = 0.0
    for N in Ns:
        xi = _microstates(spec, layout, N, base)
        rep = pressure_mod.finite_N_property_suite(h1, h2, xi, M=M, seed=seed + N)
        reports[str(N)] = rep
        worst = max(worst, rep["max_violation"])
    report = {
        "command": "property-suite",
        "per_N": reports,
        "max_violation": worst,
        "pass": bool(worst <= TOLERANCES["structural"]),
    }
    rows = [["N", "lipschitz_margin", "monotone_margin", "convex_margin", "additive_margin"]]
    for N, rep in reports.items():
        rows.append([N, repr(rep["lipschitz"]["margin"]), repr(rep["monotone"]["margin"]),
                     repr(rep["convex"]["margin"]), repr(rep["additive"]["margin"])])
    return report, {"property_suite.csv": rows}, EXIT_OK


def cmd_relation_check(spec, layout, base, seed):
    h = parse_h(spec, layout)
    Ns = spec.get("Ns", [8])
    g = dict(spec.get("gibbs", {}))
    g.pop("method", None)
    reports = []
    for N in Ns:
        rep = pressure_mod.pressure_relation_check(h, R=layout.R, N=N,
                                                   gibbs_settings=dict(g), seed=seed + N)
        rep["N"] = N
        reports.append(rep)
    report = {
        "command": "relation-check",
        "per_N": reports,
        "any_significant_violation": any(r["significant_violation"] for r in reports),
    }
    rows = [["N", "matrix_side", "orbital_side", "margin", "stderr"]]
    for r in reports:
        rows.append([r["N"], repr(r["matrix_side"]), repr(r["orbital_side"]),
                     repr(r["margin"]), repr(r["stderr"])])
    return report, {"relation_check.csv": rows}, EXIT_OK


COMMANDS = {
    "pressure": cmd_pressure,
    "eta": cmd_eta,
    "gibbs": cmd_gibbs,
    "sd": cmd_sd,
    "freeness": cmd_freeness,
    "liberation": cmd_liberation,
    "property-suite": cmd_property_suite,
    "relation-check": cmd_relation_check,
}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="orbfree",
        description="Finite-N laboratory for orbital free pressure and its Legendre transform",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--spec", required=True, help="experiment spec JSON file")
    ap.add_argument("--seed", type=int, default=None, help="override the spec seed")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker budget (execution is sequential; recorded in the manifest)")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--verify", action="store_true", help="validate the spec without computing")
    args = ap.parse_args(argv)

    try:
        spec = load_spec(args.spec)
        base = Path(args.spec).resolve().parent
        # verification always precedes computation
        checks = verify_spec(spec, base, args.command)
        seed = args.seed if args.seed is not None else spec.get("seed", 0)
        chash = config_hash(spec, seed)
        manifest = {
            "config_hash": chash,
            "seed": seed,
            "threads": args.threads,
            "command": args.command,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "orbfree": "0.1.0",
            },
            "tolerances": TOLERANCES,
        }
        if args.verify:
            checks["config_hash"] = chash
            write_outputs(Path(args.out), checks, {}, manifest)
            print(f"ok: spec valid (config {chash[:12]})")
            return EXIT_OK
        report, traces, code = COMMANDS[args.command](spec, build_layout(spec), base, seed)
        report["config_hash"] = chash
        report["tolerances"] = TOLERANCES
        write_outputs(Path(args.out), report, traces, manifest)
        if code == EXIT_NONCONVERGENCE:
            print("non-convergence: partial artifacts written", file=sys.stderr)
        else:
            print(f"done: {args.command} (config {chash[:12]})")
        return code
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
