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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
# spec resolution


def config_hash(spec: dict, seed: int) -> str:
    blob = json.dumps({"spec": spec, "seed": seed}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


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
    # NaN, Infinity and integers beyond the float range fail the comparison
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_INT = (_is_int, "an integer")
_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_NUMBER = (_is_number, "a finite number")
_POSITIVE_NUMBER = (lambda v: _is_number(v) and v > 0, "a positive finite number")
_STRING = (lambda v: isinstance(v, str), "a string")

# (test, description) per spec key; keys absent from a spec take defaults
SPEC_VALUES = {
    "Ns": (lambda v: (isinstance(v, list) and v and all(_is_int(N) and N >= 1 for N in v)
                      and len(set(v)) == len(v)),
           "a non-empty list of distinct positive integers"),
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
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
    "method": (lambda v: v in ("sample", "thermodynamic"), "'sample' or 'thermodynamic'"),
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
}
# the 'gibbs' keys that are settings of every chain a command runs
CHAIN_KEYS = ("beta", "eps", "sweeps", "burn_in", "thinning")

# the top-level values each command reads, with the default for each
COMMAND_DEFAULTS = {
    "pressure": {"Ns": [4, 8]},
    "eta": {"Ns": [16], "basis_degree": 2},
    "gibbs": {"Ns": [8], "m": 3},
    "sd": {"m": 4},
    "freeness": {"Ns": [100], "m": 4, "conjugations": 20},
    "liberation": {"m": 3},
    "property-suite": {"Ns": [2, 8]},
    "relation-check": {"Ns": [8]},
}
# the most bytes of N x N matrices a command may hold: a run beyond it
# would fail on memory, so the spec is rejected before any computation
MAX_HELD_BYTES = 4 << 30
# commands that run at one N of the spec's Ns
ONE_N = {"eta": max, "freeness": max, "gibbs": lambda Ns: Ns[0]}
# commands that build microstates of the families at each of their Ns
MICROSTATE_COMMANDS = ("pressure", "eta", "gibbs", "freeness", "property-suite")
# commands that read moments of the families: eta's target and the SD marginals
MEASURE_COMMANDS = ("eta", "sd", "liberation")


def _check_values(values: dict, rules: dict, where: str, closed: bool) -> None:
    for key, value in values.items():
        if key not in rules:
            if closed:
                raise ValidationError(f"unknown key {key!r} in {where}")
            continue
        test, wanted = rules[key]
        if not test(value):
            raise ValidationError(f"{key!r} in {where} must be {wanted}, got {value!r}")


def parse_h(spec: dict, layout: FamilyLayout, key: str = "h") -> NCPoly:
    text = spec.get(key, "0*x[1,1]")
    try:
        p = parse(text, layout)
    except ParseError as err:
        raise ValidationError(f"polynomial {key!r} rejected at position {err.position}: {err}")
    letter = next((l for w in p.terms for l in w if l[0] != "x"), None)
    if letter is not None:
        # h is a polynomial in the conjugated variables x[i,j] = V Xi V*, the
        # argument of the pressure: the raw Xi that z[i,j] names has no
        # counterpart in the matrix ensemble or the SD problem, and no chain,
        # microstate or SD problem has a unitary slot for u[i] to name
        what = "a unitary letter" if letter[0] in ("u", "U") else "the letter"
        raise ValidationError(f"polynomial {key!r} rejected: it has {what} "
                              f"{_format_word((letter,))}; only x[i,j] letters are allowed")
    return p


def _load_family(k: int, entry, base: Path, layout: FamilyLayout):
    """Family k's entry, a measure spec string or a path to a matrix-tuple
    JSON file, as a SpectralMeasure or as family k's matrix in the file."""
    if isinstance(entry, str) and ":" in entry:
        try:
            return SpectralMeasure.from_string(entry)
        except ValueError as err:
            raise ValidationError(f"family {k} measure {entry!r} rejected: {err}") from None
    try:
        data = json.loads((base / entry).read_bytes())
    except (TypeError, OSError):
        raise ValidationError(f"family entry {entry!r} is neither a measure spec nor a file") from None
    except ValueError as err:
        raise ValidationError(f"family file {entry!r} is not valid JSON: {err}") from None
    try:
        tup = MatrixTuple.from_json(data, layout)
    except KeyError as err:
        raise ValidationError(f"family file {entry!r} has no key {err}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"family file {entry!r} rejected: {err}") from None
    if (k, 1) not in tup.sa:
        raise ValidationError(f"family file {entry!r} has no matrix for family {k}")
    return tup.sa[(k, 1)]


@dataclass
class Resolved:
    """Everything a command reads from its spec, checked and loaded once."""

    layout: FamilyLayout
    h: NCPoly
    h2: NCPoly | None
    families: list  # per family: a SpectralMeasure or its matrix from the file
    gibbs: dict  # the 'gibbs' section as given
    sd: sd_mod.SDProblem | None  # sd and liberation
    checks: list  # what was checked, for the --verify report
    Ns: list = field(default_factory=list)  # the sizes the command runs at
    m: int = 0
    basis_degree: int = 0
    conjugations: int = 0

    @property
    def chain(self) -> dict:
        """The GibbsConfig settings in the 'gibbs' section."""
        return {k: v for k, v in self.gibbs.items() if k in CHAIN_KEYS}

    @property
    def sampling(self) -> dict:
        """The chain settings and 'samples', as the pressure estimators take them."""
        return {k: v for k, v in self.gibbs.items() if k in CHAIN_KEYS or k == "samples"}

    def microstates(self, N: int) -> MatrixTuple:
        """Quantile microstates of the measures at size N, with the file matrices."""
        sa = {(i, 1): quantile_microstate(f, N) if isinstance(f, SpectralMeasure) else f
              for i, f in enumerate(self.families, start=1)}
        return MatrixTuple(self.layout, N, sa=sa)


def resolve(spec: dict, base: Path, command: str) -> Resolved:
    """Check a spec for a command and load what the command reads.

    Checks the type and range of every value (naming the key), the
    grammar, layout bounds and self-adjointness of h (naming the offending
    word), each family's realizability within R or its matrix file and
    that file's N against the sizes the command builds, the length of
    every chain the command runs, the bytes of the matrices it would hold
    (MAX_HELD_BYTES), and the SD problem.  Raises
    ValidationError on anything the command would reject; reads each
    family file once and computes nothing.
    """
    families = spec.get("families")
    if not isinstance(families, list) or not families:
        raise ValidationError(f"'families' must be a non-empty list, got {families!r}")
    _check_values(spec, SPEC_VALUES, "the spec", closed=False)
    sections = {}
    for section, rules in (("gibbs", GIBBS_VALUES), ("sd", SD_VALUES)):
        sections[section] = spec.get(section, {})
        if not isinstance(sections[section], dict):
            raise ValidationError(f"{section!r} must be a JSON object")
        _check_values(sections[section], rules, repr(section), closed=True)
    g = sections["gibbs"]
    if command in ("gibbs", "relation-check") or (
        command == "pressure" and g.get("method", "sample") != "sample"
    ):
        if command == "relation-check":
            defaults = pressure_mod.RELATION_CHAIN_DEFAULTS
        else:
            defaults = {"sweeps": gibbs_mod.GibbsConfig.sweeps,
                        "burn_in": gibbs_mod.GibbsConfig.burn_in,
                        "thinning": gibbs_mod.GibbsConfig.thinning}
        sweeps = g.get("sweeps", defaults["sweeps"])
        burn_in = g.get("burn_in", defaults["burn_in"])
        thinning = g.get("thinning", defaults["thinning"])
        if not sweeps > burn_in >= 0:
            raise ValidationError(
                f"gibbs needs integers sweeps > burn_in >= 0, got sweeps={sweeps!r}, "
                f"burn_in={burn_in!r}"
            )
    values = {k: spec.get(k, v) for k, v in COMMAND_DEFAULTS[command].items()}
    if command in ONE_N:
        values["Ns"] = [ONE_N[command](values["Ns"])]
    builds = command in MICROSTATE_COMMANDS and not (
        command == "gibbs" and g.get("kind", "unitary-orbital") == "matrix")

    layout = FamilyLayout(n=len(families), r=(1,) * len(families), R=float(spec.get("R", 2.0)))
    # one complex N x N matrix per slot at each size, and the chain states
    # that gibbs and relation-check retain at their largest size
    entry_bytes = 16 * sum(layout.r)  # one complex entry in every slot
    held = entry_bytes * sum(N * N for N in values.get("Ns", []))
    if held > MAX_HELD_BYTES:
        raise ValidationError(f"'Ns' = {values['Ns']!r} needs {held / 2**30:.3g} GiB of "
                              f"matrices, above the {MAX_HELD_BYTES / 2**30:g} GiB bound")
    if command in ("gibbs", "relation-check"):
        kept = -(-(sweeps - burn_in) // thinning)
        held = kept * entry_bytes * max(values["Ns"]) ** 2
        if held > MAX_HELD_BYTES:
            raise ValidationError(f"'sweeps' = {sweeps!r} retains {kept} chain states, "
                                  f"{held / 2**30:.3g} GiB, above the "
                                  f"{MAX_HELD_BYTES / 2**30:g} GiB bound")
    h = parse_h(spec, layout)
    if not h.is_selfadjoint():
        adj = h.adjoint()
        # h = h* fails at some word of h whose coefficient in h* differs
        bad = next(w for w, c in h.terms.items() if adj.terms.get(w) != c)
        raise ValidationError(
            f"h is not self-adjoint; offending word {format_poly(NCPoly.monomial(layout, list(bad), 1))}"
        )
    checks = ["h parses and is self-adjoint"]
    loaded = []
    for k, entry in enumerate(families, start=1):
        fam = _load_family(k, entry, base, layout)
        if isinstance(fam, SpectralMeasure):
            if fam.support_radius > layout.R + 1e-9:
                raise ValidationError(
                    f"family {k} support radius {fam.support_radius} exceeds R={layout.R}"
                )
            checks.append(f"family {k}: measure {entry} realizable within R")
        else:
            if command in MEASURE_COMMANDS:
                raise ValidationError(
                    f"{command} needs measure-spec families, but family {k} is the file {entry!r}"
                )
            for N in values["Ns"] if builds else []:
                if len(fam) != N:
                    raise ValidationError(
                        f"matrix file {entry!r} for family {k} has N={len(fam)}, "
                        f"but {command} needs N={N}"
                    )
            checks.append(f"family {k}: matrix file with N={len(fam)}")
        loaded.append(fam)
    problem = None
    if command in ("sd", "liberation"):
        # float() keeps an integer damping or tol a float in the reports
        settings = {k: float(v) if k in ("damping", "tol") else v
                    for k, v in sections["sd"].items()}
        try:
            problem = sd_mod.SDProblem(layout, h, loaded, **settings)
        except ValueError as err:
            raise ValidationError(f"'sd' rejected: {err}") from None
        checks.append("sd problem well posed")
    h2 = None
    if "h2" in spec:
        h2 = parse_h(spec, layout, "h2")
        checks.append("h2 parses")
    # the largest power of R a command forms: pressure and the property
    # suite bound the norms of h and h - h2, relation-check evaluates h on
    # matrices of norm up to R, and a matrix-kind gibbs chain does too and
    # squares each degree-m moment for its stderr
    degree = {"pressure": h.degree, "relation-check": h.degree,
              "property-suite": max(h.degree, (h2 or h).degree)}.get(command, 0)
    if command == "gibbs" and g.get("kind") == "matrix":
        degree = max(h.degree, 2 * values["m"])
    try:
        layout.R ** degree
    except OverflowError:
        raise ValidationError(f"'R' = {layout.R!r} to the power {degree}, the largest degree "
                              f"{command} evaluates, overflows a float") from None
    return Resolved(layout, h, h2, loaded, g, problem, checks, **values)


def _free_product_of(layout: FamilyLayout, measures, m: int) -> MomentTable:
    """Joint moments up to degree m of free families with these spectral measures."""
    return free_product([table_from_measure(layout, i, 1, mu, m)
                         for i, mu in enumerate(measures, start=1)], m)


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
    if isinstance(obj, bool):  # before int, which bool subclasses
        return obj
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, NCPoly):
        return format_poly(obj)
    if isinstance(obj, MomentTable):
        return MomentTable.to_json(obj)
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


def cmd_pressure(r: Resolved, seed: int):
    per_N = [(N, r.microstates(N)) for N in r.Ns]
    est = pressure_mod.pressure_estimate(r.h, per_N, {**r.sampling, "seed": seed},
                                         method=r.gibbs.get("method", "sample"))
    report = {
        "command": "pressure",
        "h": r.h,
        "per_N": [{"N": N, "logZ": z, "stderr": s} for N, z, s in est.per_N],
        "normalized": est.normalized,
        "extrapolated": est.extrapolated,
        "r_squared": est.r_squared,
    }
    rows = [["N", "logZ", "stderr", "normalized"]]
    for (N, z, s), v in zip(est.per_N, est.normalized):
        rows.append([N, repr(z), repr(s), repr(v)])
    return report, {"pressure.csv": rows}, EXIT_OK


def cmd_eta(r: Resolved, seed: int):
    (N,) = r.Ns
    est = pressure_mod.eta_estimate(
        _free_product_of(r.layout, r.families, max(3, r.basis_degree)), r.microstates(N),
        basis_degree=r.basis_degree,
        samples=r.gibbs.get("samples", pressure_mod.DEFAULT_SAMPLES),
        budget=r.gibbs.get("budget", pressure_mod.ETA_BUDGET), seed=seed,
    )
    report = {
        "command": "eta",
        "value": est.value,
        "minimizer": list(est.minimizer),
        "basis": [b for b in est.basis],
        "diverged": est.diverged,
        "converged": est.converged,
        "gradient_norm": est.gradient_norm,
        "ess": est.ess,
        "marginal_gap": est.marginal_gap,
    }
    if est.witness is not None:
        report["witness"] = est.witness
    rows = [["evaluation", "objective"]] + [[k, repr(v)] for k, v in est.trace]
    return report, {"eta_trace.csv": rows}, EXIT_OK


def cmd_gibbs(r: Resolved, seed: int):
    (N,) = r.Ns
    kind = r.gibbs.get("kind", "unitary-orbital")
    ensemble = {"microstates": r.microstates(N)} if kind == "unitary-orbital" else {}
    chain = gibbs_mod.run(gibbs_mod.GibbsConfig(kind, N, r.h, seed=seed, **ensemble, **r.chain))
    mean = gibbs_mod.mean_tracial_state(chain, r.m)
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


def cmd_sd(r: Resolved, seed: int):
    table, rep = sd_mod.sd_solve(r.sd, pushforward_degree=r.m)
    report = {
        "command": "sd",
        "converged": rep.converged,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "plan_residual": rep.plan_residual,
        "solution": table,
        "pushforward": sd_mod.pushforward_x(table, r.sd, r.m),
    }
    code = EXIT_OK if rep.converged else EXIT_NONCONVERGENCE
    return report, {"sd_convergence.csv": _convergence_rows(rep)}, code


def _convergence_rows(rep: sd_mod.SDReport) -> list[list]:
    """One row per sweep: its max update and its ratio to the previous
    sweep's (empty on the first sweep)."""
    ratios = [""] + [repr(q) for q in rep.contraction_ratios]
    return [["iteration", "max_delta", "contraction_ratio"]] + [
        [k, repr(d), q] for k, (d, q) in enumerate(zip(rep.delta_history, ratios))
    ]


def cmd_freeness(r: Resolved, seed: int):
    (N,) = r.Ns
    xi = r.microstates(N)
    fp = _free_product_of(r.layout, [SpectralMeasure.empirical(np.linalg.eigvalsh(xi.sa[(i, 1)]))
                                     for i in range(1, r.layout.n + 1)], r.m)
    orbit = pressure_mod.sample_conjugations(xi, r.conjugations, np.random.default_rng(seed))
    dists = [moment_distance(empirical_state(stack.state(k), r.m), fp, r.m)
             for stack in orbit for k in range(stack.size)]
    report = {
        "command": "freeness",
        "N": N,
        "m": r.m,
        "distances": dists,
        "mean_distance": float(np.mean(dists)),
        "bound": 10.0 / N,
        "pass": bool(np.mean(dists) <= 10.0 / N),
    }
    rows = [["sample", "distance"]] + [[k, repr(d)] for k, d in enumerate(dists)]
    return report, {"freeness.csv": rows}, EXIT_OK


def cmd_liberation(r: Resolved, seed: int):
    table, rep = sd_mod.sd_solve(r.sd, pushforward_degree=r.m)
    traces = {"sd_convergence.csv": _convergence_rows(rep)}
    if not rep.converged:
        report = {"command": "liberation", "sd_converged": False, "iterations": rep.iterations,
                  "residual": rep.residual, "plan_residual": rep.plan_residual}
        return report, traces, EXIT_NONCONVERGENCE
    dev = sd_mod.liberation_check(table, r.sd, r.m)
    report = {
        "command": "liberation",
        "max_deviation": dev,
        "tolerance": 10 * r.sd.tol,
        "pass": bool(dev <= 10 * r.sd.tol),
        "sd_converged": True,
    }
    return report, traces, EXIT_OK


def cmd_property_suite(r: Resolved, seed: int):
    h2 = r.h2 if r.h2 is not None else r.h.scale(0.5)
    reports = {}
    worst = 0.0
    for N in r.Ns:
        rep = pressure_mod.finite_N_property_suite(r.h, h2, r.microstates(N),
                                                   M=r.gibbs.get("samples", 64), seed=seed + N)
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


def cmd_relation_check(r: Resolved, seed: int):
    reports = []
    for N in r.Ns:
        rep = pressure_mod.pressure_relation_check(r.h, N=N,
                                                   gibbs_settings=r.sampling, seed=seed + N)
        rep["N"] = N
        reports.append(rep)
    report = {
        "command": "relation-check",
        "per_N": reports,
        "any_significant_violation": any(rep["significant_violation"] for rep in reports),
    }
    rows = [["N", "matrix_side", "orbital_side", "margin", "stderr"]]
    for rep in reports:
        rows.append([rep["N"], repr(rep["matrix_side"]), repr(rep["orbital_side"]),
                     repr(rep["margin"]), repr(rep["stderr"])])
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
        # one resolution serves --verify and the run, before any computation
        resolved = resolve(spec, Path(args.spec).resolve().parent, args.command)
        seed = args.seed if args.seed is not None else spec.get("seed", 0)
        if seed < 0:
            raise ValidationError(f"the seed must be a non-negative integer, got {seed}")
        out = Path(args.out)
        try:  # before any computation, so a bad --out costs none
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ValidationError(
                f"cannot create the output directory {args.out!r}: {err.strerror or err}"
            ) from None
        chash = config_hash(spec, seed)
        manifest = {
            "config_hash": chash,
            "seed": seed,
            "threads": args.threads,
            "command": args.command,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "orbfree": "0.1.0",
            },
            "tolerances": TOLERANCES,
        }
        if args.verify:
            layout = resolved.layout
            checks = {"layout": {"n": layout.n, "r": list(layout.r), "R": layout.R},
                      "checks": resolved.checks, "ok": True, "config_hash": chash}
            write_outputs(out, checks, {}, manifest)
            print(f"ok: spec valid (config {chash[:12]})")
            return EXIT_OK
        report, traces, code = COMMANDS[args.command](resolved, seed)
        report["config_hash"] = chash
        report["tolerances"] = TOLERANCES
        write_outputs(out, report, traces, manifest)
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
