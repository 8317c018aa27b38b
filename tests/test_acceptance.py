"""Acceptance suite: eleven criteria, each reported as a single pass/fail
line (echoed in the terminal summary via conftest).  Every expected value
is either an exact identity, an independent closed-form oracle, or a
measured-consistency bound with Monte Carlo error bars."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import scipy.integrate

from orbfree import gibbs as gibbs_mod
from orbfree import pressure as pressure_mod
from orbfree import sdsolver as sd_mod
from orbfree.cli import main as cli_main
from orbfree.matrices import (
    MatrixTuple,
    SpectralMeasure,
    haar_unitary,
    quantile_microstate,
    trace_evaluate,
)
from orbfree.moments import (
    empirical_state,
    free_product,
    moment_distance,
    table_from_measure,
)
from orbfree.poly import (
    FamilyLayout,
    NCPoly,
    TensorNCPoly,
    contract_theta,
    derive_liberation,
    derive_unitary,
    letter_u,
    letter_ustar,
    letter_x,
    letter_z,
    liberation_gradient,
    parse,
    substitute_x,
)

LAYOUT = FamilyLayout(n=2, r=(1, 1), R=2.0)
SEMI = SpectralMeasure.semicircle(2.0)

RESULTS: list[str] = []


def report(num: int, ok: bool, detail: str, t0: float) -> None:
    line = (f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{time.time() - t0:.1f}s]")
    RESULTS.append(line)
    print(line)
    assert ok, line


def mixed_h(t):
    h = parse(f"{t}*x[1,1]*x[2,1]", LAYOUT)
    return (h + h.adjoint()).scale(0.5)


def semicircle_tuple(N):
    xi = quantile_microstate(SEMI, N)
    return MatrixTuple(LAYOUT, N, sa={(1, 1): xi, (2, 1): xi})


def empirical_free_target(tup, m):
    tabs = []
    for i in (1, 2):
        emp = SpectralMeasure.empirical(np.linalg.eigvalsh(tup.sa[(i, 1)]))
        tabs.append(table_from_measure(LAYOUT, i, 1, emp, m))
    return free_product(tabs, m)


# ---------------------------------------------------------------------------


def _rand_word(rng, letters, max_len):
    k = int(rng.integers(0, max_len + 1))
    return tuple(letters[int(rng.integers(0, len(letters)))] for _ in range(k))


def _rand_poly(rng, letters, max_deg=4, max_terms=3):
    p = NCPoly.zero(LAYOUT)
    for _ in range(int(rng.integers(1, max_terms + 1))):
        c = Fraction(int(rng.integers(-3, 4)) or 1, int(rng.integers(1, 4)))
        p = p + NCPoly.monomial(LAYOUT, _rand_word(rng, letters, max_deg), c)
    return p


def test_criterion_01_symbolic_suite():
    t0 = time.time()
    rng = np.random.default_rng(1)
    uz = ([letter_u(i) for i in (1, 2)] + [letter_ustar(i) for i in (1, 2)]
          + [letter_z(i, 1) for i in (1, 2)])
    xs = [letter_x(i, 1) for i in (1, 2)]
    one = NCPoly.one(LAYOUT)
    count = 0
    for _ in range(170):
        p = _rand_poly(rng, uz)
        q = _rand_poly(rng, uz)
        count += 2
        for i in (1, 2):
            # Leibniz rule for the unitary derivation
            lhs = derive_unitary(i, p * q)
            rhs = (derive_unitary(i, p) * TensorNCPoly.of_pair(one, q)
                   + TensorNCPoly.of_pair(p, one) * derive_unitary(i, q))
            assert lhs == rhs
        # involution laws
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()
        assert p.adjoint().adjoint() == p
        # normal-form confluence: associativity and unitary-pair cancellation
        r = _rand_poly(rng, uz, max_deg=2, max_terms=2)
        assert (p * q) * r == p * (q * r)
        w = _rand_word(rng, uz, 4)
        pos = int(rng.integers(0, len(w) + 1))
        i = int(rng.integers(1, 3))
        w2 = w[:pos] + (letter_u(i), letter_ustar(i)) + w[pos:]
        assert NCPoly.monomial(LAYOUT, w2, 1) == NCPoly.monomial(LAYOUT, w, 1)
        # gradient route identity -u_i (D_i h) u_i* = theta-bar of the
        # liberation derivation, on a random self-adjoint x-polynomial
        g = _rand_poly(rng, xs, max_deg=2, max_terms=2)
        h = g + g.adjoint()
        count += 1
        for i in (1, 2):
            grad = liberation_gradient(i, h)
            assert grad == substitute_x(contract_theta(derive_liberation(i, h)))
    ok = count >= 500 and time.time() - t0 < 60
    report(1, ok, f"symbolic suite exact on {count} random polynomials", t0)


def test_criterion_02_pressure_anchors():
    t0 = time.time()
    worst = 0.0
    for N in (2, 8, 32):
        xi = semicircle_tuple(N)
        est0 = pressure_mod.pressure_estimate(NCPoly.zero(LAYOUT), [(N, xi)])
        worst = max(worst, abs(est0.normalized[0]))
        h = parse("0.4*x[1,1]^2 - 0.3*x[2,1] + 0.1*x[2,1]^2", LAYOUT)
        est = pressure_mod.pressure_estimate(h, [(N, xi)])
        worst = max(worst, abs(est.normalized[0] + trace_evaluate(h, xi).real))
    report(2, worst <= 1e-12, f"zero and single-family pressure anchors, max err {worst:.2e}", t0)


def test_criterion_03_property_suite():
    t0 = time.time()
    h1 = mixed_h(0.3) + parse("0.2*x[1,1]^2", LAYOUT)
    h2 = mixed_h(-0.2) + parse("0.1*x[2,1]^2 + 0.3*x[1,1]", LAYOUT)
    worst = 0.0
    for N in (2, 8):
        rep = pressure_mod.finite_N_property_suite(h1, h2, semicircle_tuple(N),
                                                   M=64, seed=N)
        worst = max(worst, rep["max_violation"])
    ok = worst <= 1e-9 and time.time() - t0 < 300
    report(3, ok, f"Lipschitz/monotone/convex/additive at N=2,8, max violation {worst:.2e}", t0)


def test_criterion_04_partition_oracles():
    t0 = time.time()
    # N=1: the conjugation is trivial, so logZ = -t xi1 xi2 exactly
    a0, b0, tt = 0.8, -0.5, 0.4
    xi1 = MatrixTuple(LAYOUT, 1, sa={(1, 1): np.array([[a0]], dtype=complex),
                                     (2, 1): np.array([[b0]], dtype=complex)})
    est = pressure_mod.pressure_estimate(mixed_h(tt), [(1, xi1)], {"samples": 5})
    err1 = abs(est.normalized[0] + tt * a0 * b0)

    # N=2: independent quadrature oracle for the rank-one angle variable
    a = np.array([1.0, -1.0])
    b = np.array([1.0, -1.0])
    t = 0.3

    def tr_prod(s):
        return 0.5 * (s * (a[0] * b[0] + a[1] * b[1])
                      + (1 - s) * (a[0] * b[1] + a[1] * b[0]))

    val, _ = scipy.integrate.quad(lambda s: math.exp(-4 * t * tr_prod(s)), 0, 1)
    oracle = math.log(val)
    xi2 = MatrixTuple(LAYOUT, 2, sa={(1, 1): np.diag(a).astype(complex),
                                     (2, 1): np.diag(b).astype(complex)})
    cfg = gibbs_mod.GibbsConfig("unitary-orbital", 2, mixed_h(t), microstates=xi2,
                                sweeps=10000, burn_in=2000, thinning=2, seed=11)
    logz, se = gibbs_mod.log_partition(cfg, beta_grid=17)
    rel = abs(logz - oracle) / abs(oracle)
    ok = err1 <= 1e-12 and rel <= 0.01
    report(4, ok, f"N=1 exact (err {err1:.1e}); N=2 HCIZ quadrature rel err {rel:.3%}", t0)


def test_criterion_05_asymptotic_freeness():
    t0 = time.time()
    N, m, M = 100, 4, 20
    sa = {(1, 1): quantile_microstate(SpectralMeasure.bernoulli(1.0), N),
          (2, 1): quantile_microstate(SEMI, N)}
    tup = MatrixTuple(LAYOUT, N, sa=sa)
    fp = empirical_free_target(tup, m)
    rng = np.random.default_rng(5)
    dists = []
    for _ in range(M):
        vs = [haar_unitary(N, rng) for _ in range(2)]
        dists.append(moment_distance(empirical_state(tup.conjugated(vs), m), fp, m))
    mean = float(np.mean(dists))
    report(5, mean <= 10.0 / N, f"freeness distance {mean:.4f} <= {10.0 / N}", t0)


def test_criterion_06_eta_estimator():
    t0 = time.time()
    N = 32
    tup = semicircle_tuple(N)
    target = empirical_free_target(tup, 3)
    est = pressure_mod.eta_estimate(target, tup, basis_degree=3,
                                    samples=150, budget=250, seed=6)
    in_band = -0.05 <= est.value <= 0.0 and not est.diverged

    bad = free_product([table_from_measure(LAYOUT, i, 1, SEMI, 3) for i in (1, 2)], 3)
    bad.set((letter_x(1, 1), letter_x(1, 1)), 2.5)
    div = pressure_mod.eta_estimate(bad, tup, basis_degree=2, samples=30, budget=20)
    objs = [v for _, v in div.trace]
    detected = (div.diverged and div.value == -math.inf
                and div.witness is not None and objs == sorted(objs, reverse=True))
    report(6, in_band and detected,
           f"free target value {est.value:.4f} in [-0.05,0]; divergence ray detected", t0)


def test_criterion_07_sd_solver():
    t0 = time.time()
    # t=0 reproduces the free-Haar oracle exactly
    prob0 = sd_mod.SDProblem(LAYOUT, NCPoly.zero(LAYOUT), [SEMI, SEMI])
    tab0, rep0 = sd_mod.sd_solve(prob0)
    oracle = sd_mod.free_haar_state(prob0, list(tab0.values))
    err0 = moment_distance(tab0, oracle, 100)

    # |t| = 0.01, D=8 converges fast and tightly
    h = mixed_h(0.01)
    prob = sd_mod.SDProblem(LAYOUT, h, [SEMI, SEMI], D=8)
    tab, rep = sd_mod.sd_solve(prob, pushforward_degree=4)
    tight = (rep.converged and rep.iterations <= 200 and rep.residual <= 1e-10
             and rep.plan_residual <= 1e-10)

    # Gibbs mean tracial state at N=64 vs the SD pushforward, word by word
    N = 64
    tup = semicircle_tuple(N)
    emp = SpectralMeasure.empirical(np.linalg.eigvalsh(tup.sa[(1, 1)]))
    prob_emp = sd_mod.SDProblem(LAYOUT, h, [emp, emp], D=8)
    tab_emp, rep_emp = sd_mod.sd_solve(prob_emp, pushforward_degree=4)
    pf = sd_mod.pushforward_x(tab_emp, prob_emp, 4)
    cfg = gibbs_mod.GibbsConfig("unitary-orbital", N, h, microstates=tup,
                                sweeps=400, burn_in=100, thinning=5, seed=7)
    chain = gibbs_mod.run(cfg)
    mean = gibbs_mod.mean_tracial_state(chain, 4)
    worst_sigma = 0.0
    for w in pf.values:
        if not w or w not in mean.values:
            continue
        diff = abs(pf.get(w) - mean.get(w))
        # conjugation-invariant words have zero MC error; allow numerics
        sigma = mean.stderr.get(w, 0.0) + 1e-9 / 3
        worst_sigma = max(worst_sigma, diff / (3 * sigma))
    ok = err0 <= 1e-12 and tight and rep_emp.converged and worst_sigma <= 1.0
    report(7, ok, (f"t=0 oracle err {err0:.1e}; t=0.01 residual {rep.residual:.1e}, "
                   f"plan {rep.plan_residual:.1e} in {rep.iterations} iters; Gibbs N=64 worst {worst_sigma:.2f} of 3 sigma"),
           t0)


def test_criterion_08_liberation():
    t0 = time.time()
    prob = sd_mod.SDProblem(LAYOUT, mixed_h(0.01), [SEMI, SEMI], D=8)
    tab, rep = sd_mod.sd_solve(prob)
    dev = sd_mod.liberation_check(tab, prob, 3)
    ok = rep.converged and dev <= 10 * prob.tol
    report(8, ok, f"liberation identity deviation {dev:.2e} <= {10 * prob.tol:.0e}", t0)


def test_criterion_09_relation_margin():
    t0 = time.time()
    rng = np.random.default_rng(9)
    worst = math.inf
    violated = False
    for k in range(3):
        c1, c2, c3 = (round(float(v), 3) for v in rng.uniform(0.05, 0.3, size=3))
        h = parse(f"{c1}*x[1,1]^2 + {c2}*x[2,1]^2", LAYOUT) + mixed_h(c3)
        N = (8, 12, 16)[k]
        rep = pressure_mod.pressure_relation_check(
            h, N=N,
            gibbs_settings={"sweeps": 500, "burn_in": 120, "samples": 150},
            seed=90 + k,
        )
        worst = min(worst, rep["margin"] + 3 * rep["stderr"])
        violated = violated or rep["significant_violation"]
    report(9, not violated, f"pressure relation margin never below -3 sigma "
           f"(worst margin+3se {worst:.4f})", t0)


def test_criterion_10_penalty_trend():
    t0 = time.time()
    beta, delta, m = 0.5, 0.4, 2
    vals, ses = [], []
    for N in (8, 16, 32):
        xi = semicircle_tuple(N)
        target = empirical_free_target(xi, m)
        p = pressure_mod.penalty_poly(target, m, beta, delta)
        est = pressure_mod.pressure_estimate(p, [(N, xi)], {"seed": N, "samples": 150})
        vals.append(est.normalized[0])
        ses.append(est.per_N[0][2] / N**2)
    bounded = all(v >= -beta - s - 1e-9 for v, s in zip(vals, ses))
    monotone = all(vals[i + 1] >= vals[i] - (ses[i] + ses[i + 1])
                   for i in range(len(vals) - 1))
    report(10, bounded and monotone,
           f"penalty double-pressure {['%.4f' % v for v in vals]} >= -beta, non-decreasing", t0)


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.time()
    spec = {
        "h": "0.1*x[1,1]*x[2,1] + 0.1*x[2,1]*x[1,1]",
        "families": ["semicircle:2", "semicircle:2"],
        "Ns": [2, 4],
        "gibbs": {"samples": 30, "sweeps": 60, "burn_in": 20},
        "seed": 13,
    }
    sp = tmp_path / "spec.json"
    sp.write_text(json.dumps(spec))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["pressure", "--spec", str(sp), "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("report.json", "manifest.json", "pressure.csv"))
    report(11, same, "same seed + threads give byte-identical reports", t0)
