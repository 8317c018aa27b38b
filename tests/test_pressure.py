import json
import math
from pathlib import Path

import numpy as np
import pytest

from orbfree.matrices import (
    MatrixTuple,
    SpectralMeasure,
    double_trace_evaluate,
    gue,
    haar_unitary,
    quantile_microstate,
    spectral_clip,
    trace_evaluate,
)
from orbfree.moments import MomentTable, empirical_state, free_product, table_from_measure
from orbfree.poly import FamilyLayout, NCPoly, TensorNCPoly, format_poly, letter_x, parse
from orbfree.pressure import (
    ETA_GRADIENT_TOL,
    PressureEstimate,
    _EtaObjective,
    _family_split,
    _sample_pressure,
    _sample_raws,
    _target_pairing,
    eta_estimate,
    finite_N_property_suite,
    penalty_poly,
    pressure_estimate,
    pressure_relation_check,
    sample_conjugations,
    selfadjoint_word_basis,
)

LAYOUT = FamilyLayout(n=2, r=(1, 1), R=2.0)
X1 = letter_x(1, 1)
X2 = letter_x(2, 1)


def semicircle_tuple(N, layout=LAYOUT):
    xi = quantile_microstate(SpectralMeasure.semicircle(2.0), N)
    return MatrixTuple(layout, N, sa={(i, 1): xi for i in range(1, layout.n + 1)})


def mixed_h(t=0.3):
    h = parse(f"{t}*x[1,1]*x[2,1]", LAYOUT)
    return (h + h.adjoint()).scale(0.5)


class TestPressureEstimate:
    def test_zero_h(self):
        per_N = [(N, semicircle_tuple(N)) for N in (2, 4, 8)]
        est = pressure_estimate(NCPoly.zero(LAYOUT), per_N)
        assert est.normalized == [0.0, 0.0, 0.0]
        assert est.extrapolated == 0.0

    def test_single_family_exact(self):
        h = parse("x[1,1]^2 - 0.5*x[2,1]", LAYOUT)
        per_N = [(N, semicircle_tuple(N)) for N in (2, 4, 8)]
        est = pressure_estimate(h, per_N)
        from orbfree.matrices import trace_evaluate

        for (N, xi), v in zip(per_N, est.normalized):
            assert v == pytest.approx(-trace_evaluate(h, xi).real, abs=1e-12)
        for _, _, se in est.per_N:
            assert se == 0.0

    def test_scalar_closed_form(self):
        a, b, t = 0.8, -0.5, 0.4
        xi = MatrixTuple(LAYOUT, 1, sa={(1, 1): np.array([[a]], dtype=complex),
                                        (2, 1): np.array([[b]], dtype=complex)})
        est = pressure_estimate(mixed_h(t), [(1, xi)], {"samples": 10})
        assert est.normalized[0] == pytest.approx(-t * a * b, abs=1e-12)

    @pytest.mark.parametrize("h", [NCPoly.zero(LAYOUT), parse("x[1,1]^2", LAYOUT), mixed_h()],
                             ids=["zero", "family-split", "mixed"])
    def test_unknown_method_rejected(self, h):
        # before the zero and family-split shortcuts, which read no method
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            pressure_estimate(h, [(2, semicircle_tuple(2))], method="bogus")

    def test_constant_shift(self):
        h = mixed_h()
        per_N = [(4, semicircle_tuple(4))]
        base = pressure_estimate(h, per_N, {"seed": 3, "samples": 50})
        c = 0.7
        shifted = pressure_estimate(h + NCPoly.one(LAYOUT).scale(c), per_N,
                                    {"seed": 3, "samples": 50})
        assert shifted.normalized[0] == pytest.approx(base.normalized[0] - c, abs=1e-12)

    def test_norm_bound_invariant(self):
        h = mixed_h()
        with pytest.raises(ValueError):
            PressureEstimate(h, [(2, 99.0, 0.0)], [99.0 / 4], 0.0, 1.0)

    def test_extrapolation_diagnostics(self):
        h = mixed_h(0.2)
        per_N = [(N, semicircle_tuple(N)) for N in (2, 4, 8)]
        est = pressure_estimate(h, per_N, {"seed": 1, "samples": 80})
        assert est.r_squared <= 1.0


class TestPropertySuite:
    @pytest.mark.parametrize("N", [2, 8])
    def test_exact_relations(self, N):
        rng = np.random.default_rng(N)
        h1 = mixed_h(0.3) + parse("0.2*x[1,1]^2", LAYOUT)
        h2 = mixed_h(-0.2) + parse("0.1*x[2,1]^2 + 0.3*x[1,1]", LAYOUT)
        report = finite_N_property_suite(h1, h2, semicircle_tuple(N), M=40, seed=N)
        assert report["lipschitz"]["margin"] >= -1e-9
        assert report["monotone"]["margin"] >= -1e-9
        assert report["convex"]["margin"] >= -1e-9
        assert report["additive"]["margin"] <= 1e-9
        assert report["max_violation"] <= 1e-9

    def test_lipschitz_constant_shift(self):
        h1 = mixed_h(0.3)
        c = 0.45
        h2 = h1 + NCPoly.one(LAYOUT).scale(c)
        report = finite_N_property_suite(h1, h2, semicircle_tuple(4), M=30)
        assert report["lipschitz"]["lhs"] == pytest.approx(c, abs=1e-10)
        assert report["lipschitz"]["bound"] == pytest.approx(c, abs=1e-12)


class TestBasis:
    def test_selfadjoint_and_nonempty(self):
        basis = selfadjoint_word_basis(LAYOUT, 3)
        assert basis
        for b in basis:
            assert b.is_selfadjoint()
            assert 1 <= b.degree <= 3

    def test_excludes_constants(self):
        for b in selfadjoint_word_basis(LAYOUT, 2):
            assert b.degree >= 1

    @pytest.mark.parametrize("r", [(1, 1), (2, 1), (1, 1, 1)])
    def test_golden(self, r):
        # recorded from a listing independent of _canonical_keys: every
        # word in product order, keeping the first of each class
        golden = json.loads((Path(__file__).parent / "data" / "selfadjoint_word_basis.json")
                            .read_text())[f"n={len(r)} r={','.join(map(str, r))}"]
        layout = FamilyLayout(n=len(r), r=r, R=2.0)
        for d, count in enumerate(golden["counts"]):
            got = [format_poly(b) for b in selfadjoint_word_basis(layout, d)]
            assert got == golden["basis"][:count]


class TestSampleConjugations:
    def test_draws_when_read(self, monkeypatch):
        lay = FamilyLayout(n=3, r=(1, 1, 1), R=2.0)
        xi = semicircle_tuple(4, lay)
        # the unitaries of two samples fill a stack, so 3 samples are 2 + 1
        monkeypatch.setattr("orbfree.pressure._STACK_BYTES", 2 * 2 * 16 * 4 * 4)
        rng = np.random.default_rng(5)
        ref = np.random.default_rng(5)
        orbit = sample_conjugations(xi, 3, rng)
        assert rng.bit_generator.state == ref.bit_generator.state
        for size in (2, 1):
            stack = next(orbit)
            # a stack is drawn when its first sample is read, and no sooner:
            # its samples' families 2..n, in order, as lone draws
            want = [[haar_unitary(4, ref) for _ in (2, 3)] for _ in range(size)]
            assert rng.bit_generator.state == ref.bit_generator.state
            assert stack.size == size
            for k, vs in enumerate(want):
                s = stack.state(k)
                assert sorted(s.unitaries) == [2, 3]
                assert [s.unitaries[i].tobytes() for i in (2, 3)] == [v.tobytes() for v in vs]
                assert all(s.sa[key] is a for key, a in xi.sa.items())
                assert s.lookup(X1) is xi.sa[(1, 1)]
        assert next(orbit, None) is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("N", [2, 8, 64])
    def test_fixing_family_one_is_exact(self, N, seed):
        # tr of an x-only polynomial is the same on (V1, V2) and (I, V1* V2)
        rng = np.random.default_rng(seed)
        xi = MatrixTuple(LAYOUT, N, sa={(i, 1): spectral_clip(gue(N, rng), 2.0) for i in (1, 2)})
        v1, v2 = haar_unitary(N, rng), haar_unitary(N, rng)
        both = xi.with_unitaries({1: v1, 2: v2})
        fixed = xi.with_unitaries({2: v1.conj().T @ v2})
        h = parse("0.3*x[1,1]*x[2,1]*x[1,1]*x[2,1] - 0.2*x[1,1]^2*x[2,1]^2 "
                  "+ (0.1+0.4i)*x[1,1]*x[2,1]^3 + 0.5*x[2,1]*x[1,1] - x[1,1]^2", LAYOUT)
        assert abs(trace_evaluate(h, both) - trace_evaluate(h, fixed)) <= 1e-12
        mu = SpectralMeasure.semicircle(2.0)
        target = free_product([table_from_measure(LAYOUT, i, 1, mu, 3) for i in (1, 2)], 3)
        pen = penalty_poly(target, 3, 0.5, 0.4)
        assert abs(double_trace_evaluate(pen, both) - double_trace_evaluate(pen, fixed)) <= 1e-12

    Z_H = "0.2*z[1,1]*x[2,1] + 0.2*x[2,1]*z[1,1]"
    U_H = "0.2*u[1]*x[2,1]*u'[1]"

    @pytest.mark.parametrize("text", [Z_H, U_H], ids=["z", "u"])
    @pytest.mark.parametrize("entry", ["pressure", "property-suite", "double-pressure",
                                       "relation-check"])
    def test_sample_entry_points_reject_non_x_letters(self, entry, text, monkeypatch):
        # each rejects before it draws a sample or runs a chain
        def no_draw(*_):
            raise AssertionError("drew before rejecting")

        monkeypatch.setattr("orbfree.pressure.haar_unitary", no_draw)
        monkeypatch.setattr("orbfree.gibbs.run", no_draw)
        h = parse(text, LAYOUT)
        call = {
            "pressure": lambda: pressure_estimate(h, [(4, semicircle_tuple(4))]),
            "property-suite": lambda: finite_N_property_suite(mixed_h(), h, semicircle_tuple(4)),
            "double-pressure": lambda: pressure_estimate(
                TensorNCPoly.of_pair(h, NCPoly.one(LAYOUT)), [(4, semicircle_tuple(4))]),
            "relation-check": lambda: pressure_relation_check(h, N=4),
        }[entry]
        with pytest.raises(ValueError, match="x letters only"):
            call()


class TestEta:
    def free_target(self, m=3):
        mu = SpectralMeasure.semicircle(2.0)
        return free_product([table_from_measure(LAYOUT, i, 1, mu, m) for i in (1, 2)], m)

    def realizable_microstates(self, N):
        # quantile microstates whose empirical marginals are what eta's
        # mismatch detector compares against; use the empirical moments as
        # the free target's marginals to stay consistent at finite N
        xi = quantile_microstate(SpectralMeasure.semicircle(2.0), N)
        tup = MatrixTuple(LAYOUT, N, sa={(1, 1): xi, (2, 1): xi})
        mu = SpectralMeasure.empirical(np.diag(xi).real)
        target = free_product(
            [table_from_measure(LAYOUT, i, 1, mu, 3) for i in (1, 2)], 3
        )
        return target, tup

    def test_empty_basis_gives_zero(self):
        target, tup = self.realizable_microstates(8)
        est = eta_estimate(target, tup, basis_degree=0, samples=20, budget=5)
        assert est.value == 0.0

    def test_free_target_band(self):
        target, tup = self.realizable_microstates(24)
        est = eta_estimate(target, tup, basis_degree=2, samples=120, budget=120, seed=2)
        assert -0.05 <= est.value <= 0.0
        assert not est.diverged

    def test_value_never_positive(self):
        target, tup = self.realizable_microstates(8)
        est = eta_estimate(target, tup, basis_degree=2, samples=30, budget=40, seed=5)
        assert est.value <= 0.0

    def test_divergence_detection(self):
        _, tup = self.realizable_microstates(16)
        bad = self.free_target()
        bad.set((X1, X1), 2.5)  # marginal mismatch: semicircle m2 is 1
        est = eta_estimate(bad, tup, basis_degree=2, samples=20, budget=20)
        assert est.diverged
        assert est.value == -math.inf
        assert est.witness is not None
        objs = [v for _, v in est.trace]
        assert objs == sorted(objs, reverse=True)  # strictly decreasing ray

        # two single-family gaps above mismatch_tol: the witness is the one
        # first in basis order, signed so that the objective falls along it
        bad.set((X2,), 0.5)  # semicircle m1 is 0
        est = eta_estimate(bad, tup, basis_degree=2, samples=20, budget=20)
        x2, x1x1 = NCPoly.x(LAYOUT, 2, 1), NCPoly.monomial(LAYOUT, [X1, X1], 1)
        first = next(b for b in est.basis if b in (x2, x1x1))
        assert est.diverged and est.witness == first.scale(-1.0)  # both targets lie above
        objs = [v for _, v in est.trace]
        assert objs[0] < 0 and objs == sorted(objs, reverse=True)
        drop = _target_pairing(bad, est.witness) - trace_evaluate(est.witness, tup).real
        assert objs == [a * drop for a in (1.0, 2.0, 4.0, 8.0)]


class TestEtaNewton:
    """The split of the eta objective and the Newton program on its mixed
    part."""

    @staticmethod
    def target():
        mu = SpectralMeasure.semicircle(2.0)
        return free_product([table_from_measure(LAYOUT, i, 1, mu, 4) for i in (1, 2)], 4)

    @staticmethod
    def draw(tup, M, seed):
        return sample_conjugations(tup, M, np.random.default_rng(seed))

    def test_split_is_exact(self):
        target, tup, N = self.target(), semicircle_tuple(12), 12
        basis = selfadjoint_word_basis(LAYOUT, 3)
        c = np.random.default_rng(4).normal(scale=0.05, size=len(basis))
        h = NCPoly.zero(LAYOUT)
        for ck, b in zip(c, basis):
            h = h + b.scale(float(ck))
        full = _target_pairing(target, h) + _sample_pressure(
            _sample_raws([h], self.draw(tup, 40, 9))[0], N)[0]
        single = [_family_split(b) for b in basis]
        marg = empirical_state(tup, 3)
        linear = sum(ck * (_target_pairing(target, b) - _target_pairing(marg, b))
                     for ck, b, s in zip(c, basis, single) if s)
        mixed = [b for b, s in zip(basis, single) if not s]
        objective = _EtaObjective(target, mixed, self.draw(tup, 40, 9), N)
        f, _ = objective(np.array([ck for ck, s in zip(c, single) if not s]))
        assert abs(full - (f + linear)) <= 1e-12

    def test_derivatives_match_finite_differences(self):
        mixed = [b for b in selfadjoint_word_basis(LAYOUT, 4) if not _family_split(b)]
        objective = _EtaObjective(self.target(), mixed, self.draw(semicircle_tuple(8), 50, 2), 8)
        c = np.random.default_rng(1).normal(scale=0.02, size=len(mixed))
        g, hessian = objective.derivatives(objective(c)[1])
        step = 1e-6
        for k in range(len(mixed)):
            e = np.zeros(len(mixed))
            e[k] = step
            (fp, wp), (fm, wm) = objective(c + e), objective(c - e)
            assert (fp - fm) / (2 * step) == pytest.approx(g[k], rel=1e-6, abs=1e-9)
            column = (objective.derivatives(wp)[0] - objective.derivatives(wm)[0]) / (2 * step)
            assert column == pytest.approx(hessian[:, k], rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", [101, 3, 7, 11])
    def test_eta_n32_converges(self, seed):
        # the benchmark's eta-n32 spec: N = 32, degree 3, 150 samples, budget 100
        mu = SpectralMeasure.semicircle(2.0)
        target = free_product([table_from_measure(LAYOUT, i, 1, mu, 3) for i in (1, 2)], 3)
        est = eta_estimate(target, semicircle_tuple(32), basis_degree=3, samples=150,
                           budget=100, seed=seed)
        assert est.converged and not est.diverged
        assert est.gradient_norm <= ETA_GRADIENT_TOL
        assert -0.05 <= est.value <= 0.0
        assert len(est.trace) <= 100

    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_too_few_samples_diverge_along_a_null_direction(self, samples):
        # 3 mixed words and at most 2 independent sample differences: the
        # objective falls linearly along the witness, on the full route too
        target, tup = self.target(), semicircle_tuple(8)
        est = eta_estimate(target, tup, basis_degree=3, samples=samples, budget=20, seed=5)
        assert est.diverged and est.value == -math.inf and not est.converged
        rays = [est.witness.scale(a) for a in (1, 2, 3)]
        raws = _sample_raws(rays, self.draw(tup, samples, 5))
        values = [_target_pairing(target, h) + _sample_pressure(r, 8)[0]
                  for h, r in zip(rays, raws)]
        assert values[0] < 0
        assert values[1] - values[0] == pytest.approx(values[0], rel=1e-9)
        assert values[2] - values[1] == pytest.approx(values[0], rel=1e-9)


class TestDoublePressure:
    def test_unit_tensor(self):
        one = NCPoly.one(LAYOUT)
        h2 = TensorNCPoly.of_pair(one, one)
        per_N = [(N, semicircle_tuple(N)) for N in (2, 4)]
        est = pressure_estimate(h2, per_N, {"samples": 20})
        for v in est.normalized:
            assert v == pytest.approx(-1.0, abs=1e-12)

    def test_tensor_takes_the_sample_method_only(self, monkeypatch):
        # rejected before any draw or chain
        def no_draw(*_):
            raise AssertionError("drew before rejecting")

        monkeypatch.setattr("orbfree.pressure.haar_unitary", no_draw)
        monkeypatch.setattr("orbfree.gibbs.log_partition", no_draw)
        h2 = TensorNCPoly.of_pair(mixed_h(), NCPoly.one(LAYOUT))
        with pytest.raises(ValueError, match="sample method only, got 'thermodynamic'"):
            pressure_estimate(h2, [(4, semicircle_tuple(4))], method="thermodynamic")

    def test_h_tensor_one_matches_pressure(self):
        h = mixed_h(0.25)
        h2 = TensorNCPoly.of_pair(h, NCPoly.one(LAYOUT))
        per_N = [(4, semicircle_tuple(4))]
        a = pressure_estimate(h2, per_N, {"seed": 9, "samples": 40})
        b = pressure_estimate(h, per_N, {"seed": 9, "samples": 40})
        assert a.normalized[0] == pytest.approx(b.normalized[0], abs=1e-12)

    def test_penalty_trend(self):
        beta, delta, m = 0.5, 0.4, 2
        Ns = (4, 8, 16)
        vals = []
        for N in Ns:
            xi = semicircle_tuple(N)
            emp = SpectralMeasure.empirical(np.diag(xi.sa[(1, 1)]).real)
            target = free_product(
                [table_from_measure(LAYOUT, i, 1, emp, m) for i in (1, 2)], m)
            p = penalty_poly(target, m, beta, delta)
            est = pressure_estimate(p, [(N, xi)], {"seed": N, "samples": 80})
            se = est.per_N[0][2] / N**2
            assert est.normalized[0] >= -beta - se - 1e-9
            vals.append(est.normalized[0])
        assert vals[-1] >= vals[0] - 0.05


class TestPenaltyPoly:
    def one_var_layout(self):
        return FamilyLayout(n=1, r=(1,), R=2.0)

    def test_centered_single_variable(self):
        lay = self.one_var_layout()
        target = MomentTable(lay, "x", 1)
        target.set((letter_x(1, 1),), 0.0)
        p = penalty_poly(target, 1, 1.0, 1.0)
        x = NCPoly.x(lay, 1, 1)
        assert p == TensorNCPoly.of_pair(x, x)

    def test_target_pairing_zero(self):
        target = free_product(
            [table_from_measure(LAYOUT, i, 1, SpectralMeasure.semicircle(2.0), 4)
             for i in (1, 2)], 4)
        p = penalty_poly(target, 2, 0.7, 0.3)
        acc = 0.0
        for (a, b), c in p.terms.items():
            acc += complex(c) * target.get(a) * target.get(b)
        assert abs(acc) < 1e-12

    def test_double_trace_nonnegative(self):
        rng = np.random.default_rng(3)
        target = free_product(
            [table_from_measure(LAYOUT, i, 1, SpectralMeasure.semicircle(2.0), 2)
             for i in (1, 2)], 2)
        p = penalty_poly(target, 2, 1.0, 0.5)
        for _ in range(5):
            sa = {(i, 1): spectral_clip(gue(3, rng), 2.0) for i in (1, 2)}
            tup = MatrixTuple(LAYOUT, 3, sa=sa)
            assert double_trace_evaluate(p, tup).real >= -1e-10


class TestRelationCheck:
    def test_h_zero(self):
        # the orbital side of h = 0 is exact, even on a single sample
        report = pressure_relation_check(NCPoly.zero(LAYOUT), N=4,
                                         gibbs_settings={"sweeps": 200, "burn_in": 50,
                                                         "samples": 1})
        assert report["margin"] == pytest.approx(0.0, abs=1e-12)
        assert report["stderr"] == 0.0
        assert not report["significant_violation"]

    def test_quadratic_light(self):
        h = parse("0.25*x[1,1]^2 + 0.25*x[2,1]^2", LAYOUT)
        report = pressure_relation_check(
            h, N=6,
            gibbs_settings={"sweeps": 400, "burn_in": 100, "samples": 100},
            seed=4,
        )
        assert not report["significant_violation"]
        assert len(report["chi"]) == 2
        assert all(np.isfinite(c) for c in report["chi"])


class TestGolden:
    """Small estimates pinned to exact floats, so that a change to the
    shared-sample evaluation path (trace pass, batched evaluation,
    log-mean-exp) cannot move a reported number, not even in its last
    bit.  The values depend on the numpy/LAPACK build that draws the Haar
    samples; recapture them only for a deliberate change of numbers."""

    H = "0.2*x[1,1]*x[2,1] + 0.2*x[2,1]*x[1,1] + 0.1*x[1,1]^2"
    H2 = "0.1*x[2,1]^2 + 0.05*x[1,1]*x[2,1]*x[1,1]"

    @staticmethod
    def target():
        mu = SpectralMeasure.semicircle(2.0)
        return free_product([table_from_measure(LAYOUT, i, 1, mu, 3) for i in (1, 2)], 3)

    @staticmethod
    def exact(got, want):
        assert repr(got) == repr(want)

    def test_pressure_estimate(self):
        h = parse(self.H, LAYOUT)
        per_N = [(4, semicircle_tuple(4)), (6, semicircle_tuple(6))]
        est = pressure_estimate(h, per_N, {"seed": 3, "samples": 25})
        self.exact(est.per_N, [(4, 0.08596950787857516, 0.34958231660999955),
                               (6, -0.933878328543734, 0.5972383626908577)])
        self.exact(est.normalized, [0.005373094242410947, -0.02594106468177039])
        self.exact(est.extrapolated, -0.08856938253013305)

    def test_property_suite(self):
        rep = finite_N_property_suite(parse(self.H, LAYOUT), parse(self.H2, LAYOUT),
                                      semicircle_tuple(4), M=12, seed=5)
        self.exact(rep, {'lipschitz': {'lhs': 0.10507860119699614,
                                       'bound': 2.8,
                                       'margin': 2.694921398803004},
                         'monotone': {'pi_smaller': 0.01931397299102733,
                                      'pi_larger': -0.04862531137924017,
                                      'margin': 0.0679392843702675},
                         'convex': {'pi_mid': -0.044699202028016694,
                                    'rhs': -0.03322532760747074,
                                    'margin': 0.011473874420545954},
                         'additive': {'joint': -0.17676522153339222,
                                      'split': -0.17676522153339225,
                                      'margin': 2.7755575615628914e-17},
                         'max_violation': 2.7755575615628914e-17})

    def test_eta_estimate(self):
        est = eta_estimate(self.target(), semicircle_tuple(8), basis_degree=2, samples=16,
                           budget=30, seed=2, mismatch_tol=0.3)
        self.exact(est.value, -0.0024404384956904016)
        self.exact(est.minimizer.tolist(), [0.0, 0.0, 0.0, -0.1078984543918816, 0.0])
        self.exact(est.trace, [(0, 0.0), (1, -0.002176140550216709),
                               (2, -0.002440075479803752), (3, -0.0024404384943253234),
                               (4, -0.0024404384956904016)])

    def test_double_pressure(self):
        pen = penalty_poly(self.target(), 2, 0.05, 1.0)
        per_N = [(4, semicircle_tuple(4)), (6, semicircle_tuple(6))]
        est = pressure_estimate(pen, per_N, {"seed": 1, "samples": 15})
        self.exact(est.per_N, [(4, -0.123975108423016, 0.02688367511217456),
                               (6, -0.09482643336339555, 0.02266241746766111)])
        self.exact(est.normalized, [-0.0077484442764385, -0.002634067593427654])
