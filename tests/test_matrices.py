import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from orbfree import gibbs
from orbfree.matrices import (
    MatrixTuple,
    SpectralMeasure,
    _brentq,
    _conjugate,
    _fold,
    _product,
    _real_diagonal,
    _Scorer,
    _semicircle_cdf,
    _Stack,
    _word_traces,
    double_trace_evaluate,
    evaluate,
    evaluate_word,
    gue,
    haar_unitary,
    quantile_microstate,
    spectral_clip,
    spectral_reflect,
    trace_evaluate,
    trace_word,
)
from orbfree.moments import empirical_state
from orbfree.poly import (
    FamilyLayout,
    NCPoly,
    TensorNCPoly,
    letter_u,
    letter_ustar,
    letter_x,
    letter_z,
    parse,
)

LAYOUT = FamilyLayout(n=2, r=(2, 1), R=2.0)


def two_call_gue(N, rng):
    """GUE with its real and imaginary parts from two (N, N) draws."""
    a = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (a + a.conj().T) / (2.0 * math.sqrt(N))


def two_call_haar(N, rng):
    """Haar unitary from a Ginibre matrix drawn as two (N, N) calls."""
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def make_tuple(rng, N, layout=LAYOUT, with_unitaries=True):
    sa = {}
    for i in range(1, layout.n + 1):
        for j in range(1, layout.r[i - 1] + 1):
            sa[(i, j)] = spectral_clip(gue(N, rng), layout.R)
    unitaries = {}
    if with_unitaries:
        for i in range(1, layout.n + 1):
            unitaries[i] = haar_unitary(N, rng)
    return MatrixTuple(layout, N, sa=sa, unitaries=unitaries)


def stack_of(tups):
    """The tuples as one _Stack, every slot stacked."""
    first = tups[0]
    return _Stack.of_slots(first.layout, first.N,
                           {k: np.stack([t.sa[k] for t in tups]) for k in first.sa},
                           {i: np.stack([t.unitaries[i] for t in tups]) for i in first.unitaries},
                           len(tups))


class TestSampling:
    def test_haar_is_unitary(self):
        rng = np.random.default_rng(0)
        for N in (1, 2, 5, 16):
            v = haar_unitary(N, rng)
            assert np.max(np.abs(v.conj().T @ v - np.eye(N))) < 1e-12

    def test_haar_invariance_two_sample(self):
        # left translation by a fixed unitary should not change the law;
        # compare E|tr V|^2 which equals 1 for Haar measure at any N
        rng = np.random.default_rng(1)
        N, M = 4, 4000
        w = haar_unitary(N, rng)
        plain = np.array([abs(np.trace(haar_unitary(N, rng))) ** 2 for _ in range(M)])
        shifted = np.array([abs(np.trace(w @ haar_unitary(N, rng))) ** 2 for _ in range(M)])
        for sample in (plain, shifted):
            err = abs(sample.mean() - 1.0)
            sigma = sample.std(ddof=1) / math.sqrt(M)
            assert err < 3.5 * sigma + 1e-3

    def test_gue_hermitian_and_normalized(self):
        rng = np.random.default_rng(2)
        N, M = 24, 300
        vals = []
        for _ in range(M):
            h = gue(N, rng)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14
            vals.append(np.trace(h @ h).real / N)
        mean = np.mean(vals)
        sigma = np.std(vals, ddof=1) / math.sqrt(M)
        assert abs(mean - 1.0) < 3.5 * sigma + 1e-3


class TestSpectralMeasure:
    def test_parse_specs(self):
        mu = SpectralMeasure.from_string("semicircle:2")
        assert mu.kind == "semicircle" and mu.params == (2.0,)
        nu = SpectralMeasure.from_string("bernoulli:1")
        assert nu.quantile(0.25) == -1.0 and nu.quantile(0.75) == 1.0
        at = SpectralMeasure.from_string("atomic:0.5@-1,0.5@1")
        assert at.moment(1) == pytest.approx(0.0)
        assert at.moment(2) == pytest.approx(1.0)

    def test_semicircle_moments(self):
        mu = SpectralMeasure.semicircle(2.0)
        # Catalan numbers for the standard semicircle
        assert mu.moment(2) == pytest.approx(1.0)
        assert mu.moment(4) == pytest.approx(2.0)
        assert mu.moment(6) == pytest.approx(5.0)
        assert mu.moment(3) == 0.0

    def test_semicircle_quantile_median(self):
        mu = SpectralMeasure.semicircle(2.0)
        assert mu.quantile(0.5) == pytest.approx(0.0, abs=1e-10)
        assert mu.quantile(0.0) == -2.0
        assert mu.quantile(1.0) == 2.0

    @pytest.mark.parametrize("radius", [2.0, 7.5])
    def test_semicircle_quantiles_are_bitwise_scipy_brentq(self, radius):
        # scipy is the reference here only: the port must give the very
        # microstates scipy.optimize.brentq gave, at every (k - 1/2)/N
        mu = SpectralMeasure.semicircle(radius)
        for N in range(1, 129):
            want = [brentq(lambda x: _semicircle_cdf(x, radius) - (k - 0.5) / N,
                           -radius, radius, xtol=1e-13) for k in range(1, N + 1)]
            assert np.diag(quantile_microstate(mu, N)).real.tolist() == want

    def test_brentq_rejects_a_same_sign_bracket(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13)

    def test_quantile_microstate_moments(self):
        mu = SpectralMeasure.semicircle(2.0)
        xi = quantile_microstate(mu, 400)
        for k in (1, 2, 3, 4):
            got = np.trace(np.linalg.matrix_power(xi, k)).real / 400
            assert got == pytest.approx(mu.moment(k), abs=0.02)

    def test_arcsine_quantile_range(self):
        mu = SpectralMeasure.arcsine(-1.0, 1.0)
        assert mu.quantile(0.0) == -1.0
        assert mu.quantile(1.0) == 1.0
        assert mu.quantile(0.5) == pytest.approx(0.0)
        assert mu.moment(2) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-2.5, 2.5), (0.0, 1.0), (-1.0, 3.0),
                                      (-2.0, 0.5), (-3.0, -1.0)])
    def test_arcsine_moments_match_quadrature(self, a, b):
        mu = SpectralMeasure.arcsine(a, b)
        scale = max(abs(a), abs(b))
        for k in range(17):
            val, _ = quad(lambda q: mu.quantile(q) ** k, 0, 1, limit=200)
            # odd moments of a symmetric law vanish, so compare against the
            # scale of x^k on the support there
            assert mu.moment(k) == pytest.approx(val, rel=1e-11, abs=1e-11 * scale**k)

    def test_arcsine_even_moments_are_central_binomials(self):
        mu = SpectralMeasure.arcsine(-1.0, 1.0)
        for k in range(0, 17, 2):
            assert mu.moment(k) == math.comb(k, k // 2) / 2**k

    def test_empirical(self):
        mu = SpectralMeasure.empirical([3.0, -1.0, 1.0])
        assert mu.support_radius == 3.0
        assert mu.moment(1) == pytest.approx(1.0)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SpectralMeasure.from_string("cauchy:1")

    @pytest.mark.parametrize("text", ["semicircle:nan", "semicircle:inf", "bernoulli:nan",
                                      "arcsine:nan,1", "arcsine:-inf,1", "atomic:1@nan",
                                      "atomic:nan@1"])
    def test_non_finite_parameters_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            SpectralMeasure.from_string(text)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SpectralMeasure.empirical([0.0, math.nan])


class TestClipReflect:
    def test_clip_examples(self):
        a = np.diag([3.0, -0.5, -4.0]).astype(complex)
        c = spectral_clip(a, 2.0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(c)), [-2.0, -0.5, 2.0])

    def test_clip_preserves_inside(self):
        rng = np.random.default_rng(3)
        h = gue(6, rng)
        s = np.linalg.norm(h, 2) + 1.0
        assert np.allclose(spectral_clip(h, s), h)

    def test_reflect_folds(self):
        a = np.diag([2.5, -2.5, 0.3]).astype(complex)
        r = spectral_reflect(a, 2.0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(r)), [-1.5, 0.3, 1.5])

    def test_gue_batch_draws_as_one_at_a_time(self):
        for N in (1, 2, 8):
            seeds = [3, 4, 5]
            batch = gue(N, [np.random.default_rng(s) for s in seeds])
            want = np.stack([gue(N, np.random.default_rng(s)) for s in seeds])
            assert np.array_equal(batch.view(np.int64), want.view(np.int64))
            # and each matrix is the one drawn as two (N, N) normal calls
            two = np.stack([two_call_gue(N, np.random.default_rng(s)) for s in seeds])
            assert np.array_equal(batch.view(np.int64), two.view(np.int64))

    def test_one_draw_per_matrix_keeps_the_stream(self):
        for N in (1, 2, 8, 33):
            for draw, two_calls in ((gue, two_call_gue), (haar_unitary, two_call_haar)):
                rng, ref = np.random.default_rng(N), np.random.default_rng(N)
                for _ in range(3):
                    got, want = draw(N, rng), two_calls(N, ref)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("batch", [(1,), (4,), (3, 2)])
    @pytest.mark.parametrize("N", [1, 2, 64])
    def test_stacked_haar_draws_as_one_at_a_time(self, N, batch):
        # a stack is the lone draws in row-major order, byte for byte, and
        # leaves the generator where they would
        rng, ref = np.random.default_rng(N), np.random.default_rng(N)
        got = haar_unitary(N, rng, batch=batch)
        want = np.stack([haar_unitary(N, ref) for _ in range(math.prod(batch))])
        assert got.shape == (*batch, N, N)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fold_matches_scalar_reflection(self):
        def reflect(x, S):  # one value at a time, in Python floats
            period = 4.0 * S
            y = (x + S) % period
            if y < 0:
                y += period
            if y > 2.0 * S:
                y = period - y
            return y - S

        rng = np.random.default_rng(8)
        for S in (2.0, 1.0, 0.3, 1e-3):
            odd = S * np.arange(-41.0, 42.0, 2.0)
            x = np.concatenate([
                rng.normal(0.0, 10.0 * S, 100_000), rng.uniform(-1e6, 1e6, 100_000),
                odd, 2.0 * odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf),
                [S, -S, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
            ])
            want = np.array([reflect(float(v), S) for v in x])
            assert np.array_equal(_fold(x, S).view(np.int64), want.view(np.int64))

    def test_reflect_stacked_equals_one_at_a_time(self):
        rng = np.random.default_rng(9)
        for N in (1, 2, 8, 12):
            stack = np.stack([3.0 * gue(N, rng) for _ in range(5)])
            batch = spectral_reflect(stack, 1.5)
            for a, r in zip(stack, batch):
                assert np.array_equal(spectral_reflect(a, 1.5), r)

    def test_reflect_keeps_hermitian(self):
        rng = np.random.default_rng(4)
        h = 3.0 * gue(5, rng)
        r = spectral_reflect(h, 1.0)
        assert np.max(np.abs(r - r.conj().T)) < 1e-12
        assert np.linalg.norm(r, 2) <= 1.0 + 1e-12


class TestMatrixTuple:
    def test_validation_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            MatrixTuple(LAYOUT, 2, sa={(1, 1): bad})

    def test_validation_rejects_norm(self):
        big = np.diag([5.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            MatrixTuple(LAYOUT, 2, sa={(1, 1): big})
        MatrixTuple(LAYOUT, 2, sa={(1, 1): big}, check_norm=False)

    def test_validation_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            MatrixTuple(LAYOUT, 2, unitaries={1: np.diag([2.0, 1.0]).astype(complex)})

    @pytest.mark.parametrize("letter", ["u[1]", "u'[1]"])
    def test_missing_unitary_names_the_slot(self, letter):
        tup = MatrixTuple(LAYOUT, 2, sa={(1, 1): np.eye(2)})
        with pytest.raises(ValueError, match="tuple has no unitary slot 1"):
            trace_evaluate(parse(f"{letter}*x[1,1]", LAYOUT), tup)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(5)
        tup = make_tuple(rng, 3, with_unitaries=False)
        data = json.loads(json.dumps(tup.to_json()))
        back = MatrixTuple.from_json(data, LAYOUT)
        for key, a in tup.sa.items():
            assert np.allclose(back.sa[key], a)


class TestEvaluation:
    def test_identity_and_constants(self):
        rng = np.random.default_rng(6)
        tup = make_tuple(rng, 4)
        assert trace_evaluate(NCPoly.one(LAYOUT), tup) == pytest.approx(1.0)
        p = NCPoly.one(LAYOUT).scale(2.5)
        assert np.allclose(evaluate(p, tup), 2.5 * np.eye(4))

    def test_homomorphism(self):
        rng = np.random.default_rng(7)
        tup = make_tuple(rng, 5)
        p = parse("x[1,1]*x[2,1] + (0+1i)*u[1]*z[1,2]*u'[1]", LAYOUT)
        q = parse("2*x[2,1]^2 - x[1,2]", LAYOUT)
        assert np.allclose(evaluate(p * q, tup), evaluate(p, tup) @ evaluate(q, tup))
        assert np.allclose(evaluate(p.adjoint(), tup), evaluate(p, tup).conj().T)

    def test_trace_matches_direct(self):
        rng = np.random.default_rng(8)
        tup = make_tuple(rng, 4)
        p = parse("x[1,1]*x[2,1]*x[1,1] - 3*z[2,1]", LAYOUT)
        direct = np.trace(evaluate(p, tup)) / 4
        assert trace_evaluate(p, tup) == pytest.approx(direct)

    def test_trace_x_equals_conjugated_z(self):
        # x[i,j] evaluates as u z u', so traces of pure x words match the
        # explicitly conjugated z words
        rng = np.random.default_rng(9)
        tup = make_tuple(rng, 4)
        a = trace_evaluate(parse("x[1,1]*x[2,1]", LAYOUT), tup)
        b = trace_evaluate(parse("u[1]*z[1,1]*u'[1]*u[2]*z[2,1]*u'[2]", LAYOUT), tup)
        assert a == pytest.approx(b)

    def test_double_trace(self):
        rng = np.random.default_rng(10)
        tup = make_tuple(rng, 3)
        p = parse("x[1,1]", LAYOUT)
        q = parse("x[2,1]^2", LAYOUT)
        t = TensorNCPoly.of_pair(p, q).scale(2.0)
        want = 2.0 * trace_evaluate(p, tup) * trace_evaluate(q, tup)
        assert double_trace_evaluate(t, tup) == pytest.approx(want)

    def test_conjugated(self):
        rng = np.random.default_rng(11)
        tup = make_tuple(rng, 4, with_unitaries=False)
        vs = [haar_unitary(4, rng) for _ in range(LAYOUT.n)]
        conj = tup.conjugated(vs)
        # single-family traces are conjugation invariant
        p = parse("z[1,1]*z[1,2]", LAYOUT)
        assert trace_evaluate(p, conj) == pytest.approx(trace_evaluate(p, tup))
        # and the conjugation acts family by family
        assert np.allclose(conj.sa[(2, 1)], vs[1] @ tup.sa[(2, 1)] @ vs[1].conj().T)


class TestTraceMemo:
    def test_memo_matches_fresh_tuple(self):
        rng = np.random.default_rng(13)
        tup = make_tuple(rng, 5)
        p = parse("x[1,1]*x[2,1] + x[2,1]*x[1,1] + 0.5*x[1,2]^2 - (0+1i)*u[2]*z[2,1]", LAYOUT)
        repeated = [trace_evaluate(p, tup) for _ in range(3)]
        fresh = MatrixTuple(LAYOUT, 5, sa=dict(tup.sa), unitaries=dict(tup.unitaries))
        assert repeated == [trace_evaluate(p, fresh)] * 3
        assert all(type(v) is complex for v in repeated)

    def test_batched_equals_single(self):
        rng = np.random.default_rng(14)
        tups = [make_tuple(rng, 3) for _ in range(4)]
        p = parse("0.3*x[1,1]*x[2,1] + 0.3*x[2,1]*x[1,1] + 1/7*x[1,2]", LAYOUT)
        re, im = _Scorer(p)(stack_of(tups))
        fresh = [MatrixTuple(LAYOUT, 3, sa=dict(t.sa), unitaries=dict(t.unitaries))
                 for t in tups]
        assert [complex(a, b) for a, b in zip(re, im)] == [trace_evaluate(p, t) for t in fresh]
        # a tensor polynomial, empty legs included, against its complex reference
        q = parse("(1/3-2i)*x[1,1]*z[1,2] + u[2]*x[2,1] - 1/5", LAYOUT)
        t = TensorNCPoly.of_pair(p, q) + TensorNCPoly.of_pair(q, q.adjoint())
        assert any(not a for a, _ in t.terms) and any(not b for _, b in t.terms)
        re, im = _Scorer(t)(stack_of(tups))
        assert ([bits(complex(a, b)) for a, b in zip(re, im)]
                == [bits(double_trace_evaluate(t, s)) for s in fresh])

    @pytest.mark.parametrize("kind", ["unitary-orbital", "matrix"])
    def test_gibbs_proposals_start_empty(self, kind, monkeypatch):
        lay = FamilyLayout(n=2, r=(1, 1), R=2.0)
        h = parse("0.2*x[1,1]*x[2,1] + 0.2*x[2,1]*x[1,1] + 0.1*x[1,1]^2", lay)
        if kind == "matrix":
            cfg = gibbs.GibbsConfig(kind, 3, h, sweeps=6, burn_in=2, thinning=1)
        else:
            xi = quantile_microstate(SpectralMeasure.semicircle(2.0), 3)
            cfg = gibbs.GibbsConfig(kind, 3, h, microstates=MatrixTuple(
                lay, 3, sa={(1, 1): xi, (2, 1): xi}), sweeps=6, burn_in=2, thinning=1)
        seen = []
        original = gibbs.energy

        def recording(state, config):
            if all(state is not s for s in seen):
                seen.append(state)
            return original(state, config)

        monkeypatch.setattr(gibbs, "energy", recording)
        chain = gibbs.run(cfg)
        assert chain.proposed > 0 and len(seen) > cfg.sweeps
        # the chain scores batches only, each through the stacked path
        assert all(isinstance(state, _Stack) for state in seen)


def reference_trace(w, tup):
    """tr_N of a word with its head rebuilt from the identity by
    evaluate_word, with no memo: the arithmetic the trace pass must repeat
    bit for bit."""
    if not w:
        return 1.0 + 0.0j
    if len(w) == 1:
        return complex(np.trace(tup.lookup(w[0]))) / tup.N
    head = evaluate_word(w[:-1], tup)
    return complex(np.sum(head.T * tup.lookup(w[-1]))) / tup.N


def bits(v):
    """repr of both parts, so that -0.0 and 0.0 count as different."""
    return repr(v.real), repr(v.imag)


class TestScorer:
    """The scorer gives each state of a stack bitwise the real and
    imaginary parts trace_evaluate gives it alone."""

    LAYOUT3 = FamilyLayout(n=3, r=(2, 1, 1), R=2.0)
    H = ("x[1,1]*x[2,1]*x[1,2]*x[3,1] + (1/3-2i)*z[1,1]*x[2,1]*z[1,2] + 1/4i*x[3,1]"
         " + (0.1+0.2i)*u[2]*x[3,1]*u'[2] - u'[3]*x[1,2]*u[1]*z[2,1] + 0.3*z[1,1]*x[1,2]"
         " + 0.2*u'[1]^2 - 1/7")

    @pytest.mark.parametrize("N", [1, 2, 3, 8])
    def test_stack_equals_each_state_alone(self, N):
        rng = np.random.default_rng(30 + N)
        p = parse(self.H, self.LAYOUT3)
        assert () in p.terms
        B = 4
        # family 1's matrices and unitary are shared by every state, so
        # some words read no stacked slot; the other slots are stacked
        sa = {(1, 1): 0.5 * gue(N, rng), (1, 2): 0.5 * gue(N, rng),
              (2, 1): np.stack([0.5 * gue(N, rng) for _ in range(B)]), (3, 1): 0.5 * gue(N, rng)}
        unitaries = {1: haar_unitary(N, rng), 2: haar_unitary(N, rng, batch=(B,)),
                     3: haar_unitary(N, rng, batch=(B,))}
        stack = _Stack.of_slots(self.LAYOUT3, N, sa, unitaries, B)
        score = _Scorer(p)
        re, im = score(stack)
        assert re.shape == im.shape == (B,)
        for k in range(B):
            s = stack.state(k)
            fresh = MatrixTuple(self.LAYOUT3, N, sa=dict(s.sa), unitaries=dict(s.unitaries),
                                check_norm=False)
            want = bits(trace_evaluate(p, fresh))
            assert bits(complex(re[k], im[k])) == want
            (lone_re,), (lone_im,) = score(s)
            assert bits(complex(lone_re, lone_im)) == want


# tuple kinds of the trace-pass property: "dense" clipped GUE, or diagonal
# quantile microstates (exact zeros and negative entries); unitaries are
# absent, Haar, or real signed permutations (whose u' carries -0.0
# imaginary parts)
DIAGONAL_LAWS = [SpectralMeasure.bernoulli(1.0), SpectralMeasure.semicircle(2.0),
                 SpectralMeasure.atomic([(-1.0, 0.25), (0.0, 0.5), (1.5, 0.25)])]


def property_tuple(seed, N, kind, unitaries):
    rng = np.random.default_rng(seed)
    sa = {}
    for i, j in ((1, 1), (1, 2), (2, 1)):
        if kind == "dense":
            sa[(i, j)] = spectral_clip(gue(N, rng), LAYOUT.R)
        else:
            sa[(i, j)] = quantile_microstate(DIAGONAL_LAWS[rng.integers(3)], N)
    us = {}
    for i in (1, 2):
        if unitaries == "haar":
            us[i] = haar_unitary(N, rng)
        elif unitaries == "real":
            us[i] = np.eye(N)[rng.permutation(N)] * rng.choice([-1.0, 1.0], N)
    return MatrixTuple(LAYOUT, N, sa=sa, unitaries=us)


def zero_signs_dropped(a):
    """The bytes of a with the sign of every zero part dropped."""
    return (a + 0.0).tobytes()


X_LETTERS = [letter_x(1, 1), letter_x(1, 2), letter_x(2, 1)]


class TestConjugate:
    """A real diagonal Xi is conjugated as (V * xi) V* and multiplied as a
    row or column scaling; each gives the matmul's numbers, bit for bit up
    to the sign of zero entries, and so bitwise the same traces."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5, 8]),
           st.sampled_from(["haar", "real"]), st.sampled_from([1, 3]),
           st.lists(st.lists(st.sampled_from(X_LETTERS), min_size=1, max_size=5).map(tuple),
                    min_size=1, max_size=8))
    def test_diagonal_route_equals_dense_product(self, seed, N, unitaries, B, words):
        tuples = [property_tuple(seed + k, N, "diagonal", unitaries) for k in range(B)]
        tup = tuples[0]
        for (i, j), a in tup.sa.items():
            xi = _real_diagonal(a)
            assert xi is not None and np.array_equal(np.diag(xi), a)
            # a lone unitary, or a stack of B
            v = tup.unitaries[i] if B == 1 else np.stack([t.unitaries[i] for t in tuples])
            want = v @ a @ v.conj().swapaxes(-1, -2)
            assert zero_signs_dropped(_conjugate(v, a, xi)) == zero_signs_dropped(want)
            assert zero_signs_dropped(_product(v, None, a, xi)) == zero_signs_dropped(v @ a)
            assert zero_signs_dropped(_product(a, xi, v, None)) == zero_signs_dropped(a @ v)
        # x-word traces through the helper equal those on the tuple
        # conjugated by dense products, bit for bit
        sa = {}
        for (i, j), a in tup.sa.items():
            v = tup.unitaries[i]
            sa[(i, j)] = v @ a @ v.conj().T
        dense = MatrixTuple._unchecked(LAYOUT, N, sa, {})
        assert ([bits(trace_word(w, tup)) for w in words]
                == [bits(trace_word(w, dense)) for w in words])

    @pytest.mark.parametrize("form", ["dense", "complex diagonal", "off-diagonal entry"])
    def test_other_matrices_take_the_dense_route(self, form):
        rng = np.random.default_rng(41)
        N = 4
        if form == "dense":
            a = spectral_clip(gue(N, rng), LAYOUT.R)
        elif form == "complex diagonal":
            a = np.diag(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        else:
            a = quantile_microstate(DIAGONAL_LAWS[1], N)
            a[0, N - 1] = a[N - 1, 0] = 1e-300
        assert _real_diagonal(a) is None
        for v in (haar_unitary(N, rng), haar_unitary(N, rng, batch=(3,))):
            want = v @ a @ v.conj().swapaxes(-1, -2)
            tup = MatrixTuple._unchecked(LAYOUT, N, {(1, 1): a}, {1: v})
            assert tup.lookup(letter_x(1, 1)).tobytes() == want.tobytes()
        # a stack is never taken for a diagonal
        assert _real_diagonal(np.stack([np.eye(N, dtype=complex)] * 2)) is None

    def test_conjugated_reads_the_helper(self):
        tup = property_tuple(42, 5, "diagonal", "haar")
        conj = MatrixTuple._unchecked(LAYOUT, 5, dict(tup.sa), {}).conjugated(
            [tup.unitaries[1], tup.unitaries[2]])
        for i, j in tup.sa:
            assert conj.sa[(i, j)].tobytes() == tup.lookup(letter_x(i, j)).tobytes()


PASS_LETTERS = [letter_x(1, 1), letter_x(1, 2), letter_x(2, 1), letter_z(1, 1), letter_z(2, 1),
                letter_u(1), letter_ustar(1), letter_u(2), letter_ustar(2)]


class TestTracePass:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5]),
           st.sampled_from(["dense", "diagonal"]), st.sampled_from(["none", "haar", "real"]),
           st.lists(st.lists(st.sampled_from(PASS_LETTERS), max_size=5).map(tuple),
                    min_size=1, max_size=12))
    def test_pass_equals_evaluate_word_reference(self, seed, N, kind, unitaries, words):
        tup = property_tuple(seed, N, kind, unitaries)
        if unitaries == "none":
            words = [tuple(l for l in w if l[0] in "xz") for w in words]  # x or z letters
        got = [trace_word(w, tup) for w in words]
        assert [bits(v) for v in got] == [bits(reference_trace(w, tup)) for w in words]
        assert all(type(v) is complex for v in got)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5]), st.sampled_from([1, 3]),
           st.sampled_from(["unitary-orbital", "matrix"]),
           st.lists(st.lists(st.sampled_from(PASS_LETTERS), min_size=1, max_size=5).map(tuple),
                    min_size=1, max_size=12))
    def test_batch_trace_sum_equals_each_state_alone(self, seed, N, B, kind, words):
        rng = np.random.default_rng(seed)
        if kind == "matrix":
            words = [w for w in words if all(l[0] in "xz" for l in w)] or [(letter_x(1, 1),)]
            cfg = gibbs.GibbsConfig(kind, N, NCPoly.zero(LAYOUT))
            states = [property_tuple(rng.integers(2**32), N, "dense", "none") for _ in range(B)]
        else:
            micro = property_tuple(seed, N, "dense", "none")  # each state brings its V
            cfg = gibbs.GibbsConfig(kind, N, NCPoly.zero(LAYOUT), microstates=micro)
            states = [micro.with_unitaries({1: haar_unitary(N, rng), 2: haar_unitary(N, rng)})
                      for _ in range(B)]
        batch = _word_traces(gibbs._batch(gibbs._stack(states, cfg), cfg), words)
        lone = [_word_traces(s, words) for s in states]
        for w in words:
            # a word of microstate letters only is one number for the whole batch
            re, im = (np.broadcast_to(v, (B,)) for v in batch[w])
            assert ([bits(complex(a, b)) for a, b in zip(re, im)]
                    == [bits(complex(*t[w])) for t in lone])

    @pytest.fixture
    def lookups(self, monkeypatch):
        counts = {}
        original = MatrixTuple.lookup

        def counting(self, letter):
            counts[letter] = counts.get(letter, 0) + 1
            return original(self, letter)

        monkeypatch.setattr(MatrixTuple, "lookup", counting)
        return counts

    def test_empirical_state_looks_each_letter_up_once(self, lookups):
        lay = FamilyLayout(n=2, r=(1, 1), R=2.0)
        tup = make_tuple(np.random.default_rng(16), 3, layout=lay)
        table = empirical_state(tup, 4)
        assert len(table.values) > 10
        letters = {l for w in table.values for l in w}
        assert lookups == dict.fromkeys(letters, 1)
        assert len(letters) == 2

    def test_scorer_looks_each_letter_up_once_per_stack(self, lookups):
        rng = np.random.default_rng(17)
        stacks = [stack_of([make_tuple(rng, 3) for _ in range(size)]) for size in (3, 2)]
        p = parse("0.3*x[1,1]*x[2,1] + 0.3*x[2,1]*x[1,1] + x[1,1]^3 - 2*u[1]*z[1,2]*u'[1]",
                  LAYOUT)
        score = _Scorer(p)
        for stack in stacks:
            score(stack)
        letters = {l for w in p.terms for l in w}
        assert lookups == dict.fromkeys(letters, len(stacks))

    def test_pass_keeps_no_matrix_on_the_tuple(self):
        tup = make_tuple(np.random.default_rng(20), 4)
        sa, unitaries = dict(tup.sa), dict(tup.unitaries)
        copies = {k: a.copy() for k, a in [*sa.items(), *unitaries.items()]}
        attributes = set(vars(tup))
        p = parse("x[1,1]*x[2,1]*x[1,2] + u[2]*z[2,1]*u'[2]*x[1,1]", LAYOUT)
        trace_evaluate(p, tup)
        double_trace_evaluate(TensorNCPoly.of_pair(p, p.adjoint()), tup)
        empirical_state(tup, 3)
        assert set(vars(tup)) == attributes
        assert tup.sa == sa and tup.unitaries == unitaries  # same array objects
        for k, a in [*tup.sa.items(), *tup.unitaries.items()]:
            assert np.array_equal(a, copies[k])
