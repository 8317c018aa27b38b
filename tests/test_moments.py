import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbfree import moments
from orbfree.matrices import (
    MatrixTuple,
    SpectralMeasure,
    haar_unitary,
    quantile_microstate,
    spectral_clip,
    gue,
    trace_word,
)
from orbfree.moments import (
    MomentTable,
    _CenteringRecursion,
    canonical_word,
    chi_single,
    empirical_state,
    free_cumulants,
    free_product,
    moment_distance,
    moments_from_cumulants,
    table_from_measure,
)
from orbfree.poly import (
    FamilyLayout,
    adjoint_word,
    letter_u,
    letter_ustar,
    letter_x,
    letter_z,
    parse,
    reduce_word,
)

LAYOUT2 = FamilyLayout(n=2, r=(1, 1), R=2.0)
# a cutoff that bounds every moment the free-product property tests draw
WIDE = FamilyLayout(n=2, r=(1, 1), R=10.0)
X1 = letter_x(1, 1)
X2 = letter_x(2, 1)


# ---------------------------------------------------------------------------
# brute-force partition machinery (independent oracle)


def set_partitions(n):
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        for k in range(len(rest)):
            yield rest[:k] + [rest[k] + [n - 1]] + rest[k + 1 :]
        yield rest + [[n - 1]]


def is_noncrossing(blocks):
    for b1, b2 in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(sorted(b1), 2):
            for b, d in itertools.combinations(sorted(b2), 2):
                if a < b < c < d or b < a < d < c:
                    return False
    return True


def nc_moment(kappa, n):
    # m_n as the sum over non-crossing partitions of products of cumulants
    total = 0.0
    for blocks in set_partitions(n):
        if is_noncrossing(blocks):
            prod = 1.0
            for b in blocks:
                prod *= kappa[len(b) - 1]
            total += prod
    return total


def nc_mixed_moment(word_families, kappas):
    """Mixed moment of free single-variable families: sum over non-crossing
    partitions with family-constant blocks of products of marginal cumulants."""
    n = len(word_families)
    total = 0.0
    for blocks in set_partitions(n):
        if not is_noncrossing(blocks):
            continue
        prod = 1.0
        ok = True
        for b in blocks:
            fams = {word_families[p] for p in b}
            if len(fams) != 1:
                ok = False
                break
            (fam,) = fams
            prod *= kappas[fam][len(b) - 1]
        if ok:
            total += prod
    return total


# ---------------------------------------------------------------------------


class TestCanonicalWord:
    def test_rotation_and_adjoint(self):
        w = (X1, X2, X2)
        for k in range(3):
            rot = w[k:] + w[:k]
            assert canonical_word(rot)[0] == canonical_word(w)[0]
        rep, flag = canonical_word(tuple(reversed(w)))
        assert rep == canonical_word(w)[0]

    def test_cyclic_unitary_cancellation(self):
        w = (letter_ustar(1), X2, letter_u(1))
        rep, _ = canonical_word(w)
        assert rep == (X2,)


class TestEmpiricalState:
    def test_single_variable_powers(self):
        lay = FamilyLayout(n=1, r=(1,), R=5.0)
        a = 1.7
        tup = MatrixTuple(lay, 1, sa={(1, 1): np.array([[a]], dtype=complex)})
        t = empirical_state(tup, 3)
        x = letter_x(1, 1)
        assert t.get((x,)) == pytest.approx(a)
        assert t.get((x, x)) == pytest.approx(a * a)
        assert t.get((x, x, x)) == pytest.approx(a**3)

    def test_diag_pm1(self):
        tup = MatrixTuple(LAYOUT2, 2, sa={(1, 1): np.diag([1.0, -1.0]).astype(complex),
                                          (2, 1): np.zeros((2, 2), dtype=complex)})
        t = empirical_state(tup, 2)
        assert t.get((X1,)) == pytest.approx(0.0)
        assert t.get((X1, X1)) == pytest.approx(1.0)

    def test_traciality_structural(self):
        rng = np.random.default_rng(0)
        sa = {(i, 1): spectral_clip(gue(3, rng), 2.0) for i in (1, 2)}
        tup = MatrixTuple(LAYOUT2, 3, sa=sa)
        t = empirical_state(tup, 3)
        assert t.get((X1, X2)) == t.get((X2, X1))
        assert t.get((X1, X2, X2)) == t.get((X2, X2, X1))
        t.check_invariants()

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(1)
        sa = {(i, 1): spectral_clip(gue(4, rng), 2.0) for i in (1, 2)}
        tup = MatrixTuple(LAYOUT2, 4, sa=sa)
        t = empirical_state(tup, 4)
        w = (X1, X2, X1, X1)
        assert t.get(tuple(reversed(w))) == pytest.approx(np.conj(t.get(w)))

    def test_orbital_identity_conjugation(self):
        rng = np.random.default_rng(2)
        sa = {(i, 1): spectral_clip(gue(3, rng), 2.0) for i in (1, 2)}
        tup = MatrixTuple(LAYOUT2, 3, sa=sa)
        eye = [np.eye(3, dtype=complex)] * 2
        assert moment_distance(empirical_state(tup.conjugated(eye), 3), empirical_state(tup, 3), 3) < 1e-12

    def test_second_call_canonicalizes_nothing(self, monkeypatch):
        # the canonical keys of each (alphabet, m) are enumerated once
        rng = np.random.default_rng(3)
        tups = [MatrixTuple(LAYOUT2, 3, sa={(i, 1): spectral_clip(gue(3, rng), 2.0)
                                            for i in (1, 2)}) for _ in range(2)]
        empirical_state(tups[0], 5)
        calls = []
        original = moments.canonical_word
        monkeypatch.setattr(moments, "canonical_word", lambda w: calls.append(w) or original(w))
        second = empirical_state(tups[1], 5)
        assert calls == []
        want = {(): 1.0 + 0.0j}
        for w in itertools.chain.from_iterable(
                itertools.product((X1, X2), repeat=n) for n in range(6)):
            key, _ = original(w)
            want.setdefault(key, trace_word(key, tups[1]))
        assert list(second.values.items()) == list(want.items())

    def test_orbital_scalar_case(self):
        lay = LAYOUT2
        tup = MatrixTuple(lay, 1, sa={(1, 1): np.array([[0.7]], dtype=complex),
                                      (2, 1): np.array([[-1.2]], dtype=complex)})
        vs = [np.array([[np.exp(1j * 0.3)]]), np.array([[np.exp(-1j * 1.1)]])]
        t = empirical_state(tup.conjugated(vs), 2)
        assert t.get((X1, X2)) == pytest.approx(0.7 * -1.2)


class TestFreeProduct:
    def semicircle_pair(self, m=6):
        mu = SpectralMeasure.semicircle(2.0)
        return [table_from_measure(LAYOUT2, 1, 1, mu, m),
                table_from_measure(LAYOUT2, 2, 1, mu, m)]

    def test_alternating_word_vanishes(self):
        fp = free_product(self.semicircle_pair(), 6)
        assert fp.get((X1, X2, X1, X2)) == pytest.approx(0.0, abs=1e-12)

    def test_factorization(self):
        fp = free_product(self.semicircle_pair(), 6)
        assert fp.get((X1, X1, X2, X2)) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_consistency(self):
        marginals = self.semicircle_pair()
        fp = free_product(marginals, 6)
        for k in range(1, 7):
            assert fp.get((X1,) * k) == pytest.approx(marginals[0].get((X1,) * k), abs=1e-12)
            assert fp.get((X2,) * k) == pytest.approx(marginals[1].get((X2,) * k), abs=1e-12)

    def test_against_nc_partition_oracle(self):
        rng = random.Random(5)
        for trial in range(4):
            moms = {}
            kappas = {}
            marginals = []
            for fam in (1, 2):
                seq = [rng.uniform(-0.8, 0.8) for _ in range(6)]
                # force positive even structure so values stay in bounds
                seq[1] = abs(seq[1]) + 0.3
                t = MomentTable(WIDE, "x", 6)
                x = letter_x(fam, 1)
                for k, v in enumerate(seq, start=1):
                    t.values[(x,) * k] = complex(v)
                marginals.append(t)
                moms[fam] = seq
                kappas[fam] = [v.real for v in free_cumulants(seq)]
            fp = free_product(marginals, 6)
            for length in range(1, 7):
                for fams in itertools.product((1, 2), repeat=length):
                    w = tuple(letter_x(f, 1) for f in fams)
                    want = nc_mixed_moment(fams, kappas)
                    assert fp.get(w) == pytest.approx(want, abs=1e-12)

    def test_golden_freeness_problem(self):
        # the free product the `freeness` command compares against:
        # bernoulli:1 and semicircle:2 microstates at N=100, m=4; a short
        # hash of the exact reprs recorded before zero marginals were skipped
        measures = [SpectralMeasure.bernoulli(1.0), SpectralMeasure.semicircle(2.0)]
        fp = free_product([table_from_measure(LAYOUT2, i, 1, SpectralMeasure.empirical(
            np.linalg.eigvalsh(quantile_microstate(mu, 100))), 4)
            for i, mu in enumerate(measures, start=1)], 4)
        got = hashlib.sha256(repr(sorted(fp.values.items())).encode()).hexdigest()[:16]
        assert (len(fp.values), got) == (16, "8c35861c085e20d0")

    def test_asymptotic_freeness_light(self):
        # conjugating independent diagonal microstates by independent Haar
        # unitaries approximates the free product at rate O(1/N)
        N, m, samples = 100, 4, 3
        rng = np.random.default_rng(6)
        mu = SpectralMeasure.semicircle(2.0)
        xi = quantile_microstate(mu, N)
        tup = MatrixTuple(LAYOUT2, N, sa={(1, 1): xi, (2, 1): xi})
        marginals = [table_from_measure(LAYOUT2, i, 1, SpectralMeasure.empirical(np.diag(xi).real), m)
                     for i in (1, 2)]
        fp = free_product(marginals, m)
        dists = []
        for _ in range(samples):
            vs = [haar_unitary(N, rng) for _ in range(2)]
            emp = empirical_state(tup.conjugated(vs), m)
            dists.append(moment_distance(emp, fp, m))
        assert np.mean(dists) <= 10.0 / N


class TestFreeCumulants:
    def test_semicircle(self):
        kappa = free_cumulants([0.0, 1.0, 0.0, 2.0, 0.0, 5.0])
        assert np.allclose(kappa, [0, 1, 0, 0, 0, 0], atol=1e-12)

    def test_point_mass(self):
        a = 0.8
        kappa = free_cumulants([a**k for k in range(1, 7)])
        assert kappa[0] == pytest.approx(a)
        assert np.allclose(kappa[1:], 0.0, atol=1e-12)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            mom = [rng.uniform(-1, 1) for _ in range(6)]
            back = moments_from_cumulants(free_cumulants(mom))
            assert np.allclose(back, mom, atol=1e-12)

    def test_moment_cumulant_vs_partition_sum(self):
        rng = random.Random(8)
        for _ in range(5):
            kappa = [rng.uniform(-1, 1) for _ in range(6)]
            mom = moments_from_cumulants(kappa)
            for n in range(1, 7):
                assert mom[n - 1].real == pytest.approx(nc_moment(kappa, n), abs=1e-12)


class TestMomentDistance:
    def test_identical(self):
        t = table_from_measure(LAYOUT2, 1, 1, SpectralMeasure.semicircle(2.0), 4)
        assert moment_distance(t, t, 4) == 0.0

    def test_single_word_difference(self):
        t1 = table_from_measure(LAYOUT2, 1, 1, SpectralMeasure.semicircle(2.0), 4)
        t2 = table_from_measure(LAYOUT2, 1, 1, SpectralMeasure.semicircle(2.0), 4)
        x = letter_x(1, 1)
        t2.set((x, x), t2.get((x, x)) + 0.3)
        assert moment_distance(t1, t2, 4) == pytest.approx(0.3)
        assert moment_distance(t2, t1, 4) == pytest.approx(0.3)

    @staticmethod
    def _freeness_tables(m):
        # the tables the freeness command compares: an empirical state of a
        # conjugated tuple against the free product of its marginals
        rng = np.random.default_rng(21)
        sa = {(i, 1): spectral_clip(gue(6, rng), 2.0) for i in (1, 2)}
        tup = MatrixTuple(LAYOUT2, 6, sa=sa)
        marginals = [table_from_measure(LAYOUT2, i, 1, SpectralMeasure.empirical(
            np.linalg.eigvalsh(sa[(i, 1)])), m) for i in (1, 2)]
        vs = [haar_unitary(6, rng) for _ in range(2)]
        return empirical_state(tup.conjugated(vs), m), free_product(marginals, m)

    def test_reads_canonical_keys_without_canonicalizing(self, monkeypatch):
        emp, fp = self._freeness_tables(4)
        calls = []
        original = moments.canonical_word
        monkeypatch.setattr(moments, "canonical_word", lambda w: calls.append(w) or original(w))
        moment_distance(emp, fp, 4)
        assert calls == []

    def test_equals_the_lookup_form(self):
        emp, fp = self._freeness_tables(4)
        for m in (1, 2, 4):
            keys = ({w for w in emp.values if len(w) <= m}
                    | {w for w in fp.values if len(w) <= m})
            want = max(abs(emp.get(w) - fp.get(w)) for w in keys)
            assert moment_distance(emp, fp, m) == want
            assert moment_distance(fp, emp, m) == max(abs(fp.get(w) - emp.get(w)) for w in keys)

    def test_key_missing_from_one_table_raises(self):
        t1 = table_from_measure(LAYOUT2, 1, 1, SpectralMeasure.semicircle(2.0), 4)
        t2 = table_from_measure(LAYOUT2, 1, 1, SpectralMeasure.semicircle(2.0), 2)
        with pytest.raises(KeyError):
            moment_distance(t1, t2, 4)


class TestChiSingle:
    def test_semicircle(self):
        got = chi_single(SpectralMeasure.semicircle(2.0))
        assert got == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-12)

    def test_scaling(self):
        base = chi_single(SpectralMeasure.semicircle(2.0))
        scaled = chi_single(SpectralMeasure.semicircle(4.0))
        assert scaled - base == pytest.approx(math.log(2.0), abs=1e-12)

    def test_arcsine_closed_form(self):
        # the arcsine law on [-2,2] is the equilibrium measure of a set of
        # logarithmic capacity 1, so the log-energy vanishes
        got = chi_single(SpectralMeasure.arcsine(-2.0, 2.0))
        assert got == pytest.approx(0.75 + 0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_atoms(self):
        assert chi_single(SpectralMeasure.atomic([(0.3, 1.0)])) == -math.inf
        assert chi_single(SpectralMeasure.bernoulli(1.0)) == -math.inf

    def test_empirical_estimator(self):
        mu = SpectralMeasure.semicircle(2.0)
        sample = [mu.quantile((k - 0.5) / 2000) for k in range(1, 2001)]
        got = chi_single(SpectralMeasure.empirical(sample))
        assert got == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=0.02)


def table_from_json(data: dict) -> MomentTable:
    """The moment table that MomentTable.to_json wrote: a reader of the
    format, for the round-trip tests; no program path reads it back."""
    meta = data["metadata"]
    layout = FamilyLayout(n=meta["layout"]["n"], r=tuple(meta["layout"]["r"]), R=meta["R"])
    out = MomentTable(layout, meta["alphabet"], meta["m"])
    for key, (re, im) in ((k, v) for k, v in data.items() if k not in ("metadata", "1")):
        ((w, _),) = parse(key, layout).terms.items()
        out.set(w, complex(re, im))
    return out


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(10)
        sa = {(i, 1): spectral_clip(gue(3, rng), 2.0) for i in (1, 2)}
        t = empirical_state(MatrixTuple(LAYOUT2, 3, sa=sa), 3)
        data = json.loads(json.dumps(t.to_json()))
        back = table_from_json(data)
        assert moment_distance(t, back, 3) < 1e-12
        assert back.alphabet == "x" and back.m == 3


class FullSubsetSum(_CenteringRecursion):
    """The centering recursion with the full 2^k inclusion-exclusion over
    the blocks of a mixed word, zero marginals included."""

    def at(self, key):
        if key in self.cache:
            return self.cache[key]
        blocks = [tuple(g) for _, g in itertools.groupby(key, key=self.component)]
        if len(blocks) == 1:
            v = self.marginal(key)
        else:
            k = len(blocks)
            betas = [self.marginal(b) for b in blocks]
            acc = 0.0 + 0.0j
            for mask in range(2**k - 1):
                coeff = 1.0 + 0.0j
                kept = []
                dropped = 0
                for j in range(k):
                    if mask >> j & 1:
                        kept.extend(blocks[j])
                    else:
                        coeff *= betas[j]
                        dropped += 1
                if coeff == 0.0:
                    continue
                sign = -1.0 if dropped % 2 else 1.0
                acc += sign * coeff * self(kept)
            v = -acc
        self.cache[key] = v
        return v


# ---------------------------------------------------------------------------
# properties over drawn inputs

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
LETTERS = [X1, X2, letter_z(1, 1), letter_u(1), letter_ustar(1), letter_u(2), letter_ustar(2)]
words = st.lists(st.sampled_from(LETTERS), max_size=7).map(tuple)
unit_reals = st.floats(-1.0, 1.0, allow_nan=False)
# uz words as products of bare and Haar-conjugated z's (x = u z u*); the
# u runs between them are blocks of Haar marginal 0
UZ_PIECES = [(letter_z(i, 1),) for i in (1, 2)] + [
    (letter_u(i), letter_z(i, 1), letter_ustar(i)) for i in (1, 2)]


class TestProperties:
    @PROPERTY_SETTINGS
    @given(words, st.integers(0, 6))
    def test_canonical_word_invariant_under_rotation_and_adjoint(self, w, k):
        key, _ = canonical_word(w)
        k %= max(1, len(w))
        assert canonical_word(w[k:] + w[:k])[0] == key
        assert canonical_word(adjoint_word(w))[0] == key

    @PROPERTY_SETTINGS
    @given(words)
    def test_canonical_key_is_a_fixed_point(self, w):
        key, _ = canonical_word(w)
        assert canonical_word(key) == (key, False)

    @PROPERTY_SETTINGS
    @given(st.lists(st.tuples(words.map(reduce_word).filter(bool),
                              st.complex_numbers(allow_nan=False, allow_infinity=False)),
                    max_size=8))
    def test_json_round_trip(self, entries):
        t = MomentTable(LAYOUT2, "x", 7)
        for w, v in entries:
            t.set(w, v)
        assert table_from_json(json.loads(json.dumps(t.to_json()))) == t

    @PROPERTY_SETTINGS
    @given(st.lists(unit_reals, min_size=1, max_size=6))
    def test_cumulant_round_trip(self, mom):
        back = moments_from_cumulants(free_cumulants(mom))
        assert max(abs(b - m) for b, m in zip(back, mom)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(st.lists(st.lists(st.floats(-0.8, 0.8, allow_nan=False), min_size=6, max_size=6),
                    min_size=2, max_size=2),
           st.lists(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=6),
                    min_size=1, max_size=4))
    def test_free_product_matches_nc_partitions(self, seqs, drawn_words):
        kappas = {}
        marginals = []
        for fam, seq in enumerate(seqs, start=1):
            x = letter_x(fam, 1)
            t = MomentTable(WIDE, "x", 6)
            for k, v in enumerate(seq, start=1):
                t.values[(x,) * k] = complex(v)
            marginals.append(t)
            kappas[fam] = [v.real for v in free_cumulants(seq)]
        fp = free_product(marginals, 6)
        for fams in drawn_words:
            w = tuple(letter_x(f, 1) for f in fams)
            assert fp.get(w) == pytest.approx(nc_mixed_moment(fams, kappas), abs=1e-12)

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.booleans(),
           st.lists(st.lists(st.sampled_from(UZ_PIECES), max_size=6)
                    .map(lambda ps: sum(ps, ())), min_size=1, max_size=3))
    def test_pruned_subset_sum_equals_full(self, seed, symmetric, drawn_words):
        # Haar blocks have marginal 0; z moments are generic floats (so that
        # a change in the order of the arithmetic shows), and 0 at odd
        # orders when symmetric, or at random
        rng = random.Random(seed)
        seqs = [[0.0 if (symmetric and k % 2) or rng.random() < 0.25 else rng.uniform(-1, 1)
                 for k in range(1, 13)] for _ in (1, 2)]

        def component(letter):
            kind, i, _ = letter
            return ("u" if kind in ("u", "U") else "z", i)

        def marginal(block):
            kind, fam = component(block[0])
            return 0.0 + 0.0j if kind == "u" else complex(seqs[fam - 1][len(block) - 1])

        pruned = _CenteringRecursion(component, marginal)
        full = FullSubsetSum(component, marginal)
        for w in drawn_words:
            pruned(w)
        # every word the recursion reached, the drawn ones included
        assert {key: full.at(key) for key in pruned.cache} == pruned.cache
