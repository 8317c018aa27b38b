import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbfree.poly import (
    QC,
    FamilyLayout,
    NCPoly,
    ParseError,
    TensorNCPoly,
    contract_theta,
    cyclic_gradient,
    derive_liberation,
    derive_unitary,
    format_poly,
    letter_u,
    letter_ustar,
    letter_x,
    letter_z,
    liberation_gradient,
    norm_bound,
    parse,
    reduce_word,
    substitute_x,
)

LAYOUT = FamilyLayout(n=2, r=(2, 1), R=2.0)
LONG_DIGITS = "1" * 5000  # beyond the 4300 digits int() converts by default


def random_poly(rng, layout=LAYOUT, alphabet="x", max_degree=4, max_terms=4):
    letters = []
    if "x" in alphabet:
        for i in range(1, layout.n + 1):
            for j in range(1, layout.r[i - 1] + 1):
                letters.append(letter_x(i, j))
    if "z" in alphabet:
        for i in range(1, layout.n + 1):
            for j in range(1, layout.r[i - 1] + 1):
                letters.append(letter_z(i, j))
    if "u" in alphabet:
        for i in range(1, layout.n + 1):
            letters.append(letter_u(i))
            letters.append(letter_ustar(i))
    p = NCPoly.zero(layout)
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        word = [rng.choice(letters) for _ in range(deg)]
        coeff = complex(rng.randint(-3, 3), rng.randint(-3, 3))
        p = p + NCPoly.monomial(layout, word, coeff)
    return p


class TestParse:
    def test_single_generator(self):
        p = parse("x[1,1]", LAYOUT)
        assert p == NCPoly.x(LAYOUT, 1, 1)

    def test_unit_relation(self):
        assert parse("u[1]*u'[1]", LAYOUT) == NCPoly.one(LAYOUT)
        assert parse("u'[2]*u[2]", LAYOUT) == NCPoly.one(LAYOUT)

    def test_two_term(self):
        p = parse("2*x[1,1]^2 - (0+1i)*x[2,1]", LAYOUT)
        x11 = NCPoly.x(LAYOUT, 1, 1)
        x21 = NCPoly.x(LAYOUT, 2, 1)
        assert p == x11 * x11 * 2 - x21.scale(1j)

    def test_rational_coeff(self):
        from fractions import Fraction

        p = parse("1/3*x[1,1]", LAYOUT)
        assert p == NCPoly.x(LAYOUT, 1, 1).scale(Fraction(1, 3))

    def test_parens(self):
        p = parse("(x[1,1] + x[1,2])^2", LAYOUT)
        s = NCPoly.x(LAYOUT, 1, 1) + NCPoly.x(LAYOUT, 1, 2)
        assert p == s * s

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x[1,1] + @", LAYOUT)
        assert err.value.position == 9

    def test_index_out_of_bounds(self):
        with pytest.raises((ParseError, ValueError)):
            parse("x[3,1]", LAYOUT)
        with pytest.raises((ParseError, ValueError)):
            parse("x[2,2]", LAYOUT)
        for text, pos in (("u[9]", 0), ("u'[9]", 0), ("x[1,1]*u[9]", 7)):
            with pytest.raises(ParseError) as err:
                parse(text, LAYOUT)
            assert err.value.position == pos

    @pytest.mark.parametrize("text, want", [
        ("x[1,1]*2", {(letter_x(1, 1),): QC(Fraction(2), Fraction(0))}),
        ("2^3", {(): QC(Fraction(8), Fraction(0))}),
        ("(0+1i)^2", {(): QC(Fraction(-1), Fraction(0))}),
        ("2i*x[1,1]", {(letter_x(1, 1),): QC(Fraction(0), Fraction(2))}),
        ("(1/2-3/4i)*x[1,1]", {(letter_x(1, 1),): QC(Fraction(1, 2), Fraction(-3, 4))}),
        ("x[2,1]*3/4i - 1.5", {(letter_x(2, 1),): QC(Fraction(0), Fraction(3, 4)),
                               (): QC(Fraction(-3, 2), Fraction(0))}),
    ])
    def test_numbers_are_factors(self, text, want):
        assert parse(text, LAYOUT).terms == want

    @pytest.mark.parametrize("text, pos", [
        ("(1+2i", 5), ("2*", 2), ("x[1,1] 2", 7),
        ("1/0*x[1,1]", 0), ("0/0", 0), ("x[1,1] - 2/0i*x[2,1]", 9),
        pytest.param(LONG_DIGITS + "*x[1,1]", 0, id="long-number"),
        pytest.param("x[1,1] + 1." + LONG_DIGITS, 9, id="long-decimal"),
        pytest.param("x[1," + LONG_DIGITS + "]", 4, id="long-index"),
        pytest.param("x[1,1]^" + LONG_DIGITS, 7, id="long-exponent"),
    ])
    def test_malformed_number_input(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text, LAYOUT)
        assert err.value.position == pos

    @pytest.mark.parametrize("text, pos", [
        pytest.param("(" * 101 + "x[1,1]" + ")" * 101, 100, id="parentheses-101"),
        pytest.param("(" * 3000 + "x[1,1]" + ")" * 3000, 100, id="parentheses-3000"),
        ("x[1,1]^65", 7),
        ("x[1,1]^4000", 7),
        ("(x[1,1]^2)^33", 11),
        ("2^65", 2),
        ("(x[1,1]+x[2,1])^11", 16),
        ("(x[1,1]+x[2,1]+x[1,2])^7", 23),
        pytest.param("(x[1,1]+x[2,1])^10*(x[1,1]+x[2,1])^10", 18, id="power-product"),
    ])
    def test_limits_refused(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text, LAYOUT)
        assert err.value.position == pos

    def test_limits_admitted(self):
        assert parse("(" * 100 + "x[1,1]" + ")" * 100, LAYOUT) == parse("x[1,1]", LAYOUT)
        assert parse("x[1,1]^64", LAYOUT).degree == 64
        assert len(parse("(x[1,1]+x[2,1])^5*(x[1,1]+x[2,1])^5", LAYOUT).terms) == 1024
        assert len(parse("(x[1,1]+x[2,1])^10", LAYOUT).terms) == 1024
        assert parse("2^64", LAYOUT) == NCPoly.one(LAYOUT).scale(2**64)

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_poly(rng, alphabet="xu")
            assert parse(format_poly(p), LAYOUT) == p


class TestAlgebra:
    def test_involution(self):
        rng = random.Random(1)
        for _ in range(30):
            p = random_poly(rng, alphabet="xzu")
            assert p.adjoint().adjoint() == p

    def test_unit_relation_product(self):
        assert NCPoly.u(LAYOUT, 1) * NCPoly.ustar(LAYOUT, 1) == NCPoly.one(LAYOUT)

    def test_anti_multiplicative(self):
        rng = random.Random(2)
        for _ in range(30):
            p = random_poly(rng, alphabet="xzu")
            q = random_poly(rng, alphabet="xzu")
            assert (p * q).adjoint() == q.adjoint() * p.adjoint()

    def test_distributive(self):
        rng = random.Random(3)
        for _ in range(20):
            p, q, r = (random_poly(rng, alphabet="zu") for _ in range(3))
            assert p * (q + r) == p * q + p * r

    def test_layout_mismatch(self):
        other = FamilyLayout(n=1, r=(1,), R=1.0)
        with pytest.raises(ValueError):
            NCPoly.x(LAYOUT, 1, 1) + NCPoly.x(other, 1, 1)


class TestTermCore:
    """NCPoly and TensorNCPoly share one term core; its results keep the
    operand's type."""

    @staticmethod
    def operands():
        p = parse("x[1,1]*x[2,1] - 3", LAYOUT)
        return p, TensorNCPoly.of_pair(p, p.adjoint())

    def test_zeros_of_the_two_types_differ(self):
        assert NCPoly.zero(LAYOUT) != TensorNCPoly.zero(LAYOUT)
        assert TensorNCPoly.zero(LAYOUT) != NCPoly.zero(LAYOUT)
        assert type(TensorNCPoly.zero(LAYOUT)) is TensorNCPoly

    def test_results_keep_their_type(self):
        for t in self.operands():
            for result in (t.scale(0), -t, t - t):
                assert type(result) is type(t)
            assert t.scale(0).is_zero and (t - t).is_zero
            assert not (-t).is_zero and -t + t == type(t).zero(LAYOUT)

    def test_equal_tensors_hash_equal(self):
        a, b = parse("x[1,1] + 2*x[2,1]", LAYOUT), parse("x[1,2] - x[1,1]", LAYOUT)
        whole = TensorNCPoly.of_pair(a + b, b)
        split = TensorNCPoly.of_pair(b, b) + TensorNCPoly.of_pair(a, b)
        assert list(whole.terms) != list(split.terms)  # built in another order
        assert whole == split and hash(whole) == hash(split)


class TestNormalForm:
    def test_confluence_random_orders(self):
        # reducing u u* pairs in any order gives the same normal form
        rng = random.Random(4)
        letters = [letter_u(1), letter_ustar(1), letter_u(2), letter_ustar(2),
                   letter_z(1, 1)]
        for _ in range(1000):
            word = [rng.choice(letters) for _ in range(rng.randint(0, 10))]
            canonical = reduce_word(word)
            current = list(word)
            while True:
                sites = [
                    k
                    for k in range(len(current) - 1)
                    if current[k][1] == current[k + 1][1]
                    and {current[k][0], current[k + 1][0]} == {"u", "U"}
                ]
                if not sites:
                    break
                k = rng.choice(sites)
                del current[k : k + 2]
            assert tuple(current) == canonical


class TestDerivations:
    def test_unitary_on_u(self):
        d = derive_unitary(1, NCPoly.u(LAYOUT, 1))
        assert d == TensorNCPoly.of_pair(NCPoly.u(LAYOUT, 1), NCPoly.one(LAYOUT))

    def test_unitary_on_z(self):
        assert derive_unitary(1, NCPoly.z(LAYOUT, 1, 1)).is_zero

    def test_unitary_on_conjugated_z(self):
        w = NCPoly.monomial(LAYOUT, [letter_u(1), letter_z(1, 1), letter_ustar(1)])
        d = derive_unitary(1, w)
        u1 = NCPoly.u(LAYOUT, 1)
        zu = NCPoly.monomial(LAYOUT, [letter_z(1, 1), letter_ustar(1)])
        uz = NCPoly.monomial(LAYOUT, [letter_u(1), letter_z(1, 1)])
        expected = TensorNCPoly.of_pair(u1, zu) - TensorNCPoly.of_pair(uz, NCPoly.ustar(LAYOUT, 1))
        assert d == expected

    def test_leibniz_all_modes(self):
        rng = random.Random(5)
        one = NCPoly.one(LAYOUT)
        for _ in range(40):
            p = random_poly(rng, alphabet="zu", max_degree=3)
            q = random_poly(rng, alphabet="zu", max_degree=3)
            for i in (1, 2):
                lhs = derive_unitary(i, p * q)
                rhs = derive_unitary(i, p) * TensorNCPoly.of_pair(one, q) + (
                    TensorNCPoly.of_pair(p, one) * derive_unitary(i, q)
                )
                assert lhs == rhs
        for _ in range(40):
            p = random_poly(rng, alphabet="x", max_degree=3)
            q = random_poly(rng, alphabet="x", max_degree=3)
            lhs = derive_liberation(1, p * q)
            rhs = derive_liberation(1, p) * TensorNCPoly.of_pair(one, q) + (
                TensorNCPoly.of_pair(p, one) * derive_liberation(1, q)
            )
            assert lhs == rhs

    def test_liberation_on_a_letter(self):
        one = NCPoly.one(LAYOUT)
        for i, j in ((1, 1), (1, 2), (2, 1)):
            x = NCPoly.x(LAYOUT, i, j)
            assert derive_liberation(i, x) == TensorNCPoly.of_pair(x, one) - TensorNCPoly.of_pair(one, x)
            assert derive_liberation(3 - i, x).is_zero

    def test_liberation_matches_letter_by_letter_leibniz(self):
        # family 1 has the runs x11 x12 and x11, family 2 the runs x21 and x21
        word = (letter_x(1, 1), letter_x(1, 2), letter_x(2, 1), letter_x(1, 1), letter_x(2, 1))
        c = QC(Fraction(2), Fraction(-1, 3))
        p = NCPoly.monomial(LAYOUT, word, c)
        for i in (1, 2):
            # each letter of family i: w[:k+1] (x) w[k+1:] - w[:k] (x) w[k:]
            want = TensorNCPoly.zero(LAYOUT)
            for k, letter in enumerate(word):
                if letter[1] == i:
                    want = want + TensorNCPoly.of_pair(
                        NCPoly.monomial(LAYOUT, word[: k + 1], c), NCPoly.monomial(LAYOUT, word[k + 1 :]))
                    want = want - TensorNCPoly.of_pair(
                        NCPoly.monomial(LAYOUT, word[:k], c), NCPoly.monomial(LAYOUT, word[k:]))
            got = derive_liberation(i, p)
            assert got == want
            # terms come run by run, -c before +c; liberation_check sums in this order
            assert [len(a) for a, _ in got.terms] == {1: [0, 2, 3, 4], 2: [2, 3, 4, 5]}[i]

    def test_contract_theta(self):
        u1 = NCPoly.u(LAYOUT, 1)
        zu = NCPoly.monomial(LAYOUT, [letter_z(1, 1), letter_ustar(1)])
        t = TensorNCPoly.of_pair(u1, zu)
        assert contract_theta(t) == NCPoly.z(LAYOUT, 1, 1)
        assert contract_theta(TensorNCPoly.of_pair(NCPoly.one(LAYOUT), NCPoly.one(LAYOUT))) == NCPoly.one(LAYOUT)

    def test_cyclic_gradient_single_family_word(self):
        w = NCPoly.monomial(LAYOUT, [letter_u(1), letter_z(1, 1), letter_ustar(1)])
        assert cyclic_gradient(1, w).is_zero

    def test_cyclic_gradient_zero(self):
        assert cyclic_gradient(1, NCPoly.zero(LAYOUT)).is_zero


class TestSubstitution:
    def test_single_letter(self):
        got = substitute_x(NCPoly.x(LAYOUT, 1, 1))
        want = NCPoly.monomial(LAYOUT, [letter_u(1), letter_z(1, 1), letter_ustar(1)])
        assert got == want

    def test_square_reduces(self):
        x = NCPoly.x(LAYOUT, 1, 1)
        got = substitute_x(x * x)
        want = NCPoly.monomial(
            LAYOUT, [letter_u(1), letter_z(1, 1), letter_z(1, 1), letter_ustar(1)]
        )
        assert got == want

    def test_unit(self):
        assert substitute_x(NCPoly.one(LAYOUT)) == NCPoly.one(LAYOUT)

    def test_star_homomorphism(self):
        rng = random.Random(6)
        for _ in range(30):
            p = random_poly(rng, alphabet="x")
            q = random_poly(rng, alphabet="x")
            assert substitute_x(p * q) == substitute_x(p) * substitute_x(q)
            assert substitute_x(p.adjoint()) == substitute_x(p).adjoint()


class TestLiberationGradient:
    def test_zero(self):
        assert liberation_gradient(1, NCPoly.zero(LAYOUT)).is_zero

    def test_single_family(self):
        assert liberation_gradient(1, NCPoly.x(LAYOUT, 1, 1)).is_zero

    def test_mixed_commutator(self):
        x11 = NCPoly.x(LAYOUT, 1, 1)
        x21 = NCPoly.x(LAYOUT, 2, 1)
        h = x11 * x21 + x21 * x11  # self-adjoint symmetrization
        g = liberation_gradient(1, h)
        t1 = substitute_x(x11)
        t2 = substitute_x(x21)
        # hand Leibniz + contraction: both summands contribute the same
        # commutator of the conjugated letters
        assert g == (t2 * t1 - t1 * t2).scale(2)

    def test_route_identity_randomized(self):
        rng = random.Random(8)
        for _ in range(40):
            p = random_poly(rng, alphabet="x", max_degree=4)
            h = p + p.adjoint()
            for i in (1, 2):
                # the identity between the two computation routes is
                # asserted inside liberation_gradient
                liberation_gradient(i, h)


class TestNormBound:
    # the bound reads the cutoff from the layout; LAYOUT has R = 2
    LAYOUT_R1 = FamilyLayout(n=2, r=(2, 1), R=1.0)
    LAYOUT_R3 = FamilyLayout(n=2, r=(2, 1), R=3.0)

    def test_single_letter(self):
        assert norm_bound(NCPoly.x(LAYOUT, 1, 1)) == 2.0

    def test_unit(self):
        assert norm_bound(NCPoly.one(LAYOUT)) == 1.0

    def test_two_terms(self):
        x11 = NCPoly.x(self.LAYOUT_R1, 1, 1)
        x21 = NCPoly.x(self.LAYOUT_R1, 2, 1)
        p = x11 * x11 * 3 - x21
        assert norm_bound(p) == 4.0

    def test_unitary_letters_count_one(self):
        p = NCPoly.monomial(self.LAYOUT_R3, [letter_u(1), letter_z(1, 1), letter_ustar(1)])
        assert norm_bound(p) == 3.0


# ---------------------------------------------------------------------------
# properties over drawn inputs

ROUND_TRIP_LETTERS = [letter_x(1, 1), letter_x(1, 2), letter_x(2, 1), letter_z(1, 1),
                      letter_u(1), letter_ustar(1), letter_u(2), letter_ustar(2)]
# exact rationals, and floats as the exact rationals they are
coefficient_parts = st.one_of(
    st.fractions(), st.floats(allow_nan=False, allow_infinity=False).map(Fraction))


@st.composite
def polys(draw):
    p = NCPoly.zero(LAYOUT)
    terms = draw(st.lists(st.tuples(st.lists(st.sampled_from(ROUND_TRIP_LETTERS), max_size=5),
                                    st.builds(QC, coefficient_parts, coefficient_parts)),
                          max_size=6))
    for letters, c in terms:
        p = p + NCPoly.monomial(LAYOUT, letters, c)
    return p


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(polys())
    def test_parse_inverts_format_poly(self, p):
        assert parse(format_poly(p), LAYOUT) == p
