"""Non-commutative *-polynomials over a mixed alphabet.

Generators come in four kinds: self-adjoint letters ``x[i,j]``, unitary
letters ``u[i]`` with adjoints ``u'[i]``, and self-adjoint letters
``z[i,j]``.  Words are stored in reduced normal form: the only rewriting
rules are the unit relations u[i]u'[i] = u'[i]u[i] = 1.  Coefficients are
exact rational complex numbers so that all symbolic identities can be
checked with tolerance zero; conversion to ``complex`` happens only at
numeric evaluation time.

Derivations act on words letter by letter: the unitary derivation d_i on
(u, z)-words, and the liberation derivation on x-words, which sends each
x-letter of family i to x (x) 1 - 1 (x) x.  In the text grammar a number,
real or imaginary (``2``, ``1/2``, ``2i``, ``3/4i``), is a factor like a
generator, so the printed coefficient ``(1/2-3/4i)`` is a parenthesized sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable

__all__ = [
    "QC",
    "FamilyLayout",
    "Letter",
    "Word",
    "NCPoly",
    "TensorNCPoly",
    "ParseError",
    "parse",
    "format_poly",
    "derive_unitary",
    "derive_liberation",
    "contract_theta",
    "cyclic_gradient",
    "substitute_x",
    "liberation_gradient",
    "norm_bound",
]


# ---------------------------------------------------------------------------
# exact rational-complex coefficients


@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value) -> "QC":
        if isinstance(value, QC):
            return value
        if isinstance(value, complex):
            return QC(Fraction(value.real), Fraction(value.imag))
        return QC(Fraction(value), Fraction(0))

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self) -> float:
        return abs(complex(self))


QC_ZERO = QC(Fraction(0), Fraction(0))
QC_ONE = QC(Fraction(1), Fraction(0))


def _accumulate(terms: dict, key, c: QC) -> None:
    """Add c to terms[key], dropping the key when the sum is zero; a key
    that reappears is re-inserted at the end, which fixes term order."""
    s = terms.get(key, QC_ZERO) + c
    if s.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = s


# ---------------------------------------------------------------------------
# layout, letters, words


@dataclass(frozen=True)
class FamilyLayout:
    """Family structure: ``n`` families, family ``i`` holds ``r[i-1]``
    self-adjoint letters; ``R`` is the operator-norm cutoff."""

    n: int
    r: tuple[int, ...]
    R: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one family")
        if len(self.r) != self.n or any(ri < 1 for ri in self.r):
            raise ValueError("per-family sizes must be >= 1, one per family")
        if self.R <= 0:
            raise ValueError("cutoff R must be positive")

    def check_family(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"family index {i} out of range 1..{self.n}")

    def check_xz(self, i: int, j: int) -> None:
        self.check_family(i)
        if not 1 <= j <= self.r[i - 1]:
            raise ValueError(
                f"letter index {j} out of range 1..{self.r[i - 1]} in family {i}"
            )


# A letter is (kind, i, j); kind in {"x", "z", "u", "U"} where "U" = u*.
Letter = tuple[str, int, int]
Word = tuple[Letter, ...]

_KIND_ORDER = {"x": 0, "z": 1, "u": 2, "U": 3}


def letter_x(i: int, j: int) -> Letter:
    return ("x", i, j)


def letter_z(i: int, j: int) -> Letter:
    return ("z", i, j)


def letter_u(i: int) -> Letter:
    return ("u", i, 0)


def letter_ustar(i: int) -> Letter:
    return ("U", i, 0)


def adjoint_letter(l: Letter) -> Letter:
    kind, i, j = l
    if kind == "u":
        return ("U", i, j)
    if kind == "U":
        return ("u", i, j)
    return l


def _cancels(a: Letter, b: Letter) -> bool:
    return (
        a[1] == b[1]
        and ((a[0] == "u" and b[0] == "U") or (a[0] == "U" and b[0] == "u"))
    )


def reduce_word(letters: Iterable[Letter]) -> Word:
    """Apply the unitary unit relations until no adjacent pair cancels."""
    out: list[Letter] = []
    for l in letters:
        if out and _cancels(out[-1], l):
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def adjoint_word(w: Word) -> Word:
    return tuple(adjoint_letter(l) for l in reversed(w))


def word_sort_key(w: Word):
    return (len(w), tuple((_KIND_ORDER[k], i, j) for (k, i, j) in w))


def word_alphabet(w: Word) -> set[str]:
    return {l[0] for l in w}


def xz_letter_count(w: Word) -> int:
    return sum(1 for l in w if l[0] in ("x", "z"))


# ---------------------------------------------------------------------------
# polynomials


class _Combination:
    """Finite linear combination of keys with exact nonzero coefficients on
    one family layout: the term core of NCPoly (keys are words) and
    TensorNCPoly (keys are word pairs).  Results keep the operand's type."""

    __slots__ = ("layout", "terms")

    def __init__(self, layout: FamilyLayout, terms: dict | None = None):
        self.layout = layout
        self.terms: dict = {}
        if terms:
            for k, c in terms.items():
                if not c.is_zero:
                    self.terms[k] = c

    @classmethod
    def zero(cls, layout: FamilyLayout):
        return cls(layout)

    def _check_layout(self, other) -> None:
        if self.layout != other.layout:
            raise ValueError("operands come from different family layouts")

    def _sum(self, other):
        self._check_layout(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(terms, k, c)
        return type(self)(self.layout, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.layout, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        s = QC.of(scalar)
        if s.is_zero:
            return type(self)(self.layout)
        return type(self)(self.layout, {k: c * s for k, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def _products(a: _Combination, b: _Combination, key) -> dict:
    """Terms of a bilinear product: c1 * c2 at key(k1, k2) for every pair
    of terms, accumulated in the order of the double loop."""
    terms: dict = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            _accumulate(terms, key(k1, k2), c1 * c2)
    return terms


class NCPoly(_Combination):
    """Finite linear combination of reduced words with exact coefficients."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(layout: FamilyLayout) -> "NCPoly":
        return NCPoly(layout, {(): QC_ONE})

    @staticmethod
    def monomial(layout: FamilyLayout, letters: Iterable[Letter], coeff=1) -> "NCPoly":
        w = reduce_word(letters)
        for kind, i, j in w:
            if kind in ("x", "z"):
                layout.check_xz(i, j)
            else:
                layout.check_family(i)
        return NCPoly(layout, {w: QC.of(coeff)})

    @staticmethod
    def x(layout: FamilyLayout, i: int, j: int) -> "NCPoly":
        return NCPoly.monomial(layout, [letter_x(i, j)])

    @staticmethod
    def z(layout: FamilyLayout, i: int, j: int) -> "NCPoly":
        return NCPoly.monomial(layout, [letter_z(i, j)])

    @staticmethod
    def u(layout: FamilyLayout, i: int) -> "NCPoly":
        return NCPoly.monomial(layout, [letter_u(i)])

    @staticmethod
    def ustar(layout: FamilyLayout, i: int) -> "NCPoly":
        return NCPoly.monomial(layout, [letter_ustar(i)])

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return self._sum(other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            self._check_layout(other)
            return NCPoly(self.layout, _products(self, other, lambda w1, w2: reduce_word(w1 + w2)))
        return self.scale(other)

    def adjoint(self) -> "NCPoly":
        return NCPoly(
            self.layout,
            {adjoint_word(w): c.conjugate() for w, c in self.terms.items()},
        )

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_selfadjoint(self) -> bool:
        return self == self.adjoint()

    def alphabet(self) -> set[str]:
        out: set[str] = set()
        for w in self.terms:
            out |= word_alphabet(w)
        return out

    def __repr__(self) -> str:
        return f"NCPoly({format_poly(self)})"


def norm_bound(p: NCPoly) -> float:
    """Upper bound for the universal C*-norm: sum of |coefficient| times
    the layout's cutoff R to the number of self-adjoint letters (unitary
    letters count 1)."""
    return sum(abs(c) * p.layout.R ** xz_letter_count(w) for w, c in p.terms.items())


# ---------------------------------------------------------------------------
# tensors


class TensorNCPoly(_Combination):
    """Element of the algebraic tensor square, stored as a map from word
    pairs to coefficients (fully expanded canonical form)."""

    __slots__ = ()

    @staticmethod
    def of_pair(a: NCPoly, b: NCPoly) -> "TensorNCPoly":
        if a.layout != b.layout:
            raise ValueError("tensor factors come from different layouts")
        return TensorNCPoly(a.layout, _products(a, b, lambda wa, wb: (wa, wb)))

    def __add__(self, other: "TensorNCPoly") -> "TensorNCPoly":
        return self._sum(other)

    def __mul__(self, other: "TensorNCPoly") -> "TensorNCPoly":
        """Factorwise product: (a x b)(c x d) = ac x bd."""
        self._check_layout(other)
        return TensorNCPoly(self.layout, _products(
            self, other, lambda k1, k2: (reduce_word(k1[0] + k2[0]), reduce_word(k1[1] + k2[1]))))

    def __repr__(self) -> str:
        parts = []
        for (a, b), c in sorted(
            self.terms.items(), key=lambda kv: (word_sort_key(kv[0][0]), word_sort_key(kv[0][1]))
        ):
            parts.append(f"({_format_coeff(c)})*{_format_word(a)}(x){_format_word(b)}")
        return "TensorNCPoly(" + " + ".join(parts) + ")" if parts else "TensorNCPoly(0)"


def _tensor_from_terms(layout, items: Iterable[tuple[Word, Word, QC]]) -> TensorNCPoly:
    terms: dict[tuple[Word, Word], QC] = {}
    for a, b, c in items:
        _accumulate(terms, (reduce_word(a), reduce_word(b)), c)
    return TensorNCPoly(layout, terms)


# ---------------------------------------------------------------------------
# derivations


def _unitary_terms(i: int, w: Word):
    """d_i on one word, in word order: (w[:k+1], w[k+1:], +1.0) for each
    u_i at k and (w[:k], w[k:], -1.0) for each u_i* at k."""
    u, ustar = letter_u(i), letter_ustar(i)
    for k, l in enumerate(w):
        if l == u:
            yield w[: k + 1], w[k + 1 :], 1.0
        elif l == ustar:
            yield w[:k], w[k:], -1.0


def derive_unitary(i: int, p: NCPoly) -> TensorNCPoly:
    """Derivation in the i-th unitary: u_i -> u_i (x) 1,
    u_i* -> -1 (x) u_i*, zero on the z-letters."""
    p.layout.check_family(i)
    if "x" in p.alphabet():
        raise ValueError("unitary derivation acts on the (u, z) alphabet")
    return _tensor_from_terms(p.layout, (
        (a, b, c if sign > 0 else -c)
        for w, c in p.terms.items() for a, b, sign in _unitary_terms(i, w)))


def derive_liberation(i: int, p: NCPoly) -> TensorNCPoly:
    """Liberation derivation in family i on x-polynomials: each x-letter
    of family i goes to x (x) 1 - 1 (x) x, every other letter to 0.  By
    Leibniz, a term c*w gets, for each maximal run w[s:e] of family-i
    letters from left to right, the terms -c w[:s] (x) w[s:] and
    +c w[:e] (x) w[e:]; the inner letters of a run cancel in pairs."""
    p.layout.check_family(i)
    if p.alphabet() - {"x"}:
        raise ValueError("liberation derivation acts on the x alphabet")
    items: list[tuple[Word, Word, QC]] = []
    for w, c in p.terms.items():
        e = 0
        for fam, run in groupby(w, key=lambda l: l[1]):
            s, e = e, e + len(list(run))
            if fam == i:
                items += [(w[:s], w[s:], -c), (w[:e], w[e:], c)]
    return _tensor_from_terms(p.layout, items)


def contract_theta(t: TensorNCPoly) -> NCPoly:
    """Multiply tensor legs in reverse order: a (x) b -> ba."""
    terms: dict[Word, QC] = {}
    for (a, b), c in t.terms.items():
        _accumulate(terms, reduce_word(b + a), c)
    return NCPoly(t.layout, terms)


def cyclic_gradient(i: int, p: NCPoly) -> NCPoly:
    """Cyclic gradient in the i-th unitary: theta composed with the
    unitary derivation."""
    return contract_theta(derive_unitary(i, p))


def substitute_x(p: NCPoly) -> NCPoly:
    """*-homomorphism x[i,j] -> u[i] z[i,j] u'[i]."""
    if p.alphabet() - {"x"}:
        raise ValueError("substitution acts on the x alphabet")
    terms: dict[Word, QC] = {}
    for w, c in p.terms.items():
        letters: list[Letter] = []
        for kind, i, j in w:
            letters += [letter_u(i), letter_z(i, j), letter_ustar(i)]
        _accumulate(terms, reduce_word(letters), c)
    return NCPoly(p.layout, terms)


def liberation_gradient(i: int, h: NCPoly) -> NCPoly:
    """Liberation gradient of a self-adjoint x-polynomial: the element
    -u_i (D_i h(u z u*)) u_i* implementing the contracted liberation
    derivation; the agreement of the two routes is asserted exactly."""
    if not h.is_selfadjoint():
        raise ValueError("liberation gradient requires a self-adjoint input")
    sub = substitute_x(h)
    grad = -(NCPoly.u(h.layout, i) * cyclic_gradient(i, sub) * NCPoly.ustar(h.layout, i))
    via_derivation = substitute_x(contract_theta(derive_liberation(i, h)))
    assert grad == via_derivation, "liberation gradient routes disagree"
    return grad


# ---------------------------------------------------------------------------
# parsing and printing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<uprime>u'\[)
  | (?P<gen>[xzu]\[)
  | (?P<num>\d+(?:\.\d+)?(?:/\d+)?i?)
  | (?P<op>[-+*^(),\[\]])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _number(text: str, pos: int) -> QC:
    """A number token at pos; a trailing ``i`` makes it imaginary."""
    num, _, den = text.rstrip("i").partition("/")
    try:
        f = Fraction(Fraction(num), Fraction(den or 1))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", pos) from None
    except ValueError:  # more digits than int() converts
        raise ParseError(f"number of {len(text)} characters is too long", pos) from None
    return QC(Fraction(0), f) if text.endswith("i") else QC(f, Fraction(0))


# the parser's limits: parentheses nest at most MAX_NESTING deep, and a
# power p^e is refused, before anything is expanded, when e or its degree
# e * degree(p) exceeds MAX_POWER_DEGREE, or when len(p.terms)^e, the most
# terms its expansion can have, exceeds MAX_POWER_TERMS; so is a product
# p*q when len(p.terms) * len(q.terms) exceeds MAX_POWER_TERMS
MAX_NESTING = 100
MAX_POWER_DEGREE = 64
MAX_POWER_TERMS = 1024


class _Parser:
    def __init__(self, text: str, layout: FamilyLayout):
        self.tokens = _tokenize(text)
        self.layout = layout
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}", pos)

    def parse_poly(self) -> NCPoly:
        sign = 1
        if self.peek()[1] in ("+", "-"):
            sign = -1 if self.next()[1] == "-" else 1
        acc = self.parse_term().scale(sign)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t = self.parse_term()
            acc = acc + (t if op == "+" else -t)
        return acc

    def parse_term(self) -> NCPoly:
        acc = self.parse_factor()
        while self.peek()[1] == "*":
            pos = self.next()[2]
            factor = self.parse_factor()
            if len(acc.terms) * len(factor.terms) > MAX_POWER_TERMS:
                raise ParseError(f"product of a {len(acc.terms)}-term and a "
                                 f"{len(factor.terms)}-term factor may expand to more than "
                                 f"{MAX_POWER_TERMS} terms", pos)
            acc = acc * factor
        return acc

    def parse_factor(self) -> NCPoly:
        base = self.parse_atom()
        if self.peek()[1] == "^":
            self.next()
            pos = self.peek()[2]
            e = self._integer("exponent must be a nonnegative integer")
            if max(e, e * base.degree) > MAX_POWER_DEGREE:
                raise ParseError(f"power {e} of a degree-{base.degree} factor exceeds the "
                                 f"limit {MAX_POWER_DEGREE} on exponent and degree", pos)
            # e <= MAX_POWER_DEGREE here, so the bound is a small integer power
            if len(base.terms) ** e > MAX_POWER_TERMS:
                raise ParseError(f"power {e} of a {len(base.terms)}-term factor may expand to "
                                 f"more than {MAX_POWER_TERMS} terms", pos)
            acc = NCPoly.one(self.layout)
            for _ in range(e):
                acc = acc * base
            return acc
        return base

    def parse_atom(self) -> NCPoly:
        kind, text, pos = self.next()
        if kind == "num":
            return NCPoly.one(self.layout).scale(_number(text, pos))
        if text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            inner = self.parse_poly()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "gen":
            gen = text[0]
            i = self._integer("expected an integer index")
            if gen == "u":
                self._in_range(pos, self.layout.check_family, i)
                self.expect("]")
                return NCPoly.u(self.layout, i)
            self.expect(",")
            j = self._integer("expected an integer index")
            self.expect("]")
            self._in_range(pos, self.layout.check_xz, i, j)
            if gen == "x":
                return NCPoly.x(self.layout, i, j)
            return NCPoly.z(self.layout, i, j)
        if kind == "uprime":
            i = self._integer("expected an integer index")
            self.expect("]")
            self._in_range(pos, self.layout.check_family, i)
            return NCPoly.ustar(self.layout, i)
        raise ParseError(f"unexpected token {text!r}", pos)

    def _integer(self, message: str) -> int:
        kind, text, pos = self.next()
        if kind != "num" or not text.isdigit():
            raise ParseError(message, pos)
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer of {len(text)} digits is too long", pos) from None

    @staticmethod
    def _in_range(pos: int, check, *indices: int) -> None:
        """Run a layout bounds check, reporting a failure at the generator."""
        try:
            check(*indices)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None


def parse(text: str, layout: FamilyLayout) -> NCPoly:
    """Parse a polynomial in the text grammar; raises ParseError with the
    offending position on malformed input."""
    p = _Parser(text, layout)
    poly = p.parse_poly()
    kind, text_, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text_!r}", pos)
    return poly


def _format_number(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _format_coeff(c: QC) -> str:
    if c.im == 0:
        return _format_number(c.re)
    sign = "+" if c.im >= 0 else "-"
    return f"({_format_number(c.re)}{sign}{_format_number(abs(c.im))}i)"


def _format_letter(l: Letter) -> str:
    kind, i, j = l
    if kind == "u":
        return f"u[{i}]"
    if kind == "U":
        return f"u'[{i}]"
    return f"{kind}[{i},{j}]"


def _format_word(w: Word) -> str:
    if not w:
        return "1"
    parts = []
    k = 0
    while k < len(w):
        run = 1
        while k + run < len(w) and w[k + run] == w[k]:
            run += 1
        s = _format_letter(w[k])
        parts.append(s if run == 1 else f"{s}^{run}")
        k += run
    return "*".join(parts)


def format_poly(p: NCPoly) -> str:
    """Deterministic text form; parse(format_poly(p)) == p."""
    if p.is_zero:
        return "0"
    parts = []
    for w in sorted(p.terms, key=word_sort_key):
        c = p.terms[w]
        body = _format_word(w)
        if not w:
            if c.im == 0 and c.re < 0:
                parts.append(("-", _format_coeff(-c)))
            else:
                parts.append(("+", _format_coeff(c)))
            continue
        if c == QC_ONE:
            text = body
        elif c.im == 0 and c.re < 0:
            parts.append(("-", f"{_format_coeff(-c)}*{body}"))
            continue
        else:
            text = f"{_format_coeff(c)}*{body}"
        parts.append(("+", text))
    first_sign, first = parts[0]
    out = (first if first_sign == "+" else "0 - " + first)
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out
