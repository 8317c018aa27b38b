"""Dense complex matrix numerics: Haar/GUE sampling, quantile microstates,
spectral clipping, and evaluation of polynomials on matrix tuples."""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .poly import FamilyLayout, NCPoly, TensorNCPoly, Word

__all__ = [
    "MatrixTuple",
    "SpectralMeasure",
    "haar_unitary",
    "gue",
    "quantile_microstate",
    "spectral_clip",
    "spectral_reflect",
    "evaluate",
    "trace_evaluate",
    "double_trace_evaluate",
    "evaluate_word",
    "trace_word",
]

_HERMITICITY_TOL = 1e-12
_UNITARITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# matrix tuples


@dataclass
class MatrixTuple:
    """Family-indexed tuple of dense complex N x N matrices.

    ``sa`` maps (family, index) to a Hermitian matrix filling the x or z
    slots; ``unitaries`` maps family to a unitary filling the u slot.
    Matrices are validated on construction and a tuple is never mutated
    afterwards; a trace pass (``_word_traces``) keeps nothing on it.
    """

    layout: FamilyLayout
    N: int
    sa: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    unitaries: dict[int, np.ndarray] = field(default_factory=dict)
    check_norm: InitVar[bool] = True  # check each sa matrix against the cutoff R

    def __post_init__(self, check_norm: bool):
        for (i, j), a in self.sa.items():
            self.layout.check_xz(i, j)
            a = np.asarray(a, dtype=complex)
            if a.shape != (self.N, self.N):
                raise ValueError(f"matrix ({i},{j}) has shape {a.shape}, want {(self.N, self.N)}")
            if np.max(np.abs(a - a.conj().T)) > _HERMITICITY_TOL * max(1.0, np.max(np.abs(a))):
                raise ValueError(f"matrix ({i},{j}) is not Hermitian")
            if check_norm:
                nrm = np.linalg.norm(a, 2)
                if nrm > self.layout.R + 1e-9:
                    raise ValueError(
                        f"matrix ({i},{j}) has operator norm {nrm:.6g} > cutoff {self.layout.R}"
                    )
            self.sa[(i, j)] = a
        for i, v in self.unitaries.items():
            self.layout.check_family(i)
            v = np.asarray(v, dtype=complex)
            if v.shape != (self.N, self.N):
                raise ValueError(f"unitary {i} has shape {v.shape}, want {(self.N, self.N)}")
            if np.max(np.abs(v.conj().T @ v - np.eye(self.N))) > _UNITARITY_TOL:
                raise ValueError(f"matrix {i} is not unitary")
            self.unitaries[i] = v

    def conjugated(self, unitaries: Sequence[np.ndarray]) -> "MatrixTuple":
        """Replace each family's matrices A_ij by V_i A_ij V_i*."""
        if len(unitaries) != self.layout.n:
            raise ValueError("need one unitary per family")
        sa = {(i, j): _conjugate(unitaries[i - 1], a, _real_diagonal(a))
              for (i, j), a in self.sa.items()}
        return MatrixTuple._unchecked(self.layout, self.N, sa, dict(self.unitaries))

    def with_unitaries(self, unitaries: dict[int, np.ndarray]) -> "MatrixTuple":
        """The same self-adjoint matrices carrying the unitaries {family: V},
        unchecked; a family without one reads its x letters as z."""
        return MatrixTuple._unchecked(self.layout, self.N, dict(self.sa), dict(unitaries))

    @classmethod
    def _unchecked(
        cls,
        layout: FamilyLayout,
        N: int,
        sa: dict[tuple[int, int], np.ndarray],
        unitaries: dict[int, np.ndarray],
    ) -> "MatrixTuple":
        """Build without validation, from matrices the caller has already
        made Hermitian (and unitary) at dimension N."""
        out = cls.__new__(cls)
        out.layout = layout
        out.N = N
        out.sa = sa
        out.unitaries = unitaries
        return out

    def lookup(self, letter) -> np.ndarray:
        kind, i, j = letter
        if kind in ("x", "z"):
            try:
                a = self.sa[(i, j)]
            except KeyError:
                raise ValueError(f"tuple has no self-adjoint slot ({i},{j})") from None
            if kind == "x" and i in self.unitaries:
                # respect the relation x = u z u' whenever the tuple
                # carries a unitary for the family
                return _conjugate(self.unitaries[i], a, _real_diagonal(a))
            return a
        try:
            v = self.unitaries[i]
        except KeyError:
            raise ValueError(f"tuple has no unitary slot {i}") from None
        return v if kind == "u" else v.conj().swapaxes(-1, -2)

    # -- serialization (column-major complex pairs in a JSON envelope) -----

    def to_json(self) -> dict:
        families = []
        for i in range(1, self.layout.n + 1):
            fam = []
            for j in range(1, self.layout.r[i - 1] + 1):
                if (i, j) in self.sa:
                    a = self.sa[(i, j)]
                    flat = np.asarray(a, order="F").ravel(order="F")
                    fam.append([[float(v.real), float(v.imag)] for v in flat])
            families.append(fam)
        return {"n": self.layout.n, "N": self.N, "families": families}

    @staticmethod
    def from_json(data: dict, layout: FamilyLayout) -> "MatrixTuple":
        N = int(data["N"])
        sa = {}
        for i, fam in enumerate(data["families"], start=1):
            for j, flat in enumerate(fam, start=1):
                vals = np.array([complex(re, im) for re, im in flat])
                sa[(i, j)] = vals.reshape((N, N), order="F")
        return MatrixTuple(layout, N, sa=sa)


class _Stack(MatrixTuple):
    """``size`` states as one tuple: each slot holds either one (N, N)
    matrix that every state shares or a stacked (size, N, N) array whose
    k-th matrix is state k's.  Letters, word products and traces then run
    on all the states at once (``_word_traces``), and ``_Scorer`` scores
    them.  ``letters`` holds values the caller has already formed, such as
    a Gibbs batch's carried V Xi V*, keyed by letter; ``lookup`` reads
    them first."""

    @classmethod
    def of_slots(cls, layout: FamilyLayout, N: int, sa: dict, unitaries: dict,
                 size: int, letters: dict | None = None) -> "_Stack":
        out = cls._unchecked(layout, N, sa, unitaries)
        out.size = size
        out.letters = letters or {}
        return out

    def lookup(self, letter) -> np.ndarray:
        a = self.letters.get(letter)
        return super().lookup(letter) if a is None else a

    def state(self, k: int) -> MatrixTuple:
        """State k alone, a tuple of (N, N) matrices."""
        def pick(slots):
            return {key: a[k] if a.ndim == 3 else a for key, a in slots.items()}

        return MatrixTuple._unchecked(self.layout, self.N, pick(self.sa), pick(self.unitaries))


# ---------------------------------------------------------------------------
# spectral measures


def _finite(*values: float) -> tuple[float, ...]:
    """The values as floats; a measure parameter must be a finite number."""
    out = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"measure parameters must be finite, got {', '.join(map(repr, out))}")
    return out


def _semicircle_cdf(x: float, rad: float) -> float:
    """The distribution function of the semicircle law on [-rad, rad]."""
    t = x / rad
    return 0.5 + (t * math.sqrt(max(0.0, 1 - t * t)) + math.asin(max(-1.0, min(1.0, t)))) / math.pi


@dataclass(frozen=True)
class SpectralMeasure:
    """Compactly supported probability measure on the line, given by a
    quantile function.  Kinds: semicircle(radius), arcsine(a, b),
    atomic(points/weights), empirical(sorted sample); bernoulli(a) is the
    atomic law with mass 1/2 at -|a| and at |a|."""

    kind: str
    params: tuple = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def semicircle(radius: float) -> "SpectralMeasure":
        (radius,) = _finite(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        return SpectralMeasure("semicircle", (radius,))

    @staticmethod
    def bernoulli(a: float) -> "SpectralMeasure":
        (a,) = _finite(a)
        return SpectralMeasure.atomic([(-abs(a), 0.5), (abs(a), 0.5)])

    @staticmethod
    def arcsine(a: float, b: float) -> "SpectralMeasure":
        a, b = _finite(a, b)
        if b <= a:
            raise ValueError("need a < b")
        return SpectralMeasure("arcsine", (a, b))

    @staticmethod
    def atomic(atoms: Sequence[tuple[float, float]]) -> "SpectralMeasure":
        atoms = tuple(_finite(p, w) for p, w in atoms)
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12 or any(w < 0 for _, w in atoms):
            raise ValueError("atom weights must be nonnegative and sum to 1")
        return SpectralMeasure("atomic", atoms)

    @staticmethod
    def empirical(sample: Sequence[float]) -> "SpectralMeasure":
        return SpectralMeasure("empirical", tuple(sorted(_finite(*sample))))

    @staticmethod
    def from_string(spec: str) -> "SpectralMeasure":
        """Parse spec strings like "semicircle:2", "bernoulli:1",
        "atomic:0.5@-1,0.5@1", "arcsine:-1,1"."""
        kind, _, rest = spec.partition(":")
        kind = kind.strip()
        if kind == "semicircle":
            return SpectralMeasure.semicircle(float(rest))
        if kind == "bernoulli":
            return SpectralMeasure.bernoulli(float(rest))
        if kind == "arcsine":
            a, b = (float(v) for v in rest.split(","))
            return SpectralMeasure.arcsine(a, b)
        if kind == "atomic":
            atoms = []
            for part in rest.split(","):
                w, _, p = part.partition("@")
                atoms.append((float(p), float(w)))
            return SpectralMeasure.atomic(atoms)
        raise ValueError(f"unknown measure spec {spec!r}")

    # -- support and quantiles ---------------------------------------------

    @property
    def support_radius(self) -> float:
        if self.kind == "semicircle":
            return self.params[0]
        if self.kind == "arcsine":
            return max(abs(self.params[0]), abs(self.params[1]))
        if self.kind == "atomic":
            return max(abs(p) for p, _ in self.params)
        return max((abs(v) for v in self.params), default=0.0)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile argument must lie in [0,1]")
        if self.kind == "semicircle":
            (rad,) = self.params
            if q <= 0.0:
                return -rad
            if q >= 1.0:
                return rad
            # invert the semicircle CDF on [-rad, rad]
            return _brentq(lambda x: _semicircle_cdf(x, rad) - q, -rad, rad, xtol=1e-13)
        if self.kind == "arcsine":
            a, b = self.params
            return a + (b - a) * math.sin(math.pi * q / 2) ** 2
        if self.kind == "atomic":
            acc = 0.0
            for p, w in sorted(self.params):
                acc += w
                if q <= acc + 1e-15:
                    return p
            return sorted(self.params)[-1][0]
        sample = self.params
        k = min(len(sample) - 1, int(q * len(sample)))
        return sample[k]

    def moment(self, k: int) -> float:
        """k-th raw moment, exact for the named families."""
        if k == 0:
            return 1.0
        if self.kind == "semicircle":
            (rad,) = self.params
            if k % 2:
                return 0.0
            m = k // 2
            catalan = math.comb(2 * m, m) // (m + 1)
            return catalan * (rad / 2.0) ** k
        if self.kind == "arcsine":
            a, b = self.params
            # binomial expansion about the midpoint; the even central
            # moments of the arcsine law on [-r, r] are C(2j, j) (r/2)^(2j)
            mid, rad = (a + b) / 2, (b - a) / 2
            return sum(math.comb(k, 2 * j) * mid ** (k - 2 * j) * rad ** (2 * j)
                       * math.comb(2 * j, j) / 4**j for j in range(k // 2 + 1))
        if self.kind == "atomic":
            return sum(w * p**k for p, w in self.params)
        return float(np.mean(np.asarray(self.params) ** k))


# scipy.optimize.brentq's defaults: relative tolerance and iteration cap
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in [xa, xb] by Brent's method, f(xa) and f(xb) of
    opposite signs: scipy's brentq.c line by line, with its default rtol
    and maxiter, so its operations, and hence its roots, are bitwise
    scipy.optimize.brentq's."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations, "
                       f"value is {xcur}")


# ---------------------------------------------------------------------------
# sampling


def haar_unitary(N: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix with
    the R-factor's diagonal phases divided out.  With a batch shape, a
    stacked batch + (N, N) array from one normal draw and one stacked QR,
    equal bit for bit to lone draws made in row-major order, and leaving
    the generator where they would."""
    if N < 1:
        raise ValueError("dimension must be >= 1")
    g = rng.standard_normal((*batch, 2, N, N))
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def gue(N: int, rng: np.random.Generator | Sequence[np.random.Generator]) -> np.ndarray:
    """GUE matrix normalized so the spectral law tends to the standard
    semicircle (second moment 1).  Given a sequence of generators, a stacked
    (B, N, N) batch whose matrix k is gue(N, rng[k]) bit for bit.  The real
    and imaginary parts come from one (2, N, N) draw per generator, the
    same stream as two (N, N) draws."""
    if N < 1:
        raise ValueError("dimension must be >= 1")
    if isinstance(rng, np.random.Generator):
        g = rng.standard_normal((2, N, N))
        a = g[0] + 1j * g[1]
    else:
        g = np.stack([r.standard_normal((2, N, N)) for r in rng])
        a = g[:, 0] + 1j * g[:, 1]
    return (a + a.conj().swapaxes(-1, -2)) / (2.0 * math.sqrt(N))


def quantile_microstate(mu: SpectralMeasure, N: int) -> np.ndarray:
    """Deterministic diagonal microstate realizing mu asymptotically:
    diag of quantiles at (k - 1/2)/N."""
    diag = np.array([mu.quantile((k - 0.5) / N) for k in range(1, N + 1)])
    return np.diag(diag.astype(complex))


def spectral_clip(a: np.ndarray, S: float) -> np.ndarray:
    """Clip the spectrum of a Hermitian matrix into [-S, S]."""
    if S <= 0:
        raise ValueError("cutoff must be positive")
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, -S, S)
    return (vecs * vals) @ vecs.conj().T


def spectral_reflect(a: np.ndarray, S: float) -> np.ndarray:
    """Reflect the spectrum of a Hermitian matrix, or of each matrix of a
    stacked (B, N, N) batch, into [-S, S] by folding the line at the
    endpoints; preserves Lebesgue measure on eigenvalues, unlike clipping."""
    if S <= 0:
        raise ValueError("cutoff must be positive")
    vals, vecs = np.linalg.eigh(a)
    return (vecs * _fold(vals, S)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _fold(x: np.ndarray, S: float) -> np.ndarray:
    """Fold the line into [-S, S] by repeated reflection at the endpoints."""
    period = 4.0 * S
    y = np.remainder(x + S, period)
    return np.where(y > 2.0 * S, period - y, y) - S


# ---------------------------------------------------------------------------
# evaluation


def _real_diagonal(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of a lone (N, N) matrix as a real vector when the matrix
    is real diagonal, every off-diagonal entry and the imaginary part of
    every diagonal entry exactly 0; None otherwise, and for a stack."""
    if a.ndim != 2:
        return None
    d = np.diagonal(a)
    if d.imag.any() or np.count_nonzero(a) != np.count_nonzero(d):
        return None
    return d.real


def _product(a: np.ndarray, a_diagonal: np.ndarray | None,
             b: np.ndarray, b_diagonal: np.ndarray | None) -> np.ndarray:
    """a @ b, with a_diagonal and b_diagonal the real diagonals of a and b
    where they are real diagonal matrices (``_real_diagonal``): a column
    scaling of a or a row scaling of b in place of the matmul.  Each entry
    is one rounded product, as in the matmul, whose other terms are zeros,
    so the numbers are the same up to the sign of zero entries."""
    if b_diagonal is not None:
        return a * b_diagonal
    if a_diagonal is not None:
        return a_diagonal[:, None] * b
    return a @ b


def _conjugate(v: np.ndarray, a: np.ndarray, diagonal: np.ndarray | None) -> np.ndarray:
    """V A V* for a lone or stacked V, with ``diagonal`` A's real diagonal
    or None (``_real_diagonal``).  With it, V A is a column scaling
    (``_product``), one matmul fewer, and the result is bitwise
    V @ A @ V* up to the sign of zero entries, which never reaches a
    trace (``_word_traces``)."""
    return _product(v, None, a, diagonal) @ v.conj().swapaxes(-1, -2)


def evaluate_word(w: Word, tup: MatrixTuple) -> np.ndarray:
    out = np.eye(tup.N, dtype=complex)
    for letter in w:
        out = out @ tup.lookup(letter)
    return out


def _word_traces(tup: MatrixTuple, words: Iterable[Word]) -> dict[Word, tuple]:
    """(Re, Im) of tr_N of each word, in one trace pass over the tuple:
    numbers on a lone tuple; on a stack, one value per state, or one
    number for a word that reads no stacked slot, as the empty word's
    (1.0, 0.0).

    Each letter is looked up once and each left-to-right prefix product
    P[w] = P[w[:-1]] @ letter is formed once, starting from the first
    letter itself.  A product with a letter that is a real diagonal matrix,
    such as a quantile microstate read unconjugated, is a row or column
    scaling (``_product``).  ``evaluate_word`` starts from I @ letter and
    multiplies by matmuls; its products differ from the pass's only in the
    sign of zero entries, and that sign cannot reach a trace, because
    products and sums of finite numbers carry it only into zeros and a sum
    returns +0 for a zero total.  The final trace stays one dense
    elementwise sum of P[w[:-1]] transposed times the last letter.
    Python's complex quotient of Tr by N is written out on the parts, so
    each value is bitwise the trace computed from ``evaluate_word``, and on
    a stack the one each state gives alone.  The matrices live for the
    call only.
    """
    letters: dict = {}
    diagonals: dict = {}  # per letter, its real diagonal or None
    prefixes: dict[Word, np.ndarray] = {}  # products of two or more letters
    N = tup.N
    out = {}
    for w in words:
        if w in out:
            continue
        if not w:
            out[w] = (1.0, 0.0)
            continue
        for letter in w:
            if letter not in letters:
                letters[letter] = tup.lookup(letter)
                diagonals[letter] = _real_diagonal(letters[letter])
        if len(w) == 1:
            s = np.trace(letters[w[0]], axis1=-2, axis2=-1)
        else:
            head, head_diagonal = letters[w[0]], diagonals[w[0]]
            for j in range(2, len(w)):
                if w[:j] not in prefixes:
                    prefixes[w[:j]] = _product(head, head_diagonal,
                                               letters[w[j - 1]], diagonals[w[j - 1]])
                head, head_diagonal = prefixes[w[:j]], None
            s = (head.swapaxes(-1, -2) * letters[w[-1]]).sum(axis=(-2, -1))
        out[w] = ((s.real + s.imag * 0.0) / N, (s.imag - s.real * 0.0) / N)
    return out


def trace_word(w: Word, tup: MatrixTuple) -> complex:
    """Normalized trace tr_N of the word on the tuple."""
    return complex(*_word_traces(tup, (w,))[w])


def evaluate(p: NCPoly, tup: MatrixTuple) -> np.ndarray:
    """Canonical *-homomorphism sending each generator to its slot."""
    out = np.zeros((tup.N, tup.N), dtype=complex)
    for w, c in p.terms.items():
        out += complex(c) * evaluate_word(w, tup)
    return out


def trace_evaluate(p: NCPoly, tup: MatrixTuple) -> complex:
    """tr_N p on one tuple, in one trace pass; the sum runs over the terms
    in order from 0j.  The complex-arithmetic reference for ``_Scorer``."""
    traces = _word_traces(tup, p.terms)
    return sum((complex(c) * complex(*traces[w]) for w, c in p.terms.items()), 0.0 + 0.0j)


def double_trace_evaluate(t: TensorNCPoly, tup: MatrixTuple) -> complex:
    """(tr x tr) of a tensor polynomial: the sum from 0j of each coefficient
    times the normalized traces of its two legs, in one trace pass.  The
    complex-arithmetic reference for ``_Scorer`` on a tensor polynomial."""
    traces = _word_traces(tup, (w for legs in t.terms for w in legs))
    return sum((complex(c) * complex(*traces[a]) * complex(*traces[b])
                for (a, b), c in t.terms.items()), 0.0 + 0.0j)


class _Scorer:
    """tr_N p, or (tr x tr) t, compiled once for scoring many states: each
    term kept as its words, the legs (one for an ``NCPoly``, two for a
    ``TensorNCPoly``), and its coefficient converted to complex once and
    kept as its two parts.

    Scoring repeats the final arithmetic of ``trace_evaluate`` and
    ``double_trace_evaluate``, the coefficient times each leg's trace in
    turn and the terms added in order from 0j, with Python's complex
    product written out on the parts.  So each state of a stack gets
    bitwise the real and imaginary parts those references give it alone.
    ``combine`` takes the word traces precomputed: from ``_word_traces``
    on one tuple, or gathered into vectors over a whole sample set.
    """

    __slots__ = ("terms",)

    def __init__(self, p: NCPoly | TensorNCPoly):
        tensor = isinstance(p, TensorNCPoly)
        self.terms = []
        for key, c in p.terms.items():
            c = complex(c)
            self.terms.append((key if tensor else (key,), c.real, c.imag))

    def __call__(self, tup: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
        """(Re, Im) of the value on each state the tuple holds: one state
        on a lone tuple, ``size`` on a stack."""
        size = tup.size if isinstance(tup, _Stack) else 1
        return self.combine(_word_traces(tup, (w for legs, _, _ in self.terms for w in legs)),
                            size)

    def combine(self, traces: dict, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(Re, Im) of the value on size states, from the (Re, Im) traces
        of its words on them."""
        re = np.zeros(size)
        im = np.zeros(size)
        for legs, pr, pi in self.terms:
            for w in legs:
                vr, vi = traces[w]
                pr, pi = pr * vr - pi * vi, pr * vi + pi * vr
            re = re + pr
            im = im + pi
        return re, im
