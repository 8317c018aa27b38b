"""Truncated tracial states as moment tables, empirical states (of a
conjugated tuple for orbital ones), the centering recursion behind the
free-product moment oracle, free cumulants, moment distances, and
single-variable free entropy."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .matrices import MatrixTuple, SpectralMeasure, _word_traces
from .poly import (
    FamilyLayout,
    Letter,
    Word,
    adjoint_word,
    letter_u,
    letter_ustar,
    letter_x,
    letter_z,
    reduce_word,
    word_sort_key,
    xz_letter_count,
)

__all__ = [
    "MomentTable",
    "canonical_word",
    "empirical_state",
    "free_product",
    "free_cumulants",
    "moments_from_cumulants",
    "moment_distance",
    "chi_single",
    "table_from_measure",
    "x_letters",
]


# ---------------------------------------------------------------------------
# canonical keys


def _cyclic_reduce(w: Word) -> Word:
    """Reduce, then cancel inverse unitary pairs that wrap around the cycle."""
    w = reduce_word(w)
    while len(w) >= 2:
        a, b = w[0], w[-1]
        if a[1] == b[1] and {a[0], b[0]} == {"u", "U"} and a[0] != b[0]:
            w = w[1:-1]
        else:
            break
    return w


def canonical_word(w: Iterable[Letter]) -> tuple[Word, bool]:
    """Canonical representative under cyclic rotation and adjoint.

    Returns (representative, conjugate_flag); the stored value for the
    representative must be conjugated when the flag is set.
    """
    w = _cyclic_reduce(tuple(w))
    n = max(1, len(w))
    # min keeps the first of equal candidates: rotations of w come first
    return min(
        ((cand[k:] + cand[:k], flag)
         for cand, flag in ((w, False), (adjoint_word(w), True)) for k in range(n)),
        key=lambda c: word_sort_key(c[0]),
    )


# ---------------------------------------------------------------------------
# moment tables


def x_letters(layout: FamilyLayout) -> list[Letter]:
    return [letter_x(i, j) for i in range(1, layout.n + 1) for j in range(1, layout.r[i - 1] + 1)]


def _alphabet_letters(layout: FamilyLayout, alphabet: str) -> list[Letter]:
    if alphabet == "x":
        return x_letters(layout)
    if alphabet == "uz":
        out = [letter_z(i, j) for i in range(1, layout.n + 1) for j in range(1, layout.r[i - 1] + 1)]
        for i in range(1, layout.n + 1):
            out.append(letter_u(i))
            out.append(letter_ustar(i))
        return out
    raise ValueError(f"unknown alphabet tag {alphabet!r}")


@dataclass
class MomentTable:
    """Truncated tracial state stored on canonical word representatives.

    Traciality and adjoint symmetry hold structurally: every lookup goes
    through the canonical (cyclic rotation, adjoint) key.
    """

    layout: FamilyLayout
    alphabet: str
    m: int
    values: dict[Word, complex] = field(default_factory=dict)

    def __post_init__(self):
        self.values.setdefault((), 1.0 + 0.0j)

    def get(self, w: Iterable[Letter]) -> complex:
        key, flag = canonical_word(w)
        v = self.values[key]
        return v.conjugate() if flag else v

    def set(self, w: Iterable[Letter], value: complex) -> None:
        key, flag = canonical_word(w)
        value = complex(value)
        self.values[key] = value.conjugate() if flag else value

    def check_invariants(self) -> None:
        if abs(self.values[()] - 1.0) > 1e-10:
            raise ValueError("trace of the unit must be 1")
        for w, v in self.values.items():
            bound = self.layout.R ** xz_letter_count(w)
            if abs(v) > bound * (1.0 + 1e-9) + 1e-10:
                raise ValueError(f"moment bound violated at {w}: |{v}| > {bound}")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        from .poly import _format_word  # reuse the canonical printer

        data = {}
        for w, v in sorted(self.values.items(), key=lambda kv: word_sort_key(kv[0])):
            key = "1" if not w else _format_word(w)
            data[key] = [v.real, v.imag]
        data["metadata"] = {
            "layout": {"n": self.layout.n, "r": list(self.layout.r)},
            "m": self.m,
            "R": self.layout.R,
            "alphabet": self.alphabet,
        }
        return data


def _enumerate_words(letters: Sequence[Letter], m: int):
    for length in range(m + 1):
        yield from itertools.product(letters, repeat=length)


@functools.lru_cache(maxsize=64)
def _canonical_keys(letters: tuple[Letter, ...], m: int) -> tuple[Word, ...]:
    """Canonical keys of all words of length <= m, de-duplicated, in order
    of first appearance, without the unit (a MomentTable holds it already)."""
    keys = dict.fromkeys(canonical_word(w)[0] for w in _enumerate_words(letters, m))
    keys.pop((), None)
    return tuple(keys)


def empirical_state(tup: MatrixTuple, m: int) -> MomentTable:
    """Moment table of normalized traces over all x-words of length <= m,
    in one trace pass over the tuple."""
    if m < 1:
        raise ValueError("degree bound must be >= 1")
    table = MomentTable(tup.layout, "x", m)
    keys = _canonical_keys(tuple(x_letters(tup.layout)), m)
    for key, (re, im) in _word_traces(tup, keys).items():
        table.values[key] = complex(re, im)
    return table


# ---------------------------------------------------------------------------
# free product via the centering recursion


class _CenteringRecursion:
    """Moments of a free product, memoized on canonical keys.

    ``component`` maps a letter to the freely independent subalgebra it
    belongs to, and ``marginal`` gives the moment of a block of adjacent
    letters from one subalgebra.  An alternating product of centered
    blocks has trace zero, which expands any mixed word into polynomially
    many shorter mixed words and block marginals.
    """

    def __init__(self, component: Callable[[Letter], Hashable],
                 marginal: Callable[[Word], complex]):
        self.component = component
        self.marginal = marginal
        self.cache: dict[Word, complex] = {(): 1.0 + 0.0j}

    def __call__(self, w: Iterable[Letter]) -> complex:
        key, flag = canonical_word(w)
        v = self.at(key)
        return v.conjugate() if flag else v

    def at(self, key: Word) -> complex:
        """Value on a word that is already a canonical key."""
        if key in self.cache:
            return self.cache[key]
        blocks = [tuple(g) for _, g in itertools.groupby(key, key=self.component)]
        if len(blocks) == 1:
            v = self.marginal(key)
        else:
            betas = [self.marginal(b) for b in blocks]
            # 0 = sum over subsets T of (-1)^(k-|T|) prod_{j not in T} beta_j
            #     * tau(concatenation of blocks in T); solve for T = full set.
            # A block with beta_j = 0 is in every T with a nonzero term, so
            # only subsets of the other blocks are visited, in increasing
            # order of the full mask, multiplying the dropped betas in j order.
            live = [j for j, beta in enumerate(betas) if beta != 0.0]
            acc = 0.0 + 0.0j
            for sub in range(2 ** len(live) - 1):
                coeff = 1.0 + 0.0j
                dropped = set()
                for bit, j in enumerate(live):
                    if not sub >> bit & 1:
                        coeff *= betas[j]
                        dropped.add(j)
                if coeff == 0.0:  # underflow
                    continue
                sign = -1.0 if len(dropped) % 2 else 1.0
                kept = [l for j, b in enumerate(blocks) if j not in dropped for l in b]
                acc += sign * coeff * self(kept)
            v = -acc
        self.cache[key] = v
        return v


def free_product(marginals: Sequence[MomentTable], m: int) -> MomentTable:
    """Joint moments of freely independent families with the given
    single-family marginals, by the centering recursion."""
    layout = marginals[0].layout
    if len(marginals) != layout.n:
        raise ValueError("need one marginal per family")
    for t in marginals:
        if t.m < m:
            raise ValueError("marginal degree insufficient")
    state = _CenteringRecursion(lambda l: l[1],
                                lambda block: marginals[block[0][1] - 1].get(block))
    out = MomentTable(layout, marginals[0].alphabet, m)
    for key in _canonical_keys(tuple(_alphabet_letters(layout, out.alphabet)), m):
        out.values[key] = state.at(key)
    return out


def table_from_measure(
    layout: FamilyLayout, family: int, index: int, mu: SpectralMeasure, m: int
) -> MomentTable:
    """Single-variable marginal table for slot (family, index) from a
    spectral measure's exact moments."""
    letter = letter_x(family, index)
    out = MomentTable(layout, "x", m)
    for k in range(1, m + 1):
        out.values[(letter,) * k] = complex(mu.moment(k))
    return out


# ---------------------------------------------------------------------------
# free cumulants


def _composition_sum(mom: Sequence[complex], s: int, total: int) -> complex:
    """Sum over compositions (i_1, ..., i_s) of `total` with parts >= 0 of
    mom[i_1] ... mom[i_s]."""
    if s == 0:
        return 1.0 + 0.0j if total == 0 else 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for first in range(total + 1):
        acc += mom[first] * _composition_sum(mom, s - 1, total - first)
    return acc


def free_cumulants(moments: Sequence[float | complex]) -> list[complex]:
    """Free cumulants (kappa_1, ..., kappa_m) from raw moments
    (m_1, ..., m_m) by inverting the moment-cumulant recursion

        m_n = sum_s kappa_s * sum_{i_1+...+i_s = n-s} m_{i_1} ... m_{i_s}.
    """
    mom = [1.0 + 0.0j] + [complex(v) for v in moments]
    kappa: list[complex] = []
    for n in range(1, len(moments) + 1):
        rest = sum(kappa[s - 1] * _composition_sum(mom, s, n - s) for s in range(1, n))
        kappa.append(mom[n] - rest)
    return kappa


def moments_from_cumulants(kappa: Sequence[float | complex]) -> list[complex]:
    """Inverse of free_cumulants: rebuild raw moments from cumulants."""
    kap = [complex(v) for v in kappa]
    mom = [1.0 + 0.0j]
    for n in range(1, len(kap) + 1):
        mom.append(sum(kap[s - 1] * _composition_sum(mom, s, n - s) for s in range(1, n + 1)))
    return mom[1:]


# ---------------------------------------------------------------------------
# distances


def moment_distance(t1: MomentTable, t2: MomentTable, m: int) -> float:
    """Uniform deviation over all words of length <= m present in either
    table.  Both tables key their values by canonical words, so they are
    read directly; a key missing from either table raises KeyError."""
    keys = {w for w in t1.values if len(w) <= m} | {w for w in t2.values if len(w) <= m}
    return max((abs(t1.values[w] - t2.values[w]) for w in keys), default=0.0)


# ---------------------------------------------------------------------------
# single-variable free entropy


_CHI_CONST = 0.75 + 0.5 * math.log(2.0 * math.pi)


def chi_single(mu: SpectralMeasure) -> float:
    """Single-variable free entropy

        chi(mu) = double integral of log|s - t| + 3/4 + (1/2) log(2 pi).

    The log-energy has closed forms for the continuous kinds: log(r/2) - 1/4
    for the semicircle of radius r and log((b-a)/4), the log-capacity of
    [a, b], for the arcsine law.  Measures with atoms have divergent
    self-energy and return -inf.  For empirical samples the off-diagonal
    pairwise estimator is used, which targets the entropy of the
    underlying continuous law.
    """
    if mu.kind == "semicircle":
        (r,) = mu.params
        return math.log(r / 2.0) - 0.25 + _CHI_CONST
    if mu.kind == "arcsine":
        a, b = mu.params
        return math.log((b - a) / 4.0) + _CHI_CONST
    if mu.kind == "atomic":
        return -math.inf
    if mu.kind == "empirical":
        lam = np.asarray(mu.params, dtype=float)
        M = len(lam)
        if M < 2:
            return -math.inf
        diff = np.abs(lam[:, None] - lam[None, :])
        off = diff[~np.eye(M, dtype=bool)]
        if np.any(off == 0.0):
            return -math.inf
        return float(np.mean(np.log(off))) + _CHI_CONST
    raise ValueError(f"no free entropy for measure kind {mu.kind!r}")
