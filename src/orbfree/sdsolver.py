"""Truncated Schwinger-Dyson fixed-point solver.

The unknown is a tracial state tau on words in Haar unitaries u_i and
fixed self-adjoint generators z_ij, constrained by

    tau restricted to z-words  =  tau_0  (free across families),
    (tau (x) tau) ∘ d_i(p)     =  tau((D_i h) p)   for all p and i,

where d_i differentiates in the i-th unitary and D_i is the cyclic
gradient of h evaluated at x_ij = u_i z_ij u_i*.  For h = 0 the equation
is exactly the freeness recursion, whose solution (Haar unitaries free
from the z-families) seeds the iteration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .matrices import SpectralMeasure
from .moments import (
    MomentTable,
    _alphabet_letters,
    _canonical_keys,
    _CenteringRecursion,
    _enumerate_words,
    canonical_word,
    x_letters,
)
from .poly import (
    FamilyLayout,
    Letter,
    NCPoly,
    Word,
    _unitary_terms,
    cyclic_gradient,
    derive_liberation,
    liberation_gradient,
    reduce_word,
    substitute_x,
)

__all__ = [
    "SDProblem",
    "SDReport",
    "sd_solve",
    "sd_residual",
    "pushforward_x",
    "liberation_check",
    "free_haar_state",
]

SMALLNESS_THRESHOLD = 0.05


def _component(letter: Letter) -> tuple[str, int]:
    kind, i, _ = letter
    return ("u" if kind in ("u", "U") else "z", i)


@dataclass
class SDProblem:
    layout: FamilyLayout
    h: NCPoly  # over the x alphabet
    tau0: Sequence[SpectralMeasure]  # the z-marginal of each family
    D: int = 8
    damping: float = 0.5
    max_iter: int = 200
    tol: float = 1e-10

    def __post_init__(self):
        if len(self.tau0) != self.layout.n:
            raise ValueError("need one z-marginal per family")
        if not self.h.is_zero and self.D < self.hz.degree + 2:
            raise ValueError(
                f"truncation degree 'D' = {self.D} must exceed degree(h(uzu*)) + 1 = "
                f"{self.hz.degree + 1}"
            )
        tmax = max((abs(c) for c in self.h.terms.values()), default=0.0)
        if tmax > SMALLNESS_THRESHOLD:
            warnings.warn(
                f"coefficient magnitude {tmax:.3g} exceeds the small-coefficient "
                f"regime {SMALLNESS_THRESHOLD}; convergence is not expected",
                stacklevel=3,  # past __post_init__ and the dataclass __init__
            )

    @cached_property
    def hz(self) -> NCPoly:
        """h(uzu*): h with each x_ij replaced by u_i z_ij u_i*."""
        return substitute_x(self.h)

    @cached_property
    def gradients(self) -> dict[int, NCPoly]:
        """The cyclic gradient D_i h(uzu*) of each family i, zero ones included."""
        return {i: cyclic_gradient(i, self.hz) for i in range(1, self.layout.n + 1)}

    @cached_property
    def oracle(self) -> _CenteringRecursion:
        """The h = 0 state: moments of the free product of one Haar unitary
        per family and the z-families with marginals from tau0, memoized
        for every caller of this problem."""

        def marginal(block: Word) -> complex:
            kind, fam = _component(block[0])
            if kind == "u":
                # reduced runs are pure powers u^k or (u*)^k; Haar moments vanish
                return 0.0 + 0.0j
            # single-variable family: block is a power of one z letter
            return complex(self.tau0[fam - 1].moment(len(block)))

        return _CenteringRecursion(_component, marginal)


@dataclass
class SDReport:
    converged: bool
    iterations: int
    residual: float  # SD equation on test words of length <= 3
    plan_residual: float  # every planned word, from one undamped pass
    delta_history: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# the h = 0 solution: free product of Haar unitaries and the z-families


def free_haar_state(problem: SDProblem, words: Sequence[Word]) -> MomentTable:
    """Free-product oracle values on the given uz-words."""
    out = MomentTable(problem.layout, "uz", problem.D)
    for w in words:
        key, _ = canonical_word(w)
        out.values[key] = problem.oracle.at(key)
    return out


def _lookup(values: dict[Word, complex], oracle: _CenteringRecursion, w) -> complex:
    """tau(w) from the given values, else from the h = 0 oracle."""
    key, flag = canonical_word(w)
    v = values[key] if key in values else oracle.at(key)
    return v.conjugate() if flag else v


# ---------------------------------------------------------------------------
# update rules


def _pick_rotation(w: Word) -> tuple[int, Word, bool]:
    """Family, rotated word, and whether the isolated term sits at the end
    (word ends in u_i) or at the start (begins with u_i*)."""
    fams = sorted({l[1] for l in w if l[0] in ("u", "U")})
    if not fams:
        raise ValueError("word has no unitary letters")
    i = fams[0]
    ending = [w[k + 1 :] + w[: k + 1] for k in range(len(w)) if w[k] == ("u", i, 0)]
    if ending:
        return i, min(ending), True
    starting = [w[k:] + w[:k] for k in range(len(w)) if w[k] == ("U", i, 0)]
    return i, min(starting), False


def _is_pure_z(w: Word) -> bool:
    return all(l[0] == "z" for l in w)


class _Solver:
    """The SD equations compiled once over the demand-driven word set.

    Every lhs and rhs word of a plan is resolved to its canonical key and
    conjugate flag when the plan is built.  Keys that are not planned read
    the h = 0 oracle, whose values are fixed then as well, so a sweep only
    does arithmetic.
    """

    def __init__(self, problem: SDProblem, demand: Sequence[Word]):
        self.problem = problem
        self.oracle = problem.oracle
        self.grads = {i: g for i, g in problem.gradients.items() if not g.is_zero}
        # plans: canonical word -> (at_end, lhs terms, rhs terms), each lhs
        # term (a, b, sign) and rhs term (v, c) with words as (key, flag)
        self.plans: dict[Word, tuple] = {}
        queue = [canonical_word(w)[0] for w in demand]
        while queue:
            w = queue.pop()
            if w in self.plans or not w or _is_pure_z(w):
                continue
            plan = self.plans[w] = self._make_plan(w)
            _, lhs_terms, rhs_terms = plan
            queue.extend(key for a, b, _ in lhs_terms for key, _ in (a, b))
            queue.extend(key for (key, _), _ in rhs_terms if len(key) <= problem.D)
        # deterministic update order: by length then lexicographic
        self.order = sorted(self.plans, key=lambda w: (len(w), w))
        self.values: dict[Word, complex] = {w: self.oracle.at(w) for w in self.order}
        self.fixed: dict[Word, complex] = {}
        for _, lhs_terms, rhs_terms in self.plans.values():
            refs = [r for a, b, _ in lhs_terms for r in (a, b)] + [v for v, _ in rhs_terms]
            for key, _ in refs:
                if key not in self.plans:
                    self.fixed[key] = self.oracle.at(key)

    def _make_plan(self, w: Word):
        i, rot, at_end = _pick_rotation(w)
        lhs_terms = []
        for a, b, sign in _unitary_terms(i, rot):
            if at_end and a == rot and not b:
                continue  # the isolated term tau(w) itself
            if not at_end and not a and b == rot:
                continue
            lhs_terms.append((canonical_word(a), canonical_word(b), sign))
        rhs_terms = []
        if i in self.grads:
            for v, c in self.grads[i].terms.items():
                rhs_terms.append((canonical_word(reduce_word(v + rot)), complex(c)))
        return at_end, lhs_terms, rhs_terms

    def _read(self, values: dict[Word, complex], ref: tuple[Word, bool]) -> complex:
        key, flag = ref
        v = values[key] if key in values else self.fixed[key]
        return v.conjugate() if flag else v

    def _candidate(self, w: Word, values: dict[Word, complex],
                   prev: dict[Word, complex]) -> complex:
        """Undamped update of w: the lhs reads values, the rhs reads prev."""
        at_end, lhs_terms, rhs_terms = self.plans[w]
        s = 0.0 + 0.0j
        for a, b, sign in lhs_terms:
            s += sign * self._read(values, a) * self._read(values, b)
        rhs = 0.0 + 0.0j
        for v, c in rhs_terms:
            rhs += c * self._read(prev, v)
        return rhs - s if at_end else s - rhs

    def sweep(self) -> float:
        prev = dict(self.values)
        damp = self.problem.damping
        max_delta = 0.0
        for w in self.order:
            cand = self._candidate(w, self.values, prev)
            new = damp * self.values[w] + (1.0 - damp) * cand
            max_delta = max(max_delta, abs(new - self.values[w]))
            self.values[w] = new
        return max_delta

    def plan_residual(self, values: dict[Word, complex]) -> float:
        """Max |undamped update - value| over every planned word, from one
        pass that reads the given values and writes nothing."""
        return max((abs(self._candidate(w, values, values) - self._read(values, (w, False)))
                    for w in self.order), default=0.0)


def _default_demand(problem: SDProblem, pushforward_degree: int) -> list[Word]:
    layout = problem.layout
    deg = max((g.degree for g in problem.gradients.values()), default=0)
    demand: list[Word] = []
    # residual test words and their right-hand sides
    letters = _alphabet_letters(layout, "uz")
    cap = max(0, problem.D - deg) if not problem.h.is_zero else 2
    for p in _enumerate_words(letters, min(cap, 3)):
        if p:
            demand.append(p)
    # pushforward-demanded words
    for w in _enumerate_words(x_letters(layout), pushforward_degree):
        if w:
            zw = substitute_x(NCPoly.monomial(layout, list(w), 1))
            demand.extend(zw.terms.keys())
    return demand


def sd_solve(problem: SDProblem, pushforward_degree: int = 4) -> tuple[MomentTable, SDReport]:
    """Damped Picard iteration on the demand-driven word set, seeded with
    the h=0 free-product solution."""
    solver = _Solver(problem, _default_demand(problem, pushforward_degree))
    history = []
    ratios = []
    converged = False
    iterations = 0
    for it in range(problem.max_iter):
        delta = solver.sweep()
        history.append(delta)
        if len(history) >= 2 and history[-2] > 0:
            ratios.append(delta / history[-2])
        iterations = it + 1
        if delta <= problem.tol / 10.0:
            converged = True
            break
    table = MomentTable(problem.layout, "uz", problem.D)
    table.values.update(solver.values)
    # pure z words, which no plan holds, for completeness
    zs = tuple(l for l in _alphabet_letters(problem.layout, "uz") if l[0] == "z")
    for key in _canonical_keys(zs, min(problem.D, 4)):
        table.values[key] = problem.oracle.at(key)
    resid = sd_residual(table, problem)
    plan_resid = solver.plan_residual(solver.values)
    ok = converged and resid <= problem.tol and plan_resid <= problem.tol
    report = SDReport(ok, iterations, resid, plan_resid, history, ratios)
    return table, report


# ---------------------------------------------------------------------------
# residual


def sd_residual(table: MomentTable, problem: SDProblem) -> float:
    """Max violation of the Schwinger-Dyson equation over all test words p
    with degree(p) + degree(D_i h) <= D, plus the z-marginal deviation."""
    layout = problem.layout
    oracle = problem.oracle
    worst = 0.0

    def tau(w):
        return _lookup(table.values, oracle, w)

    for i, g in problem.gradients.items():
        cap = problem.D - (g.degree if not g.is_zero else 0)
        cap = min(cap, 3)  # keeps enumeration over the uz alphabet bounded
        for p in _enumerate_words(_alphabet_letters(layout, "uz"), cap):
            lhs = 0.0 + 0.0j
            for a, b, sign in _unitary_terms(i, p):
                lhs += sign * tau(a) * tau(b)
            rhs = 0.0 + 0.0j
            for v, c in g.terms.items():
                rhs += complex(c) * tau(reduce_word(v + p))
            worst = max(worst, abs(lhs - rhs))
    # z-marginal deviation
    for w, v in table.values.items():
        if w and _is_pure_z(w):
            worst = max(worst, abs(v - oracle.at(w)))
    return worst


# ---------------------------------------------------------------------------
# pushforward and liberation identity


def pushforward_x(table: MomentTable, problem: SDProblem, m: int) -> MomentTable:
    """Moments of x_ij = u_i z_ij u_i* under the solved state."""
    layout = problem.layout
    out = MomentTable(layout, "x", m)
    for key in _canonical_keys(tuple(x_letters(layout)), m):
        zw = substitute_x(NCPoly.monomial(layout, list(key), 1))
        ((word, c),) = zw.terms.items()
        out.values[key] = complex(c) * _lookup(table.values, problem.oracle, word)
    return out


def liberation_check(table: MomentTable, problem: SDProblem, m: int) -> float:
    """Max deviation of tau(j_i w) from (tau (x) tau) applied to the
    liberation derivative of w, over x-words of length <= m."""
    layout = problem.layout

    def tau_uz(p: NCPoly) -> complex:
        acc = 0.0 + 0.0j
        for w, c in p.terms.items():
            acc += complex(c) * _lookup(table.values, problem.oracle, w)
        return acc

    def tau_x(p: NCPoly) -> complex:
        return tau_uz(substitute_x(p))

    worst = 0.0
    for i in range(1, layout.n + 1):
        j = liberation_gradient(i, problem.h)  # lives in the u,z letters
        for w in _enumerate_words(x_letters(layout), m):
            p = NCPoly.monomial(layout, list(w), 1)
            lhs = tau_uz(j * substitute_x(p))
            rhs = 0.0 + 0.0j
            for (a, b), c in derive_liberation(i, p).terms.items():
                rhs += complex(c) * tau_x(NCPoly.monomial(layout, list(a), 1)) * tau_x(
                    NCPoly.monomial(layout, list(b), 1)
                )
            worst = max(worst, abs(lhs - rhs))
    return worst
