"""Finite-N estimators of the orbital free pressure, of single- and
double-trace energies, the exact finite-sample property suite, the
Legendre-transform entropy estimator and the penalty polynomial, plus the
pressure relation between the matrix and orbital ensembles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gibbs
from .matrices import (
    MatrixTuple,
    SpectralMeasure,
    _Scorer,
    _Stack,
    _word_traces,
    haar_unitary,
    quantile_microstate,
)
from .moments import (
    MomentTable,
    _canonical_keys,
    _enumerate_words,
    chi_single,
    empirical_state,
    x_letters,
)
from .poly import (
    FamilyLayout,
    NCPoly,
    TensorNCPoly,
    _format_word,
    norm_bound,
)

__all__ = [
    "PressureEstimate",
    "EtaEstimate",
    "pressure_estimate",
    "finite_N_property_suite",
    "eta_estimate",
    "penalty_poly",
    "pressure_relation_check",
    "selfadjoint_word_basis",
    "sample_conjugations",
]


@dataclass
class PressureEstimate:
    h: object
    per_N: list  # (N, logZ, stderr)
    normalized: list  # logZ / N^2
    extrapolated: float
    r_squared: float

    def __post_init__(self):
        if isinstance(self.h, NCPoly):
            bound = norm_bound(self.h) + 1e-9
            for v in self.normalized:
                if abs(v) > bound:
                    raise ValueError(
                        f"normalized pressure {v:.6g} exceeds the norm bound {bound:.6g}"
                    )


@dataclass
class EtaEstimate:
    basis: list  # self-adjoint NCPoly basis elements
    value: float
    minimizer: np.ndarray
    trace: list  # (evaluation index, objective value)
    converged: bool
    gradient_norm: float | None  # |gradient|_inf where Newton stopped; None on the marginal ray
    ess: float | None  # Kish ESS of the tilted sample weights there; None on the marginal ray
    marginal_gap: float  # the largest |target - microstate| of a single-family basis element
    diverged: bool = False
    witness: NCPoly | None = None


# ---------------------------------------------------------------------------
# shared-sample machinery


# the byte budget of one stack's unitaries, which sets its number of samples
_STACK_BYTES = 1 << 17


def sample_conjugations(
    microstates: MatrixTuple, M: int, rng: np.random.Generator
) -> Iterator[_Stack]:
    """M independent Haar conjugations of the microstate tuple (the
    reference measure of the orbital ensemble), as a sequence of stacks
    (``matrices._Stack``) of B samples each, the last holding the rest.
    Each stack's unitaries are drawn from rng in one call when it is read,
    bitwise the draws of its samples one at a time; a caller that reads
    the set twice lists it.  B is the most samples whose unitaries fit in
    _STACK_BYTES, and at least one.

    Family 1 carries no unitary: V_1 = I, and families 2..n draw their
    unitaries in order.  This is exact for every polynomial in x letters.
    Its trace is unchanged when one unitary W conjugates every family at
    once, and W = V_1* takes (V_1, V_2, ...) to (I, V_1* V_2, ...), whose
    entries after the first are again independent Haar unitaries.  A z
    letter reads the raw Xi and a u letter reads V itself, so neither is
    invariant; the sample-based estimators reject both.
    """
    N, n = microstates.N, microstates.layout.n
    B = max(1, _STACK_BYTES // (16 * N * N * max(1, n - 1)))
    for start in range(0, M, B):
        size = min(B, M - start)
        v = haar_unitary(N, rng, batch=(size, n - 1))
        yield _Stack.of_slots(microstates.layout, N, microstates.sa,
                              {i: v[:, i - 2] for i in range(2, n + 1)}, size)


def _require_x_letters(*polys) -> None:
    """Raise ValueError unless every word of every polynomial (NCPoly, or
    TensorNCPoly by both legs) is in x letters, the words whose traces
    sample_conjugations samples exactly."""
    for p in polys:
        for key in p.terms:
            words = key if isinstance(p, TensorNCPoly) else (key,)
            for letter in (l for w in words for l in w):
                if letter[0] != "x":
                    raise ValueError(f"sample-based estimates take x letters only, got the "
                                     f"letter {_format_word((letter,))}")


def _sample_raws(polys: Sequence, samples: Iterable[_Stack]) -> np.ndarray:
    """Re tr_N of each polynomial (NCPoly, or TensorNCPoly by the double
    trace) on each sample of a shared set, as one row per polynomial over
    the samples in order.  Each stack is read once, in one trace pass for
    the words of every polynomial, and scored by one _Scorer each."""
    scorers = [_Scorer(p) for p in polys]
    words = [w for s in scorers for legs, _, _ in s.terms for w in legs]
    parts = []
    for stack in samples:
        traces = _word_traces(stack, words)
        rows = np.empty((len(scorers), stack.size))
        for row, s in zip(rows, scorers):
            row[:] = s.combine(traces, stack.size)[0]
        parts.append(rows)
    return np.concatenate(parts, axis=1)


def _log_mean_exp(e: np.ndarray) -> tuple[float, float, np.ndarray]:
    """log of the sample average of exp(e), with a delta-method standard
    error, and the tilted weights exp(e) / sum exp(e): the one
    log-mean-exp every sample-set estimate goes through."""
    shift = e.max()
    p = np.exp(e - shift)
    total = p.sum()
    lme = float(shift + np.log(total / len(e)))
    w = np.exp(e - lme)  # mean 1 by construction
    se = float(w.std(ddof=1) / math.sqrt(len(w))) if len(w) > 1 else float("inf")
    return lme, se, p / total


def _sample_pressure(raws: np.ndarray, N: int) -> tuple[float, float]:
    """(1/N^2) log of the sample average of exp(-N^2 Re tr_N h), with a
    delta-method standard error, from the _sample_raws row of h."""
    lme, se, _ = _log_mean_exp(-(N**2) * raws)
    return lme / N**2, se / N**2


def _family_split(h: NCPoly) -> bool:
    """True when every word of h stays inside one family, so the orbital
    integrand is constant by trace conjugation invariance."""
    for w in h.terms:
        fams = {l[1] for l in w}
        if len(fams) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# pressure estimate


# the Haar conjugations a sample-set estimate draws where the caller gives none
DEFAULT_SAMPLES = 200


def pressure_estimate(
    h: NCPoly | TensorNCPoly,
    microstates_per_N: Sequence[tuple[int, MatrixTuple]],
    gibbs_settings: dict | None = None,
    method: str = "sample",
) -> PressureEstimate:
    """Per-N normalized orbital log-partition values with an affine
    extrapolation in 1/N.

    At each (N, xi) a zero h gives 0, and a family-split NCPoly h is
    evaluated exactly in closed form.  Otherwise method "sample" takes the
    log-mean-exp over the settings' "samples" Haar conjugations of xi,
    drawn from default_rng(seed + N), and "thermodynamic" runs
    gibbs.log_partition with the other settings, seeded seed + N.  A
    TensorNCPoly h, the double-trace energy, takes the sample method only.
    """
    if method not in ("sample", "thermodynamic"):
        raise ValueError(f"unknown method {method!r}")
    tensor = isinstance(h, TensorNCPoly)
    if tensor and method != "sample":
        raise ValueError(f"a tensor h takes the sample method only, got {method!r}")
    _require_x_letters(h)
    settings = dict(gibbs_settings or {})
    seed = settings.pop("seed", 0)
    M = settings.pop("samples", DEFAULT_SAMPLES)
    rows = []
    for N, xi in microstates_per_N:
        if h.is_zero:
            logz, se = 0.0, 0.0
        elif not tensor and _family_split(h):
            logz, se = N**2 * -_Scorer(h)(xi)[0].item(), 0.0
        elif method == "sample":
            raws = _sample_raws([h], sample_conjugations(xi, M, np.random.default_rng(seed + N)))
            v, se = _sample_pressure(raws[0], N)
            logz, se = N**2 * v, N**2 * se
        else:
            logz, se = gibbs.log_partition(gibbs.GibbsConfig(
                "unitary-orbital", N, h, microstates=xi, **settings, seed=seed + N))
        rows.append((N, logz, se))
    normalized = [logz / N**2 for N, logz, _ in rows]
    extrapolated, r2 = _affine_fit([1.0 / N for N, _, _ in rows], normalized)
    return PressureEstimate(h, rows, normalized, extrapolated, r2)


def _affine_fit(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) == 1:
        return float(ys[0]), 1.0
    A = np.vstack([np.ones_like(xs), xs]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    ss_res = float(np.sum((ys - A @ coef) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


# ---------------------------------------------------------------------------
# exact finite-sample property suite


def finite_N_property_suite(
    h1: NCPoly,
    h2: NCPoly,
    microstates: MatrixTuple,
    M: int = 64,
    seed: int = 0,
) -> dict:
    """Evaluates the four pressure relations on a shared empirical sample
    set, where each is exact: Lipschitz bound, monotonicity, midpoint
    convexity (Cauchy-Schwarz), and disjoint-family additivity as an
    equality on the product empirical measure."""
    _require_x_letters(h1, h2)
    N = microstates.N
    # h1 <= h1 + q*q pointwise on every sample, and the midpoint of h1, h2
    q = h2 - h1
    dominating = h1 + q.adjoint() * q
    mid = (h1 + h2).scale(0.5)
    # disjoint family groups: h1 projected to family 1, h2 to families 2..n
    g1 = _project_families(h1, {1})
    g2 = _project_families(h2, set(range(2, microstates.layout.n + 1)))
    polys = (h1, h2, dominating, mid, g1, g2)
    raws = _sample_raws(polys, sample_conjugations(microstates, M, np.random.default_rng(seed)))
    pi1, pi2, pi_dom, pi_mid = (_sample_pressure(r, N)[0] for r in raws[:4])

    report = {}

    # (Lipschitz) |pi(h1) - pi(h2)| <= sup-norm surrogate of h1 - h2
    lip_bound = norm_bound(h1 - h2)
    lip_lhs = abs(pi1 - pi2)
    report["lipschitz"] = {"lhs": lip_lhs, "bound": lip_bound, "margin": lip_bound - lip_lhs}

    # (monotone) pi(h1) >= pi(h1 + q*q)
    report["monotone"] = {"pi_smaller": pi1, "pi_larger": pi_dom, "margin": pi1 - pi_dom}

    # (convex) midpoint convexity via Cauchy-Schwarz on the sample set
    conv_rhs = 0.5 * pi1 + 0.5 * pi2
    report["convex"] = {"pi_mid": pi_mid, "rhs": conv_rhs, "margin": conv_rhs - pi_mid}

    # (additive) disjoint family groups factorize exactly on the product
    # empirical measure
    e1, e2 = -(N**2) * raws[4:]
    # family 1 carries no unitary, so every e1 is the same number; the
    # joint log-mean-exp over all (s, t) pairs then splits up to rounding
    joint = _log_mean_exp((e1[:, None] + e2[None, :]).ravel())[0] / N**2
    split = _log_mean_exp(e1)[0] / N**2 + _log_mean_exp(e2)[0] / N**2
    report["additive"] = {"joint": joint, "split": split, "margin": abs(joint - split)}

    report["max_violation"] = max(
        max(0.0, -report["lipschitz"]["margin"]),
        max(0.0, -report["monotone"]["margin"]),
        max(0.0, -report["convex"]["margin"]),
        report["additive"]["margin"],
    )
    return report


def _project_families(h: NCPoly, families: set[int]) -> NCPoly:
    out = NCPoly.zero(h.layout)
    for w, c in h.terms.items():
        if w and {l[1] for l in w} <= families:
            out = out + NCPoly.monomial(h.layout, list(w), c)
    return out


# ---------------------------------------------------------------------------
# eta (Legendre transform) estimator


def selfadjoint_word_basis(layout: FamilyLayout, d: int) -> list[NCPoly]:
    """Self-adjoint symmetrizations (w + w*)/2 of the canonical x-words of
    degree 1..d, one per class under rotation and adjoint; constants are
    excluded (flat direction of the objective)."""
    out = []
    for w in _canonical_keys(tuple(x_letters(layout)), d):
        p = NCPoly.monomial(layout, list(w), 1)
        out.append(p if p.is_selfadjoint() else (p + p.adjoint()).scale(0.5))
    return out


def _target_pairing(target: MomentTable, h: NCPoly) -> float:
    val = sum(complex(c) * target.get(w) for w, c in h.terms.items())
    return val.real


class _EtaObjective:
    """The eta objective on mixed basis elements b_k over one shared sample
    set, f(c) = c.T + N^-2 log mean_s exp(-N^2 F[s].c), with
    F[s, k] = Re tr_N b_k(sample s) and T[k] the target pairing of b_k,
    both built once.  f is convex: under the tilted weights, proportional
    to exp(-N^2 F[s].c), its gradient is T minus the mean of F and its
    Hessian N^2 times the covariance of F."""

    def __init__(self, target: MomentTable, mixed: list[NCPoly], samples: Iterable[_Stack],
                 N: int):
        self.F = _sample_raws(mixed, samples).T.copy()  # C order, one row per sample
        self.T = np.array([_target_pairing(target, b) for b in mixed])
        self.N = N

    def __call__(self, c: np.ndarray) -> tuple[float, np.ndarray]:
        """f(c), and the tilted weights at c, which sum to 1."""
        lme, _, w = _log_mean_exp(-(self.N**2) * (self.F @ c))
        return float(c @ self.T + lme / self.N**2), w

    def derivatives(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gradient and the Hessian at the point whose tilted weights are w."""
        mean = w @ self.F
        dev = self.F - mean
        return self.T - mean, self.N**2 * (dev.T * w) @ dev


# Newton on the mixed words stops once |gradient|_inf is at most this
ETA_GRADIENT_TOL = 1e-10
# Hessian eigenvalues at or below this fraction of the largest span its null space
_NULL_RTOL = 1e-12
# the Armijo sufficient-decrease fraction of the line search
_ARMIJO = 1e-4
# the objective evaluations eta_estimate spends where the caller gives none
ETA_BUDGET = 200


def eta_estimate(
    target: MomentTable,
    microstates: MatrixTuple,
    basis_degree: int = 2,
    samples: int = DEFAULT_SAMPLES,
    budget: int = ETA_BUDGET,
    seed: int = 0,
    mismatch_tol: float = 0.05,
) -> EtaEstimate:
    """Minimize f(c) = target(h_c) + pressure(h_c), h_c = sum_k c_k b_k,
    over the self-adjoint word basis on one shared sample set.

    The basis splits exactly.  A single-family b_k has the same trace on
    every sample as on the microstate, so it adds only the linear term
    c_k (T_k - F_k), T_k its target pairing and F_k its microstate trace.
    A gap above mismatch_tol makes f unbounded below: the first such b_k,
    in basis order and signed so that f falls, is reported as the witness
    of divergence, with f at 1, 2, 4 and 8 times it as the trace.  Below
    it the largest gap is reported as marginal_gap and those coordinates
    stay 0.

    The mixed b_k give the convex _EtaObjective.  Damped Newton starts at
    c = 0, where f = 0, and halves its step until the Armijo condition
    holds; each evaluation of f counts against budget and is one row of
    the trace.  It stops converged at |gradient|_inf <= ETA_GRADIENT_TOL.
    The step is the minimum-norm one.  The Hessian's null space, its
    eigenvalues at or below _NULL_RTOL times the largest, holds the
    directions along which F[s].c is the same on every sample; f is linear
    along them, so a gradient component above ETA_GRADIENT_TOL there makes
    f fall without bound, reported as divergence with witness
    sum_k d_k b_k, d that component's negative.
    """
    layout = target.layout
    N = microstates.N
    basis = selfadjoint_word_basis(layout, basis_degree)
    marg = empirical_state(microstates, max(1, basis_degree))

    single = [_family_split(b) for b in basis]
    gaps = [(b, _target_pairing(target, b) - _target_pairing(marg, b))
            for b, s in zip(basis, single) if s]
    for b, g in gaps:
        if abs(g) > mismatch_tol:
            # along alpha * witness the pressure term is exactly
            # -alpha * tr_N witness, so f is alpha times its value at 1
            witness = b.scale(1.0 if g < 0 else -1.0)
            f1 = _target_pairing(target, witness) - _Scorer(witness)(microstates)[0].item()
            trace = [(k, alpha * f1) for k, alpha in enumerate((1.0, 2.0, 4.0, 8.0))]
            return EtaEstimate(basis, -math.inf, np.zeros(len(basis)), trace, converged=False,
                               gradient_norm=None, ess=None, marginal_gap=abs(g),
                               diverged=True, witness=witness)
    gap = max((abs(g) for _, g in gaps), default=0.0)
    mixed = [b for b, s in zip(basis, single) if not s]
    objective = _EtaObjective(target, mixed, sample_conjugations(
        microstates, samples, np.random.default_rng(seed)), N)

    c = np.zeros(len(mixed))
    f, w = objective(c)
    trace = [(0, f)]
    direction = None
    while True:
        g, hessian = objective.derivatives(w)
        gradient_norm = float(np.abs(g).max(initial=0.0))
        if gradient_norm <= ETA_GRADIENT_TOL:
            break
        lam, U = np.linalg.eigh(hessian)
        null = lam <= _NULL_RTOL * lam[-1]
        g_null = U[:, null] @ (U[:, null].T @ g)
        if np.abs(g_null).max(initial=0.0) > ETA_GRADIENT_TOL:
            direction = -g_null  # f(c + a d) = f(c) - a |g_null|^2 for every a
            break
        d = -U[:, ~null] @ ((U[:, ~null].T @ g) / lam[~null])
        t = 1.0
        while len(trace) < budget:
            f_t, w_t = objective(c + t * d)
            trace.append((len(trace), f_t))
            if f_t <= f + _ARMIJO * t * (g @ d):
                break
            t /= 2
        else:
            break  # the budget is spent
        c, f, w = c + t * d, f_t, w_t

    minimizer = np.zeros(len(basis))
    minimizer[[k for k, s in enumerate(single) if not s]] = c
    stats = {"gradient_norm": gradient_norm, "ess": float(1.0 / (w @ w)), "marginal_gap": gap}
    if direction is not None:
        witness = NCPoly.zero(layout)
        for dk, b in zip(direction, mixed):
            witness = witness + b.scale(float(dk))
        return EtaEstimate(basis, -math.inf, minimizer, trace, converged=False,
                           diverged=True, witness=witness, **stats)
    return EtaEstimate(basis, f, minimizer, trace,
                       converged=gradient_norm <= ETA_GRADIENT_TOL, **stats)


# ---------------------------------------------------------------------------
# the penalty polynomial


def penalty_poly(target: MomentTable, m: int, beta: float, delta: float) -> TensorNCPoly:
    """(beta/delta^2) sum over words w of length 1..m of
    (w - tau(w)) tensor (w - tau(w))*; pairs to zero with the target and
    is nonnegative under the double trace on every tuple."""
    layout = target.layout
    total = None
    for w in _enumerate_words(x_letters(layout), m):
        if not w:
            continue
        p = NCPoly.monomial(layout, list(w), 1) - NCPoly.one(layout).scale(target.get(w))
        t = TensorNCPoly.of_pair(p, p.adjoint())
        total = t if total is None else total + t
    return total.scale(beta / delta**2)


# ---------------------------------------------------------------------------
# pressure relation between matrix and orbital ensembles


# chain settings pressure_relation_check uses where the caller gives none
RELATION_CHAIN_DEFAULTS = {"sweeps": 600, "burn_in": 150, "thinning": 5}


def pressure_relation_check(
    h: NCPoly,
    N: int,
    gibbs_settings: dict | None = None,
    seed: int = 0,
) -> dict:
    """Finite-N proxy of the relation

        pi_R(h) >= pi_orb(h : marginals) + sum_i chi(marginal_i)

    The matrix side is the log-ratio Z^h/Z^0 of the matrix ensemble (the
    Lebesgue volume normalization cancels); its chi terms use the h=0
    marginal spectra, which also feed the orbital side's microstates, so
    the reported margin is matrix_rel_logZ - orbital_pressure.
    """
    settings = {**RELATION_CHAIN_DEFAULTS, **(gibbs_settings or {})}
    samples = settings.pop("samples", DEFAULT_SAMPLES)
    layout = h.layout
    if any(r != 1 for r in layout.r):
        raise ValueError("relation check requires single-variable families")
    _require_x_letters(h)

    # h=0 matrix reference chain supplies the marginal spectra
    cfg0 = gibbs.GibbsConfig("matrix", N, NCPoly.zero(layout), seed=seed, **settings)
    chain0 = gibbs.run(cfg0)
    marginals = []
    for i in range(1, layout.n + 1):
        eigs = np.concatenate(
            [np.linalg.eigvalsh(s.sa[(i, 1)]) for s in chain0.samples]
        )
        marginals.append(SpectralMeasure.empirical(eigs))

    # matrix-side relative log-partition
    cfg_h = gibbs.GibbsConfig("matrix", N, h, seed=seed + 1, **settings)
    rel_logz, se_m = gibbs.log_partition(cfg_h)
    rel = rel_logz / N**2
    se_m /= N**2

    # orbital side with quantile microstates of the same marginals
    sa = {(i, 1): quantile_microstate(mu, N) for i, mu in enumerate(marginals, start=1)}
    xi = MatrixTuple(layout, N, sa=sa, check_norm=False)
    orb, se_o = (0.0, 0.0) if h.is_zero else _sample_pressure(
        _sample_raws([h], sample_conjugations(xi, samples, np.random.default_rng(seed + 2)))[0], N)

    chis = [chi_single(mu) for mu in marginals]
    margin = rel - orb
    stderr = math.hypot(se_m, se_o)
    return {
        "matrix_side": rel,
        "orbital_side": orb,
        "chi": chis,
        "margin": margin,
        "stderr": stderr,
        "significant_violation": margin < -3.0 * stderr,
    }
