"""Metropolis samplers for the two Gibbs ensembles: the unitary-orbital
ensemble on U(N)^n with density proportional to exp(-N^2 tr h(V Xi V*))
against Haar measure, and the matrix ensemble on tuples of Hermitian
matrices with operator norm at most R against the uniform reference.

Also provides mean tracial states, log-partition estimators (direct and
thermodynamic integration), and microstate-set occupancy fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .matrices import MatrixTuple, gue, haar_unitary, spectral_reflect, trace_evaluate
from .moments import (
    MomentTable,
    empirical_state,
    microstate_check,
)
from .poly import NCPoly

__all__ = [
    "GibbsConfig",
    "GibbsChain",
    "energy",
    "step",
    "run",
    "mean_tracial_state",
    "log_partition",
    "occupancy",
]

_IMAG_TOL = 1e-9


@dataclass
class GibbsConfig:
    kind: str  # "unitary-orbital" or "matrix"
    N: int
    h: NCPoly
    microstates: MatrixTuple | None = None  # unitary-orbital kind
    R: float | None = None  # matrix kind
    beta: float = 1.0
    eps: float = 0.2
    sweeps: int = 1000
    burn_in: int = 200
    thinning: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("unitary-orbital", "matrix"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.eps <= 0:
            raise ValueError("step size must be positive")
        if not (self.sweeps > self.burn_in >= 0):
            raise ValueError("need sweeps > burn_in >= 0")
        if not self.h.is_selfadjoint():
            raise ValueError("h must be self-adjoint")
        if self.kind == "unitary-orbital":
            if self.microstates is None:
                raise ValueError("unitary-orbital kind needs microstates")
            if self.microstates.N != self.N:
                raise ValueError("microstate dimension mismatch")
        else:
            if self.R is None:
                raise ValueError("matrix kind needs a norm cutoff R")

    @property
    def layout(self):
        return self.h.layout


@dataclass
class GibbsChain:
    config: GibbsConfig
    state: MatrixTuple
    energy: float  # energy(state, config), carried so each state is scored once
    eps: float
    rng: np.random.Generator
    sweep: int = 0
    accepted: int = 0
    proposed: int = 0
    energy_trace: list = field(default_factory=list)  # (sweep, beta, energy, acc rate)
    samples: list = field(default_factory=list)  # thinned post-burn-in states
    energies: list = field(default_factory=list)  # post-burn-in per-sweep energies

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


def _effective_tuple(state: MatrixTuple, config: GibbsConfig) -> MatrixTuple:
    if config.kind == "unitary-orbital":
        vs = [state.unitaries[i] for i in range(1, config.layout.n + 1)]
        return config.microstates.conjugated(vs)
    return state


def energy(state: MatrixTuple, config: GibbsConfig, beta: float | None = None) -> float:
    """N^2 * beta * Re tr_N h on the ensemble's effective tuple."""
    if config.h.is_zero:
        return 0.0
    beta = config.beta if beta is None else beta
    val = trace_evaluate(config.h, _effective_tuple(state, config))
    if abs(val.imag) > _IMAG_TOL * max(1.0, abs(val.real)):
        raise ValueError(f"energy has non-negligible imaginary part {val.imag}")
    return config.N**2 * beta * val.real


def _initial_state(config: GibbsConfig, rng: np.random.Generator) -> MatrixTuple:
    lay = config.layout
    if config.kind == "unitary-orbital":
        vs = [haar_unitary(config.N, rng) for _ in range(lay.n)]
        return config.microstates.with_unitaries(vs)
    sa = {}
    for i in range(1, lay.n + 1):
        for j in range(1, lay.r[i - 1] + 1):
            sa[(i, j)] = spectral_reflect(config.R * gue(config.N, rng), config.R)
    return MatrixTuple._unchecked(lay, config.N, sa, {}, check_norm=False)


def _propose(chain: GibbsChain, slot) -> MatrixTuple:
    """The chain's state with one update slot moved.  Orbital kind: slot i
    rotates unitary i by exp(i eps H), H drawn from the GUE.  Matrix kind:
    slot (i, j) moves by eps times a GUE draw, its spectrum reflected back
    into [-R, R]."""
    config = chain.config
    state = chain.state
    if config.kind == "unitary-orbital":
        w, vecs = np.linalg.eigh(gue(config.N, chain.rng))
        rot = (vecs * np.exp(1j * chain.eps * w)) @ vecs.conj().T
        return state.with_unitaries(
            [rot @ state.unitaries[k] if k == slot else state.unitaries[k]
             for k in range(1, config.layout.n + 1)]
        )
    sa = dict(state.sa)
    sa[slot] = spectral_reflect(sa[slot] + chain.eps * gue(config.N, chain.rng), config.R)
    return MatrixTuple._unchecked(config.layout, config.N, sa, {}, check_norm=False)


def step(chain: GibbsChain) -> GibbsChain:
    """One Metropolis sweep over all update slots; mutates the chain."""
    config = chain.config
    lay = config.layout
    if config.kind == "unitary-orbital":
        slots = range(1, lay.n + 1)
    else:
        slots = [(i, j) for i in range(1, lay.n + 1) for j in range(1, lay.r[i - 1] + 1)]
    for slot in slots:
        proposal = _propose(chain, slot)
        e_new = energy(proposal, config)
        chain.proposed += 1
        e_cur = chain.energy
        if e_new <= e_cur or chain.rng.random() < math.exp(e_cur - e_new):
            chain.state = proposal
            chain.energy = e_new
            chain.accepted += 1
    chain.sweep += 1
    return chain


def run(config: GibbsConfig, rng: np.random.Generator | None = None) -> GibbsChain:
    """Run a full chain: burn-in with step-size auto-tuning (frozen
    afterwards, preserving detailed balance), then thinned sampling."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = _initial_state(config, rng)
    chain = GibbsChain(config, state, energy(state, config), config.eps, rng)
    tune_interval = 20
    window_acc = 0
    window_prop = 0
    for sweep in range(config.sweeps):
        acc0, prop0 = chain.accepted, chain.proposed
        step(chain)
        window_acc += chain.accepted - acc0
        window_prop += chain.proposed - prop0
        in_burn = sweep < config.burn_in
        flat = config.h.is_zero or config.beta == 0.0
        if in_burn and not flat and (sweep + 1) % tune_interval == 0 and window_prop:
            rate = window_acc / window_prop
            if rate < 0.30:
                chain.eps *= 0.7
            elif rate > 0.50:
                chain.eps *= 1.3
            window_acc = window_prop = 0
        chain.energy_trace.append((sweep, config.beta, chain.energy, chain.acceptance_rate))
        if not in_burn:
            chain.energies.append(chain.energy)
            if (sweep - config.burn_in) % config.thinning == 0:
                chain.samples.append(chain.state)
    return chain


# ---------------------------------------------------------------------------
# observables


def mean_tracial_state(chain: GibbsChain, m: int) -> MomentTable:
    """Post-burn-in average of empirical (orbital) states.  The returned
    table carries per-word Monte Carlo standard errors in ``.stderr``."""
    if not chain.samples:
        raise ValueError("chain has no retained samples")
    config = chain.config
    sums: dict = {}
    sqsums: dict = {}
    M = len(chain.samples)
    for state in chain.samples:
        t = empirical_state(_effective_tuple(state, config), m)
        for w, v in t.values.items():
            sums[w] = sums.get(w, 0.0) + v
            sqsums[w] = sqsums.get(w, 0.0) + abs(v) ** 2
    out = MomentTable(config.layout, "x", m, config.layout.R)
    stderr = {}
    for w, s in sums.items():
        mean = s / M
        out.values[w] = mean
        var = max(0.0, sqsums[w] / M - abs(mean) ** 2)
        stderr[w] = math.sqrt(var / M) if M > 1 else float("inf")
    out.stderr = stderr
    return out


def _mean_and_stderr(xs: Sequence[float]) -> tuple[float, float]:
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if n < 2:
        return float(xs.mean()) if n else 0.0, float("inf")
    return float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(n))


def log_partition(
    config: GibbsConfig,
    method: str = "thermodynamic",
    beta_grid: int = 11,
    variance_threshold: float = 4.0,
) -> tuple[float, float]:
    """Estimate log Z (unitary kind: absolute, reference Haar; matrix
    kind: log of the ratio Z_h / Z_0 against the uniform reference).

    direct: log E_0[exp(-E)] under the beta=0 reference; refuses when the
    spread of E makes the exponential average unreliable.
    thermodynamic: log Z(beta=1) - log Z(0) = -integral over beta of the
    mean raw energy, on an equally spaced beta grid with trapezoid
    weights.
    """
    if config.h.is_zero:
        return 0.0, 0.0
    if method == "direct":
        ref = replace(config, beta=0.0)
        chain = run(ref)
        raw = [energy(s, config, beta=1.0) for s in chain.samples]
        spread = max(raw) - min(raw)
        if spread > variance_threshold:
            raise RuntimeError(
                f"direct estimator refused: energy spread {spread:.3g} exceeds "
                f"threshold {variance_threshold}"
            )
        shift = min(raw)
        vals = np.exp(-(np.asarray(raw) - shift))
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else float("inf")
        return -shift + math.log(mean), se / mean
    if method != "thermodynamic":
        raise ValueError(f"unknown method {method!r}")

    betas = np.linspace(0.0, 1.0, beta_grid)
    means = []
    errs = []
    for k, b in enumerate(betas):
        sub = replace(config, beta=float(b), seed=config.seed + 1000 * k)
        chain = run(sub)
        raw = [energy(s, config, beta=1.0) for s in chain.samples]
        mu, se = _mean_and_stderr(raw)
        means.append(mu)
        errs.append(se)
    w = np.full(beta_grid, 1.0 / (beta_grid - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    est = -float(np.dot(w, means))
    err = float(math.sqrt(np.dot(w**2, np.asarray(errs) ** 2)))
    return est, err


def occupancy(
    chain: GibbsChain, target: MomentTable, m: int, delta: float
) -> tuple[float, float]:
    """Fraction of retained samples whose (conjugated) tuple lies in the
    microstate set of the target, and (1/N^2) log of that fraction
    (-inf when the fraction is zero)."""
    if not chain.samples:
        raise ValueError("chain has no retained samples")
    config = chain.config
    hits = 0
    for state in chain.samples:
        if microstate_check(_effective_tuple(state, config), target, m, delta):
            hits += 1
    frac = hits / len(chain.samples)
    logf = -math.inf if frac == 0.0 else math.log(frac) / config.N**2
    return frac, logf
