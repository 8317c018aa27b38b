"""Metropolis samplers for the two Gibbs ensembles: the unitary-orbital
ensemble on U(N)^n with density proportional to exp(-N^2 tr h(V Xi V*))
against Haar measure, and the matrix ensemble on tuples of Hermitian
matrices with operator norm at most R against the uniform reference.

Every chain runs through one sweep kernel over stacked (B, N, N) arrays: a
lone ``run`` is a batch of one, and ``log_partition`` advances its whole
beta ladder in lockstep.  An orbital state is the microstate tuple carrying
the chain's unitaries, ``microstates.with_unitaries(V)``, and h is evaluated
on it.  The energy comes from ``matrices._Scorer``, compiled once from h:
the one scorer of a polynomial, on a lone state and on a stacked batch
alike, which pressure's shared sample sets go through too.

Also provides mean tracial states and the thermodynamic-integration
log-partition estimator.  Every log-mean-exp estimate lives in
``pressure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .matrices import MatrixTuple, _Scorer, _Stack, gue, haar_unitary, spectral_reflect
from .moments import MomentTable, empirical_state
from .poly import NCPoly

__all__ = [
    "GibbsConfig",
    "GibbsChain",
    "energy",
    "step",
    "run",
    "mean_tracial_state",
    "log_partition",
]

_IMAG_TOL = 1e-9


@dataclass
class GibbsConfig:
    kind: str  # "unitary-orbital" or "matrix"
    N: int
    h: NCPoly
    microstates: MatrixTuple | None = None  # unitary-orbital kind
    beta: float = 1.0
    eps: float = 0.2
    sweeps: int = 1000
    burn_in: int = 200
    thinning: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("unitary-orbital", "matrix"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"step size must be positive and finite, got {self.eps!r}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if self.thinning < 1:
            raise ValueError(f"thinning must be at least 1, got {self.thinning!r}")
        if not (self.sweeps > self.burn_in >= 0):
            raise ValueError("need sweeps > burn_in >= 0")
        if not self.h.is_selfadjoint():
            raise ValueError("h must be self-adjoint")
        if self.kind == "unitary-orbital":
            if self.microstates is None:
                raise ValueError("unitary-orbital kind needs microstates")
            if self.microstates.N != self.N:
                raise ValueError("microstate dimension mismatch")
            if self.microstates.unitaries:
                fams = ", ".join(map(str, sorted(self.microstates.unitaries)))
                raise ValueError(f"microstates carry a unitary for family {fams}; "
                                 "each chain state brings its own")

    @property
    def layout(self):
        return self.h.layout

    @cached_property
    def _scorer(self) -> _Scorer:
        return _Scorer(self.h)


@dataclass
class GibbsChain:
    config: GibbsConfig
    state: MatrixTuple
    raw: float  # Re tr_N h of state, carried so each state is scored once
    eps: float
    rng: np.random.Generator
    accepted: int = 0
    proposed: int = 0
    energy_trace: list = field(default_factory=list)  # (sweep, beta, energy, acc rate)
    samples: list = field(default_factory=list)  # thinned post-burn-in states
    sample_raws: list = field(default_factory=list)  # raw of each retained state

    @property
    def energy(self) -> float:
        """energy(state, config), formed from the carried raw value."""
        return _energy(self.config, self.config.beta, self.raw)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


def _energy(config: GibbsConfig, beta: float, raw: float) -> float:
    return 0.0 if config.h.is_zero else config.N**2 * beta * raw


# ---------------------------------------------------------------------------
# the energy and the sweep kernel


def _slots(config: GibbsConfig) -> list:
    """The update slots: family i (its unitary) for the orbital kind,
    (family, index) for the matrix kind."""
    lay = config.layout
    if config.kind == "unitary-orbital":
        return list(range(1, lay.n + 1))
    return [(i, j) for i in range(1, lay.n + 1) for j in range(1, lay.r[i - 1] + 1)]


def _stack(states: Sequence[MatrixTuple], config: GibbsConfig) -> dict:
    """The matrices the chains move, the orbital kind's unitaries or the
    matrix kind's self-adjoint slots, as one (B, N, N) array per update
    slot."""
    orbital = config.kind == "unitary-orbital"
    return {slot: np.stack([(s.unitaries if orbital else s.sa)[slot] for s in states])
            for slot in _slots(config)}


def _batch(stack: dict, config: GibbsConfig) -> _Stack:
    """B states of one ensemble as one ``_Stack`` whose update slots hold
    the stacked (B, N, N) arrays: the form in which the sweep kernel hands
    a batch to ``energy``.  An orbital batch is the microstate tuple
    carrying the stacked unitaries, as a lone state carries its own."""
    size = len(next(iter(stack.values())))
    if config.kind == "unitary-orbital":
        return _Stack.of_slots(config.layout, config.N, config.microstates.sa, stack, size)
    return _Stack.of_slots(config.layout, config.N, stack, {}, size)


def _raw(config: GibbsConfig, tup: MatrixTuple) -> np.ndarray:
    """Re tr_N h on each state the tuple holds, checking that the
    imaginary part is negligible."""
    re, im = config._scorer(tup)
    bad = np.abs(im) > _IMAG_TOL * np.fmax(1.0, np.abs(re))
    if bad.any():
        raise ValueError(f"energy has non-negligible imaginary part {im[bad.argmax()]}")
    return re


def energy(state: MatrixTuple, config: GibbsConfig):
    """N^2 * beta * Re tr_N h on a state.

    The sweep kernel passes a batch of B states instead and gets back
    their B raw values Re tr_N h from one evaluation; each chain forms its
    own energy N^2 beta raw.
    """
    if isinstance(state, _Stack):
        return _raw(config, state)
    if config.h.is_zero:
        return 0.0
    raw = float(_raw(config, state)[0])
    return _energy(config, config.beta, raw)


def _initial_state(config: GibbsConfig, rng: np.random.Generator) -> MatrixTuple:
    lay = config.layout
    if config.kind == "unitary-orbital":
        vs = {i: haar_unitary(config.N, rng) for i in range(1, lay.n + 1)}
        return config.microstates.with_unitaries(vs)
    sa = {}
    for i in range(1, lay.n + 1):
        for j in range(1, lay.r[i - 1] + 1):
            sa[(i, j)] = spectral_reflect(lay.R * gue(config.N, rng), lay.R)
    return MatrixTuple._unchecked(lay, config.N, sa, {})


def _start(config: GibbsConfig) -> GibbsChain:
    """A chain at its initial state, drawing from default_rng(config.seed);
    its raw value is set by _run_chains."""
    rng = np.random.default_rng(config.seed)
    return GibbsChain(config, _initial_state(config, rng), math.nan, config.eps, rng)


def _sweep(chains: Sequence[GibbsChain], stack: dict, config: GibbsConfig) -> dict:
    """One Metropolis sweep over all update slots of every chain in
    lockstep; returns the new stack.  Orbital kind: slot i rotates unitary
    i by exp(i eps H), H drawn from the GUE.  Matrix kind: slot (i, j)
    moves by eps times a GUE draw, its spectrum reflected back into
    [-R, R].  Each chain draws from its own generator in the order a lone
    chain would, its accept uniform only when the energy rises."""
    N = config.N
    eps = np.array([chain.eps for chain in chains])
    scales = [N**2 * chain.config.beta for chain in chains]  # energy = scale * raw
    for slot in _slots(config):
        draws = gue(N, [chain.rng for chain in chains])
        if config.kind == "unitary-orbital":
            w, vecs = np.linalg.eigh(draws)
            phase = np.exp(1j * eps[:, None] * w)[:, None, :]
            moved = ((vecs * phase) @ vecs.conj().swapaxes(-1, -2)) @ stack[slot]
        else:
            moved = spectral_reflect(stack[slot] + eps[:, None, None] * draws, config.layout.R)
        raws = energy(_batch({**stack, slot: moved}, config), config).tolist()
        accept = []
        for chain, scale, raw in zip(chains, scales, raws):
            e_new = scale * raw
            e_cur = scale * chain.raw
            chain.proposed += 1
            ok = e_new <= e_cur or chain.rng.random() < math.exp(e_cur - e_new)
            if ok:
                chain.raw = raw
                chain.accepted += 1
            accept.append(ok)
        stack = {**stack, slot: np.where(np.array(accept)[:, None, None], moved, stack[slot])}
    return stack


def _run_chains(chains: Sequence[GibbsChain], config: GibbsConfig, record: bool) -> None:
    """Run the chains' schedule in lockstep: burn-in with per-chain
    step-size auto-tuning (frozen afterwards, preserving detailed
    balance), then thinned sampling, keeping the raw value of each
    retained state.  With record, each chain also keeps its energy trace
    and the retained states themselves.  The chains share config's
    ensemble, h and schedule, and may differ in beta, seed and step
    size."""
    stack = _stack([chain.state for chain in chains], config)
    for chain, raw in zip(chains, energy(_batch(stack, config), config).tolist()):
        chain.raw = raw
    tune_interval = 20
    marks = [(0, 0)] * len(chains)  # (accepted, proposed) when each window opened
    for sweep in range(config.sweeps):
        stack = _sweep(chains, stack, config)
        in_burn = sweep < config.burn_in
        keep = not in_burn and (sweep - config.burn_in) % config.thinning == 0
        for k, chain in enumerate(chains):
            beta = chain.config.beta
            flat = config.h.is_zero or beta == 0.0
            if in_burn and not flat and (sweep + 1) % tune_interval == 0:
                acc0, prop0 = marks[k]
                if chain.proposed > prop0:
                    rate = (chain.accepted - acc0) / (chain.proposed - prop0)
                    if rate < 0.30:
                        chain.eps *= 0.7
                    elif rate > 0.50:
                        chain.eps *= 1.3
                    marks[k] = (chain.accepted, chain.proposed)
            if record:
                chain.energy_trace.append((sweep, beta, chain.energy, chain.acceptance_rate))
            if keep:
                chain.sample_raws.append(chain.raw)
                if record:
                    chain.samples.append(_batch(stack, config).state(k))
    for k, chain in enumerate(chains):
        chain.state = _batch(stack, config).state(k)


def step(chain: GibbsChain) -> GibbsChain:
    """One Metropolis sweep over all update slots; mutates the chain."""
    config = chain.config
    stack = _sweep([chain], _stack([chain.state], config), config)
    chain.state = _batch(stack, config).state(0)
    return chain


def run(config: GibbsConfig) -> GibbsChain:
    """Run a full chain: burn-in with step-size auto-tuning (frozen
    afterwards, preserving detailed balance), then thinned sampling."""
    chain = _start(config)
    _run_chains([chain], config, record=True)
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
        t = empirical_state(state, m)
        for w, v in t.values.items():
            sums[w] = sums.get(w, 0.0) + v
            sqsums[w] = sqsums.get(w, 0.0) + abs(v) ** 2
    out = MomentTable(config.layout, "x", m)
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


def _ladder(config: GibbsConfig, beta_grid: int, record: bool = False) -> list[GibbsChain]:
    """The beta ladder of thermodynamic integration, run in lockstep: chain k
    at the k-th of beta_grid equally spaced betas in [0, 1], seeded
    config.seed + 1000 k, equal bit for bit to a lone run of its config.
    The estimate reads only the raw values of the retained states; the
    traces and states of a whole ladder, held at once, would cost
    beta_grid times a lone chain's memory, so they are kept only with
    record."""
    subs = [replace(config, beta=float(b), seed=config.seed + 1000 * k)
            for k, b in enumerate(np.linspace(0.0, 1.0, beta_grid))]
    chains = [_start(sub) for sub in subs]
    _run_chains(chains, config, record)
    return chains


def log_partition(config: GibbsConfig, beta_grid: int = 11) -> tuple[float, float]:
    """Estimate log Z (unitary kind: absolute, reference Haar; matrix
    kind: log of the ratio Z_h / Z_0 against the uniform reference) by
    thermodynamic integration: log Z(beta=1) - log Z(0) = -integral over
    beta of the mean raw energy, on an equally spaced beta grid with
    trapezoid weights.
    """
    if config.h.is_zero:
        return 0.0, 0.0
    means, errs = zip(*(_mean_and_stderr([_energy(config, 1.0, r) for r in chain.sample_raws])
                        for chain in _ladder(config, beta_grid)))
    w = np.full(beta_grid, 1.0 / (beta_grid - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    est = -float(np.dot(w, means))
    err = float(math.sqrt(np.dot(w**2, np.asarray(errs) ** 2)))
    return est, err

