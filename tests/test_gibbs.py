import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from orbfree import gibbs, matrices
from orbfree.gibbs import (
    GibbsConfig,
    energy,
    log_partition,
    mean_tracial_state,
    run,
    step,
)
from orbfree.matrices import (
    MatrixTuple,
    SpectralMeasure,
    gue,
    haar_unitary,
    quantile_microstate,
    trace_evaluate,
)
from orbfree.moments import (
    free_product,
    moment_distance,
    table_from_measure,
)
from orbfree.poly import FamilyLayout, NCPoly, letter_x, parse

LAYOUT = FamilyLayout(n=2, r=(1, 1), R=2.0)
X1 = letter_x(1, 1)
X2 = letter_x(2, 1)


def semicircle_microstates(N, layout=LAYOUT):
    xi = quantile_microstate(SpectralMeasure.semicircle(2.0), N)
    return MatrixTuple(layout, N, sa={(i, 1): xi for i in range(1, layout.n + 1)})


def scalar_microstates(a, b):
    return MatrixTuple(
        LAYOUT,
        1,
        sa={(1, 1): np.array([[a]], dtype=complex), (2, 1): np.array([[b]], dtype=complex)},
    )


def orbital_config(h, N, **kw):
    defaults = dict(sweeps=300, burn_in=50, thinning=5, seed=1)
    defaults.update(kw)
    return GibbsConfig("unitary-orbital", N, h, microstates=semicircle_microstates(N), **defaults)


class TestConfig:
    def test_validation(self):
        h = parse("x[1,1]*x[2,1] + x[2,1]*x[1,1]", LAYOUT)
        with pytest.raises(ValueError):
            GibbsConfig("unitary-orbital", 4, h, microstates=semicircle_microstates(4), eps=0.0)
        with pytest.raises(ValueError):
            GibbsConfig("unitary-orbital", 4, h, microstates=semicircle_microstates(4), sweeps=10, burn_in=10)
        with pytest.raises(ValueError):
            GibbsConfig("matrix", 4, parse("(0+1i)*x[1,1]", LAYOUT))
        with pytest.raises(ValueError):
            GibbsConfig("unitary-orbital", 4, h)  # missing microstates

    @pytest.mark.parametrize("setting, message", [
        ({"thinning": 0}, "thinning"), ({"thinning": -1}, "thinning"),
        ({"eps": math.nan}, "step size"), ({"eps": math.inf}, "step size"),
        ({"beta": math.nan}, "beta"), ({"beta": -math.inf}, "beta"),
    ])
    @pytest.mark.parametrize("kind", ["unitary-orbital", "matrix"])
    def test_rejects_bad_thinning_eps_and_beta(self, kind, setting, message):
        # run divided by a thinning of 0 and kept every sweep at -1; a NaN
        # eps failed inside eigh and a NaN beta rejected every proposal
        h = parse("x[1,1]*x[2,1] + x[2,1]*x[1,1]", LAYOUT)
        ensemble = {} if kind == "matrix" else {"microstates": semicircle_microstates(4)}
        with pytest.raises(ValueError, match=message):
            GibbsConfig(kind, 4, h, **ensemble, **setting)

    def test_rejects_microstate_unitaries(self):
        # each chain state carries its own V, so a unitary on the microstates
        # would be silently replaced
        h = parse("x[1,1]*x[2,1] + x[2,1]*x[1,1]", LAYOUT)
        micro = semicircle_microstates(4).with_unitaries({1: np.eye(4), 2: np.eye(4)})
        with pytest.raises(ValueError, match="family 1, 2"):
            GibbsConfig("unitary-orbital", 4, h, microstates=micro)


class TestEnergy:
    def test_zero_h(self):
        cfg = orbital_config(NCPoly.zero(LAYOUT), 4)
        chain = run(cfg)
        assert energy(chain.state, cfg) == 0.0

    def test_single_family_constant(self):
        h = parse("x[1,1]^2", LAYOUT)
        cfg = orbital_config(h, 6)
        chain = run(cfg)
        from orbfree.matrices import trace_evaluate

        want = 36 * trace_evaluate(h, cfg.microstates).real
        for state in chain.samples[:5]:
            assert energy(state, cfg) == pytest.approx(want, abs=1e-9)

    def test_scalar_case(self):
        a, b, t = 0.8, -1.3, 0.7
        h = parse(f"{t}*x[1,1]*x[2,1]", LAYOUT)
        # symmetrize to make it self-adjoint; scalars commute so values match
        h = (h + h.adjoint()).scale(0.5)
        cfg = GibbsConfig(
            "unitary-orbital", 1, h, microstates=scalar_microstates(a, b),
            sweeps=20, burn_in=2, seed=0,
        )
        chain = run(cfg)
        assert energy(chain.state, cfg) == pytest.approx(t * a * b, abs=1e-12)

    def test_x_only_h_reads_the_conjugated_tuple(self):
        # a chain state carries its V; for an x-only h it scores and averages
        # exactly as the tuple of conjugated matrices V Xi V* does
        h = parse("0.2*x[1,1]*x[2,1] + 0.2*x[2,1]*x[1,1] + 0.1*x[1,1]^2*x[2,1]^2"
                  " + 0.1*x[2,1]^2*x[1,1]^2", LAYOUT)
        cfg = orbital_config(h, 4, sweeps=60, burn_in=20, beta=0.8, seed=2)
        chain = run(cfg)

        def conjugated(state):
            return cfg.microstates.conjugated([state.unitaries[1], state.unitaries[2]])

        for state in chain.samples + [chain.state]:
            want = trace_evaluate(h, conjugated(state)).real
            assert energy(state, cfg) == cfg.N**2 * cfg.beta * want
        old = mean_tracial_state(replace(chain, samples=[conjugated(s) for s in chain.samples]), 3)
        new = mean_tracial_state(chain, 3)
        assert new.values == old.values
        assert new.stderr == old.stderr


def post_burn_in_energies(chain):
    return [e for sweep, _, e, _ in chain.energy_trace if sweep >= chain.config.burn_in]


class TestStep:
    def test_h_zero_all_accepted(self):
        cfg = orbital_config(NCPoly.zero(LAYOUT), 4, sweeps=50, burn_in=10)
        chain = run(cfg)
        assert chain.accepted == chain.proposed

    def test_stationarity_haar(self):
        # with h=0 the chain's stationary law is Haar; compare E|tr V|^2
        # against 1 using fast-mixing large steps
        cfg = orbital_config(NCPoly.zero(LAYOUT), 4, sweeps=2100, burn_in=100,
                             thinning=4, eps=2.5)
        chain = run(cfg)
        vals = np.array([abs(np.trace(s.unitaries[1])) ** 2 for s in chain.samples])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 4 * se + 0.05

    def test_energy_relaxes(self):
        h = parse("x[1,1]*x[2,1] + x[2,1]*x[1,1]", LAYOUT)
        inits, finals = [], []
        for seed in range(3):
            cfg = orbital_config(h, 8, sweeps=400, burn_in=150, seed=seed)
            chain = run(cfg)
            inits.append(chain.energy_trace[0][2])
            finals.append(np.mean(post_burn_in_energies(chain)))
        assert np.mean(finals) < np.mean(inits)


class TestCarriedEnergy:
    @pytest.fixture(params=["unitary-orbital", "matrix"])
    def config(self, request):
        h = parse("0.2*x[1,1]*x[2,1] + 0.2*x[2,1]*x[1,1] + 0.1*x[1,1]^2", LAYOUT)
        if request.param == "matrix":
            return GibbsConfig("matrix", 3, h, sweeps=40, burn_in=10, seed=4)
        return orbital_config(h, 3, sweeps=40, burn_in=10, seed=4)

    def test_each_state_scored_once(self, config, monkeypatch):
        calls = {"n": 0}
        original = gibbs.energy

        def counting(state, config):
            calls["n"] += 1
            return original(state, config)

        monkeypatch.setattr(gibbs, "energy", counting)
        chain = gibbs.run(config)
        # the initial state, then one call per proposal
        assert calls["n"] == chain.proposed + 1

    def test_carried_energy_is_current(self, config):
        chain = run(config)
        assert 0 < chain.accepted < chain.proposed
        assert chain.energy == energy(chain.state, config)
        assert chain.energy == chain.energy_trace[-1][2]


class TestCarriedConjugation:
    LAYOUT21 = FamilyLayout(n=2, r=(2, 1), R=2.0)
    H = "0.2*x[1,1]*x[2,1] + 0.2*x[2,1]*x[1,1] + 0.1*x[1,2]^2"

    @pytest.fixture
    def conjugations(self, monkeypatch):
        calls = []
        original = gibbs._conjugate

        def counting(v, a, diagonal):
            calls.append((a, diagonal is not None))
            return original(v, a, diagonal)

        monkeypatch.setattr(gibbs, "_conjugate", counting)
        return calls

    def test_each_slot_conjugated_once_per_move(self, conjugations, monkeypatch):
        diagonals = []
        original = gibbs._real_diagonal
        monkeypatch.setattr(gibbs, "_real_diagonal", lambda a: diagonals.append(a) or original(a))

        def lookup_conjugates(v, a, diagonal):
            raise AssertionError("a batch reads its carried x letters, not V Xi V*")

        monkeypatch.setattr(matrices, "_conjugate", lookup_conjugates)
        semicircle = quantile_microstate(SpectralMeasure.semicircle(2.0), 3)
        micro = MatrixTuple(self.LAYOUT21, 3, check_norm=False, sa={
            (1, 1): semicircle, (1, 2): 0.5 * gue(3, np.random.default_rng(3)),
            (2, 1): semicircle.copy()})
        cfg = GibbsConfig("unitary-orbital", 3, parse(self.H, self.LAYOUT21),
                          microstates=micro, sweeps=30, burn_in=10, seed=2)
        chain = gibbs.run(cfg)
        slots = {id(a): slot for slot, a in micro.sa.items()}
        calls = [(slots[id(a)], diagonal) for a, diagonal in conjugations]
        # every slot at the start; then, per sweep, family 1's proposal
        # conjugates its two slots and family 2's its one
        sweep = [((1, 1), True), ((1, 2), False), ((2, 1), True)]
        assert calls == sweep * (cfg.sweeps + 1)
        assert chain.proposed == 2 * cfg.sweeps
        # diagonality is decided once per slot
        assert [id(a) for a in diagonals] == [id(a) for a in micro.sa.values()]

    def test_matrix_chains_conjugate_nothing(self, conjugations):
        h = parse(self.H, self.LAYOUT21)
        gibbs.run(GibbsConfig("matrix", 3, h, sweeps=20, burn_in=5, seed=2))
        gibbs.log_partition(GibbsConfig("matrix", 2, h, sweeps=10, burn_in=5), beta_grid=3)
        assert conjugations == []


def same_state(a, b):
    return all(
        x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
        for x, y in ((a.sa, b.sa), (a.unitaries, b.unitaries))
    )


class TestLockstep:
    @pytest.fixture(params=["unitary-orbital", "matrix"])
    def config(self, request):
        h = parse("0.4*x[1,1]*x[2,1] + 0.4*x[2,1]*x[1,1] + 0.1*x[1,1]^2", LAYOUT)
        settings = dict(sweeps=70, burn_in=40, thinning=3, seed=6)
        if request.param == "matrix":
            return GibbsConfig("matrix", 3, h, **settings)
        return orbital_config(h, 3, **settings)

    def test_ladder_chain_equals_lone_run(self, config):
        chains = gibbs._ladder(config, 4, record=True)
        assert [chain.config.beta for chain in chains] == [0.0, 1 / 3, 2 / 3, 1.0]
        assert any(chain.eps != config.eps for chain in chains)  # tuning ran
        assert 0 < chains[-1].accepted < chains[-1].proposed  # uniforms were drawn
        for k, chain in enumerate(chains):
            lone = run(replace(config, beta=chain.config.beta, seed=config.seed + 1000 * k))
            assert chain.config.seed == lone.config.seed
            assert chain.energy_trace == lone.energy_trace
            assert post_burn_in_energies(chain) == post_burn_in_energies(lone)
            assert chain.eps == lone.eps
            assert (chain.accepted, chain.proposed) == (lone.accepted, lone.proposed)
            assert chain.sample_raws == lone.sample_raws
            assert len(chain.samples) == len(lone.samples) > 0
            for a, b in zip(chain.samples + [chain.state], lone.samples + [lone.state]):
                assert same_state(a, b)

    def test_step_continues_a_run(self, config):
        # step is the kernel with a batch of one: a chain stepped on after
        # its run moves as the kernel moves it, scoring each proposal once
        chain = run(config)
        proposed = chain.proposed
        step(chain)
        assert chain.proposed == proposed + len(gibbs._slots(config))
        assert chain.energy == energy(chain.state, config)


class TestPlan:
    """The compiled energy equals trace_evaluate on the state, bit for
    bit, one state at a time and stacked."""

    LAYOUT21 = FamilyLayout(n=2, r=(2, 1), R=2.0)
    H = ("x[1,1]*x[2,1]*x[1,2]*x[2,1] + 1/3*z[1,1]*x[2,1]*z[1,2] + 0.25*x[1,2]"
         " + (0.1+0.2i)*x[1,1]*x[2,1] + 0.3*x[2,1]^3 - 1/7")

    def check(self, cfg, states):
        want = [trace_evaluate(cfg.h, s).real for s in states]
        assert energy(gibbs._batch(gibbs._stack(states, cfg), cfg), cfg).tolist() == want
        for s, raw in zip(states, want):
            assert energy(s, cfg) == cfg.N**2 * cfg.beta * raw

    def h(self, extra=""):
        h = parse(self.H + extra, self.LAYOUT21)
        return (h + h.adjoint()).scale(0.5)

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_orbital_with_microstate_unitaries(self, N):
        rng = np.random.default_rng(N)
        sa = {slot: 0.5 * gue(N, rng) for slot in ((1, 1), (1, 2), (2, 1))}
        # each state carries its own V: u letters read V, x letters V z V*,
        # z letters z
        micro = MatrixTuple(self.LAYOUT21, N, sa=sa, check_norm=False)
        h = self.h(" + 0.5*u[1]*x[2,1]*u'[1] - u'[1]*x[1,2]*u[1] + u'[1]*z[1,1] + 0.2*u'[1]^2")
        cfg = GibbsConfig("unitary-orbital", N, h, microstates=micro, beta=0.7)
        states = [micro.with_unitaries({1: haar_unitary(N, rng), 2: haar_unitary(N, rng)})
                  for _ in range(5)]
        self.check(cfg, states)

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_matrix_kind(self, N):
        rng = np.random.default_rng(10 + N)
        cfg = GibbsConfig("matrix", N, self.h(), beta=1.3)
        states = [MatrixTuple(self.LAYOUT21, N, check_norm=False,
                              sa={slot: gue(N, rng) for slot in ((1, 1), (1, 2), (2, 1))})
                  for _ in range(5)]
        self.check(cfg, states)


MIXED = "0.15*x[1,1]*x[2,1] + 0.15*x[2,1]*x[1,1]"


def golden_config(name):
    mixed = parse(MIXED, LAYOUT)
    quartic = parse("0.05*x[1,1]*x[2,1]*x[1,1]*x[2,1] + 0.05*x[2,1]*x[1,1]*x[2,1]*x[1,1]"
                    " + 0.1*x[1,1]^2 + 0.05*x[1,1]*x[2,1] + 0.05*x[2,1]*x[1,1]", LAYOUT)
    atomic = quantile_microstate(SpectralMeasure.from_string("atomic:0.5@-1,0.5@1"), 2)
    two_atoms = MatrixTuple(LAYOUT, 2, sa={(1, 1): atomic, (2, 1): atomic})
    return {
        "orbital-n2": GibbsConfig("unitary-orbital", 2, mixed, microstates=two_atoms,
                                  sweeps=300, burn_in=60, thinning=2, seed=3),
        "orbital-n3-quartic": orbital_config(quartic, 3, sweeps=120, burn_in=30, seed=5),
        "orbital-n3": orbital_config(mixed.scale(0.2), 3, sweeps=200, burn_in=40, seed=7),
        "matrix-n3": GibbsConfig("matrix", 3, mixed, sweeps=120, burn_in=30, seed=11),
        # the matrix kind reads its norm cutoff R = 1.5 from the layout
        "matrix-n4": GibbsConfig("matrix", 4, parse(MIXED, FamilyLayout(2, (1, 1), 1.5)).scale(
            0.05), sweeps=150, burn_in=30, seed=13),
    }[name]


class TestGolden:
    """Values recorded before the sweep kernel ran chains as stacked
    batches (each chain and each beta of the ladder one after another)."""

    @pytest.mark.parametrize("kind, c, want", [
        # the tuned step size, the acceptances and the final energy
        ("unitary-orbital", "0.5", ("0.4681949999999998", 85, "-5.267966081731061")),
        ("matrix", "2", ("0.17647349999999992", 40, "-176.13669219261735")),
    ])
    def test_run(self, kind, c, want):
        h = parse(f"{c}*x[1,1]*x[2,1] + {c}*x[2,1]*x[1,1]", LAYOUT)
        settings = dict(eps=1.5, sweeps=130, burn_in=120, seed=2)
        cfg = (orbital_config(h, 4, **settings) if kind == "unitary-orbital"
               else GibbsConfig("matrix", 4, h, **settings))
        chain = run(cfg)
        assert (repr(chain.eps), chain.accepted, repr(chain.energy)) == want

    @pytest.mark.parametrize("name, want", [
        pytest.param(name, want, id=f"{name}-thermodynamic-{want}") for name, want in [
            ("orbital-n2", "(0.17081901355205914, 0.029022002140583834)"),
            ("orbital-n3-quartic", "(-0.512419048622428, 0.0322896712035182)"),
            ("matrix-n3", "(1.1878029637491885, 0.15330107450531827)"),
        ]
    ])
    def test_log_partition(self, name, want):
        assert repr(log_partition(golden_config(name), beta_grid=5)) == want


class TestMeanTracialState:
    def test_free_product_limit(self):
        N = 50
        cfg = orbital_config(NCPoly.zero(LAYOUT), N, sweeps=300, burn_in=50,
                             thinning=10, eps=2.5)
        chain = run(cfg)
        t = mean_tracial_state(chain, 3)
        mu = SpectralMeasure.empirical(np.diag(cfg.microstates.sa[(1, 1)]).real)
        fp = free_product([table_from_measure(LAYOUT, i, 1, mu, 3) for i in (1, 2)], 3)
        for w in fp.values:
            if not w:
                continue
            tol = 3 * t.stderr.get(w, 0.0) + 10.0 / N
            assert abs(t.get(w) - fp.get(w)) <= tol

    def test_matrix_kind_uniform(self):
        lay1 = FamilyLayout(n=1, r=(1,), R=1.0)
        cfg = GibbsConfig("matrix", 1, NCPoly.zero(lay1),
                          sweeps=4000, burn_in=200, thinning=4, seed=3, eps=0.8)
        chain = run(cfg)
        vals = np.array([s.sa[(1, 1)][0, 0].real for s in chain.samples])
        se2 = np.std(vals**2, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) ) < 0.1
        assert abs(np.mean(vals**2) - 1.0 / 3.0) < 3 * se2 + 0.01

    def test_beta_zero_equals_h_zero(self):
        h = parse("x[1,1]*x[2,1] + x[2,1]*x[1,1]", LAYOUT)
        cfg_b0 = orbital_config(h, 4, beta=0.0, sweeps=100, burn_in=20, seed=9)
        cfg_h0 = orbital_config(NCPoly.zero(LAYOUT), 4, sweeps=100, burn_in=20, seed=9)
        t1 = mean_tracial_state(run(cfg_b0), 2)
        t2 = mean_tracial_state(run(cfg_h0), 2)
        assert moment_distance(t1, t2, 2) == 0.0


class TestLogPartition:
    def test_h_zero(self):
        cfg = orbital_config(NCPoly.zero(LAYOUT), 4)
        assert log_partition(cfg) == (0.0, 0.0)

    def test_scalar_exact(self):
        a, b, t = 0.9, -0.6, 0.8
        h = parse(f"{t}*x[1,1]*x[2,1]", LAYOUT)
        h = (h + h.adjoint()).scale(0.5)
        cfg = GibbsConfig(
            "unitary-orbital", 1, h, microstates=scalar_microstates(a, b),
            sweeps=60, burn_in=10, seed=0,
        )
        est, err = log_partition(cfg)
        assert est == pytest.approx(-t * a * b, abs=1e-10)

    def test_hciz_oracle_n2_light(self):
        # N=2 closed 1-dim reduction: tr(V A V* B) depends on s=|V11|^2,
        # uniform on [0,1] under Haar
        a = (0.9, -0.7)
        b = (1.1, 0.2)
        t = 0.12
        xi = MatrixTuple(LAYOUT, 2, sa={(1, 1): np.diag(a).astype(complex),
                                        (2, 1): np.diag(b).astype(complex)})
        h = parse(f"{t}*x[1,1]*x[2,1]", LAYOUT)
        h = (h + h.adjoint()).scale(0.5)

        def tr_prod(s):
            return (a[0] * b[0] + a[1] * b[1]) * s + (a[0] * b[1] + a[1] * b[0]) * (1 - s)

        z, _ = quad(lambda s: math.exp(-2 * t * tr_prod(s)), 0.0, 1.0)
        want = math.log(z)
        cfg = GibbsConfig("unitary-orbital", 2, h, microstates=xi,
                          sweeps=3000, burn_in=500, thinning=3, seed=5)
        est, err = log_partition(cfg, beta_grid=7)
        assert est == pytest.approx(want, abs=max(0.03 * abs(want), 3 * err, 0.01))


class TestReproducibility:
    def test_identical_traces(self):
        h = parse("x[1,1]*x[2,1] + x[2,1]*x[1,1]", LAYOUT)
        c1 = run(orbital_config(h, 4, seed=42))
        c2 = run(orbital_config(h, 4, seed=42))
        assert c1.energy_trace == c2.energy_trace
        for s1, s2 in zip(c1.samples, c2.samples):
            for i in (1, 2):
                assert np.array_equal(s1.unitaries[i], s2.unitaries[i])
