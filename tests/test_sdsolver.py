import hashlib

import numpy as np
import pytest

from orbfree import moments, sdsolver
from orbfree.matrices import SpectralMeasure
from orbfree.moments import (
    free_product,
    moment_distance,
    table_from_measure,
)
from orbfree.poly import FamilyLayout, NCPoly, letter_u, letter_x, letter_z, parse
from orbfree.sdsolver import (
    SDProblem,
    free_haar_state,
    liberation_check,
    pushforward_x,
    sd_residual,
    sd_solve,
)

LAYOUT = FamilyLayout(n=2, r=(1, 1), R=2.0)
MU = SpectralMeasure.semicircle(2.0)


def small_h(t=0.01):
    h = parse(f"{t}*x[1,1]*x[2,1] + {t}*x[2,1]*x[1,1]", LAYOUT)
    return h.scale(0.5)


def zero_problem(**kw):
    return SDProblem(LAYOUT, NCPoly.zero(LAYOUT), [MU, MU], **kw)


def digest(obj) -> str:
    """Short hash of the exact repr (a table's values sorted by key)."""
    if isinstance(obj, dict):
        obj = sorted(obj.items())
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestProblem:
    def test_degree_guard(self):
        with pytest.raises(ValueError):
            SDProblem(LAYOUT, small_h(), [MU, MU], D=6)

    def test_marginal_count_guard(self):
        with pytest.raises(ValueError):
            SDProblem(LAYOUT, small_h(), [MU], D=8)

    def test_large_t_warns(self):
        with pytest.warns(UserWarning):
            SDProblem(LAYOUT, small_h(0.5), [MU, MU], D=8)

    def test_large_t_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="small-coefficient") as record:
            SDProblem(LAYOUT, small_h(0.5), [MU, MU], D=8)
        assert [w.filename for w in record] == [__file__]


class TestFreeHaarOracle:
    def test_unitary_conjugation_invariance(self):
        prob = zero_problem()
        u, U, z = letter_u(1), ("U", 1, 0), letter_z(1, 1)
        t = free_haar_state(prob, [(u, z, U), (z,), (z, z), (u, z, z, U)])
        assert t.get((u, z, U)) == pytest.approx(t.get((z,)), abs=1e-14)
        assert t.get((u, z, z, U)) == pytest.approx(t.get((z, z)), abs=1e-14)

    def test_haar_moments_vanish(self):
        prob = zero_problem()
        u1 = letter_u(1)
        t = free_haar_state(prob, [(u1,), (u1, u1), (u1, u1, u1)])
        for k in (1, 2, 3):
            assert t.get((u1,) * k) == pytest.approx(0.0, abs=1e-14)

    def test_one_oracle_per_problem(self):
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        solver = sdsolver._Solver(prob, [(letter_u(1), letter_z(1, 1), ("U", 1, 0))])
        assert solver.oracle is prob.oracle
        assert prob.oracle.cache  # the solver's seed values stay for later readers

    def test_mixed_family_word(self):
        # u1 z1 u1* u2 z2 u2* realizes free x1 x2, whose trace factorizes
        # into the product of the (centered) marginal means
        prob = zero_problem()
        w = (letter_u(1), letter_z(1, 1), ("U", 1, 0),
             letter_u(2), letter_z(2, 1), ("U", 2, 0))
        t = free_haar_state(prob, [w])
        assert t.get(w) == pytest.approx(MU.moment(1) ** 2, abs=1e-14)


class TestResidual:
    def test_haar_solution_forced(self):
        # a table that zeroes every nontrivial u1-power satisfies the h=0
        # equation; injecting a first moment m1 = c shows up as residual |c|
        prob = zero_problem()
        tab, _ = sd_solve(prob)
        assert sd_residual(tab, prob) <= 1e-12
        c = 0.35
        tab.set((letter_u(1),), c)
        assert sd_residual(tab, prob) == pytest.approx(c, abs=1e-12)

    def test_perturbation_detected(self):
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        tab, rep = sd_solve(prob)
        base = rep.residual
        w = next(w for w in tab.values
                 if len(w) == 2 and any(l[0] in ("u", "U") for l in w))
        tab.values[w] += 0.1
        assert sd_residual(tab, prob) >= 0.1 * 0.9 - base


def plan_residual(table, problem):
    """Max |undamped update - value| over the plan sd_solve builds, read
    from the table, from one pass that changes nothing."""
    solver = sdsolver._Solver(problem, sdsolver._default_demand(problem, 4))
    return solver.plan_residual({**solver.values, **table.values})


class TestPlanResidual:
    def test_solution_passes(self):
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        tab, rep = sd_solve(prob)
        assert rep.converged
        assert rep.plan_residual <= prob.tol
        assert plan_residual(tab, prob) == rep.plan_residual

    def test_perturbed_long_word_caught(self):
        # the test words of sd_residual stop at length 3; the plan covers
        # every solved word, up to length 12 here
        prob = SDProblem(LAYOUT, small_h(0.01), [MU, MU], D=8)
        tab, _ = sd_solve(prob)
        w = max(sorted(tab.values), key=len)
        assert len(w) == 12
        tab.values[w] += 1e-6
        assert plan_residual(tab, prob) >= 0.9e-6
        assert sd_residual(tab, prob) == 0.0

    def test_gates_converged(self, monkeypatch):
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        monkeypatch.setattr(sdsolver._Solver, "plan_residual", lambda self, values: 1.0)
        _, rep = sd_solve(prob)
        assert rep.residual <= prob.tol
        assert (rep.plan_residual, rep.converged) == (1.0, False)


class TestSolve:
    def test_t_zero_reproduces_free_haar(self):
        prob = zero_problem()
        tab, rep = sd_solve(prob)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.residual <= 1e-12
        oracle = free_haar_state(prob, list(tab.values))
        assert moment_distance(tab, oracle, 100) <= 1e-12

    def test_small_t_converges(self):
        prob = SDProblem(LAYOUT, small_h(0.01), [MU, MU], D=8)
        tab, rep = sd_solve(prob)
        assert rep.converged
        assert rep.iterations <= 200
        assert rep.residual <= 1e-10
        assert all(r < 1.0 for r in rep.contraction_ratios[2:])

    def test_sweep_canonicalizes_nothing(self, monkeypatch):
        # lhs/rhs words resolve to canonical keys when the plan is built
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        solver = sdsolver._Solver(prob, sdsolver._default_demand(prob, 4))
        calls = []
        original = moments.canonical_word
        counting = lambda w: calls.append(w) or original(w)  # noqa: E731
        monkeypatch.setattr(moments, "canonical_word", counting)
        monkeypatch.setattr(sdsolver, "canonical_word", counting)
        for _ in range(3):
            solver.sweep()
        solver.plan_residual(solver.values)
        assert calls == []

    def test_pure_picard_matches_damped(self):
        damped, _ = sd_solve(SDProblem(LAYOUT, small_h(), [MU, MU], D=8))
        pure, rep = sd_solve(SDProblem(LAYOUT, small_h(), [MU, MU], D=8, damping=0.0))
        assert rep.converged
        assert moment_distance(damped, pure, 100) <= 1e-9

    def test_table_invariants(self):
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        tab, _ = sd_solve(prob)
        assert tab.get(()) == 1.0
        # adjoint symmetry through the canonical store
        from orbfree.poly import adjoint_word

        for w in list(tab.values)[:40]:
            assert tab.get(adjoint_word(w)) == pytest.approx(
                np.conj(tab.get(w)), abs=1e-12)

    def test_linear_response_sign(self):
        # the leading correction pushes tau(x1 x2) to -t * m2(x1) * m2(x2)
        t = 0.01
        prob = SDProblem(LAYOUT, small_h(t), [MU, MU], D=8)
        tab, _ = sd_solve(prob)
        pf = pushforward_x(tab, prob, 2)
        got = pf.get((letter_x(1, 1), letter_x(2, 1))).real
        assert got == pytest.approx(-t * MU.moment(2) ** 2, abs=5 * t**2)


class TestPushforward:
    def test_unit(self):
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        tab, _ = sd_solve(prob)
        pf = pushforward_x(tab, prob, 3)
        assert pf.get(()) == 1.0

    def test_single_family_words_keep_marginals(self):
        prob = SDProblem(LAYOUT, small_h(), [MU, MU], D=8)
        tab, _ = sd_solve(prob)
        pf = pushforward_x(tab, prob, 4)
        x1 = letter_x(1, 1)
        for k in range(1, 5):
            assert pf.get((x1,) * k) == pytest.approx(MU.moment(k), abs=1e-12)

    def test_t_zero_equals_free_product(self):
        prob = zero_problem()
        tab, _ = sd_solve(prob)
        pf = pushforward_x(tab, prob, 4)
        fp = free_product(
            [table_from_measure(LAYOUT, i, 1, MU, 4) for i in (1, 2)], 4)
        assert moment_distance(pf, fp, 4) <= 1e-12


class TestLiberation:
    def test_h_zero(self):
        from orbfree.poly import liberation_gradient

        prob = zero_problem()
        tab, _ = sd_solve(prob)
        assert liberation_gradient(1, prob.h).is_zero
        assert liberation_check(tab, prob, 2) <= 1e-12

    def test_small_t_identity(self):
        prob = SDProblem(LAYOUT, small_h(0.01), [MU, MU], D=8)
        tab, _ = sd_solve(prob)
        assert liberation_check(tab, prob, 3) <= 10 * prob.tol


class TestGolden:
    """Values recorded before the free-Haar oracle skipped zero marginals
    and the sweeps ran on a compiled plan."""

    @pytest.fixture(scope="class")
    def solved(self):
        prob = SDProblem(LAYOUT, small_h(0.01), [MU, MU], D=8)
        return (prob,) + sd_solve(prob)

    def test_sd_solve(self, solved):
        _, tab, rep = solved
        assert (len(tab.values), digest(tab.values)) == (91, "45279e73ffa1a469")
        assert (rep.iterations, digest(rep.delta_history)) == (31, "51b44ed349b5bde7")
        assert digest(rep.contraction_ratios) == "80e3f4581a5ece49"

    def test_pushforward_x(self, solved):
        prob, tab, _ = solved
        pf = pushforward_x(tab, prob, 4)
        assert (len(pf.values), digest(pf.values)) == (16, "8a67251470d79f25")

    def test_liberation_check(self, solved):
        prob, tab, _ = solved
        assert repr(liberation_check(tab, prob, 3)) == "4.868234287913609e-12"
