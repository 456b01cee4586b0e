import math

import numpy as np
import pytest

import gossipgrad as gg
from gossipgrad.errors import AnalysisError, DegenerateFitError


def kron_energy_oracle(xbar: np.ndarray, ybar: np.ndarray, lam: float) -> float:
    # Build the full quadratic form explicitly: ||avg x||^2 + z' (M kron I) z
    # on the disagreement components, with M = [[1, lam], [lam, lam]].
    n, d = xbar.shape
    avg = np.kron(np.ones((n, n)) / n, np.eye(d))
    dis = np.eye(n * d) - avg
    xs, ys = xbar.ravel(), ybar.ravel()
    z = np.concatenate([dis @ xs, dis @ ys])
    M = np.kron(np.array([[1.0, lam], [lam, lam]]), np.eye(n * d))
    return float((avg @ xs) @ (avg @ xs) + z @ (M @ z))


class TestLyapunov:
    def test_zero_state_has_zero_energy(self):
        z = np.zeros((5, 2))
        assert gg.lyapunov(z, z, 0.6) == 0.0

    def test_pure_average_error(self):
        e = np.array([1.5, -2.0, 0.5])
        xbar = np.tile(e, (4, 1))
        value = gg.lyapunov(xbar, np.zeros_like(xbar), 0.6)
        assert value == pytest.approx(4 * float(e @ e), rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_explicit_quadratic_form(self, seed):
        rng = np.random.default_rng(seed)
        xbar, ybar = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        value = gg.lyapunov(xbar, ybar, 0.6)
        assert value == pytest.approx(kron_energy_oracle(xbar, ybar, 0.6), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(100 + seed)
        lam = float(rng.uniform(0.05, 0.95))
        xbar, ybar = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        assert gg.lyapunov(xbar, ybar, lam) >= 0.0

    def test_zero_only_without_error(self):
        # Pure average correction error keeps the energy at zero.
        ybar = np.tile(np.array([3.0, 1.0]), (4, 1))
        assert gg.lyapunov(np.zeros((4, 2)), ybar, 0.5) == pytest.approx(0.0, abs=1e-15)
        # Any disagreement or average estimate error makes it positive.
        xbar = np.zeros((4, 2))
        xbar[0, 0] = 1e-3
        assert gg.lyapunov(xbar, ybar, 0.5) > 0.0

    def test_lam_domain(self):
        z = np.zeros((3, 2))
        for lam in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                gg.lyapunov(z, z, lam)


class TestFixedPoint:
    def test_correction_states_average_to_zero(self, corpus):
        for run in corpus:
            fp = gg.fixed_point(run.problem, run.params)
            scale = max(1.0, np.abs(fp.ystar).max())
            assert np.linalg.norm(fp.ystar.mean(axis=0)) <= 1e-10 * scale

    def test_needs_optimizer(self, pair):
        problem = gg.QuadraticObjective(np.eye(2), np.ones((1, 2)))
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.7)
        with pytest.raises(AnalysisError):
            gg.fixed_point(problem, params)


class TestLyapunovTrace:
    def test_run_started_at_fixed_point_stays_at_zero(self, pair, pair_sigma):
        problem = gg.random_quadratic_problem(5, 3, 1.0, 3.0, seed=23)
        params = gg.AlgorithmParams.derive(0.5, 0.5, pair_sigma)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=3)
        fp = gg.fixed_point(problem, params)
        x0 = np.tile(fp.xstar, (5, 1))
        trace = gg.run_algorithm(problem, schedule, params, x0, 10, y0=fp.ystar)
        records = gg.lyapunov_trace(trace, fp, params)
        assert all(r.value <= 1e-25 for r in records)
        assert all(abs(r.delta) <= 1e-25 for r in records if r.delta is not None)

    def test_decrease_on_compliant_runs(self, corpus):
        for run in corpus:
            fp = gg.fixed_point(run.problem, run.params)
            records = gg.lyapunov_trace(run.trace, fp, run.params)
            assert not any(r.exceeds_tolerance for r in records), run.name
            deltas = [r.delta for r in records if r.delta is not None]
            assert max(deltas) <= 1e-9, run.name

    def test_geometric_envelope(self, corpus):
        for run in corpus:
            fp = gg.fixed_point(run.problem, run.params)
            records = gg.lyapunov_trace(run.trace, fp, run.params)
            v0 = records[0].value
            for r in records:
                assert r.value <= run.params.rho ** (2 * r.k) * v0 * (1 + 1e-6), (run.name, r.k)

    def test_three_decrease_terms_nonnegative(self, corpus):
        for run in corpus:
            fp = gg.fixed_point(run.problem, run.params)
            terms = gg.decrease_terms(run.trace, fp, run.params)
            assert terms[:, 0].min() >= -1e-9, f"{run.name}: gradient-map contraction violated"
            assert terms[:, 1].min() >= -1e-9, f"{run.name}: consensus contraction violated"
            assert terms[:, 2].min() >= -1e-15, f"{run.name}: squared norm negative"


class TestErrorBound:
    def test_zero_initial_energy(self):
        assert gg.error_bound_constant(0.0, 0.6) == 0.0

    def test_matches_quadratic_formula_oracle(self):
        lam = 0.6
        eigs = np.linalg.eigvalsh(np.array([[1.0, lam], [lam, lam]]))
        expected = math.sqrt(eigs.max() / eigs.min())
        assert gg.error_bound_constant(1.0, lam) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            gg.error_bound_constant(1.0, 1.0)
        with pytest.raises(ValueError):
            gg.error_bound_constant(-1.0, 0.5)

    def test_bounds_every_agent_error_on_runs(self, corpus):
        for run in corpus:
            fp = gg.fixed_point(run.problem, run.params)
            v0 = gg.lyapunov(run.trace.x[0] - fp.xstar, run.trace.y[0] - fp.ystar, run.params.lam)
            c = gg.error_bound_constant(v0, run.params.lam)
            errors = run.trace.errors(run.problem.optimizer).max(axis=1)
            for k, err in enumerate(errors):
                assert err <= c * run.params.rho**k + 1e-9, (run.name, k)


class TestFitRate:
    def test_exact_geometric(self):
        errors = 0.75 ** np.arange(40)
        assert gg.fit_rate(errors) == pytest.approx(0.75, abs=1e-9)

    def test_constant_sequence_gives_one(self):
        assert gg.fit_rate(np.full(30, 2.5)) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateFitError):
            gg.fit_rate(np.zeros(30))

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateFitError):
            gg.fit_rate(0.5 ** np.arange(8))

    def test_floor_values_discarded(self):
        errors = np.concatenate([0.1 ** np.arange(20), np.full(30, 1e-30)])
        with pytest.raises(DegenerateFitError):
            # All tail points sit on the floor: nothing usable remains.
            gg.fit_rate(errors)

    def test_centralized_gd_rate(self):
        problem = gg.random_quadratic_problem(4, 3, 1.0, 3.0, seed=31)
        trajectory = gg.centralized_gd(problem, 0.5, problem.optimizer + 2.0, 60)
        errors = np.linalg.norm(trajectory - problem.optimizer, axis=1)
        assert gg.fit_rate(errors) == pytest.approx(0.5, abs=0.01)

    def test_roundoff_plateau_is_cut(self):
        # A converged ring-100 run sits on a roundoff plateau far above
        # 100 * eps * errors[0] for most of its iterations; fitting the
        # plateau would report a rate near 1. The agents are relabelled so
        # that W is not circulant: W^m is then formed by binary powering,
        # whose roundoff sets the plateau (the circulant closed form has
        # almost none).
        p = np.random.default_rng(0).permutation(100)
        ring = gg.GossipMatrix(gg.ring_matrix(100).weights[np.ix_(p, p)])
        problem = gg.random_quadratic_problem(100, 3, 1.0, 3.0, seed=5)
        cp = gg.params_from_one_point_convexity(gg.StrongSmoothParams(1.0, 3.0))
        params = gg.AlgorithmParams.derive(cp.alpha, cp.rho, gg.spectral_gap(ring))
        assert params.m == 1027
        x0 = problem.optimizer + 0.05 * np.random.default_rng(1).standard_normal((100, 3))
        trace = gg.run_algorithm(problem, gg.GossipSchedule.constant(ring), params, x0, 120)
        errors = trace.errors(problem.optimizer).max(axis=1)
        assert errors[60:].min() > 100 * np.finfo(float).eps * errors[0]
        rate = gg.fit_rate(errors)
        assert rate <= params.rho + 0.02
        assert rate == pytest.approx(gg.fit_rate(errors[:40]), abs=0.01)

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_slow_tail_after_fast_transient(self, noise):
        # Four halvings from 3 to 0.375, then 20,000 steps at 0.9999 down to
        # about 0.05: every tail value is within 10x of every later one, yet
        # the tail is still falling, so it is the tail that is fitted.
        errors = np.concatenate([3 * 0.5 ** np.arange(4), 0.375 * 0.9999 ** np.arange(20001)])
        errors *= 1 + noise * np.random.default_rng(8).uniform(-1.0, 1.0, errors.size)
        assert gg.fit_rate(errors) == pytest.approx(0.9999, abs=1e-5 if noise else 1e-6)
