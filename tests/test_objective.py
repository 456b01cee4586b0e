import numpy as np
import pytest

import gossipgrad as gg
from conftest import finite_difference_gradient


def eigenvalue_contraction(A: np.ndarray, alpha: float) -> float:
    # Exact contraction factor of x -> x - alpha * (Ax - b) toward the optimizer.
    return float(np.max(np.abs(1.0 - alpha * np.linalg.eigvalsh(A))))


class TestParameterConversion:
    @pytest.mark.parametrize(
        "mu,L,alpha,rho",
        [(1.0, 1.0, 1.0, 0.0), (1.0, 3.0, 0.5, 0.5), (1.0, 9.0, 0.2, 0.8)],
    )
    def test_values(self, mu, L, alpha, rho):
        params = gg.params_from_one_point_convexity(gg.StrongSmoothParams(mu, L))
        assert params.alpha == pytest.approx(alpha, rel=1e-15)
        assert params.rho == pytest.approx(rho, rel=1e-15, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gg.StrongSmoothParams(0.0, 1.0)
        with pytest.raises(ValueError):
            gg.StrongSmoothParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            gg.StrongSmoothParams(2.0, 1.0)

    def test_contraction_params_domain(self):
        with pytest.raises(ValueError):
            gg.ContractionParams(alpha=0.0, rho=0.5)
        with pytest.raises(ValueError):
            gg.ContractionParams(alpha=1.0, rho=1.0)
        with pytest.raises(ValueError):
            gg.ContractionParams(alpha=1.0, rho=-0.1)
        # rho = 0 is the mu = L boundary and must construct
        gg.ContractionParams(alpha=1.0, rho=0.0)


class TestCheckContraction:
    def test_diagonal_quadratic_passes_and_matches_eigen_oracle(self):
        A = np.diag([1.0, 2.0, 3.0])
        f = gg.QuadraticObjective(A, np.zeros((1, 3)))
        xstar = np.zeros(3)
        params = gg.ContractionParams(alpha=0.5, rho=0.5)
        samples = gg.sample_ball(xstar, radius=10.0, count=1000, seed=0)
        report = gg.check_contraction(f, xstar, params, samples)
        assert report.passed
        assert report.samples_used == 1000
        assert report.max_ratio <= eigenvalue_contraction(A, 0.5) + 1e-12
        assert eigenvalue_contraction(A, 0.5) == pytest.approx(0.5)

    def test_identity_quadratic_contracts_to_zero(self):
        f = gg.QuadraticObjective(np.eye(2), np.zeros((1, 2)))
        params = gg.ContractionParams(alpha=1.0, rho=0.5)
        report = gg.check_contraction(f, np.zeros(2), params, [[3.0, -4.0]])
        assert report.max_ratio == pytest.approx(0.0, abs=1e-15)

    def test_eigenvalue_outside_band_fails(self):
        f = gg.QuadraticObjective(np.diag([4.0, 1.0]), np.zeros((1, 2)))
        params = gg.ContractionParams(alpha=0.5, rho=0.5)
        samples = gg.sample_ball(np.zeros(2), radius=5.0, count=500, seed=1)
        report = gg.check_contraction(f, np.zeros(2), params, samples)
        assert not report.passed
        assert report.max_ratio == pytest.approx(1.0, abs=2e-2)

    def test_samples_at_center_are_skipped(self):
        f = gg.QuadraticObjective(np.eye(2), np.zeros((1, 2)))
        params = gg.ContractionParams(alpha=0.5, rho=0.6)
        report = gg.check_contraction(f, np.zeros(2), params, [[0.0, 0.0], [1.0, 0.0]])
        assert report.samples_used == 1

    def test_two_gradient_calls_per_agent(self):
        f = gg.random_quadratic_problem(5, 3, 1.0, 3.0, seed=0)
        params = gg.params_from_one_point_convexity(gg.StrongSmoothParams(1.0, 3.0))
        samples = gg.sample_ball(f.optimizer, radius=10.0, count=200, seed=1)
        before = f.gradient_calls.copy()
        report = gg.check_contraction(f, f.optimizer, params, samples)
        assert report.passed and report.samples_used == 200
        assert np.array_equal(f.gradient_calls - before, np.full(5, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_one_point_convexity_end_to_end(self, seed):
        rng = np.random.default_rng(seed)
        mu = float(rng.uniform(0.2, 2.0))
        L = float(mu + rng.uniform(0.1, 8.0))
        d = int(rng.integers(2, 8))
        f = gg.random_quadratic_problem(1, d, mu, L, seed=seed)
        xstar = np.linalg.solve(f.A, f.B[0])
        params = gg.params_from_one_point_convexity(gg.StrongSmoothParams(mu, L))
        samples = gg.sample_ball(xstar, radius=10.0, count=300, seed=seed + 1)
        report = gg.check_contraction(f, xstar, params, samples)
        assert report.passed, f"ratio {report.max_ratio} vs rho {params.rho}"


class TestQuadraticObjective:
    def test_value_and_gradient(self):
        f = gg.QuadraticObjective(np.eye(2), np.zeros((1, 2))).agent(0)
        assert f.value(np.array([1.0, 1.0])) == pytest.approx(1.0)
        g = gg.QuadraticObjective(np.diag([1.0, 3.0]), np.zeros((1, 2))).agent(0)
        assert np.allclose(g.gradient(np.array([1.0, 1.0])), [1.0, 3.0])

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            gg.QuadraticObjective(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((1, 2)))

    def test_rejects_bad_b_shape(self):
        with pytest.raises(ValueError):
            gg.QuadraticObjective(np.eye(2), np.zeros((1, 3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        f = gg.random_quadratic_problem(1, 4, 1.0, 5.0, seed=seed).agent(0)
        rng = np.random.default_rng(seed + 10)
        for _ in range(5):
            x = rng.standard_normal(4) * 3.0
            numeric = finite_difference_gradient(f, x)
            exact = f.gradient(x)
            assert np.linalg.norm(numeric - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))


class TestProblem:
    def test_gradients_sum_to_zero_at_optimizer(self):
        # Locals built so the gradient sum cancels exactly at a chosen point.
        xstar = np.array([0.5, -1.5])
        A = np.diag([1.0, 2.0])
        offsets = [np.array([1.0, 0.0]), np.array([-0.5, 2.0]), np.array([-0.5, -2.0])]
        problem = gg.QuadraticObjective(A, [A @ xstar + off for off in offsets], optimizer=xstar)
        assert np.array_equal(problem.optimizer, xstar)
        total = problem.gradient(problem.at(xstar)).sum(axis=0)
        assert np.linalg.norm(total) <= 1e-12

    def test_bad_optimizer_rejected(self):
        with pytest.raises(ValueError, match="do not sum to zero"):
            gg.QuadraticObjective(np.eye(2), [[1.0, 0.0]], optimizer=np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            gg.QuadraticObjective(np.eye(2), [[1.0, 0.0]], optimizer=np.zeros(3))
        with pytest.raises(ValueError, match="do not sum to zero"):
            gg.RangeResidualObjective([[0.0, 0.0]], [1.0], optimizer=[0.0, 2.0])

    def test_dimension_mismatch_rejected(self):
        # Curvature for d = 3 with linear terms for d = 2.
        with pytest.raises(ValueError):
            gg.QuadraticObjective(np.eye(3), np.zeros((2, 2)))

    def test_average_value_and_gradient(self):
        problem = gg.random_quadratic_problem(4, 3, 1.0, 2.0, seed=0)
        x = np.ones(3)
        views = [problem.agent(i) for i in range(problem.n)]
        expected = np.mean([f.gradient(x) for f in views], axis=0)
        # The average gradient as centralized_gd forms it.
        assert np.allclose(problem.gradient(problem.at(x)).sum(axis=0) / problem.n, expected)
        assert np.mean(problem.value(problem.at(x))) == pytest.approx(np.mean([f.value(x) for f in views]))

    def test_at_is_a_read_only_zero_stride_view(self):
        problem = gg.random_quadratic_problem(4, 3, 1.0, 2.0, seed=0)
        x = np.array([1.0, -2.0, 0.5])
        stack = problem.at(x)
        assert stack.shape == (4, 3) and stack.strides[0] == 0
        assert np.array_equal(stack, np.tile(x, (4, 1)))
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0] = 0.0
        # A view of x itself: centralized_gd steps x in place under one stack.
        x[1] = 7.0
        assert np.array_equal(stack[:, 1], np.full(4, 7.0))
        with pytest.raises(ValueError, match="shape"):
            problem.at(np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            problem.at(np.zeros((4, 3)))

    def test_generator_spectrum_inside_band(self):
        for shared in (True, False):
            problem = gg.random_quadratic_problem(5, 4, 1.0, 3.0, seed=2, shared_hessian=shared)
            for i in range(problem.n):
                eigs = np.linalg.eigvalsh(problem.agent(i).A)
                assert eigs.min() >= 1.0 - 1e-9
                assert eigs.max() <= 3.0 + 1e-9


class TestSampling:
    def test_sample_ball_radius_and_determinism(self):
        center = np.array([2.0, -1.0, 0.5])
        a = gg.sample_ball(center, radius=3.0, count=200, seed=5)
        b = gg.sample_ball(center, radius=3.0, count=200, seed=5)
        assert np.array_equal(a, b)
        assert np.all(np.linalg.norm(a - center, axis=1) <= 3.0 + 1e-12)

    def test_gradient_counter(self):
        family = gg.QuadraticObjective(np.eye(2), np.zeros((2, 2)))
        f = family.agent(1)
        assert f.gradient_calls == 0
        f.gradient(np.ones(2))
        f.gradient(np.ones(2))
        f.value(np.ones(2))
        assert f.gradient_calls == 2
        family.gradient(np.ones((2, 2)))
        assert family.gradient_calls.tolist() == [1, 3]
