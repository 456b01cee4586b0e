import numpy as np
import pytest

import gossipgrad as gg
from conftest import finite_difference_gradient
from gossipgrad.errors import ConfigError, DegenerateCurvatureError, SingularPointError


@pytest.fixture(scope="module")
def cfg():
    return gg.LocalizationConfig.sampled(5, seed=293)


def fd_hessian_trace(objective, x, step=1e-4):
    total = 0.0
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        total += (objective.value(x + e) - 2 * objective.value(x) + objective.value(x - e)) / step**2
    return total


class TestConfig:
    def test_ranges_are_exact_distances(self, cfg):
        expected = np.linalg.norm(cfg.positions - cfg.target, axis=1)
        assert np.array_equal(cfg.ranges, expected)
        assert np.all(cfg.ranges > 0)

    def test_agent_at_target_rejected(self):
        with pytest.raises(ConfigError):
            gg.LocalizationConfig.from_positions([[1.0, 1.0], [0.0, 0.0]], [1.0, 1.0])

    def test_sampling_respects_box_and_exclusion(self):
        sampled = gg.LocalizationConfig.sampled(20, seed=0, target=(1.0, 1.0))
        assert np.all(sampled.positions >= 0.0) and np.all(sampled.positions <= 2.0)
        assert np.all(np.linalg.norm(sampled.positions - sampled.target, axis=1) > 0.1)

    def test_sampling_is_deterministic(self):
        a = gg.LocalizationConfig.sampled(5, seed=3)
        b = gg.LocalizationConfig.sampled(5, seed=3)
        assert np.array_equal(a.positions, b.positions)

    def test_index_bounds(self, cfg):
        with pytest.raises(ConfigError):
            cfg.problem().agent(5)
        with pytest.raises(ConfigError):
            cfg.problem().agent(-1)


class TestResidualObjective:
    def test_value_zero_at_target(self, cfg):
        for i in range(cfg.n):
            assert cfg.problem().agent(i).value(cfg.target) == pytest.approx(0.0, abs=1e-15)

    def test_gradient_zero_at_target(self, cfg):
        for i in range(cfg.n):
            grad = cfg.problem().agent(i).gradient(cfg.target)
            assert np.abs(grad).max() <= 1e-15

    def test_hessian_trace_one_at_target(self, cfg):
        for i in range(cfg.n):
            assert cfg.problem().agent(i).hessian_trace(cfg.target) == pytest.approx(1.0, abs=1e-10)

    def test_derivatives_singular_at_anchor(self, cfg):
        f = cfg.problem().agent(0)
        anchor = cfg.positions[0]
        with pytest.raises(SingularPointError):
            f.gradient(anchor)
        with pytest.raises(SingularPointError):
            f.hessian_trace(anchor)
        with pytest.raises(SingularPointError):
            f.hessian(anchor)
        # The value itself is well defined there.
        assert f.value(anchor) == pytest.approx(0.5 * cfg.ranges[0] ** 2)

    def test_gradient_matches_finite_differences(self, cfg):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            x = rng.uniform(-0.5, 2.5, size=2)
            if np.min(np.linalg.norm(cfg.positions - x, axis=1)) < 1e-2:
                continue
            i = int(rng.integers(0, cfg.n))
            f = cfg.problem().agent(i)
            exact = f.gradient(x)
            numeric = finite_difference_gradient(f, x)
            assert np.linalg.norm(numeric - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))
            checked += 1

    def test_hessian_trace_matches_finite_differences(self, cfg):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = cfg.target + rng.uniform(-0.3, 0.3, size=2)
            if np.min(np.linalg.norm(cfg.positions - x, axis=1)) < 5e-2:
                continue
            i = int(rng.integers(0, cfg.n))
            f = cfg.problem().agent(i)
            assert f.hessian_trace(x) == pytest.approx(fd_hessian_trace(f, x), abs=1e-4)


class TestProblemStructure:
    def test_each_gradient_vanishes_at_optimizer(self, cfg):
        # Noiseless ranges: every local gradient is individually zero at the
        # target, which is stronger than the sum cancelling.
        problem = cfg.problem()
        assert np.abs(problem.gradient(problem.at(cfg.target))).max() <= 1e-15

    def test_target_is_global_floor_on_samples(self, cfg):
        problem = cfg.problem()
        rng = np.random.default_rng(5)
        assert np.mean(problem.value(problem.at(cfg.target))) == pytest.approx(0.0, abs=1e-15)
        for _ in range(200):
            x = rng.uniform(-1.0, 3.0, size=2)
            if np.array_equal(x, cfg.target):
                continue
            assert np.mean(problem.value(problem.at(x))) >= 0.0


class TestOptimalStepsize:
    def test_equals_two_at_target(self, cfg):
        assert gg.optimal_stepsize(cfg.problem(), cfg.target) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_curvature(self):
        # Evaluation point at half the measured range from the anchor: the
        # residual curvature trace is 2 - r / (r/2) = 0.
        anchor = np.array([0.0, 0.0])
        problem = gg.RangeResidualObjective([anchor], [1.0])
        with pytest.raises(DegenerateCurvatureError):
            gg.optimal_stepsize(problem, np.array([0.5, 0.0]))

    def test_matches_finite_difference_trace(self, cfg):
        problem = cfg.problem()
        point = cfg.target + np.array([0.07, -0.04])
        expected_trace = np.mean([fd_hessian_trace(problem.agent(i), point) for i in range(problem.n)])
        assert gg.optimal_stepsize(problem, point) == pytest.approx(2.0 / expected_trace, abs=1e-4)

    def test_requires_two_dimensions(self):
        problem = gg.QuadraticObjective(np.eye(3), np.zeros((1, 3)))
        with pytest.raises(ConfigError):
            gg.optimal_stepsize(problem, np.zeros(3))


class TestContractionFactor:
    def test_matches_eigenvalue_spread(self, cfg):
        # With the trace pinned to 1 and the stepsize 2/trace, the factor is
        # the spread of the two average-curvature eigenvalues.
        eigs = np.linalg.eigvalsh(gg.target_hessian(cfg))
        assert eigs.sum() == pytest.approx(1.0, abs=1e-12)
        alpha = gg.optimal_stepsize(cfg.problem(), cfg.target)
        assert gg.gd_contraction_factor(cfg, alpha) == pytest.approx(float(eigs[1] - eigs[0]), abs=1e-12)

    def test_pinned_config_value(self, cfg):
        alpha = gg.optimal_stepsize(cfg.problem(), cfg.target)
        assert gg.gd_contraction_factor(cfg, alpha) == pytest.approx(0.7769316101916837, abs=1e-12)


class TestGossipPair:
    def test_exact_double_stochasticity(self, pair):
        for W in pair:
            for axis in (0, 1):
                assert np.abs(W.weights.sum(axis=axis) - 1.0).max() <= 1e-15

    def test_max_gap(self, pair):
        assert max(gg.spectral_gap(W) for W in pair) == pytest.approx(0.7853, abs=1e-3)

    def test_time_varying_link(self, pair):
        first, second = pair
        assert first.weights[1, 3] == pytest.approx(1.0 / 8.0)
        assert second.weights[1, 3] == 0.0

    def test_zero_diagonals(self, pair):
        for W in pair:
            assert np.abs(np.diag(W.weights)).max() == 0.0
