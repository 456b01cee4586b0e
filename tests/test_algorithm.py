import math
import tracemalloc

import numpy as np
import pytest

import gossipgrad as gg
from conftest import ring_power_closed_form
from gossipgrad.algorithm import power_mixer
from gossipgrad.gossip import circulant_spectrum_power
from gossipgrad.errors import ConfigError


def brute_force_rounds(rho: float, sigma: float, cap: int = 10_000) -> int:
    threshold = gg.sigma0(rho)
    power = sigma
    m = 1
    while power > threshold and m < cap:
        power *= sigma
        m += 1
    return m


class TestSigma0:
    def test_small_rho_limit(self):
        assert gg.sigma0(1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_frozen_values(self):
        assert gg.sigma0(0.75) == pytest.approx(0.411438, abs=1e-6)
        assert gg.sigma0(0.5) == pytest.approx(0.258819, abs=1e-6)

    def test_monotone_increasing_below_bound(self):
        grid = np.linspace(0.01, 0.99, 99)
        values = [gg.sigma0(r) for r in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(0 < v < math.sqrt(2) / 2 for v in values)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                gg.sigma0(bad)


class TestCommRounds:
    def test_well_connected_network_needs_one_round(self):
        assert gg.comm_rounds(0.9, 0.1) == 1

    def test_builtin_pair_values(self):
        assert gg.comm_rounds(0.5, 0.7853) == 6
        assert gg.comm_rounds(0.75, 0.7853) == 4

    def test_domain(self):
        for rho, sigma in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                gg.comm_rounds(rho, sigma)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            rho = float(rng.uniform(0.02, 0.98))
            sigma = float(rng.uniform(0.02, 0.98))
            m = gg.comm_rounds(rho, sigma)
            assert m == brute_force_rounds(rho, sigma)
            assert sigma**m <= gg.sigma0(rho)
            if m > 1:
                assert sigma ** (m - 1) > gg.sigma0(rho)

    def test_monotonicity(self):
        grid = np.linspace(0.1, 0.9, 17)
        for sigma in grid:
            values = [gg.comm_rounds(r, sigma) for r in grid]
            assert all(a >= b for a, b in zip(values, values[1:])), "not nonincreasing in rho"
        for rho in grid:
            values = [gg.comm_rounds(rho, s) for s in grid]
            assert all(a <= b for a, b in zip(values, values[1:])), "not nondecreasing in sigma"


class TestAlgorithmParams:
    def test_derive_fills_m_and_lam(self):
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.7853)
        assert params.m == 6
        assert params.lam == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_rho_zero_is_clamped(self):
        params = gg.AlgorithmParams.derive(1.0, 0.0, 0.5)
        assert params.rho == 1e-6
        assert params.lam < 1.0
        assert params.m >= 1

    def test_zero_gap_derives_one_round(self):
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.0)
        assert params.m == 1 and params.sigma == 0.0
        with pytest.raises(ValueError):
            gg.AlgorithmParams.derive(0.5, 0.5, -0.1)

    def test_override_above_formula_is_valid(self):
        params = gg.AlgorithmParams.derive(2.0, 0.75, 0.7853, m_override=6)
        assert params.m == 6

    def test_override_below_formula_is_rejected(self):
        with pytest.raises(ValueError):
            gg.AlgorithmParams.derive(0.5, 0.5, 0.7853, m_override=2)


class TestIteration:
    def test_single_agent_reduces_to_centralized(self):
        problem = gg.QuadraticObjective(np.diag([1.0, 3.0]), [[0.5, -0.2]])
        schedule = gg.GossipSchedule.constant(gg.GossipMatrix([[1.0]]))
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.5)
        x0 = np.array([[2.0, -1.0]])
        trace = gg.run_algorithm(problem, schedule, params, x0, 100)
        central = gg.centralized_gd(problem, 0.5, x0[0], 100)
        assert np.abs(trace.x[:, 0, :] - central).max() <= 1e-12
        assert np.abs(trace.y).max() == 0.0

    def test_fixed_point_is_stationary(self, pair, pair_sigma):
        problem = gg.random_quadratic_problem(5, 3, 1.0, 3.0, seed=3)
        params = gg.AlgorithmParams.derive(0.5, 0.5, pair_sigma)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=8)
        xstar = problem.optimizer
        x = np.tile(xstar, (5, 1))
        grads = problem.gradient(problem.at(xstar))
        y = -(params.alpha / params.lam) * grads
        trace = gg.run_algorithm(problem, schedule, params, x, 1, y0=y)
        assert np.abs(trace.x[1] - x).max() <= 1e-14
        assert np.abs(trace.y[1] - y).max() <= 1e-14


class TestRun:
    def test_resource_counters(self, corpus):
        for run in corpus:
            K, n = run.trace.iterations, run.trace.n
            assert run.trace.gradient_evaluations == n * K

    def test_conservation_invariants(self, corpus):
        for run in corpus:
            y_mean = run.trace.y.mean(axis=1)
            assert np.abs(y_mean).max() <= 1e-12, run.name
            v_mean = run.trace.v.mean(axis=1)
            x_mean = run.trace.x[:-1].mean(axis=1)
            assert np.abs(v_mean - x_mean).max() <= 1e-12, run.name

    def test_rate_at_most_rho(self, corpus):
        for run in corpus:
            errors = run.trace.errors(run.problem.optimizer).max(axis=1)
            rate = gg.fit_rate(errors)
            assert rate <= run.params.rho + 0.02, f"{run.name}: rate {rate} vs rho {run.params.rho}"

    def test_nonzero_sum_y0_rejected(self, pair):
        problem = gg.random_quadratic_problem(5, 2, 1.0, 2.0, seed=1)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(1.0, 0.4, 0.73)
        with pytest.raises(ConfigError):
            gg.run_algorithm(problem, schedule, params, np.zeros((5, 2)), 3, y0=np.ones((5, 2)))

    @pytest.mark.parametrize("mode", ["vectorized", "netsim"])
    @pytest.mark.parametrize("bad", ["inf-in-x0", "nan-in-y0"])
    def test_non_finite_initial_state_rejected(self, pair, mode, bad):
        # A NaN row sum would pass the sum-to-zero check: NaN > tol is False.
        problem = gg.random_quadratic_problem(5, 2, 1.0, 2.0, seed=1)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(1.0, 0.4, 0.73)
        x0, y0 = np.zeros((5, 2)), np.zeros((5, 2))
        if bad == "inf-in-x0":
            x0[2, 1] = np.inf
        else:
            y0[3, 0] = np.nan
        runner = gg.run_netsim if mode == "netsim" else gg.run_algorithm
        with pytest.raises(ConfigError, match="finite"):
            runner(problem, schedule, params, x0, 3, y0=y0)

    @pytest.mark.parametrize("mode", ["vectorized", "netsim"])
    def test_cyclic_schedule_must_cycle_on_m(self, pair, pair_sigma, mode):
        # A cyclic schedule built without m cycles on the run's global round
        # counter k * m + l - 1: at m = 6, iteration 1 reads [0, 1, 0, 1, 0, 1]
        # (a 3-round count would have given it [1, 0, 1, 0, 1, 0]).
        problem = gg.random_quadratic_problem(5, 3, 1.0, 3.0, seed=7)
        params = gg.AlgorithmParams.derive(0.5, 0.5, pair_sigma)
        assert params.m == 6
        schedule = gg.GossipSchedule.cyclic(list(pair))
        assert gg.round_indices(schedule, 1, params.m).tolist() == [0, 1, 0, 1, 0, 1]
        x0 = np.random.default_rng(3).standard_normal((5, 3))
        runner = gg.run_netsim if mode == "netsim" else gg.run_algorithm
        trace = runner(problem, schedule, params, x0, 3)
        reference = per_round_reference(problem, schedule, params, x0, 3)
        for got, want in zip((trace.x, trace.y, trace.v, trace.u), reference):
            assert np.abs(got - want).max() <= 1e-12
        if mode == "netsim":  # edge sets are numbered in order of first use: W1, then W2
            assert trace.edge_set_ids[1].tolist() == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_trace_stacks_share_one_block(self, iterations):
        trace = gg.RunTrace.start(np.ones((5, 2)), None, iterations, params=None)
        base = trace.x.base
        assert base is not None and base.shape == (4 * iterations + 2, 5, 2)
        for key, length in (("x", iterations + 1), ("y", iterations + 1), ("v", iterations), ("u", iterations)):
            stack = getattr(trace, key)
            assert stack.base is base, key
            assert stack.shape == (length, 5, 2) and stack.dtype == float, key
            assert stack.flags.c_contiguous and stack.flags.writeable, key
        stacks = [trace.x, trace.y, trace.v, trace.u]
        assert sum(stack.nbytes for stack in stacks) == base.nbytes
        assert not any(np.shares_memory(a, b) for i, a in enumerate(stacks) for b in stacks[i + 1 :])

    def test_zero_sum_y0_accepted(self, pair):
        problem = gg.random_quadratic_problem(5, 2, 1.0, 2.0, seed=1)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(1.0, 0.4, 0.73)
        y0 = np.zeros((5, 2))
        y0[0] = [1.0, -2.0]
        y0[3] = [-1.0, 2.0]
        trace = gg.run_algorithm(problem, schedule, params, np.zeros((5, 2)), 30, y0=y0)
        assert np.abs(trace.y.mean(axis=1)).max() <= 1e-12

    def test_deterministic_replay(self, pair):
        problem = gg.random_quadratic_problem(5, 3, 1.0, 3.0, seed=5)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=11)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.7854)
        x0 = np.random.default_rng(0).standard_normal((5, 3))
        a = gg.run_algorithm(problem, schedule, params, x0, 25)
        b = gg.run_algorithm(problem, schedule, params, x0, 25)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def per_round_reference(problem, schedule, params, x0, iterations):
    """x, y, v, u of a run that mixes with m explicit rounds per iteration."""
    x, y = x0, np.zeros_like(x0)
    xs, ys, vs, us = [x], [y], [], []
    for k in range(iterations):
        v = x
        row = gg.round_indices(schedule, k, params.m)
        for round_index in range(1, params.m + 1):
            v = schedule.matrices[row[round_index - 1]].weights @ v
        u = v - params.alpha * problem.gradient(v)
        y = y + x - v
        x = u - params.lam * y
        xs.append(x)
        ys.append(y)
        vs.append(v)
        us.append(u)
    return np.array(xs), np.array(ys), np.array(vs), np.array(us)


class TestLargeM:
    """A single-matrix schedule mixes with W^m once per iteration: a ring or complete matrix by its
    spectrum's m-th power, with no n x n matrix formed, any other by W^m formed once per run. Either
    must match m explicit rounds and the exact power."""

    def test_ring_100_matches_per_round_loop(self):
        ring = gg.ring_matrix(100)
        problem = gg.random_quadratic_problem(ring.n, 10, 1.0, 3.0, seed=9)
        schedule = gg.GossipSchedule.constant(ring)
        params = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring))
        assert params.m == 1027
        x0 = np.random.default_rng(4).standard_normal((ring.n, 10))
        trace = gg.run_algorithm(problem, schedule, params, x0, 5)
        reference = per_round_reference(problem, schedule, params, x0, 5)
        for got, want in zip((trace.x, trace.y, trace.v, trace.u), reference):
            assert np.abs(got - want).max() <= 1e-12
        assert trace.gradient_evaluations == ring.n * 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rounds", [2, 3, 164, "derived"])
    @pytest.mark.parametrize(
        "builder, n",
        [(gg.ring_matrix, n) for n in (1, 2, 3, 4, 5, 8, 41, 400)] + [(gg.complete_matrix, n) for n in (2, 7)],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_spectral_mixer_matches_exact_power(self, builder, n, rounds):
        # Odd rounds on an even ring raise its eigenvalue -1/3 to an odd power; a complete matrix has zero eigenvalues.
        matrix = builder(n)
        m = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(matrix)).m if rounds == "derived" else rounds
        x = np.random.default_rng(n).standard_normal((n, 3))
        mixed = power_mixer(gg.GossipSchedule.constant(matrix), m)(0, x)
        if builder is gg.ring_matrix and n >= 3:
            exact = ring_power_closed_form(n, m) @ x.astype(np.longdouble)
        else:  # ring_matrix(n) for n <= 2 is the complete matrix, whose every power is the exact average
            exact = np.broadcast_to(x.astype(np.longdouble).mean(axis=0), x.shape)
        assert np.abs(mixed - exact).max() <= 1e-13

    def test_ring_2000_mixes_without_an_n_by_n_power(self):
        # W^m of this ring alone would take 32 MB; its spectrum and one iteration take far less.
        ring = gg.ring_matrix(2000)
        schedule = gg.GossipSchedule.constant(ring)
        params = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring))
        problem = gg.random_quadratic_problem(ring.n, 2, 1.0, 3.0, seed=9)
        x0 = np.random.default_rng(4).standard_normal((ring.n, 2))
        tracemalloc.start()
        try:
            gg.run_algorithm(problem, schedule, params, x0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_complete_2000_spectrum_in_bounded_memory(self):
        # Its 2,000 lags would make a 2,000 x 2,000 half-angle table (32 MB, and 64 MB with its sin^2 copy).
        matrix = gg.complete_matrix(2000)
        x = np.random.default_rng(5).standard_normal((matrix.n, 2))
        tracemalloc.start()
        try:
            mixed = power_mixer(gg.GossipSchedule.constant(matrix), 3)(0, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.abs(mixed - x.mean(axis=0)).max() <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1027, 16434])
    def test_complete_2000_keeps_the_average(self, m):
        # Its 1/n weights sum to 1 - 4.4e-16, so a computed lambda_0^m would scale the average by up to 1 + 7.3e-12.
        matrix = gg.complete_matrix(2000)
        x = 3.0 + np.random.default_rng(m).standard_normal((matrix.n, 2))
        mixed = power_mixer(gg.GossipSchedule.constant(matrix), m)(0, x)
        # Averaged in long double: a float64 mean of 2,000 equal values is itself off by up to about 5e-14.
        average = x.astype(np.longdouble).mean(axis=0)
        assert np.abs(mixed.astype(np.longdouble).mean(axis=0) / average - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("n", [3, 4, 41, 400, 2000])
    @pytest.mark.parametrize("rounds", [2, 3, 1027, 16434])
    def test_ring_spectrum_equals_one_table_sums(self, n, rounds):
        # A ring's three lags are one block, so its spectrum is the one-table formula's, bit for bit.
        row = gg.ring_matrix(n).weights[0]
        lags = np.flatnonzero(row)
        half = np.pi / n * (np.outer(lags, np.arange(n)) % n)
        slack = 1.0 - row[lags].sum()
        one_minus = 2.0 * row[lags] @ np.sin(half) ** 2 + slack
        one_plus = 2.0 * row[lags] @ np.cos(half) ** 2 + slack
        negative = one_plus < one_minus
        with np.errstate(divide="ignore"):
            want = np.exp(rounds * np.log1p(-np.minimum(np.where(negative, one_plus, one_minus), 1.0)))
        want[negative] *= -1.0 if rounds % 2 else 1.0
        assert np.array_equal(circulant_spectrum_power(gg.ring_matrix(n).weights, rounds), want)


def per_step_gd(problem, alpha: float, x0, iterations: int) -> np.ndarray:
    # centralized_gd written out with a fresh at() stack and a fresh x each step.
    x = np.array(x0, dtype=float)
    trajectory = [x]
    for _ in range(iterations):
        x = x - alpha * (problem.gradient(problem.at(x)).sum(axis=0) / problem.n)
        trajectory.append(x)
    return np.array(trajectory)


class TestCentralizedGd:
    @pytest.mark.parametrize("kind", ["quadratic", "localization"])
    def test_equals_per_step_stack_loop(self, kind):
        if kind == "quadratic":
            problem = gg.random_quadratic_problem(5, 3, 1.0, 3.0, seed=7)
            alpha, x0 = 0.5, np.array([4.0, -1.0, 2.5])
        else:
            cfg = gg.LocalizationConfig.sampled(5, seed=293)
            problem, alpha, x0 = cfg.problem(), 2.0, cfg.positions.mean(axis=0)
        trajectory = gg.centralized_gd(problem, alpha, x0, 60)
        assert np.array_equal(trajectory, per_step_gd(problem, alpha, x0, 60))

    def test_leaves_x0_unchanged(self):
        problem = gg.random_quadratic_problem(3, 4, 1.0, 3.0, seed=9)
        x0 = np.ones(4) * 4.0
        gg.centralized_gd(problem, 0.5, x0, 10)
        assert np.array_equal(x0, np.ones(4) * 4.0)

    def test_exact_one_step_convergence(self):
        problem = gg.QuadraticObjective(np.array([[1.0]]), np.zeros((1, 1)))
        trajectory = gg.centralized_gd(problem, 1.0, np.array([5.0]), 3)
        assert trajectory[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_rate_matches_eigen_oracle(self):
        problem = gg.random_quadratic_problem(3, 4, 1.0, 3.0, seed=9)
        trajectory = gg.centralized_gd(problem, 0.5, np.ones(4) * 4.0, 60)
        errors = np.linalg.norm(trajectory - problem.optimizer, axis=1)
        assert gg.fit_rate(errors) == pytest.approx(0.5, abs=0.01)

    def test_localization_converges_to_target(self):
        cfg = gg.LocalizationConfig.sampled(5, seed=293)
        problem = cfg.problem()
        trajectory = gg.centralized_gd(problem, 2.0, cfg.positions.mean(axis=0), 300)
        assert np.linalg.norm(trajectory[-1] - np.array([1.0, 1.0])) <= 1e-10

    def test_bad_x0_shape(self):
        problem = gg.random_quadratic_problem(2, 3, 1.0, 2.0, seed=0)
        with pytest.raises(ConfigError):
            gg.centralized_gd(problem, 0.5, np.zeros(2), 5)
