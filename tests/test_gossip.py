import re

import numpy as np
import pytest

import gossipgrad as gg
from conftest import ring_power_closed_form
from gossipgrad.errors import ConfigError
from gossipgrad.gossip import is_circulant

# Frozen against a dense SVD of the deviation matrix (see test_gap_matches_svd_oracle).
GAP_FIRST = 0.7288689868556625
GAP_SECOND = 0.7853340289138411


def svd_gap(W: np.ndarray) -> float:
    n = W.shape[0]
    return float(np.linalg.svd(W - np.ones((n, n)) / n, compute_uv=False)[0])


def sum_deviations(W: gg.GossipMatrix) -> tuple[float, float]:
    """Largest deviation from 1 of the row sums and of the column sums."""
    return float(np.abs(W.weights.sum(axis=1) - 1.0).max()), float(np.abs(W.weights.sum(axis=0) - 1.0).max())


def circulant(row) -> np.ndarray:
    """The matrix whose row i is ``row`` shifted right by i, written out entry by entry."""
    n = len(row)
    return np.array([[row[(j - i) % n] for j in range(n)] for i in range(n)], dtype=float)


def permuted_ring(n: int, seed: int) -> tuple[np.ndarray, gg.GossipMatrix]:
    """(p, ring_matrix(n) with its agents relabelled by p): the ring's spectrum, but not circulant."""
    p = np.random.default_rng(seed).permutation(n)
    return p, gg.GossipMatrix(gg.ring_matrix(n).weights[np.ix_(p, p)])


def random_doubly_stochastic(n: int, k: int, seed: int) -> gg.GossipMatrix:
    # Convex combination of k random permutation matrices is doubly stochastic.
    rng = np.random.default_rng(seed)
    weights = rng.random(k)
    weights /= weights.sum()
    W = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        W[np.arange(n), perm] += w
    return gg.GossipMatrix(W)


class TestSpectralGap:
    def test_uniform_averaging_has_zero_gap(self):
        assert gg.spectral_gap(gg.complete_matrix(4)) == pytest.approx(0.0, abs=1e-12)

    def test_identity_has_gap_one(self):
        assert gg.spectral_gap(gg.GossipMatrix(np.eye(5))) == pytest.approx(1.0, abs=1e-10)

    def test_builtin_pair_gaps(self, pair):
        W1, W2 = pair
        assert gg.spectral_gap(W1) == pytest.approx(GAP_FIRST, abs=1e-10)
        assert gg.spectral_gap(W2) == pytest.approx(GAP_SECOND, abs=1e-10)
        assert gg.spectral_gap(W1) <= 0.7853 + 1e-10
        assert max(gg.spectral_gap(W) for W in pair) == pytest.approx(0.7853, abs=1e-3)

    def test_gap_matches_svd_oracle(self, pair):
        for W in pair:
            assert gg.spectral_gap(W) == pytest.approx(svd_gap(W.weights), abs=1e-10)
        for seed in range(8):
            W = random_doubly_stochastic(6, k=4, seed=seed)
            assert gg.spectral_gap(W) == pytest.approx(svd_gap(W.weights), abs=1e-10)

    def test_gap_in_unit_interval_for_nonnegative_matrices(self):
        for seed in range(6):
            W = random_doubly_stochastic(5, k=3, seed=100 + seed)
            gap = gg.spectral_gap(W)
            assert 0.0 <= gap <= 1.0 + 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            gg.spectral_gap(np.ones((2, 3)))

    def test_gap_within_roundoff_of_one_is_one(self):
        # Disconnected blocks: LAPACK gives 0.9999999999999998, which would
        # derive m near 1e16 rounds for a network that never mixes.
        half, third = np.full((2, 2), 1 / 2), np.full((3, 3), 1 / 3)
        W = np.block([[half, np.zeros((2, 3))], [np.zeros((3, 2)), third]])
        assert np.abs(np.linalg.eigvalsh(W - 1 / 5)).max() < 1.0
        assert gg.spectral_gap(W) == 1.0
        with pytest.raises(ValueError):
            gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(W))

    def test_single_agent(self):
        assert gg.spectral_gap(gg.GossipMatrix([[1.0]])) == 0.0

    def test_wide_ring_matches_lapack(self):
        # sigma near 1: an early-stopped iterative estimate undershoots here,
        # which undercounts the rounds m derived from it.
        W = gg.ring_matrix(400).weights
        expected = np.linalg.norm(W - 1.0 / 400, 2)
        assert gg.spectral_gap(W) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "W",
        [
            *(gg.ring_matrix(n).weights for n in (1, 2, 3, 6, 400, 1000)),
            circulant([0.5, 0.5] + [0.0] * 10),  # directed ring: not symmetric
            circulant([1.2, -0.1] + [0.0] * 7 + [-0.1]),  # symmetric, negative weights
            circulant([0.6, 0.5, -0.2, 0.1, 0.0]),  # neither
            np.eye(5),
        ],
        ids=["ring-1", "ring-2", "ring-3", "ring-6", "ring-400", "ring-1000", "directed", "negative", "mixed", "eye"],
    )
    def test_circulant_gap_matches_lapack(self, W):
        # A circulant takes the Fourier gap; LAPACK is the reference for every kind.
        assert is_circulant(W)
        deviation = W - 1.0 / W.shape[0]
        if np.array_equal(deviation, deviation.T):
            expected = float(np.abs(np.linalg.eigvalsh(deviation)).max())
        else:
            expected = float(np.linalg.svd(deviation, compute_uv=False)[0])
        if abs(1.0 - expected) <= 16 * np.finfo(float).eps * W.shape[0]:
            expected = 1.0
        assert gg.spectral_gap(W) == pytest.approx(expected, rel=1e-14, abs=1e-15)


class TestIsCirculant:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 400])
    def test_rings_and_complete_matrices_are_circulant(self, n):
        assert is_circulant(gg.ring_matrix(n).weights)
        assert is_circulant(gg.complete_matrix(n).weights)

    def test_written_out_circulants(self):
        assert is_circulant(circulant([0.6, 0.5, -0.2, 0.1, 0.0]))
        assert is_circulant(np.eye(4))

    def test_other_matrices_are_not(self, pair):
        assert not any(is_circulant(W.weights) for W in pair)
        assert not is_circulant(permuted_ring(40, seed=0)[1].weights)
        # Column 0 matches a circulant's, a later row does not.
        W = circulant([0.6, 0.5, -0.2, 0.1, 0.0])
        W[2, 3] += 1.0
        assert np.array_equal(W[1:, 0], W[0, :0:-1])
        assert not is_circulant(W)
        # Row 0 and column 0 are the 400-ring's, the last row is not: it is compared in the last block of rows.
        W = gg.ring_matrix(400).weights.copy()
        W[-1, 200] = 1e-300
        assert not is_circulant(W)


class TestValidation:
    def test_builtin_pair_exact(self, pair):
        for W in pair:
            assert max(sum_deviations(W)) <= 1e-15

    def test_perturbed_identity_reports_deviation(self):
        W = np.eye(3)
        W[0, 0] = 1.1
        with pytest.raises(ConfigError, match=re.escape("(max row dev 1.000e-01, max col dev 1.000e-01)")):
            gg.GossipSchedule.constant(gg.GossipMatrix(W))

    def test_uniform_passes(self):
        assert max(sum_deviations(gg.complete_matrix(7))) <= 1e-12

    def test_transpose_symmetry(self):
        # Transposing swaps the row and column deviations, and a rejection names both.
        rng = np.random.default_rng(3)
        for seed in range(6):
            W = random_doubly_stochastic(5, k=3, seed=seed).weights + rng.normal(0, 1e-3, (5, 5))
            forward, backward = gg.GossipMatrix(W), gg.GossipMatrix(W.T)
            assert sum_deviations(forward) == pytest.approx(sum_deviations(backward)[::-1], rel=1e-12)
            for matrix in (forward, backward):
                row, col = sum_deviations(matrix)
                with pytest.raises(ConfigError, match=re.escape(f"(max row dev {row:.3e}, max col dev {col:.3e})")):
                    gg.GossipSchedule.constant(matrix)

    @pytest.mark.parametrize(
        "weights,deviations",
        [
            ([[0.6, 0.6], [0.4, 0.4]], "(max row dev 2.000e-01, max col dev 0.000e+00)"),
            ([[0.6, 0.4], [0.6, 0.4]], "(max row dev 0.000e+00, max col dev 2.000e-01)"),
        ],
        ids=["row-only", "column-only"],
    )
    def test_one_sided_deviation_rejected(self, weights, deviations):
        with pytest.raises(ConfigError, match=re.escape(deviations)):
            gg.GossipSchedule.constant(gg.GossipMatrix(weights))

    def test_negative_weights_allowed_unless_strict(self):
        W = gg.GossipMatrix([[1.5, -0.5], [-0.5, 1.5]])
        assert max(sum_deviations(W)) <= 1e-12
        assert gg.GossipSchedule.constant(W).matrices == (W,)


class TestSchedule:
    def test_constant_returns_single_matrix(self, pair):
        schedule = gg.GossipSchedule.constant(pair[0])
        for k, l in [(0, 1), (3, 2), (100, 7)]:
            assert gg.matrix_at(schedule, k, l) is pair[0]

    def test_cyclic_follows_global_round_counter(self, pair):
        schedule = gg.GossipSchedule.cyclic(list(pair))
        # At m = 3, iteration 0 takes global rounds 0, 1, 2 and iteration 1
        # continues the counter at global round 3.
        assert gg.round_indices(schedule, 0, 3).tolist() == [0, 1, 0]
        assert gg.round_indices(schedule, 1, 3).tolist() == [1, 0, 1]
        # One round alone does not know the run's m.
        with pytest.raises(ValueError, match="round_indices"):
            gg.matrix_at(schedule, 0, 1)

    def test_random_replay_is_identical(self, pair):
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=7)
        first = [gg.matrix_at(schedule, k, l) for k in range(20) for l in range(1, 7)]
        second = [gg.matrix_at(schedule, k, l) for k in range(20) for l in range(1, 7)]
        assert all(a is b for a, b in zip(first, second))
        assert any(m is pair[0] for m in first) and any(m is pair[1] for m in first)

    def test_random_draw_independent_of_query_order(self, pair):
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=9)
        forward = {(k, l): gg.matrix_at(schedule, k, l) for k in range(10) for l in range(1, 4)}
        backward = {(k, l): gg.matrix_at(schedule, k, l) for k in reversed(range(10)) for l in reversed(range(1, 4))}
        assert forward == backward

    def test_different_seeds_differ(self, pair):
        a = gg.GossipSchedule.random_choice(list(pair), seed=1)
        b = gg.GossipSchedule.random_choice(list(pair), seed=2)
        draws_a = [gg.matrix_at(a, k, 1) is pair[0] for k in range(64)]
        draws_b = [gg.matrix_at(b, k, 1) is pair[0] for k in range(64)]
        assert draws_a != draws_b

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            gg.GossipSchedule("random", [], seed=1)

    def test_size_mismatch_rejected(self, pair):
        with pytest.raises(ConfigError):
            gg.GossipSchedule.random_choice([pair[0], gg.complete_matrix(4)], seed=1)

    def test_non_stochastic_matrix_rejected(self):
        broken = gg.GossipMatrix([[0.9, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigError):
            gg.GossipSchedule.constant(broken)

    def test_round_and_iteration_bounds(self, pair):
        schedule = gg.GossipSchedule.constant(pair[0])
        with pytest.raises(ValueError):
            gg.matrix_at(schedule, -1, 1)
        with pytest.raises(ValueError):
            gg.matrix_at(schedule, 0, 0)
        with pytest.raises(ValueError):
            gg.round_indices(schedule, -1, 1)
        with pytest.raises(ValueError):
            gg.round_indices(schedule, 0, 0)


def written_out_product(schedule, iteration, rounds):
    product = np.eye(schedule.n)
    for round_index in range(1, rounds + 1):
        product = gg.matrix_at(schedule, iteration, round_index).weights @ product
    return product


MIXING_SCHEDULES = {
    "constant-ring": lambda: gg.GossipSchedule.constant(gg.ring_matrix(40)),
    "constant-permuted-ring": lambda: gg.GossipSchedule.constant(permuted_ring(40, seed=0)[1]),
    "constant-birkhoff": lambda: gg.GossipSchedule.constant(random_doubly_stochastic(6, 3, seed=4)),
}


def symmetric_birkhoff(n: int, k: int, seed: int) -> gg.GossipMatrix:
    # B + B.T is exactly symmetric: floating-point addition commutes.
    B = random_doubly_stochastic(n, k, seed).weights
    return gg.GossipMatrix((B + B.T) / 2)


class TestMixingProduct:
    def test_fixtures_cover_both_square_branches(self):
        # A symmetric circulant W takes the Fourier closed form; any other
        # symmetric W squares through syrk (power @ power.T), any other through gemm.
        ring = MIXING_SCHEDULES["constant-ring"]().matrices[0].weights
        permuted = MIXING_SCHEDULES["constant-permuted-ring"]().matrices[0].weights
        birkhoff = MIXING_SCHEDULES["constant-birkhoff"]().matrices[0].weights
        assert np.array_equal(ring, ring.T) and is_circulant(ring)
        assert np.array_equal(permuted, permuted.T) and not is_circulant(permuted)
        assert not np.array_equal(birkhoff, birkhoff.T)

    @pytest.mark.parametrize("matrix", [gg.ring_matrix(40), symmetric_birkhoff(6, 3, seed=4)], ids=["ring", "birkhoff"])
    def test_symmetric_squares_stay_exactly_symmetric(self, matrix):
        W = matrix.weights
        assert np.abs(gg.mixing_product(matrix, 2) - W @ W).max() <= 1e-15
        for k in range(1, 11):
            product = gg.mixing_product(matrix, 2**k)
            assert np.array_equal(product, product.T), k

    def test_ring_400_at_its_derived_m_matches_closed_form(self):
        n = 400
        ring = gg.ring_matrix(n)
        m = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring)).m
        assert m == 16434
        x = np.random.default_rng(3).standard_normal((n, 2))
        exact = ring_power_closed_form(n, m) @ x.astype(np.longdouble)
        assert np.abs(gg.mixing_product(ring, m) @ x - exact).max() <= 1e-13

    @pytest.mark.parametrize("kind", sorted(MIXING_SCHEDULES))
    @pytest.mark.parametrize("rounds", [1, 2, 3, 6, 164])
    def test_matches_written_out_product(self, kind, rounds):
        schedule = MIXING_SCHEDULES[kind]()
        product = gg.mixing_product(schedule.matrices[0], rounds)
        for k in (0, 2):
            assert np.abs(product - written_out_product(schedule, k, rounds)).max() <= 1e-12
        assert np.abs(product.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(product.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [40, 100, 400])
    def test_ring_power_at_its_derived_m(self, n):
        # The closed form is exact to about one ulp: no m-fold growth of the eigenvalues' roundoff.
        ring = gg.ring_matrix(n)
        m = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring)).m
        power = gg.mixing_product(ring, m)
        assert np.abs(power - ring_power_closed_form(n, m)).max() <= 2e-15
        assert np.abs(power.sum(axis=0) - 1.0).max() <= 1e-15
        assert np.abs(power.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.array_equal(power, power.T)

    def test_permuted_ring_is_powered(self):
        # Same spectrum as the ring, but not circulant: binary powering, whose error grows with m.
        p, permuted = permuted_ring(100, seed=0)
        m = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(permuted)).m
        assert m == 1027
        exact = ring_power_closed_form(100, m)[np.ix_(p, p)]
        assert np.abs(gg.mixing_product(permuted, m) - exact).max() <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_complete_matrix_power_has_zero_eigenvalues(self):
        # Every eigenvalue but one is 0, whose log is -inf: the power is still 1/n, with no warning.
        power = gg.mixing_product(gg.complete_matrix(7), 5)
        assert np.abs(power - 1.0 / 7).max() <= 1e-15

    def test_one_round_is_the_matrix(self, pair):
        assert np.array_equal(gg.mixing_product(pair[0], 1), pair[0].weights)
        ring = gg.ring_matrix(40)
        assert np.array_equal(gg.mixing_product(ring, 1), ring.weights)

    @pytest.mark.parametrize("kind", sorted(MIXING_SCHEDULES))
    def test_rounds_must_be_positive(self, kind):
        for rounds in (0, -1):
            with pytest.raises(ValueError):
                gg.mixing_product(MIXING_SCHEDULES[kind]().matrices[0], rounds)

    def test_uniform_averaging_product_is_zero(self):
        assert gg.spectral_gap(gg.mixing_product(gg.complete_matrix(5), 3)) == pytest.approx(0.0, abs=1e-12)

    def test_two_rounds_below_square_and_matches_oracle(self, pair):
        W1 = pair[0]
        gap1 = gg.spectral_gap(W1)
        gap2 = gg.spectral_gap(gg.mixing_product(W1, 2))
        assert gap2 <= gap1**2 + 1e-9
        assert gap2 == pytest.approx(svd_gap(W1.weights @ W1.weights), abs=1e-10)

    def test_submultiplicative_over_time_varying_schedule(self, pair):
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=21)
        for k in range(4):
            for m in (2, 3, 5):
                product = gg.spectral_gap(written_out_product(schedule, k, m))
                bound = np.prod([gg.spectral_gap(gg.matrix_at(schedule, k, l)) for l in range(1, m + 1)])
                assert product <= bound + 1e-9


def loop_built_ring(n: int) -> np.ndarray:
    # ring_matrix as it was once built, one agent at a time.
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        return np.array([[0.5, 0.5], [0.5, 0.5]])
    W = np.zeros((n, n))
    for i in range(n):
        W[i, i] = 1.0 / 3.0
        W[i, (i - 1) % n] = 1.0 / 3.0
        W[i, (i + 1) % n] = 1.0 / 3.0
    return W


class TestBuiltins:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 40, 400])
    def test_ring_matches_loop_built_matrix(self, n):
        assert np.array_equal(gg.ring_matrix(n).weights, loop_built_ring(n))

    @pytest.mark.parametrize("builder", [gg.ring_matrix, gg.complete_matrix], ids=["ring", "complete"])
    def test_zero_agents_rejected(self, builder):
        with pytest.raises(ConfigError, match="at least one agent"):
            builder(0)

    def test_ring_is_doubly_stochastic(self):
        for n in (1, 2, 3, 6):
            assert max(sum_deviations(gg.ring_matrix(n))) <= 1e-12

    def test_ring_mixes(self):
        assert gg.spectral_gap(gg.ring_matrix(6)) < 1.0
