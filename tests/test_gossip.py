import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gossipgrad as gg
from conftest import ring_power_closed_form
from gossipgrad.algorithm import power_mixer
from gossipgrad.config import build_schedule, load_run_config
from gossipgrad.errors import ConfigError
from gossipgrad.gossip import circulant_matrix, circulant_spectrum_power

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


# Rows of declared circulants: the built-in rings, and rows no builder makes.
CIRCULANT_ROWS = {
    **{f"ring-{n}": gg.ring_matrix(n).weights[0] for n in (1, 2, 3, 6, 400, 1000)},
    "directed": [0.5, 0.5] + [0.0] * 10,  # a directed ring: not symmetric
    "negative": [1.2, -0.1] + [0.0] * 7 + [-0.1],  # symmetric, with negative weights
    "mixed": [0.6, 0.5, -0.2, 0.1, 0.0],  # neither
    "eye": [1.0, 0.0, 0.0, 0.0, 0.0],
}


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
        # Not "not circulant" (None): a non-square array is no gossip matrix at all.
        with pytest.raises(ConfigError):
            circulant_spectrum_power(gg.GossipMatrix(np.ones((2, 3))), 2)

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

    @pytest.mark.parametrize("row", list(CIRCULANT_ROWS.values()), ids=list(CIRCULANT_ROWS))
    def test_circulant_gap_matches_lapack(self, row):
        # A declared circulant takes the Fourier gap; its dense copy takes LAPACK, the reference for every kind.
        declared = circulant_matrix(row)
        dense = gg.GossipMatrix(declared.weights)
        assert declared.circulant and not dense.circulant
        W = dense.weights
        deviation = W - 1.0 / W.shape[0]
        if np.array_equal(deviation, deviation.T):
            expected = float(np.abs(np.linalg.eigvalsh(deviation)).max())
        else:
            expected = float(np.linalg.svd(deviation, compute_uv=False)[0])
        if abs(1.0 - expected) <= 16 * np.finfo(float).eps * W.shape[0]:
            expected = 1.0
        assert gg.spectral_gap(dense) == expected
        assert gg.spectral_gap(declared) == pytest.approx(expected, rel=1e-14, abs=1e-15)


class TestIsCirculant:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 400])
    def test_rings_and_complete_matrices_are_circulant(self, n):
        assert gg.ring_matrix(n).circulant
        assert gg.complete_matrix(n).circulant

    def test_written_out_circulants(self):
        # Circulance is declared by circulant_matrix, never inferred: the same weights written out are dense.
        for row in ([0.6, 0.5, -0.2, 0.1, 0.0], [1.0, 0.0, 0.0, 0.0]):
            declared, dense = circulant_matrix(row), gg.GossipMatrix(circulant(row))
            assert declared.circulant and not dense.circulant
            assert np.array_equal(declared.weights, dense.weights)
        for n in (1, 2, 3, 400):
            assert not gg.GossipMatrix(gg.ring_matrix(n).weights).circulant
            assert not gg.GossipMatrix(gg.complete_matrix(n).weights).circulant

    def test_declared_weights_are_a_read_only_view_of_a_private_row(self):
        row = np.array([0.5, 0.25, 0.0, 0.25])
        W = circulant_matrix(row)
        row[0] = 9.0
        assert np.array_equal(W.weights, circulant([0.5, 0.25, 0.0, 0.25]))
        assert not W.weights.flags.writeable
        for bad in ([], [[0.5, 0.5], [0.5, 0.5]]):
            with pytest.raises(ConfigError, match="at least one agent"):
                circulant_matrix(bad)

    def test_other_matrices_are_not(self, pair):
        assert not any(W.circulant for W in pair)
        assert not permuted_ring(40, seed=0)[1].circulant


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

    def test_circulant_sums_are_read_from_row_0(self):
        # Every row and column of this circulant sums to 1 + 2e-9, so its row 0 alone must reject it.
        W = circulant_matrix([0.5 + 2e-9, 0.25, 0.0, 0.0, 0.25])
        assert W.circulant
        with pytest.raises(ConfigError, match=re.escape("(max row dev 2.000e-09, max col dev 2.000e-09)")):
            gg.GossipSchedule.constant(W)

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
        assert gg.round_table(schedule, 2, 3).tolist() == [[0, 1, 0], [1, 0, 1]]
        # One round alone does not know the run's m.
        with pytest.raises(ValueError, match="round_table"):
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

    def test_shipped_quadratic_draws_are_pinned(self):
        # Literal draws of the shipped config: a change here changes every shipped CSV.
        schedule = build_schedule(load_run_config(Path(__file__).resolve().parent.parent / "configs" / "quadratic.ini"))
        assert (schedule.kind, schedule.seed, len(schedule.matrices)) == ("random", 42, 2)
        rows = [[0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0]]
        assert gg.round_table(schedule, 3, 6).tolist() == rows
        for k, row in enumerate(rows):
            assert [schedule.matrices.index(gg.matrix_at(schedule, k, l)) for l in range(1, 7)] == row

    @pytest.mark.parametrize("kind", ["constant", "cyclic", "random"])
    def test_unallocatable_table_fails_before_drawing(self, pair, kind):
        # 10**13 iterations of 6 rounds: 480 TB of indices, refused at once rather than hashed round by round.
        schedule = gg.GossipSchedule(kind, pair[:1] if kind == "constant" else pair, seed=1)
        with pytest.raises(MemoryError):
            gg.round_table(schedule, 10**13, 6)

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
            gg.round_table(schedule, -1, 1)
        with pytest.raises(ValueError):
            gg.round_table(schedule, 1, 0)


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


def mixed_identity(matrix: gg.GossipMatrix, rounds: int) -> np.ndarray:
    """W^rounds as the vectorized run applies it: ``power_mixer`` of a constant schedule, on the identity."""
    return power_mixer(gg.GossipSchedule.constant(matrix), rounds)(0, np.eye(matrix.n))


class TestMixingProduct:
    """W^m of a one-matrix schedule: by its spectrum for a symmetric circulant at m > 1, else by numpy's power."""

    def test_fixtures_cover_both_mixer_branches(self):
        # The ring and the permuted ring share a spectrum, but only the ring is circulant;
        # the other two take np.linalg.matrix_power, one symmetric and one not.
        ring = MIXING_SCHEDULES["constant-ring"]().matrices[0]
        permuted = MIXING_SCHEDULES["constant-permuted-ring"]().matrices[0]
        birkhoff = MIXING_SCHEDULES["constant-birkhoff"]().matrices[0]
        assert circulant_spectrum_power(ring, 2) is not None
        assert circulant_spectrum_power(permuted, 2) is None and circulant_spectrum_power(birkhoff, 2) is None
        assert np.array_equal(permuted.weights, permuted.weights.T)
        assert not np.array_equal(birkhoff.weights, birkhoff.weights.T)

    def test_ring_400_at_its_derived_m_matches_closed_form(self):
        n = 400
        ring = gg.ring_matrix(n)
        m = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring)).m
        assert m == 16434
        x = np.random.default_rng(3).standard_normal((n, 2))
        exact = ring_power_closed_form(n, m) @ x.astype(np.longdouble)
        assert np.abs(power_mixer(gg.GossipSchedule.constant(ring), m)(0, x) - exact).max() <= 1e-13

    @pytest.mark.parametrize("kind", sorted(MIXING_SCHEDULES))
    @pytest.mark.parametrize("rounds", [1, 2, 3, 6, 164])
    def test_matches_written_out_product(self, kind, rounds):
        schedule = MIXING_SCHEDULES[kind]()
        product = mixed_identity(schedule.matrices[0], rounds)
        for k in (0, 2):
            assert np.abs(product - written_out_product(schedule, k, rounds)).max() <= 1e-12
        assert np.abs(product.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(product.sum(axis=1) - 1.0).max() <= 1e-12

    def test_permuted_ring_is_powered(self):
        # Same spectrum as the ring, but not circulant: its power matches the ring's, permuted.
        p, permuted = permuted_ring(100, seed=0)
        m = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(permuted)).m
        assert m == 1027
        exact = ring_power_closed_form(100, m)[np.ix_(p, p)]
        assert np.abs(mixed_identity(permuted, m) - exact).max() <= 1e-13

    @pytest.mark.parametrize("rounds", [2, 5])
    @pytest.mark.parametrize("row", list(CIRCULANT_ROWS.values()), ids=list(CIRCULANT_ROWS))
    def test_declared_circulant_mixes_as_its_dense_copy(self, row, rounds):
        # A symmetric declared circulant mixes by its spectrum, any other by the power of its view;
        # its dense copy always takes np.linalg.matrix_power.
        declared = circulant_matrix(row)
        dense = gg.GossipMatrix(declared.weights)
        symmetric = np.array_equal(dense.weights, dense.weights.T)
        assert (circulant_spectrum_power(declared, rounds) is not None) == symmetric
        assert circulant_spectrum_power(dense, rounds) is None
        want = mixed_identity(dense, rounds)
        assert np.abs(mixed_identity(declared, rounds) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_complete_matrix_power_has_zero_eigenvalues(self):
        # Every eigenvalue but one is 0: the power is still 1/n, with no warning.
        assert np.abs(mixed_identity(gg.complete_matrix(7), 5) - 1.0 / 7).max() <= 1e-15

    def test_one_round_is_the_matrix(self, pair):
        assert np.array_equal(mixed_identity(pair[0], 1), pair[0].weights)
        ring = gg.ring_matrix(40)
        assert np.array_equal(mixed_identity(ring, 1), ring.weights)

    def test_uniform_averaging_product_is_zero(self):
        assert gg.spectral_gap(mixed_identity(gg.complete_matrix(5), 3)) == pytest.approx(0.0, abs=1e-12)

    def test_two_rounds_below_square_and_matches_oracle(self, pair):
        W1 = pair[0]
        gap1 = gg.spectral_gap(W1)
        gap2 = gg.spectral_gap(mixed_identity(W1, 2))
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
    # ring_matrix built one agent at a time: fl(1/3) to each neighbor, 1 - 2 fl(1/3) (exact in binary) to itself.
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        return np.array([[0.5, 0.5], [0.5, 0.5]])
    W = np.zeros((n, n))
    for i in range(n):
        W[i, i] = 1.0 - 2.0 * (1.0 / 3.0)
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

    def test_complete_5000_in_linear_memory(self):
        # Its n x n weights would take 200 MB; the declared circulant, its sum check and its gap take O(n).
        tracemalloc.start()
        try:
            W = gg.complete_matrix(5000)
            schedule = gg.GossipSchedule.constant(W)
            gap = gg.spectral_gap(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert schedule.matrices == (W,) and W.circulant and gap <= 1e-15
        assert np.array_equal(W.weights[[0, 4999, 2500]], np.full((3, 5000), 1.0 / 5000))

    def test_ring_is_doubly_stochastic(self):
        for n in (1, 2, 3, 6):
            assert max(sum_deviations(gg.ring_matrix(n))) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 40, 400])
    def test_ring_rows_and_columns_sum_to_exactly_one(self, n):
        # In exact arithmetic: math.fsum would round three weights of fl(1/3), which sum to 1 - 2^-54, to 1.0.
        W = gg.ring_matrix(n).weights
        assert all(sum(map(Fraction, line)) == 1 for line in [*W, *W.T])

    def test_ring_mixes(self):
        assert gg.spectral_gap(gg.ring_matrix(6)) < 1.0
