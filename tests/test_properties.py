"""Property tests: spectral and product gaps against LAPACK and the round-count
formula, the spectral mixer against a long-double reference, schedule index
rows against a written-out draw and ``matrix_at``, a run's table against the
rows of shorter tables, message passing against the vectorized path, the
locality audit against a per-round audit and against judging every pair,
batched against per-agent gradients, and the stacked certificate against its
per-iteration formula."""

import hashlib
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gossipgrad as gg
from gossipgrad import netsim
from gossipgrad.algorithm import power_mixer
from gossipgrad.analysis import DECREASE_FLOOR, DECREASE_RELATIVE
from gossipgrad.gossip import circulant_matrix

seeds = st.integers(0, 2**32 - 1)
common = settings(deadline=None)


def birkhoff_mixture(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random convex combination of k permutation matrices: doubly stochastic."""
    weights = rng.random(k)
    weights /= weights.sum()
    W = np.zeros((n, n))
    for w in weights:
        W[np.arange(n), rng.permutation(n)] += w
    return W


def lapack_gap(W: np.ndarray) -> float:
    return float(np.linalg.norm(W - 1.0 / W.shape[0], 2))


class TestSpectralGapProperties:
    @common
    @given(n=st.integers(2, 12), k=st.integers(1, 4), seed=seeds)
    def test_symmetrized_mixture_matches_lapack(self, n, k, seed):
        W = birkhoff_mixture(n, k, np.random.default_rng(seed))
        W = 0.5 * (W + W.T)
        assert np.array_equal(W, W.T)
        assert np.isclose(gg.spectral_gap(W), lapack_gap(W), rtol=1e-12, atol=0)

    @common
    @given(n=st.integers(3, 12), k=st.integers(1, 4), seed=seeds)
    def test_nonsymmetric_mixture_matches_lapack(self, n, k, seed):
        W = birkhoff_mixture(n, k, np.random.default_rng(seed))
        assume(not np.array_equal(W, W.T))
        assert np.isclose(gg.spectral_gap(W), lapack_gap(W), rtol=1e-12, atol=0)


class TestProductGapProperties:
    """The guarantee rests on the gap of the whole m-round product, not on sigma^m alone."""

    @staticmethod
    def symmetric_schedule(n, k, seed):
        W = birkhoff_mixture(n, k, np.random.default_rng(seed))
        return gg.GossipSchedule.constant(gg.GossipMatrix(0.5 * (W + W.T)))

    @common
    @given(n=st.integers(2, 12), k=st.integers(1, 4), m=st.integers(1, 300), seed=seeds)
    def test_constant_product_gap_is_gap_to_the_m(self, n, k, m, seed):
        schedule = self.symmetric_schedule(n, k, seed)
        sigma = gg.spectral_gap(schedule.matrices[0])
        assert abs(gg.spectral_gap(np.linalg.matrix_power(schedule.matrices[0].weights, m)) - sigma**m) <= 1e-12

    @common
    @given(n=st.integers(2, 12), k=st.integers(1, 4), rho=st.floats(0.01, 0.99), seed=seeds)
    def test_derived_rounds_bring_the_product_below_sigma0(self, n, k, rho, seed):
        schedule = self.symmetric_schedule(n, k, seed)
        W = schedule.matrices[0].weights
        sigma = gg.spectral_gap(W)
        # A second eigenvalue of modulus 1 marks a disconnected or periodic
        # mixture: it never mixes, so no round count may be derived.
        if np.sort(np.abs(np.linalg.eigvalsh(W)))[-2] > 1 - 1e-9:
            assert sigma == 1.0
            with pytest.raises(ValueError):
                gg.comm_rounds(rho, sigma)
            return
        assume(sigma > 0)
        m = gg.comm_rounds(rho, sigma)
        assert gg.spectral_gap(np.linalg.matrix_power(schedule.matrices[0].weights, m)) <= gg.sigma0(rho)


class TestRoundRuleProperties:
    """AlgorithmParams accepts an m exactly where the paper's rule holds, however that m was chosen."""

    @common
    @given(
        rho=st.floats(0, 1, exclude_min=True, exclude_max=True),
        sigma=st.floats(0, 1, exclude_max=True),
        m=st.integers(1, 200),
    )
    @example(rho=0.5, sigma=0.7853, m=5)
    @example(rho=0.5, sigma=0.7853, m=6)
    @example(rho=0.5, sigma=0.0, m=1)
    @example(rho=5e-324, sigma=0.0, m=1)
    def test_params_construct_exactly_when_sigma_to_the_m_meets_sigma0(self, rho, sigma, m):
        # At the least denormal rho the threshold underflows to 0, so no round count is defined and every m is refused.
        if rho == np.nextafter(0.0, 1.0):
            with pytest.raises(ValueError, match="underflows"):
                gg.AlgorithmParams(1.0, rho, sigma, m)
            return
        try:
            gg.AlgorithmParams(1.0, rho, sigma, m)
        except ValueError as exc:
            assert sigma**m > gg.sigma0(rho), exc
            assert "need m >= " in str(exc)
        else:
            assert sigma**m <= gg.sigma0(rho)


class TestCirculantProperties:
    """A symmetric circulant's gap, from its Fourier spectrum, against LAPACK, and its power against numpy's."""

    @staticmethod
    def symmetric_row(n, rng):
        # Row 0 with row[l] == row[n - l]; about half of the distinct weights are zero.
        half = rng.random(n // 2 + 1) * (rng.random(n // 2 + 1) < 0.5)
        half[0] += rng.random()
        row = half[np.minimum(np.arange(n), n - np.arange(n))]
        return row / row.sum()

    @common
    @given(n=st.integers(1, 30), m=st.integers(2, 2000), seed=seeds)
    def test_power_and_gap_match_lapack(self, n, m, seed):
        circulant = circulant_matrix(self.symmetric_row(n, np.random.default_rng(seed)))
        W = np.array([np.roll(circulant.weights[0], i) for i in range(n)])
        assert np.array_equal(circulant.weights, W) and np.array_equal(W, W.T)
        assert np.isclose(gg.spectral_gap(circulant), lapack_gap(W), rtol=1e-12, atol=1e-15)
        # The spectral mixer (m >= 2) applied to the identity is its W^m, against numpy's binary powering.
        power = power_mixer(gg.GossipSchedule.constant(circulant), m)(0, np.eye(n))
        assert np.abs(power - np.linalg.matrix_power(W, m)).max() <= 1e-12


class TestCirculantMixerProperties:
    """The spectral mixer on symmetric circulants with a few lags, against a long-double spectral reference."""

    DENOMINATOR = 2**19  # weights are multiples of 2^-19, so each row sums to exactly 1 in either precision

    @common
    @given(
        n=st.integers(1, 64),
        lags=st.lists(st.tuples(st.integers(1, 63), st.integers(0, 2**16)), max_size=4),
        m=st.integers(2, 10**5),
        seed=seeds,
    )
    def test_mixer_matches_long_double_spectrum(self, n, lags, m, seed):
        counts = np.zeros(n, dtype=np.int64)
        for lag, count in lags:
            counts[lag % n] += count
            counts[-lag % n] += count
        counts[0] += self.DENOMINATOR - counts.sum()  # the self weight takes the rest; it may be zero
        row = counts / self.DENOMINATOR
        # lambda_k = sum_l row[l] cos(2 pi k l / n); W^m[i, j] = (1/n) sum_k lambda_k^m cos(2 pi k (i - j) / n).
        two_pi = 8 * np.arctan(np.longdouble(1))
        k = np.arange(n)
        cosines = np.cos(two_pi * (np.outer(k, k) % n) / n)  # (k * l) mod n keeps each angle in [0, 2 pi)
        column = cosines @ (cosines @ row.astype(np.longdouble)) ** m / n
        x = np.random.default_rng(seed).standard_normal((n, 2))
        exact = column[(k[:, None] - k[None, :]) % n] @ x.astype(np.longdouble)
        mixed = power_mixer(gg.GossipSchedule.constant(circulant_matrix(row)), m)(0, x)
        assert np.abs(mixed - exact).max() <= 1e-13


class TestRoundIndexProperties:
    """Index rows against ``reference_index``, the independently written-out draw: the first rows
    of a run's table, and ``matrix_at`` round by round far into a run, where a round alone names
    its matrix (constant and random schedules). ``matrix_at`` reads the same table code as the rows."""

    @common
    @given(
        kind=st.sampled_from(["constant", "cyclic", "random"]),
        count=st.integers(1, 4),
        rounds=st.integers(1, 12),
        first=st.integers(0, 10**6),
        seed=seeds,
    )
    def test_rows_equal_matrix_at(self, kind, count, rounds, first, seed):
        rng = np.random.default_rng(seed)
        matrices = [gg.GossipMatrix(birkhoff_mixture(4, 2, rng)) for _ in range(1 if kind == "constant" else count)]
        schedule = gg.GossipSchedule(kind, matrices, seed=seed)
        table = gg.round_table(schedule, 2, rounds)
        assert table.shape == (2, rounds) and table.dtype.kind == "i"
        for k, row in enumerate(table):
            for l in range(1, rounds + 1):
                assert row[l - 1] == reference_index(schedule, k, l, rounds)
                if kind != "cyclic":
                    assert schedule.matrices[row[l - 1]] is gg.matrix_at(schedule, k, l)
        if kind != "cyclic":
            for k in (first, first + 1):
                for l in range(1, rounds + 1):
                    assert gg.matrix_at(schedule, k, l) is schedule.matrices[reference_index(schedule, k, l, rounds)]


    @common
    @given(
        kind=st.sampled_from(["constant", "cyclic", "random"]),
        count=st.integers(1, 4),
        rounds=st.integers(1, 50),
        iterations=st.integers(0, 20),
        seed=seeds,
    )
    def test_table_stacks_the_rows(self, kind, count, rounds, iterations, seed):
        matrices = [gg.complete_matrix(2) for _ in range(1 if kind == "constant" else count)]
        schedule = gg.GossipSchedule(kind, matrices, seed=seed)
        table = gg.round_table(schedule, iterations, rounds)
        assert table.shape == (iterations, rounds) and table.dtype == np.intp
        # Row k of a table drawn for k + 1 iterations: the draw of a row does not depend on the table's length.
        rows = [gg.round_table(schedule, k + 1, rounds)[k].tolist() for k in range(iterations)]
        assert table.tolist() == rows


def reference_index(schedule, k, l, m):
    """The matrix index of round l of iteration k in a run of m rounds per iteration, written out per schedule kind."""
    if schedule.kind == "constant":
        return 0
    count = len(schedule.matrices)
    if schedule.kind == "cyclic":
        return (k * m + l - 1) % count
    digest = hashlib.blake2b(f"{schedule.seed}:{k}:{l}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % count


class TestNetsimProperties:
    """The message-passing path against the vectorized one on random time-varying schedules."""

    @common
    @given(
        n=st.integers(2, 12),
        count=st.integers(1, 3),
        k=st.integers(1, 4),
        m=st.integers(1, 8),
        iterations=st.integers(1, 4),
        seed=seeds,
    )
    def test_netsim_matches_vectorized_and_passes_the_audit(self, n, count, k, m, iterations, seed):
        rng = np.random.default_rng(seed)
        matrices = []
        for _ in range(count):
            W = birkhoff_mixture(n, k, rng)
            matrices.append(gg.GossipMatrix(0.5 * (W + W.T)))
        schedule = gg.GossipSchedule.random_choice(matrices, seed=seed)
        problem = gg.random_quadratic_problem(n, 3, 1.0, 3.0, seed)
        # Equivalence does not depend on the gap, so m is drawn freely; the
        # declared sigma only has to admit it.
        params = gg.AlgorithmParams.derive(0.5, 0.5, 1e-3, m_override=m)
        x0 = rng.standard_normal((n, 3))
        vec = gg.run_algorithm(problem, schedule, params, x0, iterations)
        net = gg.run_netsim(problem, schedule, params, x0, iterations)
        for key in ("x", "y", "v", "u"):
            assert np.abs(getattr(vec, key) - getattr(net, key)).max() <= 1e-12, key
        report = gg.locality_audit(net, schedule)
        assert report.passed
        assert report.message_count == report.expected_count

    @common
    @given(
        n=st.integers(2, 10),
        count=st.integers(1, 3),
        k=st.integers(1, 4),
        m=st.integers(1, 4),
        iterations=st.integers(1, 3),
        tamper=st.sampled_from(["drop", "repeat", "zero-weight", "self", "outside"]),
        seed=seeds,
    )
    def test_one_tampered_round_is_the_only_violation(self, n, count, k, m, iterations, tamper, seed):
        rng = np.random.default_rng(seed)
        matrices = [gg.GossipMatrix(birkhoff_mixture(n, k, rng)) for _ in range(count)]
        schedule = gg.GossipSchedule.random_choice(matrices, seed=seed)
        problem = gg.random_quadratic_problem(n, 2, 1.0, 3.0, seed)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 1e-3, m_override=m)
        net = gg.run_netsim(problem, schedule, params, rng.standard_normal((n, 2)), iterations)
        honest = gg.locality_audit(net, schedule)
        assert honest.passed and honest.message_count == honest.expected_count

        it, l = int(rng.integers(iterations)), int(rng.integers(1, m + 1))
        edges = net.edge_sets[net.edge_set_ids[it, l - 1]]
        links = gg.matrix_at(schedule, it, l).weights.T != 0.0  # links[s, r]: s sends to r
        if tamper == "drop":
            assume(len(edges) > 0)
            p = int(rng.integers(len(edges)))
            pair, reason, tampered = edges[p], "expected delivery missing", np.delete(edges, p, axis=0)
        else:
            if tamper == "repeat":
                assume(len(edges) > 0)
                pair, reason = edges[rng.integers(len(edges))], "duplicate delivery"
            elif tamper == "zero-weight":
                unlinked = np.argwhere(~links & ~np.eye(n, dtype=bool))
                assume(len(unlinked) > 0)
                pair, reason = unlinked[rng.integers(len(unlinked))], "delivery across a zero-weight link"
            elif tamper == "self":
                pair, reason = np.full(2, rng.integers(n)), "self-delivery"
            else:
                pair = rng.integers(n, size=2)
                pair[rng.integers(2)] = rng.choice([-n, -1, n, 2 * n])
                reason = "delivery outside the run"
            tampered = np.insert(edges, rng.integers(len(edges) + 1), pair, axis=0)

        ids = net.edge_set_ids.copy()
        ids[it, l - 1] = len(net.edge_sets)
        report = gg.locality_audit(replace(net, edge_set_ids=ids, edge_sets=net.edge_sets + (tampered,)), schedule)
        assert not report.passed
        assert report.violations == (((it, l, *pair.tolist()), reason),)
        assert report.message_count - report.expected_count == len(tampered) - len(edges)


def per_round_audit(trace, schedule):
    """The locality audit written out round by round: (passed, violations, message count, expected count)."""
    n, m = schedule.n, trace.params.m
    flagged, missing, messages, expected = [], [], 0, 0
    table = gg.round_table(schedule, trace.iterations, m)
    for k in range(trace.iterations):
        for l, index in enumerate(table[k].tolist(), start=1):
            W = schedule.matrices[index].weights
            edges = trace.edge_sets[trace.edge_set_ids[k, l - 1]].tolist()
            messages += len(edges)
            seen = set()
            for s, r in edges:
                if not (0 <= s < n and 0 <= r < n):
                    reason = "delivery outside the run"
                elif s == r:
                    reason = "self-delivery"
                elif W[r, s] == 0.0:
                    reason = "delivery across a zero-weight link"
                elif (s, r) in seen:
                    reason = "duplicate delivery"
                else:
                    reason = None
                if 0 <= s < n and 0 <= r < n:
                    seen.add((s, r))
                if reason:
                    flagged.append(((k, l, s, r), reason))
            for r in range(n):
                for s in range(n):
                    if s != r and W[r, s] != 0.0:
                        expected += 1
                        if (s, r) not in seen:
                            missing.append(((k, l, s, r), "expected delivery missing"))
    violations = tuple(flagged + missing)
    return not violations, violations, messages, expected


class TestAuditProperties:
    """The locality audit, judged once per distinct (matrix, edge set) pair, against ``per_round_audit``."""

    @common
    @given(
        n=st.integers(2, 8),
        count=st.integers(1, 3),
        listed_twice=st.booleans(),
        kind=st.sampled_from(["cyclic", "random"]),
        m=st.integers(1, 5),
        iterations=st.integers(1, 4),
        tamper=st.sampled_from(["none", "delete", "self", "duplicate", "outside", "reorder"]),
        seed=seeds,
    )
    def test_matches_per_round_audit(self, n, count, listed_twice, kind, m, iterations, tamper, seed):
        rng = np.random.default_rng(seed)
        matrices = [gg.GossipMatrix(birkhoff_mixture(n, int(rng.integers(1, 4)), rng)) for _ in range(count)]
        if listed_twice:
            matrices.append(matrices[0])
        schedule = gg.GossipSchedule(kind, matrices, seed=seed)
        problem = gg.random_quadratic_problem(n, 2, 1.0, 3.0, seed)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 1e-3, m_override=m)
        net = gg.run_netsim(problem, schedule, params, rng.standard_normal((n, 2)), iterations)
        # One edge set per listed matrix, named by the schedule's own index; a matrix listed twice shares one plan.
        assert len(net.edge_sets) == len(matrices)
        assert np.array_equal(net.edge_set_ids, gg.round_table(schedule, iterations, m))

        # The tampered copy of one edge set replaces the delivered set in about half of the rounds.
        edges = net.edge_sets[rng.integers(len(net.edge_sets))]
        if tamper == "delete":
            assume(len(edges) > 0)
            edges = np.delete(edges, rng.integers(len(edges)), axis=0)
        elif tamper == "self":
            edges = np.vstack([edges, np.full((1, 2), rng.integers(n), dtype=np.int32)])
        elif tamper == "duplicate":
            assume(len(edges) > 0)
            edges = np.vstack([edges, edges[rng.integers(len(edges))][None]])
        elif tamper == "outside":
            edges = np.vstack([edges, np.array([[rng.choice([-1, n]), rng.integers(n)]], dtype=np.int32)])
        elif tamper == "reorder":
            edges = edges[rng.permutation(len(edges))]
        ids = net.edge_set_ids.copy()
        ids[rng.random(ids.shape) < 0.5] = len(net.edge_sets)
        tampered = replace(net, edge_set_ids=ids, edge_sets=net.edge_sets + (edges,))

        for trace in (net, tampered):
            report = gg.locality_audit(trace, schedule)
            got = (report.passed, report.violations, report.message_count, report.expected_count)
            assert got == per_round_audit(trace, schedule)
            # The one-comparison acceptance changes no report: judging every pair row by row gives the same one.
            with mock.patch.object(netsim, "_verdict", netsim._judge):
                assert gg.locality_audit(trace, schedule) == report
        assert gg.locality_audit(net, schedule).passed


def assert_rows_match_views(family, X):
    # Bit for bit: the message-passing path takes one family call per
    # iteration where agent i alone would call its view.
    batched = family.gradient(X)
    assert batched.shape == X.shape
    for i in range(family.n):
        assert np.array_equal(batched[i], family.agent(i).gradient(X[i])), i
    assert family.gradient_calls.tolist() == [2] * family.n


class TestFamilyRows:
    @common
    @given(n=st.integers(1, 128), d=st.integers(1, 12), shared=st.booleans(), seed=seeds)
    def test_quadratic_rows_match_agent_views(self, n, d, shared, seed):
        family = gg.random_quadratic_problem(n, d, 1.0, 4.0, seed, shared_hessian=shared)
        assert family.A.ndim == (2 if shared else 3)
        family.gradient_calls[:] = 0  # the problem's optimizer check evaluated once
        X = 3.0 * np.random.default_rng(seed).standard_normal((n, d))
        assert_rows_match_views(family, X)

    @common
    @given(n=st.integers(1, 8), seed=seeds)
    def test_range_residual_rows_match_agent_views(self, n, seed):
        rng = np.random.default_rng(seed)
        anchors = rng.uniform(-2.0, 2.0, size=(n, 2))
        family = gg.RangeResidualObjective(anchors, rng.uniform(0.1, 3.0, size=n))
        # Points at distance 0.05 to 3 from their own anchor.
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radii = rng.uniform(0.05, 3.0, size=n)
        X = anchors + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        assert_rows_match_views(family, X)


class TestStackedCertificate:
    """The certificate over whole (K, n, d) stacks against the formula applied one iteration at a time."""

    @common
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 5),
        iterations=st.integers(0, 6),
        lam=st.floats(0.01, 0.99),
        rho=st.floats(0.05, 0.95),
        seed=seeds,
    )
    @example(n=1, d=1, iterations=0, lam=0.5, rho=0.5, seed=0)  # empty v and u stacks
    @example(n=1, d=4, iterations=3, lam=0.9, rho=0.3, seed=1)
    def test_matches_per_iteration_formula(self, n, d, iterations, lam, rho, seed):
        rng = np.random.default_rng(seed)
        K = iterations
        trace = gg.RunTrace(
            x=rng.standard_normal((K + 1, n, d)),
            y=rng.standard_normal((K + 1, n, d)),
            v=rng.standard_normal((K, n, d)),
            u=rng.standard_normal((K, n, d)),
            params=None,
            gradient_evaluations=0,
        )
        fp = gg.FixedPoint(
            xstar=rng.standard_normal(d), ystar=rng.standard_normal((n, d)), ustar=rng.standard_normal((n, d))
        )
        params = SimpleNamespace(rho=rho, lam=lam)

        dis, s0_sq = (lambda z: z - z.mean(axis=0)), gg.sigma0(rho) ** 2
        records = gg.lyapunov_trace(trace, fp, params)
        values = [gg.lyapunov(trace.x[k] - fp.xstar, trace.y[k] - fp.ystar, lam) for k in range(K + 1)]
        for k in range(K + 1):
            # The 2-D energy against its formula written out with plain sums.
            xb, yb = trace.x[k] - fp.xstar, trace.y[k] - fp.ystar
            dx, dy = dis(xb), dis(yb)
            squares = (n * np.sum(xb.mean(axis=0) ** 2), np.sum(dx**2), 2 * lam * np.sum(dx * dy), lam * np.sum(dy**2))
            assert abs(values[k] - sum(squares)) <= 1e-12 * sum(map(abs, squares)), k
        assert [r.k for r in records] == list(range(K + 1))
        assert np.allclose([r.value for r in records], values, rtol=1e-12, atol=0)
        assert records[0].delta is None and not records[0].exceeds_tolerance
        # The floor's scale term: the energy of the fixed point (x*, y*) itself, measured from 0.
        fixed_energy = gg.lyapunov(np.tile(fp.xstar, (n, 1)), fp.ystar, lam)
        for k in range(1, K + 1):
            delta = values[k] - rho**2 * values[k - 1]
            assert abs(records[k].delta - delta) <= 1e-12 * (values[k] + rho**2 * values[k - 1])
            floor = DECREASE_FLOOR * (values[0] + np.finfo(float).eps * fixed_energy)
            slack = DECREASE_RELATIVE * values[k - 1] + floor
            assert records[k].exceeds_tolerance == (delta > slack)

        terms = gg.decrease_terms(trace, fp, params)
        assert terms.shape == (K, 3)
        for k in range(K):
            xb, yb = trace.x[k] - fp.xstar, trace.y[k] - fp.ystar
            vb, ub = trace.v[k] - fp.xstar, trace.u[k] - fp.ustar
            # Each term against the scale of the squares it combines.
            parts = [
                (rho**2 * np.sum(vb**2), np.sum(ub**2)),
                (s0_sq * np.sum(dis(xb) ** 2), np.sum(dis(vb) ** 2)),
                (np.sum(dis(vb + lam * (xb + yb)) ** 2), 0.0),
            ]
            for j, (plus, minus) in enumerate(parts):
                assert abs(terms[k, j] - (plus - minus)) <= 1e-12 * (plus + minus), (k, j)
