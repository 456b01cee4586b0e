import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import gossipgrad as gg
from gossipgrad import netsim
from gossipgrad.errors import ConfigError
from gossipgrad.netsim import round_plan


class TestEquivalence:
    def test_full_corpus_matches_vectorized_path(self, corpus):
        for run in corpus:
            assert np.abs(run.trace.x - run.net_trace.x).max() <= 1e-12, run.name
            assert np.abs(run.trace.y - run.net_trace.y).max() <= 1e-12, run.name
            assert np.abs(run.trace.v - run.net_trace.v).max() <= 1e-12, run.name
            assert np.abs(run.trace.u - run.net_trace.u).max() <= 1e-12, run.name

    def test_single_agent_sends_nothing(self):
        problem = gg.QuadraticObjective(np.diag([2.0]), [[1.0]])
        schedule = gg.GossipSchedule.constant(gg.GossipMatrix([[1.0]]))
        params = gg.AlgorithmParams.derive(0.3, 0.4, 0.5)
        trace = gg.run_netsim(problem, schedule, params, np.array([[4.0]]), 30)
        assert len(trace.deliveries) == 0
        central = gg.centralized_gd(problem, 0.3, np.array([4.0]), 30)
        assert np.abs(trace.x[:, 0, :] - central).max() <= 1e-12

    def test_deterministic_replay(self, pair, pair_sigma):
        problem = gg.random_quadratic_problem(5, 3, 1.0, 2.0, seed=8)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=19)
        params = gg.AlgorithmParams.derive(0.6, 0.4, pair_sigma)
        x0 = np.random.default_rng(9).standard_normal((5, 3))
        a = gg.run_netsim(problem, schedule, params, x0, 15)
        b = gg.run_netsim(problem, schedule, params, x0, 15)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.deliveries, b.deliveries)

    def test_large_m_ring_matches_vectorized(self):
        n = 40
        ring = gg.ring_matrix(n)
        problem = gg.random_quadratic_problem(n, 3, 1.0, 3.0, seed=21)
        schedule = gg.GossipSchedule.constant(ring)
        params = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring))
        assert params.m == 164
        x0 = np.random.default_rng(6).standard_normal((n, 3))
        vec = gg.run_algorithm(problem, schedule, params, x0, 4)
        net = gg.run_netsim(problem, schedule, params, x0, 4)
        for key in ("x", "y", "v", "u"):
            assert np.abs(getattr(vec, key) - getattr(net, key)).max() <= 1e-12, key
        report = gg.locality_audit(net, schedule)
        assert report.passed
        assert report.message_count == report.expected_count == 4 * 164 * 2 * n == 52480

    def test_large_m_cyclic_rings_match_vectorized(self):
        # Two 40-agent rings, the second over a seeded agent order, share one
        # spectrum; cycled at the paper's m = 164 they exercise the per-round
        # mixer (not W^m) over 656 rounds.
        n = 40
        ring = gg.ring_matrix(n)
        order = np.random.default_rng(12).permutation(n)
        rings = [ring, gg.GossipMatrix(ring.weights[np.ix_(order, order)])]
        schedule = gg.GossipSchedule.cyclic(rings)
        problem = gg.random_quadratic_problem(n, 5, 1.0, 3.0, seed=23)
        params = gg.AlgorithmParams.derive(0.5, 0.5, max(gg.spectral_gap(W) for W in rings))
        assert params.m == 164
        x0 = np.random.default_rng(7).standard_normal((n, 5))
        vec = gg.run_algorithm(problem, schedule, params, x0, 4)
        net = gg.run_netsim(problem, schedule, params, x0, 4)
        for key in ("x", "y", "v", "u"):
            assert np.abs(getattr(vec, key) - getattr(net, key)).max() <= 1e-12, key
        report = gg.locality_audit(net, schedule)
        assert report.passed
        assert report.message_count == report.expected_count == 4 * 164 * 2 * n == 52480
        assert len(net.edge_sets) == 2

    def test_ring_400_at_its_derived_m_matches_vectorized(self):
        n = 400
        ring = gg.ring_matrix(n)
        problem = gg.random_quadratic_problem(n, 1, 1.0, 3.0, seed=4)
        schedule = gg.GossipSchedule.constant(ring)
        params = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring))
        assert params.m == 16434
        x0 = np.random.default_rng(5).standard_normal((n, 1))
        vec = gg.run_algorithm(problem, schedule, params, x0, 1)
        tracemalloc.start()
        try:
            net = gg.run_netsim(problem, schedule, params, x0, 1)
            report = gg.locality_audit(net, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for key in ("x", "y", "v", "u"):
            assert np.abs(getattr(vec, key) - getattr(net, key)).max() <= 1e-12, key
        assert report.passed
        assert report.message_count == report.expected_count == params.m * 2 * n == 13_147_200
        # One int32 id per round plus the ring's single edge set: 72,136 bytes
        # stored for 13.1 M messages, which expand to 210 MB. The run and the
        # audit of the compact ledger stay within a few MB.
        assert net.edge_set_ids.nbytes == 4 * params.m and len(net.edge_sets) == 1
        assert net.edge_set_ids.nbytes + net.edge_sets[0].nbytes == 72_136
        assert peak < 8 * 2**20

    def test_plans_share_one_inbox(self):
        # Six matrices with rows about 45 wide: one (width, n, d) inbox per plan would add five more inboxes.
        rng = np.random.default_rng(4)
        n, d = 100, 10
        matrices = [metropolis_matrix(n, 0.3, rng) for _ in range(6)]
        schedule = gg.GossipSchedule.random_choice(matrices, seed=4)
        problem = gg.random_quadratic_problem(n, d, 1.0, 3.0, seed=4)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.01, m_override=2)
        x0 = rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            net = gg.run_netsim(problem, schedule, params, x0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net.edge_sets) == 6
        plans = [round_plan(W.weights, d) for W in matrices]
        inbox = 8 * max(len(plan.sources) for plan in plans) * n * d
        # The trace block and edge sets the run returns, the plans' tables, and one inbox with half another to spare.
        kept = 8 * (4 * 4 + 2) * n * d + sum(edges.nbytes for edges in net.edge_sets)
        assert peak < kept + sum(plan.sources.nbytes + plan.weights.nbytes for plan in plans) + 1.5 * inbox

    @pytest.mark.parametrize("mode", ["vectorized", "netsim"])
    @pytest.mark.parametrize("iterations", [0, 3])
    @pytest.mark.parametrize("problem_n", [4, 5], ids=["problem-vs-schedule", "x0-vs-problem"])
    def test_agent_count_mismatch(self, pair, mode, iterations, problem_n):
        # Four rows of x0 over the 5-agent pair, with a problem of 4 or 5 agents:
        # both runners reject it before the loop, also when there is no iteration.
        problem = gg.random_quadratic_problem(problem_n, 2, 1.0, 2.0, seed=0)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(1.0, 0.5, 0.73)
        runner = gg.run_netsim if mode == "netsim" else gg.run_algorithm
        with pytest.raises(ConfigError, match="agent count mismatch"):
            runner(problem, schedule, params, np.zeros((4, 2)), iterations)


class TestLocalityAudit:
    def test_compliant_run_passes_with_exact_message_count(self, pair, pair_sigma):
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=10)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=5)
        params = gg.AlgorithmParams.derive(0.5, 0.5, pair_sigma)
        K = 12
        trace = gg.run_netsim(problem, schedule, params, np.zeros((5, 2)), K)
        report = gg.locality_audit(trace, schedule)
        assert report.passed
        expected = 0
        for k in range(K):
            for l in range(1, params.m + 1):
                W = gg.matrix_at(schedule, k, l).weights
                expected += int(np.count_nonzero(W)) - int(np.count_nonzero(np.diag(W)))
        assert report.message_count == expected
        assert report.expected_count == expected

    def test_matrix_listed_twice_shares_one_edge_set(self, pair, pair_sigma):
        W1, W2 = pair
        schedule = gg.GossipSchedule.random_choice([W1, W2, W1], seed=3)
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=10)
        params = gg.AlgorithmParams.derive(0.5, 0.5, pair_sigma)
        x0 = np.random.default_rng(2).standard_normal((5, 2))
        K = 12
        trace = gg.run_netsim(problem, schedule, params, x0, K)
        rows = gg.round_table(schedule, K, params.m)
        assert set(rows.ravel().tolist()) == {0, 1, 2}
        # The ids are the schedule's own matrix indices; both listings of W1 share its one plan's edges.
        assert trace.edge_set_ids.dtype == np.int32 and np.array_equal(trace.edge_set_ids, rows)
        assert len(trace.edge_sets) == 3 and trace.edge_sets[0] is trace.edge_sets[2]
        assert trace.edge_sets[1] is not trace.edge_sets[0]
        report = gg.locality_audit(trace, schedule)
        assert report.passed
        assert report.message_count == report.expected_count == len(trace.deliveries)
        vectorized = gg.run_algorithm(problem, schedule, params, x0, K)
        assert np.abs(trace.x - vectorized.x).max() <= 1e-12

    def test_builtin_pair_off_diagonal_counts(self, pair):
        counts = []
        for W in pair:
            counts.append(int(np.count_nonzero(W.weights)) - int(np.count_nonzero(np.diag(W.weights))))
        assert counts == [12, 11]

    def test_forced_extra_delivery_fails(self, pair):
        trace, schedule = pair_run(pair)
        # Sender 1 -> receiver 3 is a zero-weight link in the first matrix.
        edges = trace.edge_sets[0]
        report = gg.locality_audit(with_round(trace, 1, 2, np.vstack([edges, [[1, 3]]])), schedule)
        assert not report.passed
        assert report.violations == (((1, 2, 1, 3), "delivery across a zero-weight link"),)
        assert report.message_count == report.expected_count + 1 == 121

    def test_complete_graph_message_count(self):
        n = 5
        problem = gg.random_quadratic_problem(n, 2, 1.0, 3.0, seed=3)
        schedule = gg.GossipSchedule.constant(gg.complete_matrix(n))
        params = gg.AlgorithmParams.derive(0.5, 0.5, sigma=0.01)
        assert params.m == 1
        trace = gg.run_netsim(problem, schedule, params, np.zeros((n, 2)), 3)
        report = gg.locality_audit(trace, schedule)
        assert report.passed
        assert report.message_count == 3 * n * (n - 1)

    def test_edited_ledger_is_caught(self, pair):
        trace, schedule = pair_run(pair)
        ledger = trace.deliveries
        assert ledger.dtype == np.int32 and ledger.shape == (2 * trace.params.m * 12, 4)
        edges = trace.edge_sets[trace.edge_set_ids[0, 0]]

        dropped = with_round(trace, 0, 1, np.delete(edges, 3, axis=0))
        assert np.array_equal(dropped.deliveries, np.delete(ledger, 3, axis=0))
        report = gg.locality_audit(dropped, schedule)
        assert not report.passed
        assert report.violations == ((tuple(ledger[3].tolist()), "expected delivery missing"),)

        looped = gg.locality_audit(with_round(trace, 1, 2, np.vstack([edges, [[4, 4]]])), schedule)
        assert not looped.passed
        assert looped.violations == (((1, 2, 4, 4), "self-delivery"),)

    def test_ledger_row_outside_the_run_is_a_violation(self, pair):
        trace, schedule = pair_run(pair)
        stray = [[1, 5], [5, 0], [7, 9]]
        report = gg.locality_audit(with_round(trace, 0, 1, np.vstack([trace.edge_sets[0], stray])), schedule)
        assert not report.passed
        assert report.violations == tuple(((0, 1, s, r), "delivery outside the run") for s, r in stray)
        assert report.message_count == report.expected_count + 3

    def test_malformed_ledger_is_rejected(self, pair):
        trace, schedule = pair_run(pair)
        iterations, m = trace.edge_set_ids.shape
        for shape in ((iterations + 1, m), (iterations, m - 1), (iterations * m,)):
            ids = np.zeros(shape, dtype=np.int32)
            with pytest.raises(ConfigError, match="shape"):
                gg.locality_audit(replace(trace, edge_set_ids=ids), schedule)
        for bad_id in (len(trace.edge_sets), -1):
            ids = trace.edge_set_ids.copy()
            ids[1, 2] = bad_id
            with pytest.raises(ConfigError, match="edge sets 0..0"):
                gg.locality_audit(replace(trace, edge_set_ids=ids), schedule)
        # A float row would be truncated onto a real link, or read as a self-delivery.
        for edges in (np.zeros((3, 3), dtype=np.int32), np.zeros(4, dtype=np.int32), np.full((2, 2), 0.5)):
            with pytest.raises(ConfigError, match="edge set"):
                gg.locality_audit(replace(trace, edge_sets=(edges,)), schedule)

    def test_conforming_audit_judges_no_pair(self, pair, pair_sigma, monkeypatch):
        # Each honest edge set is its matrix's links in delivery order, so one comparison accepts it.
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=10)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=5)
        params = gg.AlgorithmParams.derive(0.5, 0.5, pair_sigma)
        trace = gg.run_netsim(problem, schedule, params, np.zeros((5, 2)), 12)
        calls = []
        judge = netsim._judge

        def counted(W, edges):
            calls.append(len(edges))
            return judge(W, edges)

        monkeypatch.setattr(netsim, "_judge", counted)
        report = gg.locality_audit(trace, schedule)
        assert calls == [] and report.passed
        assert report.message_count == report.expected_count == len(trace.deliveries)
        # Judged row by row instead, each of the two pairs once: the same report.
        monkeypatch.setattr(netsim, "_verdict", counted)
        assert gg.locality_audit(trace, schedule) == report
        assert calls == [12, 11]

    def test_links_in_another_order_pass(self, pair, monkeypatch):
        trace, schedule = pair_run(pair)
        honest = gg.locality_audit(trace, schedule)
        calls = []
        judge = netsim._judge
        monkeypatch.setattr(netsim, "_judge", lambda W, edges: calls.append(1) or judge(W, edges))
        reversed_sets = tuple(edges[::-1] for edges in trace.edge_sets)
        assert gg.locality_audit(replace(trace, edge_sets=reversed_sets), schedule) == honest
        assert honest.passed and calls == [1]

    def test_vectorized_trace_has_no_ledger(self, corpus):
        with pytest.raises(ConfigError):
            gg.locality_audit(corpus[0].trace, corpus[0].schedule)


def pair_run(pair):
    """Two netsim iterations on the first built-in matrix (m = 5, 120 messages), and that schedule."""
    problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=10)
    schedule = gg.GossipSchedule.constant(pair[0])
    params = gg.AlgorithmParams.derive(0.5, 0.5, 0.73)
    return gg.run_netsim(problem, schedule, params, np.zeros((5, 2)), 2), schedule


def with_round(trace, iteration, round_index, edges):
    """A copy of a compact trace whose round (iteration, round_index) delivers ``edges`` instead."""
    ids = trace.edge_set_ids.copy()
    ids[iteration, round_index - 1] = len(trace.edge_sets)
    edge_sets = trace.edge_sets + (np.asarray(edges, dtype=np.int32),)
    return replace(trace, edge_set_ids=ids, edge_sets=edge_sets)


class TestLedgerForms:
    """The compact ledger is what the run stores and the audit reads; ``deliveries`` only expands it."""

    def test_corpus(self, corpus):
        for run in corpus:
            trace = run.net_trace
            report = gg.locality_audit(trace, run.schedule)
            assert report.passed, run.name
            assert report.message_count == report.expected_count == len(trace.deliveries), run.name
        with pytest.raises(AttributeError):
            trace.deliveries = trace.deliveries
        with pytest.raises(TypeError):
            replace(trace, deliveries=trace.deliveries)

    def test_extra_edges_run(self, pair):
        trace, schedule = pair_run(pair)
        # Every round of the run delivers its edges plus two across zero-weight links.
        extra = [[1, 3], [4, 2]]
        tampered = replace(trace, edge_sets=(np.vstack([trace.edge_sets[0], extra]),))
        report = gg.locality_audit(tampered, schedule)
        assert [row for row, _ in report.violations] == [
            (k, l, s, r) for k in range(2) for l in range(1, trace.params.m + 1) for s, r in extra
        ]
        assert {reason for _, reason in report.violations} == {"delivery across a zero-weight link"}

    def test_edited_ledgers(self, pair):
        trace, schedule = pair_run(pair)
        edges = trace.edge_sets[0]
        # Round (1, 3) loses three links and gains, out of order, one row of
        # each flagged kind; round (0, 2) loses one link. Flagged rows come
        # first, in ledger order, then the missing links in round order.
        late = np.vstack([[[2, 2]], edges[2:5], [[2, 1], [1, 3], [0, 8]], edges[6:]])
        early = np.delete(edges, 0, axis=0)
        report = gg.locality_audit(with_round(with_round(trace, 1, 3, late), 0, 2, early), schedule)
        assert report.violations == (
            ((1, 3, 2, 2), "self-delivery"),
            ((1, 3, 2, 1), "duplicate delivery"),
            ((1, 3, 1, 3), "delivery across a zero-weight link"),
            ((1, 3, 0, 8), "delivery outside the run"),
            ((0, 2, 1, 0), "expected delivery missing"),
            ((1, 3, 1, 0), "expected delivery missing"),
            ((1, 3, 2, 0), "expected delivery missing"),
            ((1, 3, 3, 1), "expected delivery missing"),
        )

    def test_ring_100_at_its_derived_m_keeps_a_small_ledger(self):
        n, iterations = 100, 2
        ring = gg.ring_matrix(n)
        schedule = gg.GossipSchedule.constant(ring)
        params = gg.AlgorithmParams.derive(0.5, 0.5, gg.spectral_gap(ring))
        assert params.m == 1027
        problem = gg.random_quadratic_problem(n, 2, 1.0, 3.0, seed=3)
        x0 = np.random.default_rng(2).standard_normal((n, 2))
        trace = gg.run_netsim(problem, schedule, params, x0, iterations)
        rounds, per_round = iterations * params.m, 2 * n

        report = gg.locality_audit(trace, schedule)
        assert report.passed
        assert report.message_count == report.expected_count == rounds * per_round
        stored = trace.edge_set_ids.nbytes + sum(edges.nbytes for edges in trace.edge_sets)
        assert stored < 64 * 1024

        ledger = trace.deliveries
        assert ledger.dtype == np.int32 and ledger.shape == (rounds * per_round, 4)
        round_of_row = ledger[:, 0].astype(np.int64) * params.m + ledger[:, 1] - 1
        assert np.array_equal(round_of_row, np.repeat(np.arange(rounds), per_round))


def sequential_reference(problem, schedule, params, x0, iterations):
    """Message passing written out per agent, independent of the runner's round plans.

    Every round each agent copies out its value, then folds its row in
    ascending sender order: its own value at its own index, the copy sent by
    j elsewhere, ``total += w * value``. Returns the stacked x, y, v and u.
    """
    n, d = x0.shape
    views = [problem.agent(i) for i in range(n)]
    x, y = [row.copy() for row in x0], [np.zeros(d) for _ in range(n)]
    xs, ys, vs, us = [np.array(x)], [np.array(y)], [], []
    table = gg.round_table(schedule, iterations, params.m)
    for k in range(iterations):
        v = [xi.copy() for xi in x]
        row = table[k]
        for round_index in range(1, params.m + 1):
            W = schedule.matrices[row[round_index - 1]].weights
            sent = [vi.copy() for vi in v]
            folded = []
            for i in range(n):
                total = np.zeros(d)
                for j in np.flatnonzero(W[i]):
                    total += W[i, j] * (v[i] if j == i else sent[j])
                folded.append(total)
            v = folded
        u = [v[i] - params.alpha * views[i].gradient(v[i]) for i in range(n)]
        y = [y[i] + x[i] - v[i] for i in range(n)]
        x = [u[i] - params.lam * y[i] for i in range(n)]
        for states, value in ((xs, x), (ys, y), (vs, v), (us, u)):
            states.append(np.array(value))
    return {"x": np.array(xs), "y": np.array(ys), "v": np.array(vs), "u": np.array(us)}


def metropolis_matrix(n, p, rng):
    """Metropolis weights of a connected Erdos-Renyi graph: symmetric and doubly stochastic."""
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1)
        adjacency = upper | upper.T
        degree = adjacency.sum(axis=1)
        W = np.where(adjacency, 1.0 / (1.0 + np.maximum(degree[:, None], degree[None, :])), 0.0)
        W[np.diag_indices(n)] = 1.0 - W.sum(axis=1)
        if gg.spectral_gap(W) < 1.0:
            return gg.GossipMatrix(W)


def random_mixtures(n, count, rng, signed=False):
    """``count`` random combinations of 1-3 permutation matrices with weights summing to 1: doubly stochastic.

    The weights are convex, or with ``signed`` one negative weight and one or
    two positive ones.
    """
    matrices = []
    for _ in range(count):
        W = np.zeros((n, n))
        if signed:
            negative = rng.random()
            weights = np.append(-negative, (1.0 + negative) * rng.dirichlet(np.ones(rng.integers(1, 3))))
        else:
            weights = rng.dirichlet(np.ones(rng.integers(1, 4)))
        for w in weights:
            W[np.arange(n), rng.permutation(n)] += w
        matrices.append(gg.GossipMatrix(W))
    return matrices


class TestProtocol:
    def test_duplicate_of_an_existing_link_is_rejected(self, pair):
        trace, schedule = pair_run(pair)
        # Row 0 of the first matrix already takes a message from sender 1.
        edges = np.vstack([trace.edge_sets[0], [[1, 0]]])
        report = gg.locality_audit(with_round(trace, 0, 1, edges), schedule)
        assert not report.passed
        assert report.violations == (((0, 1, 1, 0), "duplicate delivery"),)
        assert (report.message_count, report.expected_count) == (121, 120)

    def test_extra_edge_listed_twice_is_rejected(self, pair):
        trace, schedule = pair_run(pair)
        # Both copies of a zero-weight link read as such; a link's third copy is a second duplicate.
        edges = np.vstack([trace.edge_sets[0], [[1, 3], [2, 4], [1, 3], [0, 4], [0, 4]]])
        report = gg.locality_audit(with_round(trace, 1, 5, edges), schedule)
        assert report.violations == (
            ((1, 5, 1, 3), "delivery across a zero-weight link"),
            ((1, 5, 2, 4), "delivery across a zero-weight link"),
            ((1, 5, 1, 3), "delivery across a zero-weight link"),
            ((1, 5, 0, 4), "duplicate delivery"),
            ((1, 5, 0, 4), "duplicate delivery"),
        )

    def test_extra_edge_outside_the_agents_is_rejected(self, pair):
        trace, schedule = pair_run(pair)
        # A negative agent must not be read as agent n - 1 (4 -> 2 is a zero-weight link).
        for edge in ((-1, 2), (0, -5), (5, 0)):
            edges = np.vstack([trace.edge_sets[0], [edge]])
            report = gg.locality_audit(with_round(trace, 1, 1, edges), schedule)
            assert report.violations == (((1, 1, *edge), "delivery outside the run"),)


class TestMixerContract:
    def test_netsim_mixer_writes_the_ledger_before_the_first_round(self, pair, pair_sigma):
        problem = gg.random_quadratic_problem(5, 3, 1.0, 2.0, seed=8)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=19)
        params = gg.AlgorithmParams.derive(0.6, 0.4, pair_sigma)
        x0 = np.random.default_rng(9).standard_normal((5, 3))
        K = 15
        trace = gg.RunTrace.start(x0, None, K, params)
        mix = netsim.netsim_mixer(schedule, params.m, trace)
        # Written by building the mixer, before any round runs.
        assert trace.edge_set_ids.dtype == np.int32 and trace.edge_set_ids.shape == (K, params.m)
        ran = gg.run_netsim(problem, schedule, params, x0, K)
        assert np.array_equal(trace.edge_set_ids, ran.edge_set_ids)
        assert len(trace.edge_sets) == len(ran.edge_sets) == 2
        assert all(np.array_equal(built, got) for built, got in zip(trace.edge_sets, ran.edge_sets))
        assert np.array_equal(mix(0, trace.x[0]), ran.v[0])


class TestPlanReuse:
    """A matrix's round plan at a given d is built once and kept while the matrix lives."""

    def test_runs_over_one_schedule_plan_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        n = 20
        matrices = [metropolis_matrix(n, 0.3, rng) for _ in range(3)]
        schedule = gg.GossipSchedule.random_choice(matrices, seed=8)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.01, m_override=2)
        built = []
        plan = netsim.round_plan

        def counted(W, d):
            built.append(d)
            return plan(W, d)

        monkeypatch.setattr(netsim, "round_plan", counted)
        problem = gg.random_quadratic_problem(n, 3, 1.0, 3.0, seed=8)
        x0 = rng.standard_normal((n, 3))
        first, second = (gg.run_netsim(problem, schedule, params, x0, 6) for _ in range(2))
        assert len(first.edge_sets) == 3 and built == [3, 3, 3]
        for key in ("x", "y", "v", "u", "edge_set_ids"):
            assert np.array_equal(getattr(first, key), getattr(second, key)), key
        assert all(a is b for a, b in zip(first.edge_sets, second.edge_sets))
        # Another d is another plan for each matrix.
        wide = gg.random_quadratic_problem(n, 5, 1.0, 3.0, seed=8)
        gg.run_netsim(wide, schedule, params, rng.standard_normal((n, 5)), 6)
        assert built == [3, 3, 3, 5, 5, 5]

    def test_collected_matrix_leaves_no_plan(self):
        matrix = metropolis_matrix(10, 0.5, np.random.default_rng(3))
        schedule = gg.GossipSchedule.constant(matrix)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.01, m_override=2)
        problem = gg.random_quadratic_problem(10, 2, 1.0, 3.0, seed=3)
        trace = gg.run_netsim(problem, schedule, params, np.ones((10, 2)), 2)
        assert matrix in netsim._plans
        kept, alive = len(netsim._plans), weakref.ref(matrix)
        del matrix, schedule
        gc.collect()
        assert alive() is None and len(netsim._plans) < kept
        assert len(trace.edge_sets) == 1  # the trace keeps its edges

    def test_trace_edge_sets_are_read_only(self, pair):
        trace, _ = pair_run(pair)
        with pytest.raises(ValueError, match="read-only"):
            trace.edge_sets[0][0, 0] = 1
        plan = round_plan(pair[0].weights, 2)
        assert not any(table.flags.writeable for table in (plan.edges, plan.sources, plan.weights))


class TestRoundPlan:
    """Locality holds by construction: a plan reads another agent only across an edge it delivers."""

    def test_slots_read_only_delivered_edges(self, pair):
        rng = np.random.default_rng(12)
        mixtures = random_mixtures(7, 3, rng) + random_mixtures(7, 3, rng, signed=True)
        for W in [*pair, gg.ring_matrix(100), *mixtures]:
            weights, n, d = W.weights, W.n, 3
            plan = round_plan(weights, d)
            links = [(j, i) for i in range(n) for j in range(n) if j != i and weights[i, j] != 0.0]
            assert plan.edges.tolist() == [list(link) for link in links]

            agents = np.broadcast_to(np.arange(n), plan.sources.shape)
            slot_weights = plan.weights[..., 0]
            assert np.array_equal(plan.weights, np.repeat(slot_weights[..., None], d, axis=2))
            live = slot_weights != 0.0
            received = live & (plan.sources != agents)
            edges = set(links)
            assert all((j, i) in edges for j, i in zip(plan.sources[received].tolist(), agents[received].tolist()))
            assert np.array_equal(slot_weights[live], weights[agents[live], plan.sources[live]])

            padded = np.arange(len(plan.sources))[:, None] >= np.count_nonzero(weights, axis=1)
            assert np.array_equal(padded, ~live)
            assert np.array_equal(plan.sources[padded], agents[padded])


class TestFoldOrder:
    """The runner must equal, bit for bit, every agent folding its own row in ascending sender order."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("signed", [False, True], ids=["own-rows", "signed"])
    def test_matches_sequential_reference(self, seed, signed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        matrices = random_mixtures(n, int(rng.integers(1, 4)), rng, signed)
        assert (min(W.weights.min() for W in matrices) < 0.0) == signed
        schedule = gg.GossipSchedule.random_choice(matrices, seed=seed)
        problem = gg.random_quadratic_problem(n, d, 1.0, 3.0, seed=seed, shared_hessian=bool(seed % 2))
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.01, m_override=int(rng.integers(1, 5)))
        x0 = rng.standard_normal((n, d))
        net = gg.run_netsim(problem, schedule, params, x0, 5)
        reference = sequential_reference(problem, schedule, params, x0, 5)
        for key in ("x", "y", "v", "u"):
            assert np.array_equal(getattr(net, key), reference[key]), key

    # Rows of width 9 to about 130: the fold is one numpy sum over the fold
    # steps, which must add them in order, not pairwise.
    @pytest.mark.parametrize("d", [1, 10])
    @pytest.mark.parametrize("n, p", [(20, 0.5), (100, 0.3), (150, 0.85)])
    def test_wide_rows_match_sequential_reference(self, n, p, d):
        rng = np.random.default_rng(n + d)
        matrices = [metropolis_matrix(n, p, rng) for _ in range(2)]
        widths = [int(np.count_nonzero(W.weights, axis=1).max()) for W in matrices]
        assert min(widths) >= 9 and (p < 0.8 or max(widths) >= 120), widths
        schedule = gg.GossipSchedule.random_choice(matrices, seed=n)
        problem = gg.random_quadratic_problem(n, d, 1.0, 3.0, seed=n, shared_hessian=False)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.01, m_override=2)
        x0 = rng.standard_normal((n, d))
        net = gg.run_netsim(problem, schedule, params, x0, 2)
        reference = sequential_reference(problem, schedule, params, x0, 2)
        for key in ("x", "y", "v", "u"):
            assert np.array_equal(getattr(net, key), reference[key]), key

    def test_mixed_widths_match_sequential_reference(self):
        # Rows 3 wide and 40 wide share the run's inbox: each round folds a leading slice of it.
        n, d = 40, 3
        schedule = gg.GossipSchedule.random_choice([gg.ring_matrix(n), gg.complete_matrix(n)], seed=3)
        assert set(gg.round_table(schedule, 4, 3).ravel().tolist()) == {0, 1}
        problem = gg.random_quadratic_problem(n, d, 1.0, 3.0, seed=3, shared_hessian=False)
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.01, m_override=3)
        x0 = np.random.default_rng(3).standard_normal((n, d))
        net = gg.run_netsim(problem, schedule, params, x0, 4)
        reference = sequential_reference(problem, schedule, params, x0, 4)
        for key in ("x", "y", "v", "u"):
            assert np.array_equal(getattr(net, key), reference[key]), key

    @pytest.mark.parametrize("d", [1, 10])
    def test_single_agent_matches_sequential_reference(self, d):
        problem = gg.random_quadratic_problem(1, d, 1.0, 3.0, seed=d)
        schedule = gg.GossipSchedule.constant(gg.GossipMatrix([[1.0]]))
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.01, m_override=3)
        x0 = np.random.default_rng(d).standard_normal((1, d))
        net = gg.run_netsim(problem, schedule, params, x0, 4)
        reference = sequential_reference(problem, schedule, params, x0, 4)
        for key in ("x", "y", "v", "u"):
            assert np.array_equal(getattr(net, key), reference[key]), key
