from dataclasses import replace

import numpy as np
import pytest

import gossipgrad as gg
from gossipgrad.errors import ConfigError, ProtocolError


class TestEquivalence:
    def test_full_corpus_matches_vectorized_path(self, corpus):
        for run in corpus:
            assert np.abs(run.trace.x - run.net_trace.x).max() <= 1e-12, run.name
            assert np.abs(run.trace.y - run.net_trace.y).max() <= 1e-12, run.name
            assert np.abs(run.trace.v - run.net_trace.v).max() <= 1e-12, run.name
            assert np.abs(run.trace.u - run.net_trace.u).max() <= 1e-12, run.name

    def test_single_agent_sends_nothing(self):
        f = gg.QuadraticObjective(np.diag([2.0]), [[1.0]])
        problem = gg.Problem(f)
        schedule = gg.GossipSchedule.constant(gg.GossipMatrix([[1.0]]))
        params = gg.AlgorithmParams.derive(0.3, 0.4, 0.5)
        trace = gg.run_netsim(problem, schedule, params, np.array([[4.0]]), 30)
        assert len(trace.deliveries) == 0
        central = gg.centralized_gd(problem, 0.3, np.array([4.0]), 30)
        assert np.abs(trace.x[:, 0, :] - central).max() <= 1e-12

    def test_wrong_row_breaks_equivalence(self, pair, pair_sigma):
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=6)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=13)
        params = gg.AlgorithmParams.derive(0.5, 0.5, pair_sigma)
        x0 = np.random.default_rng(4).standard_normal((5, 2))
        honest = gg.run_algorithm(problem, schedule, params, x0, 10)
        # Same sparsity as row 0 of both matrices (senders 1, 2, 4) but with
        # the weights of senders 1 and 2 swapped.
        tampered_row = np.array([0.0, 0.25, 0.375, 0.0, 0.375])
        tampered = gg.run_netsim(
            problem, schedule, params, x0, 10, row_overrides={0: tampered_row}
        )
        assert np.abs(honest.x - tampered.x).max() > 1e-6

    def test_missing_expected_message_raises(self, pair):
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=6)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.73)
        # Row claims a link from sender 3 into agent 0, but the true matrix
        # never delivers one.
        bad_row = np.array([0.0, 0.375, 0.25, 0.125, 0.25])
        with pytest.raises(ProtocolError):
            gg.run_netsim(problem, schedule, params, np.zeros((5, 2)), 2, row_overrides={0: bad_row})

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

    def test_agent_count_mismatch(self, pair):
        problem = gg.random_quadratic_problem(4, 2, 1.0, 2.0, seed=0)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(1.0, 0.5, 0.73)
        with pytest.raises(ConfigError):
            gg.run_netsim(problem, schedule, params, np.zeros((4, 2)), 2)


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

    def test_builtin_pair_off_diagonal_counts(self, pair):
        counts = []
        for W in pair:
            counts.append(int(np.count_nonzero(W.weights)) - int(np.count_nonzero(np.diag(W.weights))))
        assert counts == [12, 11]

    def test_forced_extra_delivery_fails(self, pair):
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=10)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.73)
        # Sender 1 -> receiver 3 is a zero-weight link in the first matrix.
        trace = gg.run_netsim(
            problem, schedule, params, np.zeros((5, 2)), 2, extra_edges=[(1, 3)]
        )
        report = gg.locality_audit(trace, schedule)
        assert not report.passed
        assert any("zero-weight" in reason for _, reason in report.violations)

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
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=10)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.73)
        trace = gg.run_netsim(problem, schedule, params, np.zeros((5, 2)), 2)
        ledger = trace.deliveries
        assert ledger.dtype == np.int32 and ledger.shape == (2 * params.m * 12, 4)

        dropped = gg.locality_audit(replace(trace, deliveries=np.delete(ledger, 3, axis=0)), schedule)
        assert not dropped.passed
        assert dropped.violations == ((tuple(ledger[3].tolist()), "expected delivery missing"),)

        self_row = np.array([[1, 2, 4, 4]], dtype=np.int32)
        looped = gg.locality_audit(replace(trace, deliveries=np.vstack([ledger, self_row])), schedule)
        assert not looped.passed
        assert looped.violations == (((1, 2, 4, 4), "self-delivery"),)

    def test_ledger_row_outside_the_run_is_a_violation(self, pair):
        problem = gg.random_quadratic_problem(5, 2, 1.0, 3.0, seed=10)
        schedule = gg.GossipSchedule.constant(pair[0])
        params = gg.AlgorithmParams.derive(0.5, 0.5, 0.73)
        trace = gg.run_netsim(problem, schedule, params, np.zeros((5, 2)), 2)
        stray = np.array([[2, 1, 1, 0], [0, params.m + 1, 1, 0], [0, 1, 1, 5]], dtype=np.int32)
        report = gg.locality_audit(replace(trace, deliveries=np.vstack([trace.deliveries, stray])), schedule)
        assert not report.passed
        assert [reason for _, reason in report.violations] == ["delivery outside the run"] * 3

    def test_vectorized_trace_has_no_ledger(self, corpus):
        with pytest.raises(ConfigError):
            gg.locality_audit(corpus[0].trace, corpus[0].schedule)


class TestAgentNode:
    def test_duplicate_message_rejected(self):
        f = gg.QuadraticObjective(np.eye(2), np.zeros((1, 2))).agent(0)
        node = gg.AgentNode(0, f, np.zeros(2), np.zeros(2))
        node.receive(2, np.ones(2))
        with pytest.raises(ProtocolError):
            node.receive(2, np.ones(2))

    def test_fold_uses_ascending_sender_order_with_own_value(self):
        f = gg.QuadraticObjective(np.eye(1), np.zeros((1, 1))).agent(0)
        node = gg.AgentNode(1, f, np.array([10.0]), np.zeros(1))
        node.begin_iteration()
        node.receive(0, np.array([1.0]))
        node.receive(2, np.array([2.0]))
        node.fold_inbox(np.array([0.25, 0.5, 0.25]))
        assert node.v[0] == pytest.approx(0.25 * 1.0 + 0.5 * 10.0 + 0.25 * 2.0)
        assert node.inbox == {}
