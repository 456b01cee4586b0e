"""Synchronous message-passing execution of the algorithm.

Every agent is an isolated state machine holding only its objective, its own
states, and its own row of the current mixing matrix; all cross-agent data
arrives as explicit messages. A round has two phases: deliver every message,
then let every agent fold its inbox. This path exists to prove the algorithm
is decentralized and to serve as an independent oracle for the vectorized
execution: both must produce the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
from .gossip import GossipSchedule, matrix_at
from .objective import Problem
from .trace import RunTrace


class AgentNode:
    """One agent: objective, states (x, y), and an inbox for the current round.

    The objective is the agent's own view of the family (``agent(i)``). The
    node never touches another node; it only reads messages and the row of
    weights it was handed for the round.
    """

    def __init__(self, agent_id: int, objective, x0: np.ndarray, y0: np.ndarray):
        self.id = agent_id
        self.objective = objective
        self.x = np.array(x0, dtype=float)
        self.y = np.array(y0, dtype=float)
        self.v = self.x.copy()
        self.inbox: dict[int, np.ndarray] = {}

    def begin_iteration(self):
        self.v = self.x.copy()
        self.inbox.clear()

    def receive(self, sender: int, payload: np.ndarray):
        if sender in self.inbox:
            raise ProtocolError(f"agent {self.id} received two messages from {sender} in one round")
        self.inbox[sender] = payload

    def fold_inbox(self, row: np.ndarray):
        """Weighted sum of the inbox in ascending sender order; self weight uses own v."""
        total = np.zeros_like(self.v)
        for j in np.flatnonzero(row).tolist():
            weight = row[j]
            if j == self.id:
                total += weight * self.v
            else:
                if j not in self.inbox:
                    raise ProtocolError(
                        f"agent {self.id} expected a message from {j} (weight {weight}) but none arrived"
                    )
                total += weight * self.inbox[j]
        self.v = total
        self.inbox.clear()

    def gradient_update(self, alpha: float, lam: float):
        u = self.v - alpha * self.objective.gradient(self.v)
        self.y = self.y + self.x - self.v
        self.x = u - lam * self.y
        return u


def run_netsim(
    problem: Problem,
    schedule: GossipSchedule,
    params,
    x0: np.ndarray,
    iterations: int,
    y0: np.ndarray | None = None,
    row_overrides: dict[int, np.ndarray] | None = None,
    extra_edges: list[tuple[int, int]] | None = None,
) -> RunTrace:
    """Message-passing execution; trace schema identical to the vectorized path.

    ``row_overrides`` hands selected agents a wrong weight row and
    ``extra_edges`` forces (sender, receiver) deliveries every round; both are
    tampering hooks for negative tests and default to off.
    """
    trace = RunTrace.start(x0, y0, iterations, params)
    n = trace.n
    if problem.n != n or schedule.n != n:
        raise ConfigError(
            f"agent count mismatch: states {n}, problem {problem.n}, schedule {schedule.n}"
        )
    row_overrides = row_overrides or {}
    extra_edges = np.array(extra_edges or [], dtype=np.int64).reshape(-1, 2)

    calls_before = problem.objective.gradient_calls.copy()
    agents = [AgentNode(i, problem.objective.agent(i), trace.x[0, i], trace.y[0, i]) for i in range(n)]
    ledger = [np.empty((0, 4), dtype=np.int32)]
    row_communications = 0

    for k in range(iterations):
        for agent in agents:
            agent.begin_iteration()
        for round_index in range(1, params.m + 1):
            W = matrix_at(schedule, k, round_index).weights
            # Delivery phase: all sends use the pre-round values, so agent
            # order cannot matter (synchronous barrier). Messages ride the
            # nonzero off-diagonal weights in row-major (receiver, sender)
            # order, then the forced extra edges.
            links = W != 0.0
            np.fill_diagonal(links, False)
            edges = np.concatenate([np.argwhere(links)[:, ::-1], extra_edges])  # (sender, receiver)
            outgoing = [agent.v.copy() for agent in agents]
            for sender, receiver in edges.tolist():
                agents[receiver].receive(sender, outgoing[sender])
            chunk = np.empty((len(edges), 4), dtype=np.int32)
            chunk[:, 0], chunk[:, 1], chunk[:, 2:] = k, round_index, edges
            ledger.append(chunk)
            # Compute phase.
            for agent in agents:
                row = row_overrides.get(agent.id, W[agent.id])
                agent.fold_inbox(row)
                row_communications += 1
        for agent in agents:
            trace.v[k, agent.id] = agent.v
            trace.u[k, agent.id] = agent.gradient_update(params.alpha, params.lam)
            trace.x[k + 1, agent.id] = agent.x
            trace.y[k + 1, agent.id] = agent.y

    trace.count_gradients(problem.objective.gradient_calls - calls_before)
    trace.row_communications = row_communications
    trace.deliveries = np.concatenate(ledger)
    return trace


AUDIT_REASONS = (None, "self-delivery", "delivery across a zero-weight link", "delivery outside the run")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of replaying the delivery ledger against the schedule."""

    passed: bool
    violations: tuple
    message_count: int
    expected_count: int


def locality_audit(trace: RunTrace, schedule: GossipSchedule) -> AuditReport:
    """Check that every delivered message rode a nonzero-weight link.

    Also recounts the ledger against the schedule: each round must carry
    exactly one message per nonzero off-diagonal weight. The ledger is grouped
    by (iteration, round) so each round's matrix is fetched once; the expected
    links are derived from that matrix alone, never from the runner's edges.
    """
    if trace.deliveries is None:
        raise ConfigError("trace carries no delivery ledger; run the message-passing path")
    ledger = trace.deliveries
    iteration, round_index, sender, receiver = ledger.T
    n, m, iterations = schedule.n, trace.params.m, trace.iterations
    # Rows outside the run's iterations, rounds or agents get the last key.
    inside = (ledger >= [0, 1, 0, 0]).all(axis=1) & (ledger < [iterations, m + 1, n, n]).all(axis=1)
    key = np.where(inside, iteration * np.int64(m) + round_index - 1, iterations * m)
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(iterations * m + 1))
    verdict = np.where(inside, 0, 3)  # index into AUDIT_REASONS
    missing = []
    expected = 0
    for k in range(iterations):
        for l in range(1, m + 1):
            links = matrix_at(schedule, k, l).weights != 0.0
            np.fill_diagonal(links, False)
            expected += int(np.count_nonzero(links))
            group = order[bounds[k * m + l - 1] : bounds[k * m + l]]
            s, r = sender[group], receiver[group]
            verdict[group] = np.where(s == r, 1, np.where(links[r, s], 0, 2))
            delivered = np.zeros_like(links)
            delivered[r, s] = True
            for r_missing, s_missing in np.argwhere(links & ~delivered).tolist():
                missing.append(((k, l, s_missing, r_missing), "expected delivery missing"))
    violations = [(tuple(ledger[i].tolist()), AUDIT_REASONS[verdict[i]]) for i in np.flatnonzero(verdict)]
    violations += missing
    return AuditReport(
        passed=not violations,
        violations=tuple(violations),
        message_count=len(ledger),
        expected_count=expected,
    )
