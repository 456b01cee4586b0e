"""Synchronous message-passing execution of the algorithm.

Every agent is an isolated state machine holding only its objective, its own
states, and its own row of the current mixing matrix; all cross-agent data
arrives as explicit messages. A round has two phases: deliver every message,
then let every agent fold its inbox. This path exists to prove the algorithm
is decentralized and to serve as an independent oracle for the vectorized
execution: both must produce the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ProtocolError
from .gossip import GossipSchedule, matrix_at
from .objective import Problem
from .trace import RunTrace


@dataclass(frozen=True)
class Message:
    """One payload in flight: the sender's current mixing value for a round."""

    round_index: int
    sender: int
    payload: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DeliveryRecord:
    """Ledger entry: message from ``sender`` delivered to ``receiver`` in one round."""

    iteration: int
    round_index: int
    sender: int
    receiver: int


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

    def outgoing(self, round_index: int) -> Message:
        return Message(round_index=round_index, sender=self.id, payload=self.v.copy())

    def receive(self, message: Message):
        if message.sender in self.inbox:
            raise ProtocolError(
                f"agent {self.id} received two messages from {message.sender} in round {message.round_index}"
            )
        self.inbox[message.sender] = message.payload

    def fold_inbox(self, row: np.ndarray):
        """Weighted sum of the inbox in ascending sender order; self weight uses own v."""
        total = np.zeros_like(self.v)
        for j in range(row.shape[0]):
            weight = row[j]
            if weight == 0.0:
                continue
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
    extra_edges = extra_edges or []

    calls_before = problem.objective.gradient_calls.copy()
    agents = [AgentNode(i, problem.objective.agent(i), trace.x[0, i], trace.y[0, i]) for i in range(n)]
    deliveries: list[DeliveryRecord] = []
    row_communications = 0

    for k in range(iterations):
        for agent in agents:
            agent.begin_iteration()
        for round_index in range(1, params.m + 1):
            W = matrix_at(schedule, k, round_index).weights
            # Delivery phase: all sends use the pre-round values, so agent
            # order cannot matter (synchronous barrier).
            outgoing = {agent.id: agent.outgoing(round_index) for agent in agents}
            for receiver in agents:
                for sender in range(n):
                    if sender != receiver.id and W[receiver.id, sender] != 0.0:
                        receiver.receive(outgoing[sender])
                        deliveries.append(
                            DeliveryRecord(iteration=k, round_index=round_index, sender=sender, receiver=receiver.id)
                        )
            for sender, receiver_id in extra_edges:
                agents[receiver_id].receive(outgoing[sender])
                deliveries.append(
                    DeliveryRecord(iteration=k, round_index=round_index, sender=sender, receiver=receiver_id)
                )
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
    trace.deliveries = deliveries
    return trace


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
    exactly one message per nonzero off-diagonal weight.
    """
    if trace.deliveries is None:
        raise ConfigError("trace carries no delivery ledger; run the message-passing path")
    violations = []
    seen: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for record in trace.deliveries:
        W = matrix_at(schedule, record.iteration, record.round_index).weights
        if record.sender == record.receiver:
            violations.append((record, "self-delivery"))
        elif W[record.receiver, record.sender] == 0.0:
            violations.append((record, "delivery across a zero-weight link"))
        seen.setdefault((record.iteration, record.round_index), set()).add((record.sender, record.receiver))

    expected = 0
    m = trace.params.m
    for k in range(trace.iterations):
        for round_index in range(1, m + 1):
            W = matrix_at(schedule, k, round_index).weights
            offdiag = int(np.count_nonzero(W)) - int(np.count_nonzero(np.diag(W)))
            expected += offdiag
            delivered = seen.get((k, round_index), set())
            for receiver in range(schedule.n):
                for sender in range(schedule.n):
                    if sender != receiver and W[receiver, sender] != 0.0 and (sender, receiver) not in delivered:
                        violations.append(((k, round_index, sender, receiver), "expected delivery missing"))
    return AuditReport(
        passed=not violations,
        violations=tuple(violations),
        message_count=len(trace.deliveries),
        expected_count=expected,
    )
