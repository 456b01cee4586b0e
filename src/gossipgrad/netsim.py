"""Synchronous message-passing execution of the algorithm.

Agent states are stacked one row per agent, and each row is owned by its
agent: agent i reads only its own states, its own row of the current mixing
matrix, and the payloads addressed to it; it evaluates only its own
objective, through the family's ``agent(i)`` view. A round has two phases:
deliver every message, copied from the senders' pre-round values, then let
every agent fold what it received, in ascending sender order with its own
value at its own index. A round plan, built once per run for each schedule
matrix, fixes the messages and every agent's fold, so a round costs
``O(|E| d + n * width * d)`` with ``|E|`` the round's messages and ``width``
the longest row. This path exists to prove the algorithm is decentralized
and to serve as an independent oracle for the vectorized execution: both
must produce the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
from .gossip import GossipSchedule, matrix_at
from .objective import Problem
from .trace import RunTrace


@dataclass(frozen=True)
class RoundPlan:
    """The messages of one schedule matrix's rounds and every agent's fold of them.

    A round copies each sender's value into ``pool`` (own values in rows
    ``0..n-1``, then one payload per edge, then a zero row). Step ``p`` of
    the fold adds ``weights[p, i] * pool[sources[p, i]]`` to agent i's total:
    its p-th nonzero row entry, in ascending sender order, read from its own
    value or from the payload addressed to it. Shorter rows are padded with
    the zero row at weight 0.
    """

    edges: np.ndarray  # (|E|, 2) sender, receiver, in delivery order
    sources: np.ndarray  # (width, n) pool row per fold step
    weights: np.ndarray  # (width, n, 1) row weight per fold step
    pool: np.ndarray  # (n + |E| + 1, d) round buffer


def round_plan(W: np.ndarray, row_overrides: dict, extra_edges: np.ndarray, d: int) -> RoundPlan:
    """Plan the rounds of one mixing matrix, checking every delivery and fold once.

    Messages ride the nonzero off-diagonal weights in row-major (receiver,
    sender) order, then the forced extra edges. Raises ``ProtocolError`` on
    the first repeated (sender, receiver) pair in delivery order, else on
    the first row entry, by agent and then sender, whose message never
    arrives.
    """
    n = W.shape[0]
    links = W != 0.0
    np.fill_diagonal(links, False)
    edges = np.concatenate([np.argwhere(links)[:, ::-1], extra_edges])
    senders, receivers = edges.T
    _, first = np.unique(receivers * n + senders, return_index=True)
    if len(first) < len(edges):
        repeated = np.ones(len(edges), dtype=bool)
        repeated[first] = False
        e = np.flatnonzero(repeated)[0]
        raise ProtocolError(f"agent {receivers[e]} received two messages from {senders[e]} in one round")
    slot = np.full((n, n), -1)
    slot[receivers, senders] = np.arange(len(edges))

    rows = np.array([row_overrides.get(i, W[i]) for i in range(n)], dtype=float)
    agent, sender = np.nonzero(rows)  # row-major: by agent, then ascending sender
    own = agent == sender
    delivered = slot[agent, sender]
    missing = np.flatnonzero(~own & (delivered < 0))
    if len(missing):
        i, j = agent[missing[0]], sender[missing[0]]
        raise ProtocolError(f"agent {i} expected a message from {j} (weight {rows[i, j]}) but none arrived")

    counts = np.bincount(agent, minlength=n)
    step = np.arange(len(agent)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = int(counts.max())
    sources = np.full((width, n), n + len(edges))
    weights = np.zeros((width, n, 1))
    sources[step, agent] = np.where(own, agent, n + delivered)
    weights[step, agent, 0] = rows[agent, sender]
    return RoundPlan(edges, sources, weights, np.zeros((n + len(edges) + 1, d)))


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
    n, d = trace.n, trace.dimension
    if problem.n != n or schedule.n != n:
        raise ConfigError(
            f"agent count mismatch: states {n}, problem {problem.n}, schedule {schedule.n}"
        )
    row_overrides = row_overrides or {}
    extra_edges = np.array(extra_edges or [], dtype=np.int64).reshape(-1, 2)
    if not ((extra_edges >= 0) & (extra_edges < n)).all():
        raise ConfigError(f"extra edges must join agents 0..{n - 1}")

    calls_before = problem.objective.gradient_calls.copy()
    views = [problem.objective.agent(i) for i in range(n)]
    plans: dict = {}  # GossipMatrix -> RoundPlan, for this run only
    ledger = [np.empty((0, 4), dtype=np.int32)]
    x, y = trace.x[0], trace.y[0]

    for k in range(iterations):
        v = x
        for round_index in range(1, params.m + 1):
            matrix = matrix_at(schedule, k, round_index)
            plan = plans.get(matrix)
            if plan is None:
                plan = plans[matrix] = round_plan(matrix.weights, row_overrides, extra_edges, d)
            # Delivery: every payload is a copy of the sender's pre-round
            # value (synchronous barrier), so agent order cannot matter.
            senders = plan.edges[:, 0]
            plan.pool[:n] = v
            np.take(v, senders, axis=0, out=plan.pool[n:-1])
            chunk = np.empty((len(senders), 4), dtype=np.int32)
            chunk[:, 0], chunk[:, 1], chunk[:, 2:] = k, round_index, plan.edges
            ledger.append(chunk)
            # Fold: every agent sums its row in ascending sender order.
            terms = plan.weights * plan.pool[plan.sources]
            v = np.zeros((n, d))
            for term in terms:
                v += term
        gradients = np.array([view.gradient(point) for view, point in zip(views, v)])
        trace.v[k] = v
        trace.u[k] = u = v - params.alpha * gradients
        trace.y[k + 1] = y = y + x - v
        trace.x[k + 1] = x = u - params.lam * y

    trace.count_gradients(problem.objective.gradient_calls - calls_before)
    trace.row_communications = n * params.m * iterations
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
