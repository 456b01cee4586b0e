"""Synchronous message-passing execution of the algorithm.

Agent states are stacked one row per agent, and each row is owned by its
agent: agent i reads only its own states, its own row of the current mixing
matrix, and the payloads addressed to it. A round has two phases: deliver
every message, copied from the senders' pre-round values, then let every
agent fold what it received, in ascending sender order with its own value at
its own index. A round plan, built once per run for each schedule matrix,
fixes the messages and every agent's fold. A round is a fixed number of
numpy calls, with no Python loop over its fold steps: deliver into the
plan's pool, take every fold term from the pool, multiply by the weights,
reduce over the steps. It costs ``O(|E| d + n * width * d)`` with ``|E|``
the round's messages and ``width`` the longest row. After its m rounds, each
iteration makes one call to the family's gradient; row i of that call reads
only agent i's data and point, and equals agent i's own ``agent(i)`` view
bit for bit.

Every round that uses one matrix delivers that matrix's edge set, so the
delivery ledger is kept compact: one int32 edge-set id per round, an
``(iterations, m)`` array of ``4 * iterations * m`` bytes, plus the distinct
``(|E|, 2)`` edge sets, one per round plan. ``RunTrace.deliveries`` expands
it on demand into the ``(messages, 4)`` rows. The locality audit judges each
distinct (matrix, edge set) pair once, so it costs one ``matrix_at`` and one
lookup per round, however many messages the round carries.

This path exists to prove the algorithm is decentralized and to serve as an
independent oracle for the vectorized execution: both must produce the same
trace.
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
    the zero row at weight 0. The whole fold is one take of the
    ``(width, n, d)`` terms, one multiply by ``weights`` and one sum over
    the steps.
    """

    edges: np.ndarray  # (|E|, 2) int32 sender, receiver, in delivery order
    sources: np.ndarray  # (width, n) pool row per fold step
    weights: np.ndarray  # (width, n, d) row weight per fold step, repeated over d
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
    # Weights repeat over d: a same-shape multiply runs about twice as fast
    # as one that broadcasts a (width, n, 1) table.
    weights = np.zeros((width, n, d))
    sources[step, agent] = np.where(own, agent, n + delivered)
    weights[step, agent] = rows[agent, sender][:, None]
    return RoundPlan(edges.astype(np.int32), sources, weights, np.zeros((n + len(edges) + 1, d)))


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
    plans: dict = {}  # GossipMatrix -> (edge-set id, RoundPlan), for this run only
    edge_set_ids = np.empty((iterations, params.m), dtype=np.int32)
    fold = np.empty((0, n, d))  # the run's fold terms, grown to the widest plan
    x, y = trace.x[0], trace.y[0]

    for k in range(iterations):
        v = x
        for round_index in range(1, params.m + 1):
            matrix = matrix_at(schedule, k, round_index)
            entry = plans.get(matrix)
            if entry is None:
                entry = plans[matrix] = (len(plans), round_plan(matrix.weights, row_overrides, extra_edges, d))
            edge_set_ids[k, round_index - 1], plan = entry
            # Delivery: every payload is a copy of the sender's pre-round
            # value (synchronous barrier), so agent order cannot matter.
            # Every index below is in range by construction: "clip" writes
            # straight into ``out``, where "raise" would buffer.
            plan.pool[:n] = v
            np.take(v, plan.edges[:, 0], axis=0, out=plan.pool[n:-1], mode="clip")
            # Fold: every agent sums its row in ascending sender order. numpy
            # reduces an outer axis one step after another, so the sum equals
            # the sequential fold bit for bit. Only a (width, 1, 1) block
            # would be summed pairwise, and that needs n = 1, whose row has
            # width 1.
            width = len(plan.sources)
            if width > len(fold):
                fold = np.empty((width, n, d))
            terms = fold[:width]
            np.take(plan.pool, plan.sources, axis=0, out=terms, mode="clip")
            np.multiply(terms, plan.weights, out=terms)
            v = np.add.reduce(terms, axis=0)
        # Row i of the family's gradient reads only agent i's data and point.
        gradients = problem.objective.gradient(v)
        trace.v[k] = v
        trace.u[k] = u = v - params.alpha * gradients
        trace.y[k + 1] = y = y + x - v
        trace.x[k + 1] = x = u - params.lam * y

    trace.count_gradients(problem.objective.gradient_calls - calls_before)
    trace.row_communications = n * params.m * iterations
    trace.edge_set_ids = edge_set_ids
    trace.edge_sets = tuple(plan.edges for _, plan in plans.values())
    return trace


AUDIT_REASONS = (None, "self-delivery", "delivery across a zero-weight link", "delivery outside the run")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of replaying the delivery ledger against the schedule."""

    passed: bool
    violations: tuple
    message_count: int
    expected_count: int


def _compact_ledger(ledger: np.ndarray, n: int, m: int, iterations: int):
    """Group an expanded ledger by round and intern each round's rows.

    Returns the (iterations, m) edge-set ids and the distinct edge sets, as
    ``run_netsim`` stores them; the ledger index of every row inside the run,
    in round order; and the ledger indices of the rows outside the run's
    iterations, rounds or agents, ascending.
    """
    iteration, round_index = ledger[:, 0], ledger[:, 1]
    # Rows outside the run's iterations, rounds or agents get the last key.
    inside = (ledger >= [0, 1, 0, 0]).all(axis=1) & (ledger < [iterations, m + 1, n, n]).all(axis=1)
    key = np.where(inside, iteration * np.int64(m) + round_index - 1, iterations * m)
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(iterations * m + 1))
    rows = ledger[order[: bounds[-1]], 2:]
    interned: dict = {}  # row bytes -> (edge-set id, rows)
    ids = np.empty(iterations * m, dtype=np.int32)
    for r in range(iterations * m):
        edges = rows[bounds[r] : bounds[r + 1]]
        ids[r] = interned.setdefault(edges.tobytes(), (len(interned), edges))[0]
    edge_sets = tuple(edges for _, edges in interned.values())
    return ids.reshape(iterations, m), edge_sets, order[: bounds[-1]], order[bounds[-1] :].tolist()


def _judge(W: np.ndarray, edges: np.ndarray):
    """One matrix's verdict on one edge set: its link count, the flagged rows and the missing links.

    Flagged rows are (row, (sender, receiver), reason) in edge-set order;
    missing links are (sender, receiver) by receiver, then sender.
    """
    links = W != 0.0
    np.fill_diagonal(links, False)
    s, r = edges[:, 0], edges[:, 1]
    codes = np.where(s == r, 1, np.where(links[r, s], 0, 2))
    delivered = np.zeros_like(links)
    delivered[r, s] = True
    flagged = [(p, tuple(edges[p].tolist()), AUDIT_REASONS[codes[p]]) for p in np.flatnonzero(codes).tolist()]
    missing = [tuple(pair) for pair in np.argwhere(links & ~delivered)[:, ::-1].tolist()]
    return int(np.count_nonzero(links)), flagged, missing


def locality_audit(trace: RunTrace, schedule: GossipSchedule) -> AuditReport:
    """Check that every delivered message rode a nonzero-weight link.

    Also recounts the ledger against the schedule: each round must carry
    exactly one message per nonzero off-diagonal weight. The expected links
    are derived from ``matrix_at`` alone, never from the runner's edges. Each
    distinct (matrix, edge set) pair is judged once, so a round costs one
    ``matrix_at`` and one lookup. An expanded ledger is compacted first.
    Violations list the offending ledger rows in ledger order, then the
    missing deliveries in round order.
    """
    n, m, iterations = schedule.n, trace.params.m, trace.iterations
    if trace.edge_set_ids is not None:
        ids, edge_sets, positions, stray = trace.edge_set_ids, trace.edge_sets, None, []
    elif trace.deliveries is not None:
        ledger = trace.deliveries
        ids, edge_sets, positions, stray = _compact_ledger(ledger, n, m, iterations)
    else:
        raise ConfigError("trace carries no delivery ledger; run the message-passing path")
    sizes = np.array([len(edges) for edges in edge_sets], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes[ids.ravel()])]).tolist()

    verdicts: dict = {}  # (GossipMatrix, edge-set id) -> _judge's verdict, for this audit only
    flagged = []  # (ledger index, row, reason)
    missing = []
    expected = 0
    for r, e in enumerate(ids.ravel().tolist()):
        k, l = divmod(r, m)
        matrix = matrix_at(schedule, k, l + 1)
        verdict = verdicts.get((matrix, e))
        if verdict is None:
            verdict = verdicts[matrix, e] = _judge(matrix.weights, edge_sets[e])
        links, bad_rows, absent = verdict
        expected += links
        for p, (s, t), reason in bad_rows:
            index = offsets[r] + p if positions is None else int(positions[offsets[r] + p])
            flagged.append((index, (k, l + 1, s, t), reason))
        missing += [((k, l + 1, s, t), "expected delivery missing") for s, t in absent]
    flagged += [(i, tuple(ledger[i].tolist()), AUDIT_REASONS[3]) for i in stray]
    flagged.sort(key=lambda item: item[0])
    violations = [(row, reason) for _, row, reason in flagged] + missing
    return AuditReport(
        passed=not violations,
        violations=tuple(violations),
        message_count=offsets[-1] + len(stray),
        expected_count=expected,
    )
