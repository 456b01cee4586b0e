"""Synchronous message-passing execution of the algorithm: the netsim mixer,
its round plans, the delivery ledger and the locality audit.

``run_netsim`` runs the one loop of ``algorithm.run`` with a mixer that
passes messages; the update rule, the trace and the counters are the
vectorized path's own. Agent states are stacked one row per agent, and each
row is owned by its agent: agent i reads only its own states, its own row of
the current mixing matrix, and the payloads addressed to it. A round has two
phases: deliver every message, copied from the senders' pre-round values,
then let every agent fold what it received, in ascending sender order with
its own value at its own index. A round plan, built once per run for each
distinct schedule matrix used and found by the round's entry in the run's
edge-set ids, fixes the messages and every agent's fold. A round is
three numpy calls, with no Python loop over its fold steps: take the
senders' pre-round rows straight into the run's one inbox, sized to its
widest plan, multiply by the weights, reduce over the inbox slots. It costs
``O(n * width * d)`` with ``width`` the longest row. After its m rounds, each
iteration makes one call to the problem's gradient; row i of that call reads
only agent i's data and point, and equals agent i's own ``agent(i)`` view bit
for bit.

Every round that uses one matrix delivers that matrix's edge set, so the
delivery ledger is kept compact: one int32 edge-set id per round, an
``(iterations, m)`` array of ``4 * iterations * m`` bytes, plus the distinct
``(|E|, 2)`` edge sets, one per round plan. Both the ids and the audit's
expected links come from one ``round_table`` of the run, drawn once. That
compact ledger is the one the locality audit reads; ``RunTrace.deliveries``
is a read-only expansion of it into ``(messages, 4)`` rows. The audit judges
each distinct (matrix, edge set) pair once, however many rounds and
messages carry it. The runner has no tampering hook:
tests that check the audit edit the ledger, not the runner.

This path exists to prove the algorithm is decentralized and to serve as an
independent oracle for the vectorized mixing: over the one update rule, both
mixers must produce the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithm import run
from .errors import ConfigError
# matrix_at is no longer called here but stays importable: benchmarks/tracer.py hooks it by this path.
from .gossip import GossipSchedule, matrix_at, round_table  # noqa: F401
from .objective import Problem
from .trace import RunTrace


@dataclass(frozen=True)
class RoundPlan:
    """The messages of one schedule matrix's rounds and every agent's fold of them.

    Agent i's slots hold its nonzero row entries in ascending sender order:
    its own value at its own index, else the payload from sender j, which
    rides the edge ``(j, i)``. Slot ``p`` adds ``weights[p, i] * v[sources[p, i]]``
    to agent i's total. Shorter rows are padded with agent i's own row at
    weight 0. A round takes the senders' rows into the first ``width`` slots
    of the run's one inbox, multiplies by ``weights`` and sums over the slots.
    """

    edges: np.ndarray  # (|E|, 2) int32 sender, receiver, in delivery order
    sources: np.ndarray  # (width, n) sending agent per slot
    weights: np.ndarray  # (width, n, d) row weight per slot, repeated over d


def round_plan(W: np.ndarray, d: int) -> RoundPlan:
    """Plan the rounds of one mixing matrix.

    Messages ride the nonzero off-diagonal weights in row-major (receiver,
    sender) order, so every slot that reads another agent reads a delivered
    edge.
    """
    n = W.shape[0]
    agent, sender = np.nonzero(W)  # row-major: by agent, then ascending sender
    link = agent != sender
    edges = np.stack((sender[link], agent[link]), axis=1).astype(np.int32)
    counts = np.bincount(agent, minlength=n)
    slot = np.arange(len(agent)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = int(counts.max())
    sources = np.tile(np.arange(n), (width, 1))
    # Weights repeat over d: a same-shape multiply runs about twice as fast
    # as one that broadcasts a (width, n, 1) table.
    weights = np.zeros((width, n, d))
    sources[slot, agent] = sender
    weights[slot, agent] = W[agent, sender][:, None]
    return RoundPlan(edges, sources, weights)


def _first_listing(schedule: GossipSchedule, iterations: int, m: int) -> np.ndarray:
    """The run's ``round_table``, with a matrix listed twice in the schedule named by its first listing."""
    first = np.array([schedule.matrices.index(W) for W in schedule.matrices], dtype=np.intp)
    return first[round_table(schedule, iterations, m)]


def run_netsim(
    problem: Problem,
    schedule: GossipSchedule,
    params,
    x0: np.ndarray,
    iterations: int,
    y0: np.ndarray | None = None,
) -> RunTrace:
    """Message-passing execution; trace schema identical to the vectorized path, plus the compact ledger."""
    edge_set_ids = rows = plans = steps = None  # the run's ledger, its rows, plans and round steps, set by ``mixer``

    def mixer(schedule, m, iterations):
        nonlocal edge_set_ids, rows, plans, steps
        table = _first_listing(schedule, iterations, m)
        # Edge-set ids in order of first use: id e plans matrix ``used[e]``.
        listed, first_use = np.unique(table, return_index=True)
        used = listed[np.argsort(first_use)]
        plan_id = np.zeros(len(schedule.matrices), dtype=np.int32)
        plan_id[used] = np.arange(len(used), dtype=np.int32)
        edge_set_ids = plan_id[table]
        rows = edge_set_ids.tolist()
        shape = np.shape(x0)  # (n, d), as the run's start has checked
        plans = [round_plan(schedule.matrices[i].weights, shape[1]) for i in used.tolist()]
        # One inbox per run, as wide as its widest plan. Each plan rounds in a
        # leading slice, which is C-contiguous, so ``take`` writes into it in place.
        inbox = np.empty((max((len(plan.sources) for plan in plans), default=0), *shape))
        steps = [(plan.sources, plan.weights, inbox[: len(plan.sources)]) for plan in plans]
        return mix

    def mix(k, v):
        for e in rows[k]:
            sources, weights, slots = steps[e]
            # Delivery: every payload is a copy of the sender's pre-round
            # value (synchronous barrier), so agent order cannot matter.
            # Every index is in range by construction: "clip" writes straight
            # into ``out``, where "raise" would buffer.
            v.take(sources, axis=0, out=slots, mode="clip")
            # Fold: every agent sums its row in ascending sender order. numpy
            # reduces an outer axis one step after another, so the sum equals
            # the sequential fold bit for bit. Only a (width, 1, 1) block
            # would be summed pairwise, and that needs n = 1, whose row has
            # width 1.
            np.multiply(slots, weights, out=slots)
            v = np.add.reduce(slots, axis=0)
        return v

    trace = run(problem, schedule, params, x0, iterations, y0, mixer)
    trace.edge_set_ids = edge_set_ids
    trace.edge_sets = tuple(plan.edges for plan in plans)
    return trace


AUDIT_REASONS = (
    None,
    "self-delivery",
    "delivery across a zero-weight link",
    "delivery outside the run",
    "duplicate delivery",
)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of replaying the delivery ledger against the schedule."""

    passed: bool
    violations: tuple
    message_count: int
    expected_count: int


def _judge(W: np.ndarray, edges: np.ndarray):
    """One matrix's verdict on one edge set: its link count, the flagged rows and the missing links.

    Flagged rows are (sender, receiver, reason) in edge-set order. A row
    naming an agent outside the run is flagged as such; else a self-delivery
    or a zero-weight link as such; else a pair that already came earlier in
    the set is a duplicate. Missing links are (sender, receiver) by receiver,
    then sender.
    """
    n = W.shape[0]
    links = W != 0.0
    np.fill_diagonal(links, False)
    inside = ((edges >= 0) & (edges < n)).all(axis=1)
    s, r = np.where(inside[:, None], edges, 0).astype(np.int64).T
    # Rows outside the run get distinct negative keys, so none is a duplicate.
    _, first = np.unique(np.where(inside, r * n + s, -1 - np.arange(len(edges))), return_index=True)
    repeated = np.ones(len(edges), dtype=bool)
    repeated[first] = False
    codes = np.select([~inside, s == r, ~links[r, s], repeated], [3, 1, 2, 4], 0)
    delivered = np.zeros_like(links)
    delivered[r[inside], s[inside]] = True
    flagged = [(*edges[p].tolist(), AUDIT_REASONS[codes[p]]) for p in np.flatnonzero(codes).tolist()]
    missing = [tuple(pair) for pair in np.argwhere(links & ~delivered)[:, ::-1].tolist()]
    return int(np.count_nonzero(links)), flagged, missing


def locality_audit(trace: RunTrace, schedule: GossipSchedule) -> AuditReport:
    """Check that every delivered message rode a nonzero-weight link.

    Reads the compact ledger the run stored, ``trace.edge_set_ids`` and
    ``trace.edge_sets``, and recounts it against the schedule: each round
    must carry exactly one message per nonzero off-diagonal weight. The
    expected links are derived from the schedule's own ``round_table``,
    never from the runner's edges. Each distinct (matrix, edge set) pair is
    judged once and its links counted once per round that carries it; only
    the rounds of a failing pair are expanded. Violations list the offending
    deliveries in ledger order, then the missing deliveries in round order.
    Raises ``ConfigError`` on a trace without a ledger, whose edge-set ids
    are not one valid id per round, or whose edge sets are not integer
    (sender, receiver) rows.
    """
    m, iterations = trace.params.m, trace.iterations
    ids, edge_sets = trace.edge_set_ids, trace.edge_sets
    if ids is None:
        raise ConfigError("trace carries no delivery ledger; run the message-passing path")
    if ids.shape != (iterations, m):
        raise ConfigError(f"edge_set_ids has shape {ids.shape}, expected one id per round {(iterations, m)}")
    if ids.size and not (ids.min() >= 0 and ids.max() < len(edge_sets)):
        raise ConfigError(f"edge_set_ids must name edge sets 0..{len(edge_sets) - 1}")
    if not all(edges.ndim == 2 and edges.shape[1] == 2 and edges.dtype.kind in "iu" for edges in edge_sets):
        raise ConfigError("every edge set must be an integer (|E|, 2) array of (sender, receiver) rows")

    # One key per round, in round order: its matrix, by first listing, and the edge set it delivered.
    sets = len(edge_sets)
    keys = (_first_listing(schedule, iterations, m) * sets + ids).ravel()
    pairs, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    verdicts = [_judge(schedule.matrices[key // sets].weights, edge_sets[key % sets]) for key in pairs.tolist()]
    expected = sum(links * count for (links, _, _), count in zip(verdicts, counts.tolist()))
    # Only the rounds of a failing pair are expanded, in round order.
    failing = np.array([bool(bad_rows or absent) for _, bad_rows, absent in verdicts], dtype=bool)
    rounds = np.flatnonzero(failing[inverse])
    flagged = []
    missing = []
    for r, pair in zip(rounds.tolist(), inverse[rounds].tolist()):
        k, l = divmod(r, m)
        _, bad_rows, absent = verdicts[pair]
        flagged += [((k, l + 1, s, t), reason) for s, t, reason in bad_rows]
        missing += [((k, l + 1, s, t), "expected delivery missing") for s, t in absent]
    sizes = np.array([len(edges) for edges in edge_sets], dtype=np.int64)
    violations = flagged + missing
    return AuditReport(
        passed=not violations,
        violations=tuple(violations),
        message_count=int(sizes[ids].sum()),
        expected_count=expected,
    )
