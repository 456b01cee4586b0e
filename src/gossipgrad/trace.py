"""Per-iteration record of a decentralized run.

Both execution paths (vectorized and message-passing) fill the same trace:
agent states x and y after every iteration, the post-communication points v
and post-gradient points u inside every iteration, and the gradient-evaluation count.
The four stacks are views of one block, allocated once per run.
The message-passing path also keeps its delivery ledger, compactly: one
edge-set id per round and the distinct edge sets. ``deliveries`` is a
read-only expansion of that ledger, one row per message.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(repr=False)
class RunTrace:
    x: np.ndarray  # (iterations + 1, n, d) agent estimates
    y: np.ndarray  # (iterations + 1, n, d) correction states
    v: np.ndarray  # (iterations, n, d) post-communication points per iteration
    u: np.ndarray  # (iterations, n, d) post-gradient points per iteration
    params: object
    gradient_evaluations: int
    edge_set_ids: np.ndarray | None = None  # (iterations, m) int32: the edge set each round delivered
    edge_sets: tuple = ()  # distinct (|E|, 2) int32 (sender, receiver) rows, in delivery order

    @property
    def deliveries(self) -> np.ndarray | None:
        """The ledger expanded into int32 rows (iteration, round, sender, receiver), in run order.

        Round l of iteration k delivers ``edge_sets[edge_set_ids[k, l - 1]]``.
        Built on each read from the compact ledger; None on a trace without one.
        """
        if self.edge_set_ids is None:
            return None
        iterations, m = self.edge_set_ids.shape
        rounds = self.edge_set_ids.ravel()
        sizes = np.array([len(edges) for edges in self.edge_sets], dtype=np.int64)[rounds]
        ledger = np.empty((int(sizes.sum()), 4), dtype=np.int32)
        ledger[:, 0] = np.repeat(np.arange(iterations).repeat(m), sizes)
        ledger[:, 1] = np.repeat(np.tile(np.arange(1, m + 1), iterations), sizes)
        if len(rounds):
            np.concatenate([self.edge_sets[e] for e in rounds.tolist()], out=ledger[:, 2:])
        return ledger

    @classmethod
    def start(cls, x0, y0, iterations: int, params) -> "RunTrace":
        """Trace allocated for ``iterations`` with validated initial states in slot 0.

        x, y, v and u are consecutive C-contiguous views of one
        ``(4 * iterations + 2, n, d)`` block.

        x0 has shape (n, d); y0 defaults to zeros and its rows must sum to
        zero; both must be finite. The runner fills the rest of the trace.
        """
        x = np.asarray(x0, dtype=float)
        if x.ndim != 2:
            raise ConfigError(f"x0 must have shape (n, d), got {x.shape}")
        y = np.zeros_like(x) if y0 is None else np.asarray(y0, dtype=float)
        if y.shape != x.shape:
            raise ConfigError(f"y0 shape {y.shape} does not match x0 shape {x.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ConfigError("initial states x0 and y0 must be finite")
        if np.linalg.norm(y.sum(axis=0)) > 1e-12 * max(1.0, np.abs(y).max()):
            raise ConfigError("initial correction states must sum to zero across agents")
        # One block for the four stacks: each run makes one large allocation, not four.
        block = np.empty((4 * iterations + 2, *x.shape))
        xs, ys, v, u = np.split(block, [iterations + 1, 2 * iterations + 2, 3 * iterations + 2])
        trace = cls(x=xs, y=ys, v=v, u=u, params=params, gradient_evaluations=0)
        trace.x[0], trace.y[0] = x, y
        return trace

    def count_gradients(self, per_agent: np.ndarray):
        """Record the run's gradient evaluations, asserting one per agent per iteration."""
        assert np.all(per_agent == self.iterations), (
            f"expected {self.iterations} gradient evaluations per agent, got {per_agent.tolist()}"
        )
        self.gradient_evaluations = int(per_agent.sum())

    @property
    def iterations(self) -> int:
        return self.x.shape[0] - 1

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def dimension(self) -> int:
        return self.x.shape[2]

    def errors(self, xstar) -> np.ndarray:
        """Per-agent distance to ``xstar``: shape (iterations + 1, n)."""
        xstar = np.asarray(xstar, dtype=float)
        return np.linalg.norm(self.x - xstar, axis=2)
