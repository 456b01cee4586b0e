"""Per-iteration record of a decentralized run.

Both execution paths (vectorized and message-passing) fill the same trace:
agent states x and y after every iteration, the post-communication points v
and post-gradient points u inside every iteration, and the resource counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class RunTrace:
    x: np.ndarray  # (iterations + 1, n, d) agent estimates
    y: np.ndarray  # (iterations + 1, n, d) correction states
    v: np.ndarray  # (iterations, n, d) post-communication points per iteration
    u: np.ndarray  # (iterations, n, d) post-gradient points per iteration
    params: object
    gradient_evaluations: int
    row_communications: int
    deliveries: np.ndarray | None = field(default=None, repr=False)  # int32 rows (iteration, round, sender, receiver)

    @classmethod
    def start(cls, x0, y0, iterations: int, params) -> "RunTrace":
        """Trace allocated for ``iterations`` with validated initial states in slot 0.

        x0 has shape (n, d); y0 defaults to zeros and its rows must sum to
        zero. The runner fills the other slots and the counters.
        """
        x = np.asarray(x0, dtype=float)
        if x.ndim != 2:
            raise ConfigError(f"x0 must have shape (n, d), got {x.shape}")
        y = np.zeros_like(x) if y0 is None else np.asarray(y0, dtype=float)
        if y.shape != x.shape:
            raise ConfigError(f"y0 shape {y.shape} does not match x0 shape {x.shape}")
        if np.linalg.norm(y.sum(axis=0)) > 1e-12 * max(1.0, np.abs(y).max()):
            raise ConfigError("initial correction states must sum to zero across agents")
        n, d = x.shape
        trace = cls(
            x=np.empty((iterations + 1, n, d)),
            y=np.empty((iterations + 1, n, d)),
            v=np.empty((iterations, n, d)),
            u=np.empty((iterations, n, d)),
            params=params,
            gradient_evaluations=0,
            row_communications=0,
        )
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

    def max_errors(self, xstar) -> np.ndarray:
        """Worst-agent distance to ``xstar`` per iteration: shape (iterations + 1,)."""
        return self.errors(xstar).max(axis=1)
