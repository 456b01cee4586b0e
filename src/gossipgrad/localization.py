"""Distributed range-based target localization in the plane.

Each agent sits at a known position, measures its exact distance to an
unknown target, and carries the nonlinear least-squares residual

    f_i(p, q) = 0.5 * (dist((p, q), agent_i) - r_i)^2.

The problem is nonconvex but the target is the global minimizer with value
zero, and every local gradient vanishes there, so the noiseless setup keeps
the usual fixed-point analysis applicable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateCurvatureError, SingularPointError, allocating
from .gossip import GossipMatrix
from .objective import Problem

ANCHOR_EXCLUSION = 1e-12
SAMPLE_BOX = (0.0, 2.0)  # sampled positions: each coordinate uniform on this interval
TARGET_EXCLUSION = 0.1  # least distance of a sampled position from the target


def _distances(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Each point's distance to the target; one that overflows is a config error naming the target."""
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(points - target, axis=1)
    if not np.isfinite(dist).all():
        raise ConfigError(
            f"target {target[0]:g}, {target[1]:g} is too far from the agents: a distance to it overflows"
        )
    return dist


@dataclass(frozen=True)
class LocalizationConfig:
    """Agent positions, target, and the derived exact range measurements."""

    positions: np.ndarray  # (n, 2)
    target: np.ndarray  # (2,)
    ranges: np.ndarray  # (n,)

    @classmethod
    def from_positions(cls, positions, target) -> "LocalizationConfig":
        positions = np.asarray(positions, dtype=float)
        target = np.asarray(target, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigError(f"positions must have shape (n, 2), got {positions.shape}")
        if target.shape != (2,):
            raise ConfigError(f"target must have shape (2,), got {target.shape}")
        ranges = _distances(positions, target)
        if np.any(ranges <= 0):
            raise ConfigError("no agent may sit exactly at the target")
        return cls(positions=positions, target=target, ranges=ranges)

    @classmethod
    def sampled(cls, n: int, seed: int, target=(1.0, 1.0)) -> "LocalizationConfig":
        """n agent positions, each coordinate uniform on ``SAMPLE_BOX``, all farther
        than ``TARGET_EXCLUSION`` from the target."""
        target = np.asarray(target, dtype=float)
        if target.shape != (2,):  # before sampling, whose distances would not broadcast
            raise ConfigError(f"target must have shape (2,), got {target.shape}")
        rng = np.random.default_rng(seed)
        positions = np.empty((0, 2))
        with allocating(f"{n} sampled positions"):
            while len(positions) < n:  # a block of the candidates still missing: the stream of one draw per candidate
                block = rng.uniform(*SAMPLE_BOX, size=(n - len(positions), 2))
                keep = _distances(block, target) > TARGET_EXCLUSION
                positions = np.concatenate([positions, block[keep]])
        return cls.from_positions(positions, target)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def problem(self) -> "RangeResidualObjective":
        return RangeResidualObjective(self.positions, self.ranges, optimizer=self.target)


class RangeResidualObjective(Problem):
    """Squared residuals between the distance to each agent's anchor and its measured range.

    ``anchors`` has shape (n, 2) and ``ranges`` shape (n,). Derivatives are
    singular at an anchor itself; evaluating them there raises instead of
    silently patching the point.
    """

    def __init__(self, anchors, ranges, optimizer=None):
        anchors = np.array(anchors, dtype=float)
        ranges = np.array(ranges, dtype=float)
        if anchors.ndim != 2 or anchors.shape[1] != 2 or ranges.shape != anchors.shape[:1]:
            raise ValueError(f"need anchors (n, 2) and ranges (n,), got {anchors.shape} and {ranges.shape}")
        anchors.setflags(write=False)
        ranges.setflags(write=False)
        self.anchors = anchors
        self.ranges = ranges
        super().__init__(anchors.shape[0], 2, optimizer)

    def _row(self, i):
        return {"anchors": self.anchors[i], "ranges": self.ranges[i]}

    def _offsets(self, X, what: str = "") -> tuple[np.ndarray, np.ndarray]:
        """Offsets from the anchors and their lengths; ``what`` names a derivative that needs them nonzero."""
        offset = np.asarray(X, dtype=float) - self.anchors
        # Bit for bit ``np.linalg.norm(offset, axis=-1)``, without its wrapper.
        dist = np.sqrt(np.add.reduce(offset * offset, axis=-1))
        singular = dist <= ANCHOR_EXCLUSION
        if what and singular.any():
            raise SingularPointError(f"{what} undefined at the anchor {self.anchors[singular][0]}")
        return offset, dist

    def value(self, X):
        _, dist = self._offsets(X)
        return 0.5 * (dist - self.ranges) ** 2

    def gradient(self, X) -> np.ndarray:
        self.gradient_calls += 1
        offset, dist = self._offsets(X, "gradient")
        return (1.0 - self.ranges / dist)[..., None] * offset

    def hessian_trace(self, X):
        _, dist = self._offsets(X, "curvature")
        return 2.0 - self.ranges / dist

    def hessian(self, X) -> np.ndarray:
        offset, dist = self._offsets(X, "curvature")
        scale = (self.ranges / dist)[..., None, None]
        outer = offset[..., :, None] * offset[..., None, :]
        return (1.0 - scale) * np.eye(2) + scale / dist[..., None, None] ** 2 * outer


def optimal_stepsize(problem: Problem, point) -> float:
    """Stepsize 2 / (sum of the two average-Hessian eigenvalues) at ``point``.

    In two dimensions that eigenvalue sum is the trace, which each agent can
    contribute to locally; at the target every residual contributes trace 1,
    so the stepsize there is exactly 2.
    """
    if problem.dimension != 2:
        raise ConfigError("the trace shortcut for the eigenvalue sum only holds in 2-d")
    trace_sum = float(np.mean(problem.hessian_trace(problem.at(point))))
    if trace_sum <= 0:
        raise DegenerateCurvatureError(
            f"average curvature trace {trace_sum:.6g} is not positive; no stepsize can be derived"
        )
    return 2.0 / trace_sum


def target_hessian(cfg: LocalizationConfig) -> np.ndarray:
    """Average Hessian of the residuals at the target (a 2x2 matrix with trace 1)."""
    residuals = RangeResidualObjective(cfg.positions, cfg.ranges)
    return residuals.hessian(residuals.at(cfg.target)).mean(axis=0)


def gd_contraction_factor(cfg: LocalizationConfig, alpha: float) -> float:
    """Contraction factor max |1 - alpha * eig| of centralized gradient descent,
    linearized at the target. With ``optimal_stepsize`` at the target this
    equals the spread of the two average-Hessian eigenvalues."""
    eigs = np.linalg.eigvalsh(target_hessian(cfg))
    return float(np.max(np.abs(1.0 - alpha * eigs)))


def five_agent_gossip_pair() -> tuple[GossipMatrix, GossipMatrix]:
    """The two mixing matrices of the built-in five-agent demo network.

    Both are doubly stochastic with zero diagonal; they differ in the link
    into agent 1 from agent 3 (0-based), modeling a packet that is dropped at
    random rounds. All entries are dyadic fractions, so the float matrices
    are exact.
    """
    F = Fraction
    first = [
        [0, F(3, 8), F(1, 4), 0, F(3, 8)],
        [F(1, 8), 0, F(3, 4), F(1, 8), 0],
        [0, F(5, 8), 0, F(3, 8), 0],
        [F(3, 8), 0, 0, 0, F(5, 8)],
        [F(1, 2), 0, 0, F(1, 2), 0],
    ]
    second = [
        [0, F(1, 2), F(1, 4), 0, F(1, 4)],
        [F(1, 4), 0, F(3, 4), 0, 0],
        [0, F(1, 2), 0, F(1, 2), 0],
        [F(1, 4), 0, 0, 0, F(3, 4)],
        [F(1, 2), 0, 0, F(1, 2), 0],
    ]
    return GossipMatrix(first), GossipMatrix(second)
