"""Stacked local objectives, the stepsize/contraction parameterization, and sampled checks.

A problem holds the objectives of all n agents, evaluates every local
gradient with one formula on an (n, d) array of points, and carries the
optimizer of their average when it is known.

The convergence theory needs each local gradient map x -> x - alpha * grad f_i(x)
to contract toward the global optimizer by a factor rho < 1. For quadratics that
factor is max |1 - alpha * eig|, which gives an exact oracle; for everything else
the contraction is checked on sampled points.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, allocating

CONTRACTION_SLACK = 1e-9
GRADIENT_SUM_TOL = 1e-6


class Problem:
    """The local objectives of n agents, their data stacked one row per agent,
    and the optimizer of their average when it is known (else None).

    ``gradient`` maps points X of shape (n, d), row i for agent i, to the
    (n, d) local gradients and counts one evaluation per agent.
    ``agent(i)`` is a read-only view holding only row i of the data: the same
    formulas then take and return single points of shape (d,), and the
    view's evaluations land in entry i of the problem's counter.
    """

    def __init__(self, n: int, dimension: int, optimizer=None):
        """Called last by subclasses: a declared optimizer is checked against the stacked data."""
        if n < 1:
            raise ValueError("a problem needs at least one agent")
        self.dimension = dimension
        self.gradient_calls = np.zeros(n, dtype=np.int64)
        self.optimizer = None if optimizer is None else np.asarray(optimizer, dtype=float)
        if self.optimizer is not None:
            if self.optimizer.shape != (dimension,):
                raise ValueError(f"optimizer has shape {self.optimizer.shape}, expected ({dimension},)")
            total = self.gradient(self.at(self.optimizer)).sum(axis=0)
            if np.linalg.norm(total) > GRADIENT_SUM_TOL * n:
                raise ValueError(
                    "local gradients do not sum to zero at the declared optimizer "
                    f"(norm {np.linalg.norm(total):.3e})"
                )

    @property
    def n(self) -> int:
        return self.gradient_calls.shape[0]

    def _row(self, i: int) -> dict:
        """Attributes of the agent-i view: the row-i slices of the stacked data."""
        raise NotImplementedError

    def agent(self, i: int):
        if not 0 <= i < self.n:
            raise ConfigError(f"agent index {i} out of range for {self.n} agents")
        view = copy.copy(self)
        view.__dict__.update(self._row(i))
        view.gradient_calls = self.gradient_calls[i : i + 1]
        return view

    def at(self, x) -> np.ndarray:
        """The common point x of shape (d,) as a read-only (n, d) stack: one row, seen n times through a zero stride."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        return np.broadcast_to(x, (self.n, self.dimension))


@dataclass(frozen=True)
class ContractionParams:
    """Stepsize alpha and contraction factor rho of the local gradient maps.

    rho = 0 is allowed here (it arises at the mu = L boundary); consumers that
    need rho strictly inside (0, 1) clamp it when deriving the round count.
    """

    alpha: float
    rho: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"stepsize must be positive, got {self.alpha}")
        if not 0 <= self.rho < 1:
            raise ValueError(f"contraction factor must be in [0, 1), got {self.rho}")


@dataclass(frozen=True)
class StrongSmoothParams:
    """One-point smoothness/strong-convexity bounds 0 < mu <= L."""

    mu: float
    L: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.L < self.mu:
            raise ValueError(f"L must be >= mu, got L={self.L} < mu={self.mu}")


def params_from_one_point_convexity(p: StrongSmoothParams) -> ContractionParams:
    """Stepsize 2/(L+mu) and contraction factor (L-mu)/(L+mu).

    At mu = L this returns rho = 0 (exact one-step convergence of the
    gradient map).
    """
    return ContractionParams(alpha=2.0 / (p.L + p.mu), rho=(p.L - p.mu) / (p.L + p.mu))


class QuadraticObjective(Problem):
    """f_i(x) = 0.5 x'A_i x - b_i'x with symmetric A_i; gradient A_i x - b_i.

    ``A`` is one (d, d) matrix shared by every agent or an (n, d, d) stack;
    ``B`` holds the b_i as rows, shape (n, d).
    """

    def __init__(self, A, B, optimizer=None):
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        if B.ndim != 2:
            raise ValueError(f"B must have shape (n, d), got {B.shape}")
        n, d = B.shape
        if A.shape not in ((d, d), (n, d, d)):
            raise ValueError(f"A has shape {A.shape}, expected ({d}, {d}) or ({n}, {d}, {d})")
        if not np.allclose(A, A.swapaxes(-1, -2), rtol=0, atol=1e-12):
            raise ValueError("A must be symmetric")
        A.setflags(write=False)
        B.setflags(write=False)
        self.A = A
        self.B = B
        super().__init__(n, d, optimizer)

    def _row(self, i):
        return {"A": self.A if self.A.ndim == 2 else self.A[i], "B": self.B[i]}

    def _apply_A(self, X) -> np.ndarray:
        # Rows are points and A is symmetric, so each point x becomes x @ A_i:
        # one BLAS matrix-vector product per row, the same call an agent view
        # makes on its own point, so every row is bit-identical to its view's.
        return np.matmul(X[..., None, :], self.A)[..., 0, :]

    def value(self, X):
        X = np.asarray(X, dtype=float)
        return 0.5 * np.sum(X * self._apply_A(X), axis=-1) - np.sum(self.B * X, axis=-1)

    def gradient(self, X) -> np.ndarray:
        self.gradient_calls += 1
        return self._apply_A(np.asarray(X, dtype=float)) - self.B


@dataclass(frozen=True)
class ContractionReport:
    """Worst contraction ratio observed over the sampled points."""

    passed: bool
    max_ratio: float
    samples_used: int


def check_contraction(problem: Problem, xstar, params, samples) -> ContractionReport:
    """Measure ||x - x* - alpha (grad f_i(x) - grad f_i(x*))|| / ||x - x*|| on samples.

    ``params`` is anything with ``alpha`` and ``rho``, such as ``ContractionParams``
    or ``AlgorithmParams``.

    The ratio is taken for every agent i at every sample; the report carries
    the worst. Passes when that stays below rho + 1e-9. Samples exactly at x*
    are skipped (the ratio is 0/0 there). The gradients come from two calls:
    one at x* and one on the (samples, n, d) stack of every sample repeated
    once per agent.
    """
    xstar = np.asarray(xstar, dtype=float)
    grad_star = problem.gradient(problem.at(xstar))
    samples = np.asarray(samples, dtype=float)
    dist = np.linalg.norm(samples - xstar, axis=1)
    keep = dist != 0.0
    x, dist = samples[keep, None, :], dist[keep]  # (used, 1, d)
    gradients = problem.gradient(np.broadcast_to(x, (len(dist), problem.n, problem.dimension)))
    mapped = x - xstar - params.alpha * (gradients - grad_star)
    max_ratio = float((np.linalg.norm(mapped, axis=2).max(axis=1) / dist).max(initial=0.0))
    return ContractionReport(
        passed=max_ratio <= params.rho + CONTRACTION_SLACK,
        max_ratio=max_ratio,
        samples_used=len(dist),
    )


def sample_ball(center, radius: float, count: int, seed: int) -> np.ndarray:
    """Seeded points inside the ball of ``radius`` around ``center`` (count, d)."""
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((count, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / d)
    return center + radii[:, None] * directions


def _random_symmetric(rng: np.random.Generator, eigs: np.ndarray) -> np.ndarray:
    """Symmetric matrix with spectrum ``eigs`` in a random orthonormal eigenbasis."""
    Q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    A = Q @ np.diag(eigs) @ Q.T
    return 0.5 * (A + A.T)


def random_quadratic_problem(
    n: int,
    dimension: int,
    mu: float,
    L: float,
    seed: int,
    shared_hessian: bool = True,
) -> Problem:
    """Seeded problem of n quadratic locals with spectra inside [mu, L], with its optimizer.

    With ``shared_hessian`` every agent gets the same curvature matrix (whose
    spectrum includes mu and L exactly) and heterogeneity enters through the
    linear terms; the average objective then has the same extreme curvature as
    each local one. Without it, each agent draws its own eigenbasis and
    spectrum strictly inside [mu, L].
    """
    rng = np.random.default_rng(seed)
    with allocating(f"a problem of {n} agents in dimension {dimension}"):
        if shared_hessian:
            eigs = np.concatenate([[mu, L], rng.uniform(mu, L, size=max(dimension - 2, 0))])[:dimension]
            A = A_bar = _random_symmetric(rng, eigs)
            B = rng.standard_normal((n, dimension))
        else:
            # Per agent: eigenvalues, eigenbasis, then linear term; this draw order fixes the seeded data.
            A, B = np.empty((n, dimension, dimension)), np.empty((n, dimension))
            for i in range(n):
                A[i] = _random_symmetric(rng, rng.uniform(mu, L, size=dimension))
                B[i] = rng.standard_normal(dimension)
            A_bar = A.mean(axis=0)
    xstar = np.linalg.solve(A_bar, B.mean(axis=0))
    return QuadraticObjective(A, B, optimizer=xstar)
