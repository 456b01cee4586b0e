"""The multi-round-gossip gradient method and the centralized reference.

One iteration runs m rounds of gossip on the agent estimates, evaluates each
local gradient once at the mixed point, and applies a correction state y that
accumulates the pre/post-communication difference:

    v(i, 0) = x_i(k)
    v(i, l) = sum_j W(k, l)[i, j] * v(j, l - 1)        for l = 1..m
    u_i     = v(i, m) - alpha * grad f_i(v(i, m))
    y_i(k+1) = y_i(k) + x_i(k) - v(i, m)
    x_i(k+1) = u_i - sqrt(1 - rho^2) * y_i(k+1)

m is the least round count that pushes the m-round mixing gap sigma^m below
the threshold sigma0(rho) = (sqrt(1 + rho) - sqrt(1 - rho)) / 2.

Both execution paths share one run loop, ``run``, and one update rule,
``algorithm_iteration``; they differ only in the mixer that maps x_i(k) to
v(i, m). The vectorized mixers live here: W^m of a one-matrix schedule,
by its spectrum for a symmetric circulant at m > 1 and by
``np.linalg.matrix_power`` for any other single matrix, else one dense
product per round. The message-passing mixer lives in ``netsim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
# matrix_at is no longer called here but stays importable: benchmarks/tracer.py hooks it by this path.
from .gossip import GossipSchedule, circulant_spectrum_power, matrix_at, round_table  # noqa: F401
from .objective import Problem
from .trace import RunTrace

RHO_FLOOR = 1e-6


def sigma0(rho: float) -> float:
    """Consensus threshold (sqrt(1 + rho) - sqrt(1 - rho)) / 2, increasing in rho, in a form that does not cancel."""
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if rho / 2.0 == 0.0:  # the least denormal rho: the threshold, about rho / 2, underflows to 0
        raise ValueError(f"sigma0 underflows to 0 at rho = {rho}, so no round count reaches it")
    return rho / (math.sqrt(1.0 + rho) + math.sqrt(1.0 - rho))


def comm_rounds(rho: float, sigma: float) -> int:
    """Least m >= 1 with sigma**m <= sigma0(rho), for sigma in [0, 1): the one place the round rule is evaluated.

    A gap of 0 needs one round. Computed from the log ratio and then adjusted
    by direct comparison so the result is exactly the least integer
    satisfying the float inequality (boundary equality accepted).
    """
    threshold = sigma0(rho)
    if not 0 <= sigma < 1:
        raise ValueError(f"sigma must be in [0, 1), got {sigma}")
    m = max(1, math.ceil(math.log(threshold) / math.log(sigma))) if sigma > 0 else 1
    while sigma**m > threshold:
        m += 1
    while m > 1 and sigma ** (m - 1) <= threshold:
        m -= 1
    return m


@dataclass(frozen=True)
class AlgorithmParams:
    """Validated parameter bundle: stepsize, contraction factor, gap bound and
    rounds per iteration m, at least ``comm_rounds(rho, sigma)``, which owns
    the rho and sigma domains. A gap of 0 means one round reaches consensus."""

    alpha: float
    rho: float
    sigma: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"stepsize must be positive and finite, got {self.alpha}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        least = comm_rounds(self.rho, self.sigma)
        if self.m < least:
            raise ValueError(
                f"m={self.m} leaves sigma^m above the consensus threshold {sigma0(self.rho):.6g}; need m >= {least}"
            )

    @property
    def lam(self) -> float:
        """Correction gain sqrt(1 - rho^2)."""
        return math.sqrt(1.0 - self.rho**2)

    @classmethod
    def derive(cls, alpha: float, rho: float, sigma: float, m_override: int | None = None) -> "AlgorithmParams":
        """Build params from (alpha, rho, sigma), deriving m unless overridden; either m meets the same check.

        rho in [0, 1e-6), the mu = L boundary, is clamped to 1e-6 so lam stays
        below 1 and the round count is well defined; a negative rho is rejected.
        """
        rho = RHO_FLOOR if 0 <= rho < RHO_FLOOR else float(rho)
        m = comm_rounds(rho, sigma) if m_override is None else int(m_override)
        return cls(alpha=float(alpha), rho=rho, sigma=float(sigma), m=m)


# benchmarks/tracer.py hooks algorithm_iteration by this path, so run must call it through the module global.
def algorithm_iteration(problem: Problem, params: AlgorithmParams, mix, x: np.ndarray, y: np.ndarray, iteration: int):
    """One iteration on stacked states x, y of shape (n, d): the update rule of both execution paths.

    Returns (x_next, y_next, v, u) with v = mix(iteration, x) the
    post-communication and u the post-gradient points; evaluates each local
    gradient exactly once, at v.
    """
    v = mix(iteration, x)
    u = v - params.alpha * problem.gradient(v)
    y_next = y + x - v
    x_next = u - params.lam * y_next
    return x_next, y_next, v, u


def power_mixer(schedule: GossipSchedule, m: int, trace: RunTrace | None = None):
    """Mixing by W^m of a one-matrix schedule, one application per iteration.

    One power serves every iteration, so ``trace`` is not read.

    A symmetric circulant declared by ``circulant_matrix`` (every ring and
    complete matrix) at m > 1 mixes by its spectrum's m-th power, formed
    once: one rfft/irfft pair along the agent axis per iteration, O(n d log n),
    with no n x n matrix. Any other single W, a dense inline or API circulant
    too, mixes by one product with ``np.linalg.matrix_power(W, m)``, formed once.
    """
    W = schedule.matrices[0]
    spectrum = circulant_spectrum_power(W, m) if m > 1 else None
    if spectrum is None:
        power = np.linalg.matrix_power(np.ascontiguousarray(W.weights), m)  # a ring's view, made dense once
        return lambda iteration, x: power @ x
    n = W.n
    half = spectrum[: n // 2 + 1, None]  # the real spectrum is even, so rfft's half of it is all irfft reads
    half[0] = 1.0  # lambda_0 of a doubly stochastic W is 1, even where its 1/n weights sum to 1 - 1 ulp
    return lambda iteration, x: np.fft.irfft(np.fft.rfft(x, axis=0) * half, n, axis=0)


def round_mixer(schedule: GossipSchedule, m: int, trace: RunTrace):
    """Mixing by m dense rounds per iteration, read from the run's ``round_table``, drawn once."""
    rows = round_table(schedule, trace.iterations, m).tolist()
    weights = [np.ascontiguousarray(W.weights) for W in schedule.matrices]  # a ring's view, made dense once

    def mix(iteration, v):
        # ``dot`` makes the same BLAS call as ``@`` with less per-call overhead.
        for index in rows[iteration]:
            v = weights[index].dot(v)
        return v

    return mix


def run(
    problem: Problem,
    schedule: GossipSchedule,
    params: AlgorithmParams,
    x0: np.ndarray,
    iterations: int,
    y0: np.ndarray | None,
    mixer,
) -> RunTrace:
    """The run loop of both execution paths: checks, then ``iterations`` iterations into one trace.

    The mixer contract: ``mixer(schedule, m, trace)`` builds the run's ``mix(iteration, x) -> v``
    once, after the trace is allocated and the agent counts are checked, and
    records in ``trace`` what it will do (netsim's delivery ledger). Gradient
    evaluations are counted per agent and checked to be one per iteration.
    """
    trace = RunTrace.start(x0, y0, iterations, params)
    if problem.n != trace.n or schedule.n != trace.n:
        raise ConfigError(f"agent count mismatch: states {trace.n}, problem {problem.n}, schedule {schedule.n}")
    mix = mixer(schedule, params.m, trace)
    calls_before = problem.gradient_calls.copy()
    x, y = trace.x[0], trace.y[0]
    for k in range(iterations):
        x, y, trace.v[k], trace.u[k] = algorithm_iteration(problem, params, mix, x, y, k)
        trace.x[k + 1], trace.y[k + 1] = x, y
    trace.count_gradients(problem.gradient_calls - calls_before)
    return trace


def run_algorithm(
    problem: Problem,
    schedule: GossipSchedule,
    params: AlgorithmParams,
    x0: np.ndarray,
    iterations: int,
    y0: np.ndarray | None = None,
) -> RunTrace:
    """Vectorized reference execution for ``iterations`` iterations.

    x0 has shape (n, d); y0 defaults to zeros and must have blocks summing to
    zero. A single-matrix schedule mixes with W^m in place of m rounds per
    iteration (``power_mixer``): a symmetric circulant at m > 1 by its
    spectrum, one FFT pair per iteration, any other by one product with
    ``np.linalg.matrix_power(W, m)``, formed once per run.
    """
    mixer = power_mixer if len(schedule.matrices) == 1 else round_mixer
    return run(problem, schedule, params, x0, iterations, y0, mixer)


def centralized_gd(problem: Problem, alpha: float, x0, iterations: int) -> np.ndarray:
    """Plain gradient descent on the average objective; returns (iterations + 1, d)."""
    x = np.array(x0, dtype=float)
    if x.shape != (problem.dimension,):
        raise ConfigError(f"x0 has shape {x.shape}, expected ({problem.dimension},)")
    stack = problem.at(x)  # a view of x, so it follows the in-place steps
    trajectory = np.empty((iterations + 1, problem.dimension))
    trajectory[0] = x
    for k in range(iterations):
        np.subtract(x, alpha * (problem.gradient(stack).sum(axis=0) / problem.n), out=x)
        trajectory[k + 1] = x
    return trajectory
