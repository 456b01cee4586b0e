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
applied by its Fourier spectrum for a ring or complete matrix and as a
product formed once per run otherwise, else one dense product per round.
The message-passing mixer lives in ``netsim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
# matrix_at is no longer called here but stays importable: benchmarks/tracer.py hooks it by this path.
from .gossip import GossipSchedule, circulant_spectrum_power, matrix_at, mixing_product, round_table  # noqa: F401
from .objective import Problem
from .trace import RunTrace

RHO_FLOOR = 1e-6


def sigma0(rho: float) -> float:
    """Consensus threshold (sqrt(1 + rho) - sqrt(1 - rho)) / 2, increasing in rho."""
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    return (math.sqrt(1.0 + rho) - math.sqrt(1.0 - rho)) / 2.0


def comm_rounds(rho: float, sigma: float) -> int:
    """Least m >= 1 with sigma**m <= sigma0(rho).

    Computed from the log ratio and then adjusted by direct comparison so the
    result is exactly the least integer satisfying the float inequality
    (boundary equality accepted).
    """
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not 0 < sigma < 1:
        raise ValueError(f"sigma must be in (0, 1), got {sigma}")
    threshold = sigma0(rho)
    m = max(1, math.ceil(math.log(threshold) / math.log(sigma)))
    while sigma**m > threshold:
        m += 1
    while m > 1 and sigma ** (m - 1) <= threshold:
        m -= 1
    return m


@dataclass(frozen=True)
class AlgorithmParams:
    """Validated parameter bundle: stepsize, contraction factor, gap bound and
    rounds per iteration m. A gap of 0 means one round reaches consensus."""

    alpha: float
    rho: float
    sigma: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"stepsize must be positive and finite, got {self.alpha}")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not 0 <= self.sigma < 1:
            raise ValueError(f"sigma must be in [0, 1), got {self.sigma}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.sigma**self.m > sigma0(self.rho):
            raise ValueError(
                f"m={self.m} leaves sigma^m = {self.sigma**self.m:.6g} above the "
                f"consensus threshold {sigma0(self.rho):.6g}; need m >= "
                f"{comm_rounds(self.rho, self.sigma)}"
            )

    @property
    def lam(self) -> float:
        """Correction gain sqrt(1 - rho^2)."""
        return math.sqrt(1.0 - self.rho**2)

    @classmethod
    def derive(cls, alpha: float, rho: float, sigma: float, m_override: int | None = None) -> "AlgorithmParams":
        """Build params from (alpha, rho, sigma), deriving m unless overridden.

        rho is clamped to at least 1e-6 so lam stays below 1 and the log in
        the round count is well defined at the rho = 0 boundary. A gap of 0
        derives m = 1.
        """
        rho = max(float(rho), RHO_FLOOR)
        if m_override is not None:
            m = int(m_override)
        else:
            m = 1 if sigma == 0 else comm_rounds(rho, sigma)
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


def power_mixer(schedule: GossipSchedule, m: int, iterations: int | None = None):
    """Mixing by W^m of a one-matrix schedule, one application per iteration.

    One power serves every iteration, so ``iterations`` is not read.

    A symmetric circulant W (every ring and complete matrix) at m > 1 is
    diagonal in the Fourier basis: its spectrum's m-th power is computed
    once, and each iteration mixes by one rfft/irfft pair along the agent
    axis, O(n d log n), with no n x n matrix formed. Any other W, and m = 1,
    mixes by one product with ``mixing_product(W, m)``, formed once.
    """
    W = schedule.matrices[0]
    spectrum = circulant_spectrum_power(W, m) if m > 1 else None
    if spectrum is None:
        power = mixing_product(W, m)
        return lambda iteration, x: power @ x
    n = W.n
    half = spectrum[: n // 2 + 1, None]  # the real spectrum is even, so rfft's half of it is all irfft reads
    half[0] = 1.0  # lambda_0 of a doubly stochastic W is 1, even where its 1/n weights sum to 1 - 1 ulp
    return lambda iteration, x: np.fft.irfft(np.fft.rfft(x, axis=0) * half, n, axis=0)


def round_mixer(schedule: GossipSchedule, m: int, iterations: int):
    """Mixing by m dense rounds per iteration, read from the run's ``round_table``, drawn once."""
    rows = round_table(schedule, iterations, m).tolist()
    weights = [W.weights for W in schedule.matrices]

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

    ``mixer(schedule, m, iterations)`` builds the run's
    ``mix(iteration, x) -> v`` once, after the trace is allocated and the
    agent counts are checked. Gradient evaluations are counted per
    agent and asserted to be one per iteration.
    """
    trace = RunTrace.start(x0, y0, iterations, params)
    if problem.n != trace.n or schedule.n != trace.n:
        raise ConfigError(f"agent count mismatch: states {trace.n}, problem {problem.n}, schedule {schedule.n}")
    mix = mixer(schedule, params.m, iterations)
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
    iteration (``power_mixer``): a ring or complete matrix by one FFT pair
    per iteration, with no n x n power formed, any other matrix by one
    product with ``mixing_product``, formed once per run.
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
