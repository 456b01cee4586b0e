"""Numerical convergence certificates for a run.

States are stacked as (n, d) arrays, one row per agent. Every stacked point
splits orthogonally into an average part (all rows the common mean) and a
disagreement part (rows summing to zero). In error coordinates relative to
the fixed point, the energy

    V(xb, yb) = ||avg(xb)||^2 + ||dis(xb)||^2
                + 2 lam <dis(xb), dis(yb)> + lam ||dis(yb)||^2

is positive definite for lam in (0, 1) and contracts by rho^2 on every
iteration of a compliant run, which yields the per-agent error bound
||x_i(k) - x*|| <= c * rho^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithm import sigma0
from .errors import AnalysisError, DegenerateFitError
from .objective import Problem
from .trace import RunTrace

DECREASE_TOL = 1e-9
YSTAR_MEAN_TOL = 1e-10


def average_part(z: np.ndarray) -> np.ndarray:
    """Every row replaced by the mean row."""
    z = np.asarray(z, dtype=float)
    return np.broadcast_to(z.mean(axis=0), z.shape)


def disagreement_part(z: np.ndarray) -> np.ndarray:
    """Deviation of each row from the mean row; rows sum to zero."""
    z = np.asarray(z, dtype=float)
    return z - z.mean(axis=0)


def _sq(z: np.ndarray) -> float:
    return float(np.sum(z * z))


def lyapunov(xbar: np.ndarray, ybar: np.ndarray, lam: float) -> float:
    """Energy of the error state (xbar, ybar); requires lam in (0, 1)."""
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0, 1) for positive definiteness, got {lam}")
    xbar = np.asarray(xbar, dtype=float)
    ybar = np.asarray(ybar, dtype=float)
    if xbar.shape != ybar.shape:
        raise ValueError(f"shape mismatch: {xbar.shape} vs {ybar.shape}")
    dx = disagreement_part(xbar)
    dy = disagreement_part(ybar)
    return _sq(average_part(xbar)) + _sq(dx) + 2.0 * lam * float(np.sum(dx * dy)) + lam * _sq(dy)


@dataclass(frozen=True)
class FixedPoint:
    """Stationary state of the dynamics at the optimizer.

    The correction states absorb the (generally nonzero) local gradients:
    y*_i = -(alpha / lam) * grad f_i(x*), which average to zero because the
    local gradients sum to zero at the optimizer.
    """

    xstar: np.ndarray  # (d,)
    ystar: np.ndarray  # (n, d)
    ustar: np.ndarray  # (n, d)


def fixed_point(problem: Problem, params) -> FixedPoint:
    """Fixed point of the run's dynamics; needs the problem's optimizer."""
    if problem.optimizer is None:
        raise AnalysisError("fixed-point analysis needs a problem with a known optimizer")
    xstar = problem.optimizer
    ustar = xstar - params.alpha * problem.objective.gradient(problem.objective.at(xstar))
    ystar = (ustar - xstar) / params.lam
    mean_norm = np.linalg.norm(ystar.mean(axis=0))
    if mean_norm > YSTAR_MEAN_TOL * max(1.0, np.abs(ystar).max()):
        raise AnalysisError(
            f"correction fixed point does not average to zero (norm {mean_norm:.3e}); "
            "the local gradients do not cancel at the declared optimizer"
        )
    return FixedPoint(xstar=xstar, ystar=ystar, ustar=ustar)


@dataclass(frozen=True)
class LyapunovRecord:
    """Energy at one iteration and its weighted difference from the previous one."""

    k: int
    value: float
    delta: float | None  # value(k) - rho^2 * value(k - 1), None at k = 0
    exceeds_tolerance: bool


def lyapunov_trace(trace: RunTrace, fp: FixedPoint, params) -> list[LyapunovRecord]:
    """Energy along a run and the per-iteration decrease check.

    Record k carries value(k) and, for k >= 1, delta = value(k) - rho^2 *
    value(k - 1); a compliant run keeps every delta below the tolerance.
    """
    records = []
    previous = None
    for k in range(trace.iterations + 1):
        xbar = trace.x[k] - fp.xstar
        ybar = trace.y[k] - fp.ystar
        value = lyapunov(xbar, ybar, params.lam)
        delta = None if previous is None else value - params.rho**2 * previous
        records.append(
            LyapunovRecord(
                k=k,
                value=value,
                delta=delta,
                exceeds_tolerance=delta is not None and delta > DECREASE_TOL,
            )
        )
        previous = value
    return records


def decrease_terms(trace: RunTrace, fp: FixedPoint, params) -> np.ndarray:
    """The three nonnegative terms whose weighted sum is the energy decrease.

    Row k holds, for iteration k:
      [0] rho^2 ||vb||^2 - ||ub||^2          (gradient-map contraction margin)
      [1] sigma0^2 ||dis xb||^2 - ||dis vb||^2  (consensus contraction margin)
      [2] ||dis(vb + lam (xb + yb))||^2      (completed square)

    Each must be >= 0 up to roundoff on a compliant run; a negative entry
    localizes which assumption failed.
    """
    s0_sq = sigma0(params.rho) ** 2
    terms = np.empty((trace.iterations, 3))
    for k in range(trace.iterations):
        xb = trace.x[k] - fp.xstar
        yb = trace.y[k] - fp.ystar
        vb = trace.v[k] - fp.xstar
        ub = trace.u[k] - fp.ustar
        terms[k, 0] = params.rho**2 * _sq(vb) - _sq(ub)
        terms[k, 1] = s0_sq * _sq(disagreement_part(xb)) - _sq(disagreement_part(vb))
        terms[k, 2] = _sq(disagreement_part(vb + params.lam * (xb + yb)))
    return terms


def error_bound_constant(initial_value: float, lam: float) -> float:
    """Constant c with ||x_i(k) - x*|| <= c * rho^k, from the initial energy.

    c = sqrt(cond(M) * V0) where M = [[1, lam], [lam, lam]] weights the
    disagreement block of the energy.
    """
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0, 1), got {lam}")
    if initial_value < 0:
        raise ValueError(f"initial energy must be nonnegative, got {initial_value}")
    discriminant = math.sqrt((1.0 - lam) ** 2 + 4.0 * lam**2)
    eig_max = (1.0 + lam + discriminant) / 2.0
    eig_min = (1.0 + lam - discriminant) / 2.0
    return math.sqrt(eig_max / eig_min * initial_value)


def fit_rate(errors, tail_fraction: float = 0.5) -> float:
    """Per-iteration geometric decay fitted to the tail of an error sequence.

    Least-squares slope of log(error) against the index over the last
    ``tail_fraction`` of the sequence, exponentiated. Values that have decayed
    below 100 * eps * initial error are discarded as floating-point floor.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size < 2:
        raise DegenerateFitError(f"need a 1-d error sequence, got shape {errors.shape}")
    if np.any(errors < 0):
        raise DegenerateFitError("error values must be nonnegative")
    if not 0 < tail_fraction <= 1:
        raise ValueError(f"tail fraction must be in (0, 1], got {tail_fraction}")
    floor = 100.0 * np.finfo(float).eps * errors[0]
    start = int(math.floor(errors.size * (1.0 - tail_fraction)))
    tail_idx = np.arange(start, errors.size)
    usable = tail_idx[errors[tail_idx] > floor]
    if usable.size < 10:
        raise DegenerateFitError(
            f"only {usable.size} tail points above the floating-point floor; need at least 10"
        )
    slope = np.polyfit(usable, np.log(errors[usable]), 1)[0]
    return float(math.exp(slope))
