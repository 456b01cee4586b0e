"""Numerical convergence certificates for a run.

States are stacked as (n, d) arrays, one row per agent. Every stacked point
splits orthogonally into an average part (all rows the common mean) and a
disagreement part (rows summing to zero). In error coordinates relative to
the fixed point, the energy

    V(xb, yb) = ||avg(xb)||^2 + ||dis(xb)||^2
                + 2 lam <dis(xb), dis(yb)> + lam ||dis(yb)||^2

is positive definite for lam in (0, 1) and contracts by rho^2 on every
iteration of a compliant run, which yields the per-agent error bound
||x_i(k) - x*|| <= c * rho^k. Energies and decrease terms take whole (K, n, d) stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithm import sigma0
from .errors import AnalysisError, DegenerateFitError
from .objective import Problem
from .trace import RunTrace

# The decrease check allows V(k) - rho^2 V(k - 1) up to this share of V(k - 1), plus this share of V(0) + eps * S,
# S the fixed point's own energy: a roundoff floor of a run's energies that means the same at every data scale.
DECREASE_RELATIVE = 1e-9
DECREASE_FLOOR = 1e3 * np.finfo(float).eps
YSTAR_MEAN_TOL = 1e-10
FIT_TAIL_FRACTION = 0.5  # share of an error sequence's fall that fit_rate fits


def _mean_row(z: np.ndarray) -> np.ndarray:
    """The mean row of each stacked (n, d) slice, as (..., 1, d); a BLAS product, unlike ``mean(axis=-2)``."""
    return (np.matmul(np.ones(z.shape[-2]), z) / z.shape[-2])[..., None, :]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each stacked (n, d) slice: one BLAS row dot per slice."""
    lead, size = a.shape[:-2], a.shape[-2] * a.shape[-1]
    return np.matmul(a.reshape(lead + (1, size)), b.reshape(lead + (size, 1)))[..., 0, 0]


def lyapunov(x: np.ndarray, y: np.ndarray, lam: float, xstar=0.0, ystar=0.0):
    """Energy of the error state (x - xstar, y - ystar), per stacked (n, d) slice; lam in (0, 1)."""
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0, 1) for positive definiteness, got {lam}")
    xbar, ybar = np.subtract(x, xstar, dtype=float), np.subtract(y, ystar, dtype=float)
    if xbar.shape != ybar.shape:
        raise ValueError(f"shape mismatch: {xbar.shape} vs {ybar.shape}")
    mean = _mean_row(xbar)
    xbar -= mean  # both error states become their disagreement parts in place
    ybar -= _mean_row(ybar)
    value = xbar.shape[-2] * _dot(mean, mean) + _dot(xbar, xbar)
    value += 2.0 * lam * _dot(xbar, ybar) + lam * _dot(ybar, ybar)
    return float(value) if value.ndim == 0 else value


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
    ustar = xstar - params.alpha * problem.gradient(problem.at(xstar))
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
    value(k - 1); a compliant run keeps every delta at or below
    ``DECREASE_RELATIVE * value(k - 1) + DECREASE_FLOOR * (value(0) + eps * S)``,
    S the energy of (x*, y*) from 0, which keeps a floor where value(0) = 0.
    """
    values = lyapunov(trace.x, trace.y, params.lam, fp.xstar, fp.ystar)
    scale = lyapunov(np.broadcast_to(fp.xstar, fp.ystar.shape), fp.ystar, params.lam)
    floor = DECREASE_FLOOR * (values[0] + np.finfo(float).eps * scale)
    deltas = values[1:] - params.rho**2 * values[:-1]
    flags = [False] + (deltas > DECREASE_RELATIVE * values[:-1] + floor).tolist()
    rows = enumerate(zip(values.tolist(), [None] + deltas.tolist(), flags))
    return [LyapunovRecord(k, value, delta, flag) for k, (value, delta, flag) in rows]


def decrease_terms(trace: RunTrace, fp: FixedPoint, params) -> np.ndarray:
    """The three nonnegative terms whose weighted sum is the energy decrease.

    Row k holds, for iteration k:
      [0] rho^2 ||vb||^2 - ||ub||^2          (gradient-map contraction margin)
      [1] sigma0^2 ||dis xb||^2 - ||dis vb||^2  (consensus contraction margin)
      [2] ||dis(vb + lam (xb + yb))||^2      (completed square)

    Each must be >= 0 up to roundoff on a compliant run; a negative entry
    localizes which assumption failed.
    """
    vb = trace.v - fp.xstar
    xb = trace.u - fp.ustar  # ub until the first term is taken
    gradient_map = params.rho**2 * _dot(vb, vb) - _dot(xb, xb)
    np.subtract(trace.x[:-1], fp.xstar, out=xb)
    square = trace.y[:-1] - fp.ystar  # yb, then vb + lam (xb + yb), built in that order
    square += xb
    square *= params.lam
    square += vb
    for z in (square, xb, vb):
        z -= _mean_row(z)
    consensus = sigma0(params.rho) ** 2 * _dot(xb, xb) - _dot(vb, vb)
    return np.column_stack([gradient_map, consensus, _dot(square, square)])


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


def fit_rate(errors) -> float:
    """Per-iteration geometric decay fitted to the tail of an error sequence's fall.

    The fall ends at the first value that no later value undercuts by a
    factor of 10 and from which the least-squares slope of log(error) is not
    below zero by over three standard errors: a roundoff plateau is cut off,
    a slow tail after a fast transient is not. The rate is the exponentiated
    slope over the last ``FIT_TAIL_FRACTION`` of the fall, or all of it if
    that leaves under 10 points. Values below 100 * eps * initial error are
    discarded as floor.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size < 2:
        raise DegenerateFitError(f"need a 1-d error sequence, got shape {errors.shape}")
    if np.any(errors < 0):
        raise DegenerateFitError("error values must be nonnegative")
    floor = 100.0 * np.finfo(float).eps * errors[0]
    settled = errors <= 10.0 * np.minimum.accumulate(errors[::-1])[::-1]
    # Slope and standard error over every suffix errors[i:] from suffix sums; logs relative to
    # the last value keep a flat tail exactly zero, and a one- or two-point suffix (NaN) is flat.
    logs = np.log(np.maximum(errors, floor or np.finfo(float).tiny))
    logs -= logs[-1]
    index = np.arange(errors.size, dtype=float)
    count = errors.size - index
    sums = np.cumsum(np.stack([index, logs, index * logs, logs**2])[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = count * (count**2 - 1) / 12  # centered sum of squared indices
        covariance = sums[2] - sums[0] * sums[1] / count
        slope = covariance / spread
        residual = np.maximum(sums[3] - sums[1] ** 2 / count - slope * covariance, 0.0)
        falling = slope < -3.0 * np.sqrt(residual / (count - 2) / spread)
    end = errors.size if settled[0] else int(np.argmax(settled & ~falling))
    start = int(math.floor(end * (1.0 - FIT_TAIL_FRACTION))) if end * FIT_TAIL_FRACTION >= 10 else 0
    usable = np.arange(start, end)[errors[start:end] > floor]
    if usable.size < 10:
        raise DegenerateFitError(f"only {usable.size} tail points above the floating-point floor; need at least 10")
    slope = np.polyfit(usable, np.log(errors[usable]), 1)[0]
    return float(math.exp(slope))
