"""Shared fixtures: the built-in matrix pair and a corpus of compliant runs.

A corpus entry is a run whose problem satisfies the contraction assumption
with known (alpha, rho) and whose schedule satisfies the mixing assumption
with the configured gap bound, sized so the trajectory stays above the
floating-point floor. All trace-level invariants are checked against every
entry; each entry carries both execution paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

import gossipgrad as gg

FD_STEP = 1e-6



@pytest.fixture(scope="session")
def pair():
    return gg.five_agent_gossip_pair()


@pytest.fixture(scope="session")
def pair_sigma(pair):
    return max(gg.spectral_gap(W) for W in pair)


@dataclass
class CorpusRun:
    name: str
    problem: gg.Problem
    schedule: gg.GossipSchedule
    params: gg.AlgorithmParams
    x0: np.ndarray
    trace: gg.RunTrace  # vectorized path
    net_trace: gg.RunTrace  # message-passing path


def iterations_for(rho: float, decades: float = 12.5, floor: int = 24, cap: int = 160) -> int:
    """Iteration count that drives the error down ~``decades`` orders of magnitude."""
    return min(cap, max(floor, int(decades * math.log(10) / -math.log(rho))))


def ring_power_closed_form(n: int, rounds: int) -> np.ndarray:
    """ring_matrix(n)^rounds in extended precision for n >= 3, from the ring's circulant spectrum.

    Eigenvalue k is lambda_k = (1 + 2 cos(2 pi k / n)) / 3 with the Fourier
    basis, so the power is circulant: entry (i, j) depends only on
    r = (i - j) mod n and equals (1/n) sum_k lambda_k^rounds cos(2 pi k r / n).
    """
    two_pi = 8 * np.arctan(np.longdouble(1))
    k = np.arange(n)
    eigenvalues = (1 + 2 * np.cos(two_pi * k / n)) / 3
    # (k * r) mod n keeps every angle in [0, 2 pi), where cos is evaluated precisely.
    column = (np.cos(two_pi * (np.outer(k, k) % n) / n) * eigenvalues[:, None] ** rounds).sum(axis=0) / n
    return column[(k[:, None] - k[None, :]) % n]


def finite_difference_gradient(objective, x, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of one agent's view at x (d,), the model-free oracle."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        grad[j] = (objective.value(x + e) - objective.value(x - e)) / (2.0 * step)
    return grad


def make_run(problem, schedule, alpha, rho, sigma, seed, iterations=None, m_override=None) -> CorpusRun:
    params = gg.AlgorithmParams.derive(alpha, rho, sigma, m_override=m_override)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((problem.n, problem.dimension))
    K = iterations_for(params.rho) if iterations is None else iterations
    trace = gg.run_algorithm(problem, schedule, params, x0, K)
    net_trace = gg.run_netsim(problem, schedule, params, x0, K)
    return CorpusRun(
        name="", problem=problem, schedule=schedule, params=params, x0=x0, trace=trace, net_trace=net_trace
    )


@pytest.fixture(scope="session")
def corpus(pair, pair_sigma) -> list[CorpusRun]:
    W1, W2 = pair
    sigma_w1 = gg.spectral_gap(W1)
    runs = []

    def add(name, **kwargs):
        run = make_run(**kwargs)
        run.name = name
        runs.append(run)

    def quad(n, d, mu, L, seed, shared=True):
        problem = gg.random_quadratic_problem(n, d, mu, L, seed, shared_hessian=shared)
        cp = gg.params_from_one_point_convexity(gg.StrongSmoothParams(mu, L))
        return problem, cp

    problem, cp = quad(5, 3, 1.0, 3.0, seed=7)
    add(
        "quad-1-3-random-pair",
        problem=problem,
        schedule=gg.GossipSchedule.random_choice([W1, W2], seed=42),
        alpha=cp.alpha,
        rho=cp.rho,
        sigma=pair_sigma,
        seed=1,
    )

    problem, cp = quad(5, 3, 1.0, 9.0, seed=11)
    add(
        "quad-1-9-cyclic-pair",
        problem=problem,
        schedule=gg.GossipSchedule.cyclic([W1, W2]),
        alpha=cp.alpha,
        rho=cp.rho,
        sigma=pair_sigma,
        seed=2,
    )

    problem, cp = quad(5, 2, 2.0, 5.0, seed=13, shared=False)
    add(
        "quad-hetero-2-5-constant-w1",
        problem=problem,
        schedule=gg.GossipSchedule.constant(W1),
        alpha=cp.alpha,
        rho=cp.rho,
        sigma=sigma_w1,
        seed=3,
    )

    problem, cp = quad(5, 5, 1.0, 4.0, seed=17)
    add(
        "quad-1-4-random-pair-d5",
        problem=problem,
        schedule=gg.GossipSchedule.random_choice([W1, W2], seed=99),
        alpha=cp.alpha,
        rho=cp.rho,
        sigma=pair_sigma,
        seed=4,
    )

    problem, cp = quad(5, 3, 1.0, 2.0, seed=19, shared=False)
    add(
        "quad-hetero-1-2-random-pair-m12",
        problem=problem,
        schedule=gg.GossipSchedule.random_choice([W1, W2], seed=5),
        alpha=cp.alpha,
        rho=cp.rho,
        sigma=pair_sigma,
        seed=5,
        m_override=12,  # above the derived value: extra mixing must stay compliant
    )
    return runs


@pytest.fixture(scope="session")
def localization_config_path():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "configs" / "localization.ini"


@pytest.fixture(scope="session")
def quadratic_config_path():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "configs" / "quadratic.ini"
