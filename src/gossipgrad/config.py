"""INI-style run configuration.

Sections and keys (see the README for a full example):

  [problem]       kind = quadratic | localization
                  quadratic: n, d, mu, L, seed
  [localization]  target = p,q ; seed = int ; n = int
                  positions = p1,q1; p2,q2; ...   (optional, overrides seed)
  [schedule]      kind = constant | cyclic | random
                  source = five-agent-pair | complete | ring | inline
                  matrix1 = row; row; ...         (inline, entries may be fractions)
                  seed = int                      (random kind)
  [algorithm]     alpha, rho, sigma = float | auto ; m = int (optional override)
  [run]           iterations, seed, mode = vectorized | netsim,
                  output = path, x0 = positions | zeros | random | explicit points

Matrix entries accept decimals or exact fractions such as 3/8.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algorithm import AlgorithmParams
from .errors import ConfigError
from .gossip import GossipMatrix, GossipSchedule, complete_matrix, ring_matrix, spectral_gap
from .localization import LocalizationConfig, five_agent_gossip_pair, gd_contraction_factor, optimal_stepsize
from .objective import Problem, params_from_one_point_convexity, random_quadratic_problem, StrongSmoothParams


def parse_entry(text: str) -> float:
    """One finite matrix entry: a decimal or an exact fraction like 3/8."""
    text = text.strip()
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
        if not math.isfinite(value):
            raise ValueError(text)
        return value
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse matrix entry {text!r}") from exc


def parse_matrix(text: str) -> GossipMatrix:
    """Rows separated by ';', entries by ','."""
    rows = [row.strip() for row in text.strip().split(";") if row.strip()]
    if not rows:
        raise ConfigError("empty matrix text")
    parsed = [[parse_entry(entry) for entry in row.split(",")] for row in rows]
    width = len(parsed[0])
    if any(len(row) != width for row in parsed) or width != len(parsed):
        raise ConfigError(f"matrix text is not square: {len(parsed)} rows, widths {[len(r) for r in parsed]}")
    return GossipMatrix(parsed)


def parse_number(kind, text: str, key: str):
    """``kind(text)`` for kind int or float; a malformed or non-finite value is a config error naming ``key``."""
    try:
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(text)
        return value
    except ValueError as exc:
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a finite number'}, got {text!r}") from exc


def parse_points(text: str) -> np.ndarray:
    """Points separated by ';', coordinates by ','; returns (count, dim)."""
    rows = [row.strip() for row in text.strip().split(";") if row.strip()]
    if not rows:
        raise ConfigError("empty point list")
    parsed = [[parse_number(float, value, "point coordinate") for value in row.split(",")] for row in rows]
    width = len(parsed[0])
    if any(len(row) != width for row in parsed):
        raise ConfigError("points disagree on dimension")
    return np.array(parsed, dtype=float)


@dataclass
class RunConfig:
    """Everything a run needs, still in declarative form."""

    problem_kind: str
    quadratic: dict | None
    localization: LocalizationConfig | None
    schedule_kind: str
    schedule_matrices: list[GossipMatrix]
    schedule_seed: int
    alpha: float | str
    rho: float | str
    sigma: float | str
    m_override: int | None
    iterations: int
    seed: int
    mode: str
    output: str | None
    x0_spec: str


def _get(section, key, default=None):
    if key in section:
        return section[key]
    if default is not None:
        return default
    raise ConfigError(f"missing key {key!r} in section [{section.name}]")


def _float_or_auto(text: str) -> float | str:
    text = text.strip()
    return "auto" if text == "auto" else parse_number(float, text, "alpha, rho and sigma")


def _agent_count(sched) -> int:
    n = parse_number(int, _get(sched, "n"), "n")
    if n < 1:
        raise ConfigError(f"schedule needs n >= 1 agents, got {n}")
    return n


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    if "problem" not in parser:
        raise ConfigError("config needs a [problem] section")
    problem_section = parser["problem"]
    kind = _get(problem_section, "kind").strip()
    quadratic = None
    localization = None
    if kind == "quadratic":
        quadratic = {
            "n": parse_number(int, _get(problem_section, "n", "5"), "n"),
            "d": parse_number(int, _get(problem_section, "d", "3"), "d"),
            "mu": parse_number(float, _get(problem_section, "mu", "1.0"), "mu"),
            "L": parse_number(float, _get(problem_section, "L", "3.0"), "L"),
            "seed": parse_number(int, _get(problem_section, "seed", "0"), "seed"),
        }
        if quadratic["n"] < 1 or quadratic["d"] < 1:
            raise ConfigError("quadratic problem needs n >= 1 and d >= 1")
        if not 0 < quadratic["mu"] <= quadratic["L"] < np.inf:
            raise ConfigError("quadratic problem needs 0 < mu <= L < inf")
    elif kind == "localization":
        if "localization" not in parser:
            raise ConfigError("localization problems need a [localization] section")
        loc = parser["localization"]
        target = np.array([parse_number(float, v, "target") for v in _get(loc, "target", "1.0, 1.0").split(",")])
        if "positions" in loc:
            localization = LocalizationConfig.from_positions(parse_points(loc["positions"]), target)
        else:
            localization = LocalizationConfig.sampled(
                n=parse_number(int, _get(loc, "n", "5"), "n"),
                seed=parse_number(int, _get(loc, "seed"), "seed"),
                target=target,
            )
    else:
        raise ConfigError(f"unknown problem kind {kind!r}; expected quadratic or localization")

    if "schedule" not in parser:
        raise ConfigError("config needs a [schedule] section")
    sched = parser["schedule"]
    schedule_kind = _get(sched, "kind").strip()
    source = _get(sched, "source", "inline").strip()
    if source == "five-agent-pair":
        matrices = list(five_agent_gossip_pair())
    elif source == "complete":
        matrices = [complete_matrix(_agent_count(sched))]
    elif source == "ring":
        matrices = [ring_matrix(_agent_count(sched))]
    elif source == "inline":
        matrices = []
        index = 1
        while f"matrix{index}" in sched:
            matrices.append(parse_matrix(sched[f"matrix{index}"]))
            index += 1
        if not matrices:
            raise ConfigError("inline schedule needs matrix1 (and matrix2, ... as needed)")
    else:
        raise ConfigError(f"unknown schedule source {source!r}")

    algo = parser["algorithm"] if "algorithm" in parser else {}
    run = parser["run"] if "run" in parser else {}
    m_override = parse_number(int, algo["m"], "m") if "m" in algo else None

    config = RunConfig(
        problem_kind=kind,
        quadratic=quadratic,
        localization=localization,
        schedule_kind=schedule_kind,
        schedule_matrices=matrices,
        schedule_seed=parse_number(int, sched.get("seed", "0"), "seed"),
        alpha=_float_or_auto(algo.get("alpha", "auto")),
        rho=_float_or_auto(algo.get("rho", "auto")),
        sigma=_float_or_auto(algo.get("sigma", "auto")),
        m_override=m_override,
        iterations=parse_number(int, run.get("iterations", "100"), "iterations"),
        seed=parse_number(int, run.get("seed", "0"), "seed"),
        mode=run.get("mode", "vectorized").strip(),
        output=run.get("output", None),
        x0_spec=run.get("x0", "positions" if kind == "localization" else "random").strip(),
    )
    if config.iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {config.iterations}")
    if config.mode not in ("vectorized", "netsim"):
        raise ConfigError(f"mode must be vectorized or netsim, got {config.mode!r}")
    return config


def build_problem(config: RunConfig) -> Problem:
    if config.problem_kind == "quadratic":
        q = config.quadratic
        return random_quadratic_problem(q["n"], q["d"], q["mu"], q["L"], q["seed"])
    return config.localization.problem()


def resolve_params(config: RunConfig, problem: Problem) -> AlgorithmParams:
    """Fill in auto values: sigma from the schedule matrices, alpha/rho from the problem."""
    sigma = config.sigma
    if sigma == "auto":
        sigma = max(spectral_gap(W) for W in config.schedule_matrices)
    alpha, rho = config.alpha, config.rho
    if config.problem_kind == "quadratic":
        mu, L = config.quadratic["mu"], config.quadratic["L"]
        derived = params_from_one_point_convexity(StrongSmoothParams(mu, L))
        # The gradient map contracts by exactly max |1 - alpha * eig| over [mu, L].
        if alpha == "auto":
            alpha, factor = derived.alpha, derived.rho
        else:
            factor = max(abs(1.0 - alpha * mu), abs(1.0 - alpha * L))
        if factor >= 1.0:
            raise ConfigError(f"stepsize {alpha:.6g} gives contraction factor {factor:.6g} >= 1 on [mu, L]")
        if rho == "auto":
            rho = factor
        elif rho < factor:
            raise ConfigError(f"rho = {rho:.6g} is below the contraction factor {factor:.6g} of stepsize {alpha:.6g}")
    else:
        if alpha == "auto":
            alpha = optimal_stepsize(problem, config.localization.target)
        if rho == "auto":
            rho = gd_contraction_factor(config.localization, alpha)
    if not 0 < sigma < 1:
        raise ConfigError(f"schedule spectral gap {sigma:.6g} is not in (0, 1); the network never mixes")
    try:
        return AlgorithmParams.derive(alpha, rho, sigma, m_override=config.m_override)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_schedule(config: RunConfig, rounds_per_iteration: int) -> GossipSchedule:
    if config.schedule_kind == "constant":
        if len(config.schedule_matrices) != 1:
            raise ConfigError("constant schedule takes exactly one matrix")
        return GossipSchedule.constant(config.schedule_matrices[0])
    if config.schedule_kind == "cyclic":
        return GossipSchedule.cyclic(config.schedule_matrices, rounds_per_iteration)
    if config.schedule_kind == "random":
        return GossipSchedule.random_choice(config.schedule_matrices, config.schedule_seed)
    raise ConfigError(f"unknown schedule kind {config.schedule_kind!r}")


def initial_states(config: RunConfig, problem: Problem) -> np.ndarray:
    """Initial agent estimates x0 with shape (n, d)."""
    spec = config.x0_spec
    n, d = problem.n, problem.dimension
    if spec == "positions":
        if config.problem_kind != "localization":
            raise ConfigError("x0 = positions only makes sense for localization problems")
        return config.localization.positions.copy()
    if spec == "zeros":
        return np.zeros((n, d))
    if spec == "random":
        return np.random.default_rng(config.seed).standard_normal((n, d))
    points = parse_points(spec)
    if points.shape == (1, d):
        return np.repeat(points, n, axis=0)
    if points.shape != (n, d):
        raise ConfigError(f"explicit x0 has shape {points.shape}, expected ({n}, {d})")
    return points
