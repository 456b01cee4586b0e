"""INI-style run configuration.

Sections and keys (see the README for a full example):

  [problem]       kind = quadratic | localization
                  quadratic: n, d, mu, L, seed
  [localization]  target = p,q ; seed = int ; n = int   (kind = localization only)
                  positions = p1,q1; p2,q2; ...   (replaces n and seed)
  [schedule]      kind = constant | cyclic | random
                  source = five-agent-pair | complete | ring | inline
                  n = int                         (complete and ring)
                  matrix1 = row; row; ...         (inline; matrix1, matrix2, ... read in order)
                  seed = int                      (random kind)
  [algorithm]     alpha, rho, sigma = float | auto ; m = int (optional override)
  [run]           iterations, seed, mode = vectorized | netsim,
                  output = path, x0 = positions | zeros | random | explicit points

The loader takes each key out of its section as it reads it; a key or
section left over is a config error that names it. So every key must be one
that the chosen kind or source reads. Matrix entries accept decimals or
exact fractions such as 3/8. n, d or iterations below 1 and a negative seed
are config errors too.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algorithm import AlgorithmParams
from .errors import ConfigError, allocating
from .gossip import GAP_ROUNDOFF, GossipMatrix, GossipSchedule, complete_matrix, ring_matrix, spectral_gap
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


def parse_number(kind, text: str, key: str, minimum=None):
    """``kind(text)`` for kind int or float; a malformed or non-finite value, or
    one below ``minimum``, is a config error naming ``key``."""
    try:
        value = kind(text)
        if kind is float and not math.isfinite(value) or minimum is not None and value < minimum:
            raise ValueError(text)
        return value
    except ValueError as exc:
        expected = ("an integer" if kind is int else "a finite number") + ("" if minimum is None else f" >= {minimum}")
        raise ConfigError(f"{key} must be {expected}, got {text!r}") from exc


def parse_rows(text: str, parse_value) -> np.ndarray:
    """Rows separated by ';', values by ','; returns the (rows, width) array of ``parse_value`` of each value."""
    rows = [row.strip() for row in text.strip().split(";") if row.strip()]
    if not rows:
        raise ConfigError(f"no rows in {text!r}")
    parsed = [[parse_value(value) for value in row.split(",")] for row in rows]
    if any(len(row) != len(parsed[0]) for row in parsed):
        raise ConfigError(f"rows of {text!r} disagree on length: {[len(row) for row in parsed]}")
    return np.array(parsed, dtype=float)


def parse_points(text: str) -> np.ndarray:
    """Points of decimal coordinates as ``parse_rows`` reads them; returns (count, dim)."""
    return parse_rows(text, lambda value: parse_number(float, value, "point coordinate"))


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


def _required(section: dict, name: str, key: str) -> str:
    """Take ``key`` out of section [name]; a missing key is a config error."""
    if key not in section:
        raise ConfigError(f"missing key {key!r} in section [{name}]")
    return section.pop(key)


def _float_or_auto(text: str) -> float | str:
    text = text.strip()
    return "auto" if text == "auto" else parse_number(float, text, "alpha, rho and sigma")


def load_run_config(path) -> RunConfig:
    """The run configured at ``path``.

    Each key is taken out of its section as it is read, so whatever is left
    at the end is a key or section that the chosen kind and source do not
    read, and a config error.
    """
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        # Opened here, not by ConfigParser.read, which skips a path it cannot open (a directory, say) in silence.
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    read = ["problem", "schedule", "algorithm", "run"]

    if "problem" not in sections:
        raise ConfigError("config needs a [problem] section")
    problem = sections["problem"]
    kind = _required(problem, "problem", "kind").strip()
    quadratic = None
    localization = None
    if kind == "quadratic":
        quadratic = {
            "n": parse_number(int, problem.pop("n", "5"), "n", minimum=1),
            "d": parse_number(int, problem.pop("d", "3"), "d", minimum=1),
            "mu": parse_number(float, problem.pop("mu", "1.0"), "mu"),
            "L": parse_number(float, problem.pop("l", "3.0"), "L"),  # configparser lowercases keys
            "seed": parse_number(int, problem.pop("seed", "0"), "seed", minimum=0),
        }
        if not 0 < quadratic["mu"] <= quadratic["L"] < np.inf:
            raise ConfigError("quadratic problem needs 0 < mu <= L < inf")
    elif kind == "localization":
        if "localization" not in sections:
            raise ConfigError("localization problems need a [localization] section")
        read.append("localization")
        loc = sections["localization"]
        target = np.array([parse_number(float, v, "target") for v in loc.pop("target", "1.0, 1.0").split(",")])
        if "positions" in loc:
            localization = LocalizationConfig.from_positions(parse_points(loc.pop("positions")), target)
        else:
            localization = LocalizationConfig.sampled(
                n=parse_number(int, loc.pop("n", "5"), "n", minimum=1),
                seed=parse_number(int, _required(loc, "localization", "seed"), "seed", minimum=0),
                target=target,
            )
    else:
        raise ConfigError(f"unknown problem kind {kind!r}; expected quadratic or localization")

    if "schedule" not in sections:
        raise ConfigError("config needs a [schedule] section")
    sched = sections["schedule"]
    schedule_kind = _required(sched, "schedule", "kind").strip()
    # Named here, or an unknown kind would be reported as the seed it leaves unread.
    if schedule_kind not in GossipSchedule.KINDS:
        raise ConfigError(f"unknown schedule kind {schedule_kind!r}, expected one of {GossipSchedule.KINDS}")
    source = sched.pop("source", "inline").strip()
    if source == "five-agent-pair":
        matrices = list(five_agent_gossip_pair())
    elif source in ("complete", "ring"):
        n = parse_number(int, _required(sched, "schedule", "n"), "n", minimum=1)
        with allocating(f"a {n}-agent {source} matrix"):
            matrices = [complete_matrix(n) if source == "complete" else ring_matrix(n)]
    elif source == "inline":
        # matrix1, matrix2, ... up to the first absent number; any later matrixN is left over.
        matrices = []
        while (text := sched.pop(f"matrix{len(matrices) + 1}", None)) is not None:
            matrices.append(GossipMatrix(parse_rows(text, parse_entry)))
        if not matrices:
            raise ConfigError("inline schedule needs matrix1 (and matrix2, ... as needed)")
    else:
        raise ConfigError(f"unknown schedule source {source!r}")

    algo = sections.setdefault("algorithm", {})
    run = sections.setdefault("run", {})
    config = RunConfig(
        problem_kind=kind,
        quadratic=quadratic,
        localization=localization,
        schedule_kind=schedule_kind,
        schedule_matrices=matrices,
        schedule_seed=parse_number(int, sched.pop("seed", "0"), "seed", minimum=0) if schedule_kind == "random" else 0,
        alpha=_float_or_auto(algo.pop("alpha", "auto")),
        rho=_float_or_auto(algo.pop("rho", "auto")),
        sigma=_float_or_auto(algo.pop("sigma", "auto")),
        m_override=parse_number(int, algo.pop("m"), "m") if "m" in algo else None,
        iterations=parse_number(int, run.pop("iterations", "100"), "iterations", minimum=1),
        seed=parse_number(int, run.pop("seed", "0"), "seed", minimum=0),
        mode=run.pop("mode", "vectorized").strip(),
        output=run.pop("output", None),
        x0_spec=run.pop("x0", "positions" if kind == "localization" else "random").strip(),
    )
    for name, keys in sections.items():
        if name not in read:
            raise ConfigError(f"unknown section [{name}]")
        if keys:
            raise ConfigError(f"unknown key {', '.join(map(repr, keys))} in section [{name}]")
    if config.mode not in ("vectorized", "netsim"):
        raise ConfigError(f"mode must be vectorized or netsim, got {config.mode!r}")
    return config


def build_problem(config: RunConfig) -> Problem:
    if config.problem_kind == "quadratic":
        q = config.quadratic
        return random_quadratic_problem(q["n"], q["d"], q["mu"], q["L"], q["seed"])
    return config.localization.problem()


def schedule_gap(matrices) -> float:
    """Largest spectral gap of a schedule's matrices: the least sigma that bounds every round."""
    return max(spectral_gap(W) for W in matrices)


def check_contracting(alpha: float, factor: float, where: str) -> None:
    """Refuses a stepsize whose gradient map does not contract: its factor ``where`` is 1 or more."""
    if factor >= 1.0:
        raise ConfigError(f"stepsize {alpha:.6g} gives contraction factor {factor:.6g} >= 1 {where}")


def resolve_params(config: RunConfig, problem: Problem, gap: float) -> AlgorithmParams:
    """Fill in auto values: sigma from ``gap``, the schedule's ``schedule_gap``; alpha/rho from the problem."""
    sigma = gap if config.sigma == "auto" else config.sigma
    # Out-of-range values (a curvature ratio that rounds to 1, an m too small) surface as ValueError.
    try:
        alpha, rho = config.alpha, config.rho
        if config.problem_kind == "quadratic":
            mu, L = config.quadratic["mu"], config.quadratic["L"]
            derived = params_from_one_point_convexity(StrongSmoothParams(mu, L))
            # The gradient map contracts by exactly max |1 - alpha * eig| over [mu, L].
            if alpha == "auto":
                alpha, factor = derived.alpha, derived.rho
            else:
                factor = max(abs(1.0 - alpha * mu), abs(1.0 - alpha * L))
            check_contracting(alpha, factor, "on [mu, L]")
            if rho == "auto":
                rho = factor
            elif rho < factor:
                raise ConfigError(
                    f"rho = {rho:.6g} is below the contraction factor {factor:.6g} of stepsize {alpha:.6g}"
                )
        else:
            target = config.localization.target
            if alpha == "auto":
                alpha = optimal_stepsize(problem, target)
            if rho == "auto":  # the factor is linearized at the target, so an explicit rho is taken as given
                rho = gd_contraction_factor(config.localization, alpha)
                check_contracting(alpha, rho, f"at the target {target[0]:g}, {target[1]:g}")
        if config.sigma == "auto" and gap == 1.0:  # spectral_gap rounds a gap within GAP_ROUNDOFF * n of 1 to 1
            raise ConfigError(
                f"schedule spectral gap reads 1: at {problem.n} agents a gap within {GAP_ROUNDOFF * problem.n:.3g} of 1 "
                "cannot be told from 1, so no round count can be derived"
            )
        if config.sigma == "auto" and not 0 <= gap < 1:  # an explicit sigma out of range is named by derive's check
            raise ConfigError(f"schedule spectral gap {gap:.6g} is not in [0, 1); the network never mixes")
        return AlgorithmParams.derive(alpha, rho, sigma, m_override=config.m_override)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_schedule(config: RunConfig) -> GossipSchedule:
    return GossipSchedule(config.schedule_kind, config.schedule_matrices, config.schedule_seed)


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
