"""Config-driven experiment runner.

Subcommands:
  run        execute a configured run and write the CSV trace
  grid       round counts m over a (rho, sigma) grid
  rates      per-step convergence rates rho**(1/m) over a (rho, sigma) grid
  validate   check the assumptions behind a config (mixing, gap, contraction)
  explore-m  raw values of the round-count expression over (r, s) >= (rho, sigma)

Exit codes: 0 success, 1 failed validation, 2 bad config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis
from .algorithm import centralized_gd, comm_rounds, run_algorithm, sigma0
from .config import build_problem, build_schedule, initial_states, load_run_config, resolve_params
from .errors import ConfigError, DegenerateCurvatureError, SingularPointError
from .gossip import spectral_gap, validate_doubly_stochastic
from .netsim import run_netsim
from .objective import ContractionParams, check_contraction, sample_ball

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_lines(path: str | None, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_run(args) -> int:
    config = load_run_config(args.config)
    problem = build_problem(config)
    params = resolve_params(config, problem)
    schedule = build_schedule(config, params.m)
    x0 = initial_states(config, problem)
    runner = run_netsim if (args.mode or config.mode) == "netsim" else run_algorithm
    trace = runner(problem, schedule, params, x0, config.iterations)

    xstar = problem.optimizer
    errors = trace.errors(xstar)
    fp = analysis.fixed_point(problem, params)
    records = analysis.lyapunov_trace(trace, fp, params)
    central = centralized_gd(problem, params.alpha, x0.mean(axis=0), config.iterations)
    central_err = np.linalg.norm(central - xstar, axis=1)
    energies = [record.value for record in records]
    if not (np.isfinite(errors).all() and np.isfinite(energies).all() and np.isfinite(central_err).all()):
        print("numerical failure: the run produced non-finite errors or energies", file=sys.stderr)
        return EXIT_NUMERICAL

    lines = ["iter,step,agent,error,lyapunov"]
    for k in range(trace.iterations + 1):
        for i in range(trace.n):
            lines.append(f"{k},{k * params.m},{i},{_fmt(errors[k, i])},{_fmt(records[k].value)}")
    for k in range(config.iterations + 1):
        lines.append(f"{k},{k},centralized,{_fmt(central_err[k])},")
    _write_lines(args.output or config.output, lines)
    return EXIT_OK


def _grid(low: float, high: float, resolution: int) -> np.ndarray:
    if not (0 < low <= high < 1):
        raise ConfigError(f"range [{low}, {high}] must sit inside (0, 1)")
    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")
    return np.linspace(low, high, resolution)


def cmd_grid(args) -> int:
    """Round counts m over a (rho, sigma) grid; ``rates`` adds the per-step rate rho**(1/m)."""
    rates = args.command == "rates"
    rhos = _grid(args.rho_min, args.rho_max, args.resolution)
    sigmas = _grid(args.sigma_min, args.sigma_max, args.resolution)
    lines = ["rho,sigma,m,per_step_rate" if rates else "rho,sigma,m"]
    for rho in rhos:
        for sigma in sigmas:
            m = comm_rounds(rho, sigma)
            row = f"{_fmt(rho)},{_fmt(sigma)},{m}"
            lines.append(f"{row},{_fmt(rho ** (1.0 / m))}" if rates else row)
    _write_lines(args.output, lines)
    return EXIT_OK


def cmd_explore_m(args) -> int:
    rs = _grid(args.rho, min(args.r_max, 0.999), args.resolution)
    ss = _grid(args.sigma, min(args.s_max, 0.999), args.resolution)
    lines = ["r,s,ceil_log_ratio"]
    for r in rs:
        for s in ss:
            value = math.ceil(math.log(sigma0(r)) / math.log(s))
            lines.append(f"{_fmt(r)},{_fmt(s)},{value}")
    _write_lines(args.output, lines)
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_run_config(args.config)
    problem = build_problem(config)
    params = resolve_params(config, problem)

    checks: list[tuple[str, bool, str]] = []
    for idx, W in enumerate(config.schedule_matrices):
        report = validate_doubly_stochastic(W, tol=args.tol)
        checks.append(
            (
                f"doubly-stochastic matrix {idx}",
                report.passed,
                f"max row dev {report.max_row_deviation:.3e}, max col dev {report.max_col_deviation:.3e}",
            )
        )
    actual_gap = max(spectral_gap(W) for W in config.schedule_matrices)
    checks.append(
        (
            "spectral gap within bound",
            actual_gap <= params.sigma,
            f"actual {actual_gap:.6f} vs configured {params.sigma:.6f}",
        )
    )

    objective, xstar = problem.objective, problem.optimizer
    contraction = ContractionParams(alpha=params.alpha, rho=params.rho)
    samples = sample_ball(xstar, radius=args.radius, count=args.samples, seed=config.seed)
    try:
        report = check_contraction(objective, xstar, contraction, samples)
        ok, worst = report.passed, report.max_ratio
    except SingularPointError:
        ok, worst = False, float("inf")
    checks.append(("sampled contraction", ok, f"worst ratio {worst:.6f} vs rho {params.rho:.6f}"))

    gradient_sum = np.linalg.norm(objective.gradient(objective.at(xstar)).sum(axis=0))
    checks.append(
        ("gradient sum zero at optimizer", gradient_sum <= 1e-6 * problem.n, f"norm {gradient_sum:.3e}")
    )

    all_passed = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        all_passed = all_passed and passed
    return EXIT_OK if all_passed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gossipgrad", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment and write the CSV trace")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="CSV path (default from config, '-' for stdout)")
    p_run.add_argument("--mode", choices=("vectorized", "netsim"), default=None)
    p_run.set_defaults(handler=cmd_run)

    for name in ("grid", "rates"):
        p = sub.add_parser(name, help=f"{name} CSV over a (rho, sigma) grid")
        p.add_argument("--rho-min", type=float, default=0.05)
        p.add_argument("--rho-max", type=float, default=0.95)
        p.add_argument("--sigma-min", type=float, default=0.05)
        p.add_argument("--sigma-max", type=float, default=0.95)
        p.add_argument("--resolution", type=int, default=50)
        p.add_argument("--output", default="-")
        p.set_defaults(handler=cmd_grid)

    p_explore = sub.add_parser("explore-m", help="raw round-count expression over (r, s) >= (rho, sigma)")
    p_explore.add_argument("--rho", type=float, required=True)
    p_explore.add_argument("--sigma", type=float, required=True)
    p_explore.add_argument("--r-max", type=float, default=0.999)
    p_explore.add_argument("--s-max", type=float, default=0.999)
    p_explore.add_argument("--resolution", type=int, default=20)
    p_explore.add_argument("--output", default="-")
    p_explore.set_defaults(handler=cmd_explore_m)

    p_val = sub.add_parser("validate", help="check the assumptions behind a config")
    p_val.add_argument("config")
    p_val.add_argument("--tol", type=float, default=1e-9)
    p_val.add_argument("--samples", type=int, default=200)
    p_val.add_argument("--radius", type=float, default=10.0)
    p_val.set_defaults(handler=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularPointError, DegenerateCurvatureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
