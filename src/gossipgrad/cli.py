"""Config-driven experiment runner.

Subcommands:
  run        execute a configured run and write the CSV trace
  grid       round counts m over a (rho, sigma) grid
  rates      alias of grid that adds the per-step convergence rate rho**(1/m)
  validate   check the assumptions behind a config (gap, contraction, gradient cancellation)

``grid --rho-min R --rho-max 0.999 --sigma-min S --sigma-max 0.999`` tabulates
m over the feasible region (r, s) >= (R, S) of a config with rho R and gap S.

Exit codes: 0 success, 1 failed validation, 2 bad config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import analysis
from .algorithm import centralized_gd, comm_rounds, run_algorithm
from .config import build_problem, build_schedule, initial_states, load_run_config, resolve_params, schedule_gap
from .errors import AnalysisError, ConfigError, DegenerateCurvatureError, SingularPointError, allocating
from .netsim import run_netsim
from .objective import check_contraction, sample_ball

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# validate's contraction check samples this many points in this ball around the optimizer.
VALIDATE_SAMPLES = 200
VALIDATE_RADIUS = 10.0


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_lines(path: str | None, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc.strerror}") from exc


def assemble(path):
    """(config, problem, params, schedule, x0, gap) from the config at ``path``, as ``run`` and ``validate`` need them.

    gap is the schedule's largest spectral gap, computed once; under ``sigma = auto`` it is params.sigma.
    """
    config = load_run_config(path)
    try:
        problem = build_problem(config)
    except ValueError as exc:  # the solved optimizer fails its gradient-sum check
        raise AnalysisError(f"the solved optimizer is not exact: {exc}") from exc
    schedule = build_schedule(config)
    if schedule.n != problem.n:
        raise ConfigError(f"the problem has {problem.n} agents but the schedule mixes {schedule.n}")
    gap = schedule_gap(schedule.matrices)
    return config, problem, resolve_params(config, problem, gap), schedule, initial_states(config, problem), gap


def cmd_run(args) -> int:
    config, problem, params, schedule, x0, gap = assemble(args.config)
    if params.sigma < gap:
        # m was derived from sigma, so sigma^m <= sigma0 would not hold for the true gap.
        raise ConfigError(f"sigma = {params.sigma:.6g} is below the schedule's spectral gap {gap:.6g}")
    runner = run_netsim if (args.mode or config.mode) == "netsim" else run_algorithm
    xstar = problem.optimizer
    # Overflow is caught by the finiteness check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        trace = runner(problem, schedule, params, x0, config.iterations)
        errors = trace.errors(xstar)
        fp = analysis.fixed_point(problem, params)
        records = analysis.lyapunov_trace(trace, fp, params)
        central = centralized_gd(problem, params.alpha, x0.mean(axis=0), config.iterations)
        central_err = np.linalg.norm(central - xstar, axis=1)
    energies = [record.value for record in records]
    if not (np.isfinite(errors).all() and np.isfinite(energies).all() and np.isfinite(central_err).all()):
        print("numerical failure: the run produced non-finite errors or energies", file=sys.stderr)
        return EXIT_NUMERICAL

    # One block of n rows per iteration: the iteration's head and tail are formatted once and joined
    # between the rows' "agent,%.17g" cells, so each row adds only its agent id and its error.
    cells = [f"{i},%.17g" for i in range(errors.shape[1])]
    lines = ["iter,step,agent,error,lyapunov"]
    for k, (row, energy) in enumerate(zip(errors.tolist(), energies)):
        head, tail = f"{k},{k * params.m},", f",{_fmt(energy)}"
        lines.append(head + (tail + "\n" + head).join(cells) % tuple(row) + tail)
    lines.extend(f"{k},{k},centralized,{_fmt(error)}," for k, error in enumerate(central_err.tolist()))
    _write_lines(args.output or config.output, lines)
    return EXIT_OK


def _grid(low: float, high: float, resolution: int) -> np.ndarray:
    if not (0 < low <= high < 1):
        raise ConfigError(f"range [{low}, {high}] must sit inside (0, 1)")
    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")
    with allocating(f"a grid of resolution {resolution}"):
        return np.linspace(low, high, resolution)


def cmd_grid(args) -> int:
    """Round counts m over a (rho, sigma) grid; ``rates`` adds the per-step rate rho**(1/m)."""
    rates = args.command == "rates"
    rhos = _grid(args.rho_min, args.rho_max, args.resolution)
    sigmas = _grid(args.sigma_min, args.sigma_max, args.resolution)
    lines = ["rho,sigma,m,per_step_rate" if rates else "rho,sigma,m"]
    for rho in rhos:
        for sigma in sigmas:
            try:
                m = comm_rounds(rho, sigma)
            except ValueError as exc:  # a denormal rho, whose threshold sigma0 underflows to 0
                raise ConfigError(f"no round count at rho = {_fmt(rho)}, sigma = {_fmt(sigma)}: {exc}") from exc
            row = f"{_fmt(rho)},{_fmt(sigma)},{m}"
            lines.append(f"{row},{_fmt(rho ** (1.0 / m))}" if rates else row)
    _write_lines(args.output, lines)
    return EXIT_OK


def cmd_validate(args) -> int:
    config, problem, params, _, _, gap = assemble(args.config)

    checks: list[tuple[str, bool, str]] = [
        (
            "spectral gap within bound",
            gap <= params.sigma,
            f"actual {gap:.6f} vs configured {params.sigma:.6f}",
        )
    ]

    xstar = problem.optimizer
    samples = sample_ball(xstar, radius=VALIDATE_RADIUS, count=VALIDATE_SAMPLES, seed=config.seed)
    try:
        report = check_contraction(problem, xstar, params, samples)
        ok, worst = report.passed, report.max_ratio
    except SingularPointError:
        ok, worst = False, float("inf")
    checks.append(("sampled contraction", ok, f"worst ratio {worst:.6f} vs rho {params.rho:.6f}"))

    # The cancellation check ``run`` applies: the correction fixed point must average to zero.
    try:
        ystar = analysis.fixed_point(problem, params).ystar
        cancels, detail = True, f"correction fixed point mean norm {np.linalg.norm(ystar.mean(axis=0)):.3e}"
    except AnalysisError as exc:
        cancels, detail = False, str(exc)
    checks.append(("gradient sum zero at optimizer", cancels, detail))

    all_passed = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        all_passed = all_passed and passed
    return EXIT_OK if all_passed else EXIT_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``main`` parses every command line with it.

    It binds no handler: ``main`` looks up ``cmd_<command>`` by name at each
    call, so a wrapper set on a ``cmd_*`` function after the parser is built
    is the one that runs.
    """
    parser = argparse.ArgumentParser(prog="gossipgrad", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured experiment and write the CSV trace")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="CSV path (default from config, '-' for stdout)")
    p_run.add_argument("--mode", choices=("vectorized", "netsim"), default=None)
    p_grid = sub.add_parser("grid", aliases=["rates"], help="m over a (rho, sigma) grid; rates adds rho**(1/m)")
    p_grid.add_argument("--rho-min", type=float, default=0.05)
    p_grid.add_argument("--rho-max", type=float, default=0.95)
    p_grid.add_argument("--sigma-min", type=float, default=0.05)
    p_grid.add_argument("--sigma-max", type=float, default=0.95)
    p_grid.add_argument("--resolution", type=int, default=50)
    p_grid.add_argument("--output", default="-")
    sub.add_parser("validate", help="check the assumptions behind a config").add_argument("config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_grid" if args.command == "rates" else f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ConfigError, MemoryError) as exc:  # numpy refuses a configured size before it touches memory
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularPointError, DegenerateCurvatureError, AnalysisError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
