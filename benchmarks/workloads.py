"""The benchmark's workloads: seeded inputs, set-up, one solve, and its checks.

A workload reaches the program only through ``gossipgrad.cli.main`` and the
names exported from ``gossipgrad``. Inputs are made here from the benchmark
seed; the program sees only the generated INI files, matrices and states.

A solve is the run in the workload's mode plus the energy certificate, ending
in a checked result. It fails when the program raises or exits non-zero, an
agent error exceeds the paper's bound ``c * rho^k``, a quadratic run breaks the
Lyapunov decrease, netsim and vectorized traces differ by more than 1e-12, or
the locality audit fails or miscounts messages.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, Decimal
from pathlib import Path

import numpy as np

import gossipgrad as gg
import gossipgrad.cli

MU, L = 1.0, 3.0  # curvature spectrum of the generated quadratics: alpha = rho = 0.5
EDGE_PROBABILITY = 0.3  # Erdos-Renyi graphs of the mesh workloads
MESH_GRAPHS = 4
ORACLE_TOL = 1e-12  # netsim against vectorized, entrywise
DECREASE_TOL = 1e-9  # Lyapunov decrease slack, as in gossipgrad.analysis
BOUND_SLACK = 1e-9  # relative slack on c * rho^k
# Errors stop shrinking at roundoff while c * rho^k keeps shrinking, so the
# bound gets this absolute floor, scaled by max(1, ||x*||).
ERROR_FLOOR = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    heavy: str  # layer predicted to hold the most self time
    idle: tuple  # layers predicted to stay near zero
    note: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            "configs/localization.ini and configs/quadratic.ini through cli.main run, vectorized and netsim "
            "(n=5, m=6): per-call Python overhead; mixing flops are about zero",
            heavy="netsim",
            idle=(),
            note="localization.ini is nonconvex and its rho is the contraction linearized at the target, so its "
            "Lyapunov decrease fails on some iterations (20 at the shipped schedule seed); those are recorded as "
            "analysis.violations, not failed solves. The schedule seeds and the quadratic's seeds come from the "
            "benchmark seed.",
        ),
        Workload(
            "ring-wide",
            "quadratic on a constant 400-ring through cli.main run (sigma near 1, m about 16.4k): "
            "dense mixing rounds are nearly all of the solve",
            heavy="gossip",
            idle=("objective", "analysis", "netsim"),
        ),
        Workload(
            "mesh-vec",
            "1000 agents on four random dense graphs (m=1) through the API: per-agent gradients "
            "and the per-iteration certificate dominate; mixing is one round",
            heavy="objective",
            idle=("netsim", "config/cli"),
        ),
        Workload(
            "mesh-netsim",
            "100 agents on four random graphs (m=2), message passing plus locality audit, about "
            "0.5 M messages: per-message objects and the ledger dominate time and memory",
            heavy="netsim",
            idle=("config/cli", "algorithm"),
        ),
    )
}

# Sizes of the full benchmark and of the reduced run its own tests use. A mesh
# graph whose gap exceeds max_gap is redrawn, so that every seed gives the same
# m (1 for mesh-vec, 2 for mesh-netsim at rho = 0.5) and the same work.
SIZES = {
    "ring-wide": {"full": {"n": 400, "iterations": 3}, "small": {"n": 40, "iterations": 3}},
    "mesh-vec": {
        "full": {"n": 1000, "iterations": 40, "max_gap": 0.25},
        "small": {"n": 60, "iterations": 10, "max_gap": 1.0},
    },
    "mesh-netsim": {
        "full": {"n": 100, "iterations": 84, "max_gap": 0.5},
        "small": {"n": 30, "iterations": 10, "max_gap": 1.0},
    },
}
DIMENSION = 10


class CheckFailed(Exception):
    """A solve produced output that fails one of the benchmark's checks."""


# -- inputs ------------------------------------------------------------------


def lapack_gap(W: np.ndarray) -> float:
    """Reference ||W - J||_2 from LAPACK (symmetric eigenvalues when W is symmetric)."""
    deviation = W - 1.0 / W.shape[0]
    if np.array_equal(deviation, deviation.T):
        return float(np.abs(np.linalg.eigvalsh(deviation)).max())
    return float(np.linalg.norm(deviation, 2))


def round_up(value: float, digits: int = 6) -> str:
    """``value`` rounded up in its ``digits``-th significant digit, as decimal text."""
    exact = Decimal(value)
    quantum = Decimal(1).scaleb(exact.adjusted() - digits + 1)
    return str(exact.quantize(quantum, rounding=ROUND_CEILING))


def metropolis_graph(n: int, p: float, rng: np.random.Generator, max_gap: float) -> np.ndarray:
    """Metropolis weights of a connected Erdos-Renyi graph with gap at most ``max_gap``.

    The weights are symmetric and doubly stochastic.
    """
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1)
        adjacency = upper | upper.T
        degree = adjacency.sum(axis=1)
        W = np.where(adjacency, 1.0 / (1.0 + np.maximum(degree[:, None], degree[None, :])), 0.0)
        W[np.diag_indices(n)] = 1.0 - W.sum(axis=1)
        if lapack_gap(W) <= min(max_gap, 1.0 - 1e-9):  # a gap below 1 means connected
            return W


def _sub_seeds(seed: int, workload: str, count: int) -> list[int]:
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def prepare(name: str, seed: int, workdir: Path, root: Path, small: bool = False) -> dict:
    """Make the workload's inputs in ``workdir`` and return their JSON description."""
    size = "small" if small else "full"
    seeds = _sub_seeds(seed, name, 4)
    spec = {"workload": name, "seed": seed, "size": size, "why": WORKLOADS[name].why}
    if name == "desk":
        runs = []
        for config in ("localization", "quadratic"):
            parser = configparser.ConfigParser()
            parser.read(root / "configs" / f"{config}.ini")
            parser["schedule"]["seed"] = str(seeds[0])
            if config == "quadratic":
                parser["problem"]["seed"] = str(seeds[1])
                parser["run"]["seed"] = str(seeds[2])
            runs.append(_write_ini(workdir, config, parser, ("vectorized", "netsim")))
        spec.update(kind="cli", runs=runs)
    elif name == "ring-wide":
        n, iterations = SIZES[name][size]["n"], SIZES[name][size]["iterations"]
        sigma = round_up(lapack_gap(gg.ring_matrix(n).weights))
        parser = configparser.ConfigParser()
        parser.read_dict(
            {
                "problem": {"kind": "quadratic", "n": n, "d": DIMENSION, "mu": MU, "L": L, "seed": seeds[1]},
                "schedule": {"kind": "constant", "source": "ring", "n": n},
                "algorithm": {"alpha": "auto", "rho": "auto", "sigma": sigma},
                "run": {"iterations": iterations, "seed": seeds[2], "mode": "vectorized", "x0": "random"},
            }
        )
        spec.update(kind="cli", runs=[_write_ini(workdir, name, parser, ("vectorized",))])
    else:
        n, iterations, max_gap = (SIZES[name][size][key] for key in ("n", "iterations", "max_gap"))
        rng = np.random.default_rng(seeds[0])
        matrices = np.stack([metropolis_graph(n, EDGE_PROBABILITY, rng, max_gap) for _ in range(MESH_GRAPHS)])
        x0 = rng.standard_normal((n, DIMENSION))
        np.save(workdir / "matrices.npy", matrices)
        np.save(workdir / "x0.npy", x0)
        sigma = round_up(max(lapack_gap(W) for W in matrices))
        spec.update(
            kind="api",
            mode="netsim" if name == "mesh-netsim" else "vectorized",
            n=n,
            iterations=iterations,
            sigma=sigma,
            problem_seed=seeds[1],
            schedule_seed=seeds[2],
            matrices=str(workdir / "matrices.npy"),
            x0=str(workdir / "x0.npy"),
        )
    (workdir / "spec.json").write_text(json.dumps(spec))
    return spec


def _write_ini(workdir: Path, stem: str, parser: configparser.ConfigParser, modes) -> dict:
    path = workdir / f"{stem}.ini"
    with open(path, "w") as handle:
        parser.write(handle)
    sections = {name: dict(parser[name]) for name in parser.sections()}
    return {"ini": str(path), "modes": list(modes), "sections": sections}


# -- set-up ------------------------------------------------------------------


@dataclass
class Case:
    """Everything a solve needs, built during set-up."""

    spec: dict
    groups: list = field(default_factory=list)  # one per INI or API problem: params, optimizer, sizes
    gaps: list = field(default_factory=list)  # program spectral gaps of every schedule matrix
    matrices: list = field(default_factory=list)
    # API workloads only
    problem: object = None
    schedule: object = None
    params: object = None
    x0: np.ndarray | None = None
    oracle: object = None
    expected_messages: int = 0


def _quadratic_params(sigma: float, m=None):
    base = gg.params_from_one_point_convexity(gg.StrongSmoothParams(MU, L))
    return gg.AlgorithmParams.derive(base.alpha, base.rho, sigma, m_override=m)


def _schedule(kind: str, matrices, seed: int):
    if kind == "constant":
        return gg.GossipSchedule.constant(matrices[0])
    if kind == "random":
        return gg.GossipSchedule.random_choice(matrices, seed)
    raise ValueError(f"benchmark has no input of schedule kind {kind!r}")


def _check_gaps(tr, case: Case, schedule, sigma) -> float:
    """Program spectral gap of every schedule matrix, checked against the configured sigma."""
    gaps = [tr.call("gossip.spectral_gap", gg.spectral_gap, W) for W in schedule.matrices]
    resolved = max(gaps) if sigma == "auto" else float(sigma)
    if max(gaps) > resolved:
        raise CheckFailed(f"spectral gap {max(gaps):.9g} exceeds the configured sigma {resolved:.9g}")
    case.gaps.extend(gaps)
    case.matrices.extend(W.weights for W in schedule.matrices)
    return resolved


def _setup_ini(tr, case: Case, run: dict):
    """Build what ``gossipgrad run`` builds from one INI, through the exported API."""
    sec = run["sections"]
    problem_kind = sec["problem"]["kind"]
    if problem_kind == "quadratic":
        p = sec["problem"]
        problem = tr.call(
            "objective.problem",
            gg.random_quadratic_problem,
            int(p["n"]),
            int(p["d"]),
            float(p["mu"]),
            float(p["l"]),
            int(p["seed"]),
        )
    else:
        loc = sec["localization"]
        target = [float(v) for v in loc["target"].split(",")]
        config = gg.LocalizationConfig.sampled(n=int(loc["n"]), seed=int(loc["seed"]), target=target)
        problem = tr.call("objective.problem", config.problem)
    s = sec["schedule"]
    source = s["source"]
    if source == "five-agent-pair":
        matrices = list(gg.five_agent_gossip_pair())
    elif source == "ring":
        matrices = [gg.ring_matrix(int(s["n"]))]
    else:
        raise ValueError(f"benchmark has no input of schedule source {source!r}")
    schedule = tr.call("gossip.schedule", _schedule, s["kind"], matrices, int(s.get("seed", 0)))
    sigma = _check_gaps(tr, case, schedule, sec["algorithm"].get("sigma", "auto"))
    m = int(sec["algorithm"]["m"]) if "m" in sec["algorithm"] else None
    if problem_kind == "quadratic":
        params = _quadratic_params(sigma, m)
    else:
        alpha = gg.optimal_stepsize(problem, config.target)
        params = gg.AlgorithmParams.derive(alpha, gg.gd_contraction_factor(config, alpha), sigma, m_override=m)
    case.groups.append(
        {
            "name": Path(run["ini"]).stem,
            "convex": problem_kind == "quadratic",
            "ini": run["ini"],
            "modes": run["modes"],
            "params": params,
            "xstar": np.asarray(problem.optimizer, dtype=float),
            "n": problem.n,
            "d": problem.dimension,
            "iterations": int(sec["run"]["iterations"]),
        }
    )


def load_inputs(spec: dict) -> dict:
    """The generated arrays of an API workload; loading them is not part of set-up."""
    if spec["kind"] != "api":
        return {}
    return {"matrices": np.load(spec["matrices"]), "x0": np.load(spec["x0"])}


def setup(spec: dict, inputs: dict, tr) -> Case:
    """Everything up to ready-to-solve: problem, schedule with its validation, spectral gaps."""
    case = Case(spec=spec)
    if spec["kind"] == "cli":
        for run in spec["runs"]:
            _setup_ini(tr, case, run)
        return case
    matrices = inputs["matrices"]
    case.x0 = inputs["x0"]

    def build_schedule():
        return gg.GossipSchedule.random_choice([gg.GossipMatrix(W) for W in matrices], spec["schedule_seed"])

    case.schedule = tr.call("gossip.schedule", build_schedule)
    case.problem = tr.call(
        "objective.problem", gg.random_quadratic_problem, spec["n"], DIMENSION, MU, L, spec["problem_seed"]
    )
    case.params = _quadratic_params(_check_gaps(tr, case, case.schedule, spec["sigma"]))
    case.groups.append(
        {
            "name": spec["workload"],
            "convex": True,
            "modes": [spec["mode"]],
            "params": case.params,
            "xstar": case.problem.optimizer,
            "n": spec["n"],
            "d": DIMENSION,
            "iterations": spec["iterations"],
        }
    )
    return case


def prepare_oracle(case: Case):
    """Untimed work after set-up: the vectorized oracle and the expected message count."""
    if case.spec["kind"] != "api" or case.spec["mode"] != "netsim":
        return
    case.oracle = gg.run_algorithm(case.problem, case.schedule, case.params, case.x0, case.spec["iterations"])
    for k in range(case.spec["iterations"]):
        for round_index in range(1, case.params.m + 1):
            W = gg.matrix_at(case.schedule, k, round_index).weights
            case.expected_messages += int(np.count_nonzero(W) - np.count_nonzero(np.diag(W)))


# -- solve and checks ----------------------------------------------------------


def solve(case: Case, tr, workdir: Path) -> dict:
    """One solve to a checked result; returns what the checks measured."""
    if case.spec["kind"] == "cli":
        return _solve_cli(case, tr, workdir)
    return _solve_api(case, tr)


def _solve_cli(case: Case, tr, workdir: Path) -> dict:
    outputs = {}
    for group in case.groups:
        for mode in group["modes"]:
            csv = workdir / f"{group['name']}-{mode}.csv"
            argv = ["run", group["ini"], "--mode", mode, "--output", str(csv)]
            code = tr.call("cli.run", gossipgrad.cli.main, argv)
            if code != 0:
                raise CheckFailed(f"gossipgrad run {group['name']} --mode {mode} exited {code}")
            outputs[(group["name"], mode)] = csv
    return tr.call("bench.check", _check_cli, case, outputs)


def _read_csv(path: Path, n: int, iterations: int):
    lines = path.read_text().splitlines()
    if lines[0] != "iter,step,agent,error,lyapunov":
        raise CheckFailed(f"{path.name}: unexpected header {lines[0]!r}")
    errors = np.full((iterations + 1, n), np.nan)
    energy = np.full(iterations + 1, np.nan)
    steps = np.zeros(iterations + 1, dtype=int)
    for line in lines[1 : 1 + (iterations + 1) * n]:
        k, step, agent, error, value = line.split(",")
        k = int(k)
        errors[k, int(agent)] = float(error)
        energy[k] = float(value)
        steps[k] = int(step)
    if np.isnan(errors).any() or np.isnan(energy).any():
        raise CheckFailed(f"{path.name}: missing agent rows")
    return errors, energy, steps, sum(len(line) + 1 for line in lines)


def _check_cli(case: Case, outputs: dict) -> dict:
    result = {"violations": 0, "min_margin": math.inf, "emit_bytes": 0}
    for group in case.groups:
        params, n = group["params"], group["n"]
        traces = {}
        for mode in group["modes"]:
            errors, energy, steps, size = _read_csv(outputs[(group["name"], mode)], n, group["iterations"])
            result["emit_bytes"] += size
            if not np.array_equal(steps, np.arange(group["iterations"] + 1) * params.m):
                raise CheckFailed(f"{group['name']} {mode}: step column does not advance by m={params.m}")
            traces[mode] = (errors, energy)
            _check_certificate(result, group, errors, energy)
        if "netsim" in traces:
            (errors, energy), (ref_errors, ref_energy) = traces["netsim"], traces["vectorized"]
            _check_oracle(group["name"], errors, ref_errors, 1.0)
            _check_oracle(group["name"], energy, ref_energy, max(1.0, float(ref_energy[0])))
    return result


def _check_oracle(name: str, got: np.ndarray, want: np.ndarray, scale: float):
    gap = float(np.abs(got - want).max())
    if gap > ORACLE_TOL * scale:
        raise CheckFailed(f"{name}: netsim and vectorized differ by {gap:.3e}")


def _check_certificate(result: dict, group: dict, errors: np.ndarray, energy: np.ndarray):
    """Error bound c * rho^k and the Lyapunov decrease, from errors (k, i) and energies (k)."""
    params = group["params"]
    delta = energy[1:] - params.rho**2 * energy[:-1]
    violations = int(np.count_nonzero(delta > DECREASE_TOL))
    result["violations"] = max(result["violations"], violations)
    result["min_margin"] = min(result["min_margin"], float(-delta.max()))
    if violations and group["convex"]:
        raise CheckFailed(f"{group['name']}: {violations} Lyapunov decrease violations")
    c = gg.error_bound_constant(float(energy[0]), params.lam)
    bound = c * params.rho ** np.arange(errors.shape[0]) * (1 + BOUND_SLACK)
    floor = ERROR_FLOOR * max(1.0, float(np.linalg.norm(group["xstar"])))
    excess = errors - bound[:, None] - floor
    if (excess > 0).any():
        k, i = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise CheckFailed(f"{group['name']}: agent {i} error {errors[k, i]:.3e} above c*rho^k at k={k}")


def _solve_api(case: Case, tr) -> dict:
    spec, params = case.spec, case.params
    if spec["mode"] == "netsim":
        trace = tr.call("netsim.run", gg.run_netsim, case.problem, case.schedule, params, case.x0, spec["iterations"])
        audit = tr.call("netsim.audit", gg.locality_audit, trace, case.schedule)
    else:
        trace = tr.call("algorithm.run", gg.run_algorithm, case.problem, case.schedule, params, case.x0, spec["iterations"])
    fp = tr.call("analysis.fixed_point", gg.fixed_point, case.problem, params)
    records = tr.call("analysis.lyapunov", gg.lyapunov_trace, trace, fp, params)
    terms = tr.call("analysis.decrease", gg.decrease_terms, trace, fp, params)
    return tr.call("bench.check", _check_api, case, trace, records, terms, audit if spec["mode"] == "netsim" else None)


def _check_api(case: Case, trace, records, terms, audit) -> dict:
    group = case.groups[0]
    result = {"violations": 0, "min_margin": math.inf, "min_decrease_terms": terms.min(axis=0).tolist()}
    energy = np.array([r.value for r in records])
    _check_certificate(result, group, trace.errors(group["xstar"]), energy)
    if audit is not None:
        if not audit.passed:
            raise CheckFailed(f"locality audit failed with {len(audit.violations)} violations")
        if not audit.message_count == audit.expected_count == case.expected_messages:
            raise CheckFailed(
                f"audit counted {audit.message_count} messages, expected {audit.expected_count}, "
                f"schedule implies {case.expected_messages}"
            )
        for key in ("x", "y", "v", "u"):
            _check_oracle(group["name"], getattr(trace, key), getattr(case.oracle, key), 1.0)
    return result
