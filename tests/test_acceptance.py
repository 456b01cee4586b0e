"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion. Runtime limits are asserted where the criterion
carries one.
"""

import math
import time

import numpy as np
import pytest

import gossipgrad as gg
from gossipgrad.cli import main
from gossipgrad.config import build_problem, build_schedule, initial_states, load_run_config, resolve_params

from conftest import fit_tail_rate, iterations_for


def report(cid: str, name: str, ok: bool, detail: str = ""):
    print(f"{cid} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} {name}: {detail}"


def test_c01_spectral_gap_of_builtin_pair(pair):
    start = time.perf_counter()
    gap = max(gg.spectral_gap(W) for W in pair)
    elapsed = time.perf_counter() - start
    ok = abs(gap - 0.7853) <= 1e-3 and elapsed < 0.1
    report("C01", "spectral-gap-pair", ok, f"max gap {gap:.6f}, {elapsed * 1e3:.1f} ms")


def test_c02_double_stochasticity_exact(pair):
    reports = [gg.validate_doubly_stochastic(W, tol=1e-15) for W in pair]
    ok = all(r.passed for r in reports)
    report("C02", "double-stochasticity-1e-15", ok, f"max dev {max(r.max_row_deviation for r in reports):.2e}")


def test_c03_round_count_formula_consistency():
    start = time.perf_counter()
    grid = np.linspace(0.05, 0.95, 100)
    table = np.empty((100, 100), dtype=int)
    ok = True
    detail = ""
    for i, rho in enumerate(grid):
        threshold = gg.sigma0(rho)
        for j, sigma in enumerate(grid):
            m = gg.comm_rounds(rho, sigma)
            table[i, j] = m
            # independent brute force: cumulative products up to 10000
            power = sigma
            brute = 1
            while power > threshold and brute < 10_000:
                power *= sigma
                brute += 1
            if m != brute or m < 1:
                ok = False
                detail = f"mismatch at rho={rho:.4f}, sigma={sigma:.4f}: {m} vs {brute}"
                break
        if not ok:
            break
    if ok:
        nonincreasing_rho = np.all(np.diff(table, axis=0) <= 0)
        nondecreasing_sigma = np.all(np.diff(table, axis=1) >= 0)
        ok = bool(nonincreasing_rho and nondecreasing_sigma)
        detail = f"monotone: rho {nonincreasing_rho}, sigma {nondecreasing_sigma}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    # The recorded discrepancy: the published experiment uses 6 rounds where
    # the formula gives 4 at (0.75, 0.7853); 6 is the formula value at 0.5.
    ok = ok and gg.comm_rounds(0.75, 0.7853) == 4 and gg.comm_rounds(0.5, 0.7853) == 6
    report("C03", "round-count-least-integer", ok, f"{detail}, {elapsed:.2f} s")


def test_c04_contraction_from_one_point_convexity():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst_margin = -np.inf
    ok = True
    for case in range(50):
        mu = float(rng.uniform(0.1, 3.0))
        L = float(mu + rng.uniform(0.0, 9.0))
        d = int(rng.integers(1, 11))
        objective = gg.random_quadratic_problem(1, d, mu, L, seed=case).objective
        xstar = np.linalg.solve(objective.A, objective.B[0])
        params = gg.params_from_one_point_convexity(gg.StrongSmoothParams(mu, L))
        samples = gg.sample_ball(xstar, radius=10.0, count=1000, seed=1000 + case)
        result = gg.check_contraction(objective, xstar, params, samples)
        worst_margin = max(worst_margin, result.max_ratio - params.rho)
        ok = ok and result.passed
    elapsed = time.perf_counter() - start
    ok = ok and worst_margin <= 1e-9 and elapsed < 5.0
    report("C04", "one-point-convexity-contraction", ok, f"worst ratio-rho {worst_margin:.2e}, {elapsed:.2f} s")


def test_c05_rate_matches_centralized(pair, pair_sigma):
    start = time.perf_counter()
    ok = True
    details = []
    for mu, L, seed in [(1.0, 3.0, 41), (1.0, 9.0, 43), (1.0, 5.0, 47)]:
        problem = gg.random_quadratic_problem(5, 3, mu, L, seed=seed)
        cp = gg.params_from_one_point_convexity(gg.StrongSmoothParams(mu, L))
        params = gg.AlgorithmParams.derive(cp.alpha, cp.rho, pair_sigma)
        schedule = gg.GossipSchedule.random_choice(list(pair), seed=seed + 1)
        x0 = np.random.default_rng(seed + 2).standard_normal((5, 3))
        K = iterations_for(params.rho)
        trace = gg.run_algorithm(problem, schedule, params, x0, K)
        rate = fit_tail_rate(trace.max_errors(problem.optimizer))
        central = gg.centralized_gd(problem, params.alpha, x0.mean(axis=0), K)
        central_rate = fit_tail_rate(np.linalg.norm(central - problem.optimizer, axis=1))
        ok = ok and rate <= params.rho + 0.02 and abs(rate - central_rate) <= 0.05
        details.append(f"rho={params.rho:.2f}: {rate:.4f}|{central_rate:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report("C05", "rate-matches-centralized-gd", ok, f"{'; '.join(details)}, {elapsed:.2f} s")


def test_c06_energy_decrease_and_error_bound(corpus):
    start = time.perf_counter()
    ok = True
    worst_delta = -np.inf
    for run in corpus:
        fp = gg.fixed_point(run.problem, run.params)
        records = gg.lyapunov_trace(run.trace, fp, run.params)
        deltas = [r.delta for r in records if r.delta is not None]
        worst_delta = max(worst_delta, max(deltas))
        ok = ok and max(deltas) <= 1e-9
        v0 = records[0].value
        ok = ok and all(r.value <= run.params.rho ** (2 * r.k) * v0 * (1 + 1e-6) for r in records)
        c = gg.error_bound_constant(v0, run.params.lam)
        errors = run.trace.max_errors(run.problem.optimizer)
        ok = ok and all(errors[k] <= c * run.params.rho**k + 1e-9 for k in range(len(errors)))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report("C06", "energy-decrease-and-bound", ok, f"worst delta {worst_delta:.2e}, {elapsed:.2f} s")


def test_c07_conservation_invariants(corpus):
    worst_y = 0.0
    worst_v = 0.0
    for run in corpus:
        for trace in (run.trace, run.net_trace):
            worst_y = max(worst_y, float(np.abs(trace.y.mean(axis=1)).max()))
            worst_v = max(worst_v, float(np.abs(trace.v.mean(axis=1) - trace.x[:-1].mean(axis=1)).max()))
    ok = worst_y <= 1e-12 and worst_v <= 1e-12
    report("C07", "average-conservation", ok, f"max |mean y| {worst_y:.2e}, max drift {worst_v:.2e}")


def test_c08_single_agent_reduction():
    objective = gg.QuadraticObjective(np.diag([1.0, 3.0]), [[0.4, -1.1]])
    problem = gg.Problem(objective)
    schedule = gg.GossipSchedule.constant(gg.GossipMatrix([[1.0]]))
    params = gg.AlgorithmParams.derive(0.5, 0.5, 0.5)
    x0 = np.array([[2.5, -3.0]])
    trace = gg.run_algorithm(problem, schedule, params, x0, 100)
    central = gg.centralized_gd(problem, 0.5, x0[0], 100)
    gap = float(np.abs(trace.x[:, 0, :] - central).max())
    report("C08", "single-agent-reduction", gap <= 1e-12, f"max deviation {gap:.2e}")


def test_c09_message_passing_oracle(corpus):
    ok = True
    worst = 0.0
    for run in corpus:
        worst = max(worst, float(np.abs(run.trace.x - run.net_trace.x).max()))
        worst = max(worst, float(np.abs(run.trace.y - run.net_trace.y).max()))
        audit = gg.locality_audit(run.net_trace, run.schedule)
        ok = ok and audit.passed and audit.message_count == audit.expected_count
        # per-iteration count: m rounds, one message per off-diagonal weight
        per_iteration = np.bincount(run.net_trace.deliveries[:, 0], minlength=run.trace.iterations)
        for k in range(run.trace.iterations):
            expected = 0
            for l in range(1, run.params.m + 1):
                W = gg.matrix_at(run.schedule, k, l).weights
                expected += int(np.count_nonzero(W)) - int(np.count_nonzero(np.diag(W)))
            ok = ok and per_iteration[k] == expected
    ok = ok and worst <= 1e-12
    report("C09", "message-passing-equivalence", ok, f"max trace gap {worst:.2e}")


def test_c10_localization_desk_scale(localization_config_path):
    start = time.perf_counter()
    config = load_run_config(localization_config_path)
    problem = build_problem(config)
    params = resolve_params(config, problem)
    schedule = build_schedule(config, params.m)
    x0 = initial_states(config, problem)
    target = config.localization.target

    ok = params.alpha == pytest.approx(2.0, abs=1e-12) and params.m == 6
    trace = gg.run_algorithm(problem, schedule, params, x0, config.iterations)
    errors = trace.errors(target)
    ok = ok and float(errors[-1].max()) < 1e-6
    central = gg.centralized_gd(problem, params.alpha, x0.mean(axis=0), config.iterations)
    central_errors = np.linalg.norm(central - target, axis=1)
    ok = ok and float(central_errors[-1]) < 1e-6
    rate = fit_tail_rate(errors.max(axis=1))
    central_rate = fit_tail_rate(central_errors)
    ok = ok and abs(rate - central_rate) <= 0.05
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(
        "C10",
        "localization-desk-scale",
        ok,
        f"alpha {params.alpha}, final {errors[-1].max():.2e}|{central_errors[-1]:.2e}, "
        f"rates {rate:.4f}|{central_rate:.4f}, {elapsed:.2f} s",
    )


def test_c11_localization_gradient_checks():
    cfg = gg.LocalizationConfig.sampled(5, seed=293)
    rng = np.random.default_rng(8)
    ok = True
    worst = 0.0
    checked = 0
    while checked < 100:
        x = rng.uniform(-0.5, 2.5, size=2)
        if np.min(np.linalg.norm(cfg.positions - x, axis=1)) < 1e-2:
            continue
        i = int(rng.integers(0, cfg.n))
        objective = cfg.objective().agent(i)
        exact = objective.gradient(x)
        numeric = gg.finite_difference_gradient(objective, x)
        rel = float(np.linalg.norm(numeric - exact) / max(1.0, np.linalg.norm(exact)))
        worst = max(worst, rel)
        ok = ok and rel <= 1e-5
        checked += 1
    traces = [cfg.objective().agent(i).hessian_trace(cfg.target) for i in range(cfg.n)]
    ok = ok and all(abs(t - 1.0) <= 1e-10 for t in traces)
    report("C11", "localization-gradients", ok, f"worst rel err {worst:.2e}, traces {traces[0]:.1f}")


def test_c12_figure_data_generation(tmp_path):
    grid_args = [
        "--rho-min", "0.05", "--rho-max", "0.95",
        "--sigma-min", "0.05", "--sigma-max", "0.95",
        "--resolution", "30",
    ]
    a, b = tmp_path / "grid_a.csv", tmp_path / "grid_b.csv"
    assert main(["grid", *grid_args, "--output", str(a)]) == 0
    assert main(["grid", *grid_args, "--output", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()

    r1, r2 = tmp_path / "rates_a.csv", tmp_path / "rates_b.csv"
    assert main(["rates", *grid_args, "--output", str(r1)]) == 0
    assert main(["rates", *grid_args, "--output", str(r2)]) == 0
    ok = ok and r1.read_bytes() == r2.read_bytes()

    rows = [line.split(",") for line in r1.read_text().strip().splitlines()[1:]]
    ok = ok and len(rows) == 900
    for row in rows:
        rho, sigma, m, rate = float(row[0]), float(row[1]), int(row[2]), float(row[3])
        ok = ok and 0 < rho < 1 and 0 < sigma < 1
        ok = ok and m == gg.comm_rounds(rho, sigma)
        ok = ok and math.isclose(rate, rho ** (1.0 / m), rel_tol=1e-12)
    report("C12", "figure-data-csvs", ok, f"{len(rows)} grid rows, byte-identical reruns")
