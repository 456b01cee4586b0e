from pathlib import Path

import numpy as np
import pytest

import gossipgrad as gg
from gossipgrad.cli import main
from gossipgrad.config import (
    build_problem,
    build_schedule,
    initial_states,
    load_run_config,
    parse_entry,
    parse_matrix,
    resolve_params,
)

from conftest import fit_tail_rate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_quadratic_config(path, mu=1.0, L=3.0, iterations=40, extra_algorithm=""):
    path.write_text(
        f"""
[problem]
kind = quadratic
n = 5
d = 3
mu = {mu}
L = {L}
seed = 7

[schedule]
kind = random
source = five-agent-pair
seed = 42

[algorithm]
alpha = auto
rho = auto
sigma = auto
{extra_algorithm}

[run]
iterations = {iterations}
seed = 1
x0 = random
"""
    )
    return path


class TestParsing:
    def test_fraction_and_decimal_entries(self):
        assert parse_entry("3/8") == 0.375
        assert parse_entry(" 0.25 ") == 0.25
        with pytest.raises(gg.ConfigError):
            parse_entry("abc")
        with pytest.raises(gg.ConfigError):
            parse_entry("1/0")

    def test_parse_matrix(self):
        W = parse_matrix("1/2, 1/2; 1/2, 1/2")
        assert np.allclose(W.weights, 0.5)
        with pytest.raises(gg.ConfigError):
            parse_matrix("1, 0; 1")

    def test_missing_file(self):
        with pytest.raises(gg.ConfigError):
            load_run_config("/nonexistent/path.ini")

    def test_checked_in_configs_load(self, localization_config_path, quadratic_config_path):
        loc = load_run_config(localization_config_path)
        assert loc.problem_kind == "localization"
        assert loc.m_override == 6
        quad = load_run_config(quadratic_config_path)
        assert quad.problem_kind == "quadratic"


class TestRunCommand:
    def test_quadratic_csv_structure(self, tmp_path):
        config = write_quadratic_config(tmp_path / "q.ini")
        out = tmp_path / "trace.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["iter", "step", "agent", "error", "lyapunov"]
        agent_rows = [r for r in rows if r[2] != "centralized"]
        central_rows = [r for r in rows if r[2] == "centralized"]
        assert len(agent_rows) == 41 * 5
        assert len(central_rows) == 41
        # decentralized step counter advances by m per iteration
        m = int(agent_rows[5][1]) - int(agent_rows[0][1])
        assert m == 6
        assert all(r[4] == "" for r in central_rows)
        # errors decay
        assert float(agent_rows[-1][3]) < 1e-6 * float(agent_rows[0][3])

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        config = write_quadratic_config(tmp_path / "q.ini")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(config), "--output", str(out1)]) == 0
        assert main(["run", str(config), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_netsim_mode_matches_vectorized(self, tmp_path):
        config = write_quadratic_config(tmp_path / "q.ini", iterations=20)
        out_vec, out_net = tmp_path / "vec.csv", tmp_path / "net.csv"
        assert main(["run", str(config), "--output", str(out_vec), "--mode", "vectorized"]) == 0
        assert main(["run", str(config), "--output", str(out_net), "--mode", "netsim"]) == 0
        _, rows_vec = read_csv(out_vec)
        _, rows_net = read_csv(out_net)
        for rv, rn in zip(rows_vec, rows_net):
            assert rv[:3] == rn[:3]
            assert float(rv[3]) == pytest.approx(float(rn[3]), abs=1e-12)

    def test_equal_curvature_bounds_converge_in_one_step(self, tmp_path):
        config = write_quadratic_config(tmp_path / "q.ini", mu=2.0, L=2.0, iterations=6)
        out = tmp_path / "trace.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        central = {int(r[0]): float(r[3]) for r in rows if r[2] == "centralized"}
        assert central[1] <= 1e-12
        agent_errors = {}
        for r in rows:
            if r[2] != "centralized":
                agent_errors.setdefault(int(r[0]), []).append(float(r[3]))
        # rho is clamped to 1e-6, so agent errors collapse within two iterations
        assert max(agent_errors[2]) <= 1e-4 * max(agent_errors[0])

    def test_localization_rates_match(self, tmp_path, localization_config_path):
        out = tmp_path / "loc.csv"
        assert main(["run", str(localization_config_path), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        agent_max = {}
        central = {}
        for r in rows:
            k = int(r[0])
            if r[2] == "centralized":
                central[k] = float(r[3])
            else:
                agent_max[k] = max(agent_max.get(k, 0.0), float(r[3]))
        dec = np.array([agent_max[k] for k in sorted(agent_max)])
        cen = np.array([central[k] for k in sorted(central)])
        assert abs(fit_tail_rate(dec) - fit_tail_rate(cen)) <= 0.05

    def test_localization_without_override_uses_derived_rounds(self, tmp_path, localization_config_path):
        # The checked-in config pins m = 6; the derived value for its
        # parameters is 4 and must converge as well.
        text = localization_config_path.read_text().replace("m = 6\n", "")
        config = tmp_path / "derived.ini"
        config.write_text(text)
        cfg = load_run_config(config)
        assert cfg.m_override is None
        from gossipgrad.config import build_problem, resolve_params

        problem = build_problem(cfg)
        params = resolve_params(cfg, problem)
        assert params.m == 4
        out = tmp_path / "derived.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        final = [float(r[3]) for r in rows if r[0] == "200" and r[2] != "centralized"]
        assert max(final) < 1e-6

    @pytest.mark.parametrize(
        "base,old,new",
        [
            (None, None, "[problem]\nkind = nosuch\n"),
            ("quadratic", "iterations = 60", "iterations = sixty"),
            ("quadratic", "mu = 1.0", "mu = one"),
            ("localization", "target = 1.0, 1.0", "target = 1.0, a"),
            ("quadratic", "alpha = auto", "alpha = nan"),
            ("quadratic", "alpha = auto", "alpha = inf"),
            ("quadratic", "L = 3.0", "L = inf"),
            ("quadratic", "x0 = random", "x0 = 1.0, b, 0.0"),
            ("quadratic", "x0 = random", "x0 = ;"),
            ("quadratic", "source = five-agent-pair", "source = ring\nn = -1"),
            ("quadratic", "source = five-agent-pair", "source = inline\nmatrix1 = nan, 0.5; 0.5, 0.5"),
            ("quadratic", "x0 = random", "x0 = nan, 0, 0"),
            ("quadratic", "alpha = auto", "alpha = 0.9"),
            ("quadratic", "rho = auto", "rho = 0.4"),
        ],
        ids=[
            "unknown-kind", "iterations", "mu", "target", "alpha-nan", "alpha-inf", "L-inf", "x0", "x0-empty",
            "ring-n", "matrix-nan", "x0-nan", "alpha-expanding", "rho-below-factor",
        ],
    )
    def test_invalid_config_exits_2(self, tmp_path, capsys, base, old, new):
        bad = tmp_path / "bad.ini"
        if base is None:
            bad.write_text(new)
        else:
            text = (CONFIGS / f"{base}.ini").read_text()
            assert old in text
            bad.write_text(text.replace(old, new))
        assert main(["run", str(bad), "--output", str(tmp_path / "x.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_user_stepsize_resolves_its_true_contraction(self, tmp_path):
        config = tmp_path / "alpha.ini"
        config.write_text((CONFIGS / "quadratic.ini").read_text().replace("alpha = auto", "alpha = 0.4"))
        cfg = load_run_config(config)
        problem = build_problem(cfg)
        params = resolve_params(cfg, problem)
        # max(|1 - 0.4 * 1|, |1 - 0.4 * 3|) = 0.6, not the auto (L - mu) / (L + mu) = 0.5
        assert params.rho == 0.6 and params.m == 5
        trace = gg.run_algorithm(problem, build_schedule(cfg, params.m), params, initial_states(cfg, problem), 60)
        records = gg.lyapunov_trace(trace, gg.fixed_point(problem, params), params)
        assert not any(record.exceeds_tolerance for record in records)
        assert main(["run", str(config), "--output", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the input under test
    def test_overflowing_run_exits_3(self, tmp_path, capsys):
        config = tmp_path / "overflow.ini"
        config.write_text((CONFIGS / "quadratic.ini").read_text().replace("x0 = random", "x0 = 1e308, 1e308, 1e308"))
        out = tmp_path / "x.csv"
        assert main(["run", str(config), "--output", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_run_exits_3(self, tmp_path):
        # All agents start at a consensus point equal to agent 2's anchor;
        # doubly stochastic mixing preserves consensus, so agent 2 must
        # evaluate its gradient exactly at its own anchor.
        config = tmp_path / "singular.ini"
        config.write_text(
            """
[problem]
kind = localization

[localization]
target = 1.0, 1.0
positions = 0.2, 0.1; 1.6, 0.3; 0.5, 1.7; 1.9, 1.4; 0.4, 0.9

[schedule]
kind = random
source = five-agent-pair
seed = 2

[algorithm]
alpha = auto
rho = auto
sigma = auto

[run]
iterations = 10
seed = 0
x0 = 0.5, 1.7
"""
        )
        assert main(["run", str(config), "--output", str(tmp_path / "x.csv")]) == 3


class TestGridCommands:
    def test_grid_values_and_monotonicity(self, tmp_path):
        out = tmp_path / "grid.csv"
        args = [
            "grid",
            "--rho-min", "0.05", "--rho-max", "0.95",
            "--sigma-min", "0.05", "--sigma-max", "0.95",
            "--resolution", "10",
            "--output", str(out),
        ]
        assert main(args) == 0
        header, rows = read_csv(out)
        assert header == ["rho", "sigma", "m"]
        assert len(rows) == 100
        table = {(float(r[0]), float(r[1])): int(r[2]) for r in rows}
        rhos = sorted({k[0] for k in table})
        sigmas = sorted({k[1] for k in table})
        for rho in rhos:
            ms = [table[(rho, s)] for s in sigmas]
            assert all(a <= b for a, b in zip(ms, ms[1:]))
        for sigma in sigmas:
            ms = [table[(r, sigma)] for r in rhos]
            assert all(a >= b for a, b in zip(ms, ms[1:]))

    def test_grid_spot_values(self, tmp_path):
        out = tmp_path / "grid.csv"
        args = [
            "grid",
            "--rho-min", "0.9", "--rho-max", "0.9",
            "--sigma-min", "0.1", "--sigma-max", "0.1",
            "--resolution", "2",
            "--output", str(out),
        ]
        assert main(args) == 0
        _, rows = read_csv(out)
        assert all(int(r[2]) == 1 for r in rows)

    def test_grid_rejects_bad_ranges(self, tmp_path):
        assert main(["grid", "--rho-min", "0.0", "--output", str(tmp_path / "x.csv")]) == 2
        assert main(["grid", "--resolution", "1", "--output", str(tmp_path / "x.csv")]) == 2

    def test_rates_values(self, tmp_path):
        out = tmp_path / "rates.csv"
        args = [
            "rates",
            "--rho-min", "0.5", "--rho-max", "0.5",
            "--sigma-min", "0.7853", "--sigma-max", "0.7853",
            "--resolution", "2",
            "--output", str(out),
        ]
        assert main(args) == 0
        header, rows = read_csv(out)
        assert header == ["rho", "sigma", "m", "per_step_rate"]
        for r in rows:
            assert int(r[2]) == 6
            assert float(r[3]) == pytest.approx(0.8909, abs=1e-4)

    def test_rates_per_step_rate_structure(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--resolution", "8", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        for r in rows:
            rho, m, rate = float(r[0]), int(r[2]), float(r[3])
            assert rate == pytest.approx(rho ** (1.0 / m), rel=1e-12)
            if m == 1:
                assert rate == pytest.approx(rho, rel=1e-12)
            else:
                assert rho < rate < 1.0

    def test_explore_m_headers_and_floor(self, tmp_path):
        out = tmp_path / "explore.csv"
        assert main(["explore-m", "--rho", "0.5", "--sigma", "0.7", "--resolution", "5", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["r", "s", "ceil_log_ratio"]
        assert len(rows) == 25
        assert all(int(r[2]) >= 1 for r in rows)


class TestValidateCommand:
    def test_quadratic_config_passes(self, tmp_path, capsys):
        config = write_quadratic_config(tmp_path / "q.ini")
        assert main(["validate", str(config)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_pair_with_loose_sigma_passes(self, tmp_path):
        config = write_quadratic_config(tmp_path / "q.ini", extra_algorithm="").read_text()
        config = config.replace("sigma = auto", "sigma = 0.79")
        path = tmp_path / "loose.ini"
        path.write_text(config)
        assert main(["validate", str(path)]) == 0

    def test_pair_with_tight_sigma_fails(self, tmp_path, capsys):
        config = write_quadratic_config(tmp_path / "q.ini").read_text()
        config = config.replace("sigma = auto", "sigma = 0.5")
        path = tmp_path / "tight.ini"
        path.write_text(config)
        assert main(["validate", str(path)]) == 1
        assert "spectral gap" in capsys.readouterr().out

    def test_identity_schedule_fails_gap_check(self, tmp_path, capsys):
        path = tmp_path / "identity.ini"
        path.write_text(
            """
[problem]
kind = quadratic
n = 3
d = 2
mu = 1.0
L = 3.0
seed = 0

[schedule]
kind = constant
source = inline
matrix1 = 1, 0, 0; 0, 1, 0; 0, 0, 1

[algorithm]
sigma = 0.9

[run]
iterations = 5
"""
        )
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "spectral gap" in out

    def test_localization_contraction_reported_not_certified(self, capsys, localization_config_path):
        # The residual objectives are nonconvex: the sampled check reports the
        # honest failure and the command exits nonzero.
        assert main(["validate", str(localization_config_path)]) == 1
        out = capsys.readouterr().out
        assert "sampled contraction" in out
        assert "gradient sum zero at optimizer" in out
