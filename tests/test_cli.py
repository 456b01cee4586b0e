import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gossipgrad as gg
from gossipgrad import cli
from gossipgrad.cli import assemble, build_parser, main
from gossipgrad.config import load_run_config, parse_entry, parse_rows
from gossipgrad.gossip import circulant_spectrum_power


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# Two blocks that never exchange values; LAPACK puts its gap at 0.9999999999999998.
# The built-in five-agent pair written as inline matrix text.
PAIR = (
    "0, 3/8, 1/4, 0, 3/8; 1/8, 0, 3/4, 1/8, 0; 0, 5/8, 0, 3/8, 0; 3/8, 0, 0, 0, 5/8; 1/2, 0, 0, 1/2, 0",
    "0, 1/2, 1/4, 0, 1/4; 1/4, 0, 3/4, 0, 0; 0, 1/2, 0, 1/2, 0; 1/4, 0, 0, 0, 3/4; 1/2, 0, 0, 1/2, 0",
)
DISCONNECTED = "1/2, 1/2, 0, 0, 0; 1/2, 1/2, 0, 0, 0; 0, 0, 1/3, 1/3, 1/3; 0, 0, 1/3, 1/3, 1/3; 0, 0, 1/3, 1/3, 1/3"
# A symmetric circulant of dyadic weights, written out: the 5-agent lazy ring, gap (1 + cos(2 pi / 5)) / 2 = 0.6545.
RING_5 = "1/2, 1/4, 0, 0, 1/4; 1/4, 1/2, 1/4, 0, 0; 0, 1/4, 1/2, 1/4, 0; 0, 0, 1/4, 1/2, 1/4; 1/4, 0, 0, 1/4, 1/2"
# Shipped configs with a key or section that the chosen kind or source does not read, and the error naming it.
UNREAD = [
    (
        "quadratic",
        "source = five-agent-pair",
        "source = five-agent-pair\nn = 9",
        "unknown key 'n' in section [schedule]",
    ),
    ("quadratic", "kind = random", "kind = cyclic", "unknown key 'seed' in section [schedule]"),
    ("localization", "kind = localization", "kind = localization\nmu = 1.0", "unknown key 'mu' in section [problem]"),
    ("localization", "kind = localization", "kind = localization\nd = 2", "unknown key 'd' in section [problem]"),
    ("quadratic", "[schedule]", "[localization]\nn = 5\nseed = 293\n\n[schedule]", "unknown section [localization]"),
    (
        "localization",
        "target = 1.0, 1.0",
        "target = 1.0, 1.0\npositions = 1.38, 1.69; 0.6, 0.47; 1.84, 1.82; 0.32, 0.79; 1.3, 1.06",
        "unknown key 'n', 'seed' in section [localization]",
    ),
]
UNREAD_IDS = [
    "schedule-n-under-pair", "schedule-seed-under-cyclic", "problem-mu-under-localization",
    "problem-d-under-localization", "localization-section-in-quadratic", "positions-beside-n-and-seed",
]
# The run command in each mode.
BOTH_MODES = [["run"], ["run", "--mode", "netsim"]]
# Command lines that argparse answers by itself: help, usage and argument errors, each with its exit code.
PARSER_ONLY = [
    ["--help"],
    ["run", "--help"],
    ["grid", "--help"],
    ["rates", "--help"],
    ["validate", "--help"],
    [],
    ["nosuch"],
    ["run"],
    ["run", "X", "--mode", "bad"],
    ["grid", "--resolution", "x"],
    ["run", "X", "--bogus"],
    ["rates", "--bogus"],
]
# A constant 120-agent ring: agent ids run to three digits and m = 1,479 rounds per iteration.
RING_120 = """
[problem]
kind = quadratic
n = 120
d = 3
mu = 1.0
L = 3.0
seed = 7

[schedule]
kind = constant
source = ring
n = 120

[algorithm]
alpha = auto
rho = auto
sigma = auto

[run]
iterations = 3
seed = 1
x0 = random
"""
# RING_120's config over RING_5, written out inline, in place of the generated 120-ring.
INLINE_RING_5 = RING_120.replace("source = ring\nn = 120", f"source = inline\nmatrix1 = {RING_5}").replace(
    "n = 120", "n = 5"
)


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
        W = gg.GossipMatrix(parse_rows("1/2, 1/2; 1/2, 1/2", parse_entry))
        assert np.allclose(W.weights, 0.5)
        with pytest.raises(gg.ConfigError):
            parse_rows("1, 0; 1", parse_entry)
        with pytest.raises(gg.ConfigError):
            gg.GossipMatrix(parse_rows("1, 0; 0, 1; 1, 1", parse_entry))

    def test_missing_file(self):
        with pytest.raises(gg.ConfigError):
            load_run_config("/nonexistent/path.ini")

    def test_checked_in_configs_load(self, localization_config_path, quadratic_config_path):
        loc = load_run_config(localization_config_path)
        assert loc.problem_kind == "localization"
        assert loc.m_override == 6
        quad = load_run_config(quadratic_config_path)
        assert quad.problem_kind == "quadratic"
        ring = load_run_config(CONFIGS / "ring400.ini")
        assert ring.problem_kind == "quadratic" and ring.schedule_kind == "constant"
        assert ring.schedule_matrices[0].n == 400 and ring.iterations == 30
        assert assemble(CONFIGS / "ring400.ini")[2].m == 16434


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ONLY, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_main_answers_as_the_full_parser(self, capsys, argv):
        # Help exits 0 with the usage on stdout; an argument error exits 2 with it on stderr.
        with pytest.raises(SystemExit) as exited:
            main(list(argv))
        out, err = capsys.readouterr()
        shown, quiet = (out, err) if "--help" in argv else (err, out)
        assert exited.value.code == (0 if "--help" in argv else 2)
        assert shown.startswith("usage: gossipgrad") and quiet == ""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_main_calls_a_handler_wrapped_after_the_parser_is_built(self, monkeypatch, tmp_path, capsys):
        # A tracer wraps cli.cmd_run once the parser exists; main must look the handler up at each call.
        absent = str(tmp_path / "absent.ini")
        assert main(["validate", absent]) == 2
        calls, original = [], cli.cmd_run
        monkeypatch.setattr(cli, "cmd_run", lambda args: calls.append(args.config) or original(args))
        assert main(["run", absent]) == 2
        assert calls == [absent]
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {absent}: ")


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

    def test_cyclic_config_runs_in_both_modes(self, tmp_path):
        # configs/quadratic.ini with its pair cycled, not drawn: the schedule
        # is built without m and follows the run's m = 6.
        text = (CONFIGS / "quadratic.ini").read_text()
        assert text.count("kind = random") == 1 and text.count("seed = 42\n") == 1
        config = tmp_path / "cyclic.ini"
        config.write_text(text.replace("kind = random", "kind = cyclic").replace("seed = 42\n", ""))
        rows = {}
        for mode in ("vectorized", "netsim"):
            out = tmp_path / f"{mode}.csv"
            assert main(["run", str(config), "--mode", mode, "--output", str(out)]) == 0
            rows[mode] = [row for row in read_csv(out)[1] if row[2] != "centralized"]
        vec, net = rows["vectorized"], rows["netsim"]
        assert [int(row[1]) for row in vec[::5]] == list(range(0, 61 * 6, 6))
        assert [row[:3] for row in vec] == [row[:3] for row in net]
        assert max(abs(float(rv[3]) - float(rn[3])) for rv, rn in zip(vec, net)) <= 1e-12

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
        assert abs(gg.fit_rate(dec) - gg.fit_rate(cen)) <= 0.05

    def test_localization_without_override_uses_derived_rounds(self, tmp_path, localization_config_path):
        # The checked-in config pins m = 6; the derived value for its
        # parameters is 4 and must converge as well.
        text = localization_config_path.read_text().replace("m = 6\n", "")
        config = tmp_path / "derived.ini"
        config.write_text(text)
        cfg, _, params, _, _, _ = assemble(config)
        assert cfg.m_override is None
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
            ("quadratic", "source = five-agent-pair", f"source = inline\nmatrix1 = {DISCONNECTED}"),
            ("quadratic", "kind = random", "kind = nosuch"),
            (
                "quadratic",
                "kind = random\nsource = five-agent-pair\nseed = 42",
                "kind = constant\nsource = five-agent-pair",
            ),
            ("quadratic", "n = 5", "n = 4"),
            ("quadratic", "x0 = random", "x0 = 1, 2"),
            ("quadratic", "x0 = random", "x0 = positions"),
            ("quadratic", "iterations = 60", "iteration = 7"),
            ("quadratic", "[run]", "[runs]"),
            ("quadratic", "d = 3", "d = 0"),
            ("quadratic", "iterations = 60", "iterations = 0"),
            ("localization", "n = 5", "n = 0"),
            ("quadratic", "seed = 7", "seed = -1"),
            ("localization", "seed = 293", "seed = -1"),
            ("quadratic", "seed = 42", "seed = -1"),
            ("quadratic", "seed = 1", "seed = -1"),
            ("quadratic", "source = five-agent-pair", f"source = inline\nmatrix1 = {PAIR[0]}\nmatrix3 = {PAIR[1]}"),
            ("quadratic", "source = five-agent-pair", f"source = five-agent-pair\nmatrix1 = {PAIR[0]}"),
            ("quadratic", "output = quadratic_trace.csv", "output = a%b.csv"),
            ("quadratic", "d = 3\nmu = 1.0", "d = 1\nmu = 1e-20"),
            ("quadratic", "[schedule]\nkind = random\nsource = five-agent-pair\nseed = 42\n", ""),
            ("localization", "[localization]\nn = 5\nseed = 293\ntarget = 1.0, 1.0\n", ""),
            ("quadratic", "[problem]\nkind = quadratic\n", "[problem]\n"),
            ("quadratic", "[schedule]\nkind = random\n", "[schedule]\n"),
            ("quadratic", "L = 3.0", "L = 0.5"),
            ("quadratic", "mu = 1.0", "mu = 0"),
            ("quadratic", "source = five-agent-pair", "source = inline"),
            ("quadratic", "mode = vectorized", "mode = typo"),
            ("localization", "rho = auto\nsigma = auto\nm = 6\n", "rho = -0.5\nsigma = auto\n"),
            # Sampled positions: the target's shape is checked before sampling, as with positions set.
            ("localization", "target = 1.0, 1.0", "target = 1.0, 1.0, 1.0"),
        ]
        + [row[:3] for row in UNREAD],
        ids=[
            "unknown-kind", "iterations", "mu", "target", "alpha-nan", "alpha-inf", "L-inf", "x0", "x0-empty",
            "ring-n", "matrix-nan", "x0-nan", "alpha-expanding", "rho-below-factor", "disconnected",
            "schedule-kind", "constant-pair", "problem-n-vs-pair", "x0-dimension", "x0-positions-quadratic",
            "misspelled-key", "unknown-section", "d-zero", "iterations-zero", "localization-n-zero",
            "problem-seed-negative", "localization-seed-negative", "schedule-seed-negative", "run-seed-negative",
            "inline-matrix-gap", "matrix-without-inline",
            "percent-in-value", "curvature-ratio", "schedule-section-missing", "localization-section-missing",
            "problem-kind-missing", "schedule-kind-missing", "mu-above-L", "mu-zero", "inline-without-matrix",
            "mode-typo", "rho-negative", "target-three-coordinates",
        ]
        + UNREAD_IDS,
    )
    def test_invalid_config_exits_2(self, tmp_path, capsys, base, old, new):
        # run and validate assemble a config the same way, so both reject it.
        bad = tmp_path / "bad.ini"
        if base is None:
            bad.write_text(new)
        else:
            text = (CONFIGS / f"{base}.ini").read_text()
            assert text.count(old) == 1
            bad.write_text(text.replace(old, new))
        assert main(["run", str(bad), "--output", str(tmp_path / "x.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert main(["validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "PASS" not in captured.out

    def test_unknown_key_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text((CONFIGS / "quadratic.ini").read_text().replace("iterations = 60", "iteration = 7"))
        assert main(["run", str(bad), "--output", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "config error: unknown key 'iteration' in section [run]\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "new,error",
        [
            (f"source = inline\nmatrix1 = {PAIR[0]}\nmatrix3 = {PAIR[1]}", "unknown key 'matrix3'"),
            (f"source = five-agent-pair\nmatrix1 = {PAIR[0]}", "unknown key 'matrix1'"),
        ],
        ids=["inline-matrix-gap", "matrix-without-inline"],
    )
    def test_matrix_key_is_named(self, tmp_path, capsys, new, error):
        bad = tmp_path / "bad.ini"
        bad.write_text((CONFIGS / "quadratic.ini").read_text().replace("source = five-agent-pair", new))
        for command in (["run", str(bad), "--output", str(tmp_path / "x.csv")], ["validate", str(bad)]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {error}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "base,old,new,error",
        UNREAD
        + [
            ("quadratic", "kind = quadratic", "kind = nosuch", "unknown problem kind 'nosuch'"),
            ("quadratic", "kind = random", "kind = nosuch", "unknown schedule kind 'nosuch'"),
            ("quadratic", "source = five-agent-pair", "source = nosuch", "unknown schedule source 'nosuch'"),
        ],
        ids=UNREAD_IDS + ["problem-kind", "schedule-kind", "schedule-source"],
    )
    def test_config_error_names_the_culprit(self, tmp_path, capsys, base, old, new, error):
        # An unknown kind or source is named, not reported as the keys it would have read.
        text = (CONFIGS / f"{base}.ini").read_text()
        assert text.count(old) == 1
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        for command in (["run", str(bad), "--output", str(tmp_path / "x.csv")], ["validate", str(bad)]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {error}") and err.count("\n") == 1

    def test_x0_forms_and_stdout_output(self, tmp_path, capsys):
        # x0 = zeros and an explicit point per agent, each run once to a file and once to stdout.
        explicit = np.arange(15.0).reshape(5, 3) / 4 - 1
        rows = "; ".join(", ".join(map(str, row)) for row in explicit.tolist())
        text = (CONFIGS / "quadratic.ini").read_text()
        assert text.count("x0 = random") == 1
        for name, spec, want in [("zeros", "zeros", np.zeros((5, 3))), ("explicit", rows, explicit)]:
            path = tmp_path / f"{name}.ini"
            path.write_text(text.replace("x0 = random", f"x0 = {spec}"))
            x0 = assemble(path)[4]
            assert x0.shape == (5, 3) and np.array_equal(x0, want), name
            out = tmp_path / f"{name}.csv"
            assert main(["run", str(path), "--output", str(out)]) == 0
            capsys.readouterr()
            assert main(["run", str(path), "--output", "-"]) == 0
            assert capsys.readouterr().out.encode() == out.read_bytes(), name

    def test_inline_pair_runs_as_the_builtin_pair(self, tmp_path):
        # matrix1..matrixK without gaps is read in number order.
        text = (CONFIGS / "quadratic.ini").read_text()
        inline = tmp_path / "inline.ini"
        inline.write_text(
            text.replace("source = five-agent-pair", f"source = inline\nmatrix2 = {PAIR[1]}\nmatrix1 = {PAIR[0]}")
        )
        outputs = [tmp_path / "builtin.csv", tmp_path / "inline.csv"]
        assert main(["run", str(CONFIGS / "quadratic.ini"), "--output", str(outputs[0])]) == 0
        assert main(["run", str(inline), "--output", str(outputs[1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_unwritable_output_exits_2(self, tmp_path, capsys, quadratic_config_path):
        out = tmp_path / "missing-dir" / "x.csv"
        assert main(["run", str(quadratic_config_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "old,new,commands,error",
        [
            # A (10**13 + 1, 5, 3) trace stack: 1.07 PiB. validate never allocates a trace. Netsim
            # also fails there, before its mixer draws the (10**13, 6) round table.
            ("iterations = 60", "iterations = 10000000000000", BOTH_MODES, "Unable to allocate"),
            # A 10**18-agent complete matrix: its row alone is 6.94 EiB.
            (
                "source = five-agent-pair",
                "source = complete\nn = 1000000000000000000",
                [["run"], ["validate"]],
                "Unable to allocate",
            ),
            # Rows of 10**20 agents, and a quadratic of 10**20 agents or dimensions: past numpy's index range.
            (
                "source = five-agent-pair",
                "source = complete\nn = 100000000000000000000",
                [["run"], ["validate"]],
                "cannot allocate a 100000000000000000000-agent complete matrix",
            ),
            (
                "source = five-agent-pair",
                "source = ring\nn = 100000000000000000000",
                [["run"], ["validate"]],
                "cannot allocate a 100000000000000000000-agent ring matrix",
            ),
            ("n = 5", "n = 100000000000000000000", [["run"], ["validate"]], "cannot allocate a problem of"),
            ("d = 3", "d = 100000000000000000000", [["run"], ["validate"]], "cannot allocate a problem of"),
            # Sizes numpy cannot even index, so it raises ValueError, not MemoryError: a trace stack of
            # more than 2**63 bytes, then of more than 2**63 rows, and a (60, 10**17) round table.
            ("iterations = 60", "iterations = 100000000000000000", BOTH_MODES, "cannot allocate the trace"),
            ("iterations = 60", "iterations = 2305843009213693952", BOTH_MODES, "cannot allocate the trace"),
            ("sigma = auto", "sigma = auto\nm = 100000000000000000", BOTH_MODES, "cannot allocate the round table"),
            # (rho, sigma) grids of 10**20 and 2**63 points per axis, past numpy's index range (at 2**63,
            # numpy 2.4's linspace raises IndexError from an empty arange); grid reads no config.
            (None, None, [["grid", "--resolution", str(10**20)]], "cannot allocate a grid of resolution"),
            (None, None, [["grid", "--resolution", str(2**63)]], "cannot allocate a grid of resolution"),
        ],
        ids=[
            "iterations", "complete-n", "complete-n-index", "ring-n-index", "quadratic-n", "quadratic-d",
            "iterations-bytes", "iterations-rows", "m", "grid-resolution", "grid-2-63",
        ],
    )
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, old, new, commands, error):
        # Each size exceeds the address space, so numpy refuses it before touching memory.
        bad = tmp_path / "huge.ini"
        if old is not None:
            text = (CONFIGS / "quadratic.ini").read_text()
            assert text.count(old) == 1
            bad.write_text(text.replace(old, new))
        out = tmp_path / "x.csv"
        for command, *flags in commands:
            config = [] if command == "grid" else [str(bad)]
            args = [command, *config, *flags] + (["--output", str(out)] if command != "validate" else [])
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {error}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "n,error",
        [(10**13, "Unable to allocate"), (10**20, "cannot allocate 100000000000000000000 sampled positions")],
        ids=["n-1e13", "n-1e20"],
    )
    def test_unallocatable_sampled_positions_exit_2(self, tmp_path, capsys, n, error):
        # The candidates are drawn as blocks, so numpy refuses the size at the first draw.
        text = (CONFIGS / "localization.ini").read_text()
        assert text.count("n = 5") == 1
        bad = tmp_path / "huge.ini"
        bad.write_text(text.replace("n = 5", f"n = {n}"))
        out = tmp_path / "x.csv"
        for command in (["run", str(bad), "--output", str(out)], ["validate", str(bad)]):
            start = time.perf_counter()
            assert main(command) == 2
            assert time.perf_counter() - start < 30.0
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {error}") and err.count("\n") == 1
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        # A directory named like a config, and a path that does not exist: each is one error naming the path,
        # not the missing [problem] section of a config read as empty.
        folder = tmp_path / "not-a-file.ini"
        folder.mkdir()
        out = tmp_path / "x.csv"
        for path in (folder, tmp_path / "absent.ini"):
            for command in (["run", str(path), "--output", str(out)], ["validate", str(path)]):
                assert main(command) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"config error: cannot read config {path}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bytes.ini"
        bad.write_bytes((CONFIGS / "quadratic.ini").read_bytes() + b"\xff")
        out = tmp_path / "x.csv"
        for command in (["run", str(bad), "--output", str(out)], ["validate", str(bad)]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot parse config {bad}: 'utf-8' codec") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "mu,L,reason",
        [("1e-8", "1.0", "correction fixed point"), ("1e-6", "1e6", "solved optimizer is not exact")],
        ids=["fixed-point", "optimizer-check"],
    )
    def test_inexact_optimizer_exits_3(self, tmp_path, capsys, mu, L, reason):
        # Ill-conditioned curvature: the solved optimizer's local gradients do not cancel within tolerance.
        config = write_quadratic_config(tmp_path / "q.ini", mu=mu, L=L)
        out = tmp_path / "x.csv"
        assert main(["run", str(config), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and reason in err and err.count("\n") == 1
        assert not out.exists()

    def test_sigma_below_true_gap_exits_2(self, tmp_path, capsys, quadratic_config_path):
        # m derived from sigma = 0.5 leaves the pair's true gap (0.7853) to the m above sigma0.
        text = quadratic_config_path.read_text()
        assert text.count("sigma = auto") == 1
        path = tmp_path / "tight.ini"
        path.write_text(text.replace("sigma = auto", "sigma = 0.5"))
        out = tmp_path / "x.csv"
        assert main(["run", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: sigma = 0.5 is below the schedule's spectral gap 0.785334\n"
        assert not out.exists()
        assert main(["validate", str(path)]) == 1
        assert "FAIL  spectral gap within bound: actual 0.785334 vs configured 0.500000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "base,old,new,error",
        [
            ("quadratic", "sigma = auto", "sigma = 1.5", "sigma must be in [0, 1), got 1.5"),
            (
                "quadratic",
                "source = five-agent-pair",
                f"source = inline\nmatrix1 = {DISCONNECTED}",
                "schedule spectral gap reads 1: at 5 agents a gap within 1.78e-14 of 1 cannot be told from 1, "
                "so no round count can be derived",
            ),
            (
                "localization",
                "rho = auto\nsigma = auto\nm = 6\n",
                "rho = -0.5\nsigma = auto\n",
                "rho must be in (0, 1), got -0.5",
            ),
            (
                "quadratic",
                "sigma = auto",
                "sigma = auto\nm = 2",
                "m=2 leaves sigma^m above the consensus threshold 0.258819; need m >= 6",
            ),
        ],
        ids=["sigma-explicit", "sigma-auto-disconnected", "rho-negative", "m-below-derived"],
    )
    def test_parameter_error_names_its_source(self, tmp_path, capsys, base, old, new, error):
        # An explicit sigma is named as configured; under sigma = auto the schedule's gap is blamed.
        # A too-small m override names the least valid m. Both commands print the same one line.
        text = (CONFIGS / f"{base}.ini").read_text()
        assert text.count(old) == 1
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(old, new))
        out = tmp_path / "x.csv"
        for command in (["run", str(path), "--output", str(out)], ["validate", str(path)]):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: {error}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("sigma", ["auto", "0.79"])
    def test_one_spectral_gap_per_matrix(self, tmp_path, monkeypatch, quadratic_config_path, command, sigma):
        calls = []

        def counted(W):
            calls.append(W)
            return gg.spectral_gap(W)

        # Wherever a module binds the name, so that no call goes uncounted.
        for module in ("gossipgrad.config", "gossipgrad.cli"):
            monkeypatch.setattr(f"{module}.spectral_gap", counted, raising=False)
        path = tmp_path / "q.ini"
        path.write_text(quadratic_config_path.read_text().replace("sigma = auto", f"sigma = {sigma}"))
        args = ["--output", str(tmp_path / "x.csv")] if command == "run" else []
        assert main([command, str(path), *args]) == 0
        assert len(calls) == 2  # the five-agent pair

    @pytest.mark.parametrize("sigma", ["auto", "0.9995"])
    def test_only_a_generated_ring_mixes_by_its_spectrum(self, tmp_path, monkeypatch, sigma):
        # A generated ring is declared circulant, so the vectorized run mixes it by its spectrum. The
        # same kind of circulant written out inline is a dense matrix: its spectrum is never tried, and
        # it mixes by np.linalg.matrix_power.
        spectra = []

        def recorded(matrix, rounds):
            spectra.append(circulant_spectrum_power(matrix, rounds))
            return spectra[-1]

        monkeypatch.setattr("gossipgrad.algorithm.circulant_spectrum_power", recorded)
        ring = RING_120.replace("sigma = auto", f"sigma = {sigma}")
        inline = INLINE_RING_5.replace("sigma = auto", f"sigma = {sigma}")
        for text, declared in ((ring, True), (inline, False)):
            path = tmp_path / "ring.ini"
            path.write_text(text)
            spectra.clear()
            assert main(["run", str(path), "--mode", "vectorized", "--output", str(tmp_path / "x.csv")]) == 0
            assert len(spectra) == 1 and (spectra[0] is not None) == declared

    def test_ring_5000_runs_in_linear_memory(self, tmp_path):
        # A dense 5,000-ring would take 200 MB; the run holds its row, its spectrum and O(n d) states.
        path = tmp_path / "ring.ini"
        text = RING_120.replace("n = 120", "n = 5000").replace("d = 3", "d = 1")
        path.write_text(text.replace("iterations = 3", "iterations = 2"))
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            assert main(["run", str(path), "--mode", "vectorized", "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        _, rows = read_csv(out)
        assert len(rows) == 3 * 5000 + 3

    def test_million_agent_ring_fails_on_the_agent_count(self, tmp_path, capsys):
        # A 10^6-agent ring over the 5-agent problem: its O(n) construction and sum check reach the
        # agent-count check, where an n x n copy or scan would take 8 TB or 10^12 additions first.
        text = (CONFIGS / "quadratic.ini").read_text()
        assert text.count("source = five-agent-pair\n") == 1
        path = tmp_path / "million.ini"
        path.write_text(text.replace("source = five-agent-pair\n", "source = ring\nn = 1000000\n"))
        out = tmp_path / "x.csv"
        for command in (["run", str(path), "--output", str(out)], ["validate", str(path)]):
            start = time.perf_counter()
            assert main(command) == 2
            assert time.perf_counter() - start < 30.0
            err = capsys.readouterr().err
            assert err == "config error: the problem has 5 agents but the schedule mixes 1000000\n"
        assert not out.exists()

    def test_ring_160000_gap_reads_1_and_exits_2(self, tmp_path, capsys):
        # Its true gap, about 1 - 5.1e-10, is within GAP_ROUNDOFF * n = 5.68e-10 of 1, so it reads 1:
        # the message names that roundoff allowance, not a network that never mixes.
        path = tmp_path / "ring.ini"
        path.write_text(RING_120.replace("n = 120", "n = 160000").replace("d = 3", "d = 1"))
        out = tmp_path / "x.csv"
        for command in (["run", str(path), "--output", str(out)], ["validate", str(path)]):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                "config error: schedule spectral gap reads 1: at 160000 agents a gap within 5.68e-10 of 1 "
                "cannot be told from 1, so no round count can be derived\n"
            )
        assert not out.exists()

    def test_inline_circulant_off_by_2e_9_exits_2(self, tmp_path, capsys):
        # Its rows and columns all sum to 1 + 2e-9; written out inline, it is dense, and every sum is read.
        path = tmp_path / "off.ini"
        path.write_text(INLINE_RING_5.replace("1/2", "0.500000002"))
        assert main(["run", str(path), "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: schedule matrix 0 is not doubly stochastic") and err.count("\n") == 1
        assert err.endswith("(max row dev 2.000e-09, max col dev 2.000e-09)\n")

    def test_validate_fails_where_run_cannot_cancel_gradients(self, tmp_path, capsys, quadratic_config_path):
        # mu = 1e-8 passes the optimizer's own gradient-sum check but not the
        # fixed point's cancellation check that run applies.
        text = quadratic_config_path.read_text()
        assert text.count("mu = 1.0\n") == 1
        path = tmp_path / "flat.ini"
        path.write_text(text.replace("mu = 1.0\n", "mu = 1e-8\n"))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  gradient sum zero at optimizer: correction fixed point does not average to zero" in out
        assert main(["run", str(path), "--output", str(tmp_path / "x.csv")]) == 3

    def test_complete_graph_mixes_in_one_round(self, tmp_path):
        # Uniform averaging has gap exactly 0: one round reaches consensus, so m = 1.
        config = tmp_path / "complete.ini"
        text = (CONFIGS / "quadratic.ini").read_text().replace("n = 5", "n = 6")
        pair = "kind = random\nsource = five-agent-pair\nseed = 42"
        assert pair in text
        config.write_text(text.replace(pair, "kind = constant\nsource = complete\nn = 6"))
        tables = {}
        for mode in ("vectorized", "netsim"):
            out = tmp_path / f"{mode}.csv"
            assert main(["run", str(config), "--mode", mode, "--output", str(out)]) == 0
            _, rows = read_csv(out)
            tables[mode] = [r for r in rows if r[2] != "centralized"]
        vec, net = tables["vectorized"], tables["netsim"]
        assert len(vec) == 61 * 6
        assert [int(r[1]) for r in vec[::6]] == list(range(61))
        assert [r[:3] for r in vec] == [r[:3] for r in net]
        assert max(abs(float(a[3]) - float(b[3])) for a, b in zip(vec, net)) <= 1e-12
        assert float(vec[-1][3]) < 1e-6 * float(vec[0][3])

    def test_user_stepsize_resolves_its_true_contraction(self, tmp_path):
        config = tmp_path / "alpha.ini"
        config.write_text((CONFIGS / "quadratic.ini").read_text().replace("alpha = auto", "alpha = 0.4"))
        _, problem, params, schedule, x0, _ = assemble(config)
        # max(|1 - 0.4 * 1|, |1 - 0.4 * 3|) = 0.6, not the auto (L - mu) / (L + mu) = 0.5
        assert params.rho == 0.6 and params.m == 5
        trace = gg.run_algorithm(problem, schedule, params, x0, 60)
        records = gg.lyapunov_trace(trace, gg.fixed_point(problem, params), params)
        assert not any(record.exceeds_tolerance for record in records)
        assert main(["run", str(config), "--output", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("mode", ["vectorized", "netsim"])
    def test_overflowing_run_exits_3(self, tmp_path, capsys, mode):
        config = tmp_path / "overflow.ini"
        config.write_text((CONFIGS / "quadratic.ini").read_text().replace("x0 = random", "x0 = 1e308, 1e308, 1e308"))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(config), "--mode", mode, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
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


class TestCsvRendering:
    @pytest.mark.parametrize("mode", ["vectorized", "netsim"])
    @pytest.mark.parametrize("name", ["quadratic", "localization", "ring-120"])
    def test_csv_equals_per_row_reference(self, tmp_path, name, mode):
        # The CSV is rendered row by row from the same trace, and the
        # centralized rows from gradient descent on a broadcast point.
        path = CONFIGS / f"{name}.ini"
        if name == "ring-120":
            path = tmp_path / "ring.ini"
            path.write_text(RING_120)
        out = tmp_path / "run.csv"
        assert main(["run", str(path), "--mode", mode, "--output", str(out)]) == 0
        config, problem, params, schedule, x0, _ = assemble(path)
        runner = gg.run_netsim if mode == "netsim" else gg.run_algorithm
        trace = runner(problem, schedule, params, x0, config.iterations)
        xstar = problem.optimizer
        errors = trace.errors(xstar)
        records = gg.lyapunov_trace(trace, gg.fixed_point(problem, params), params)
        m = params.m
        lines = ["iter,step,agent,error,lyapunov"]
        for k in range(trace.iterations + 1):
            for i in range(trace.n):
                lines.append(f"{k},{k * m},{i},{errors[k, i]:.17g},{records[k].value:.17g}")
        central = [x0.mean(axis=0)]
        for _ in range(config.iterations):
            x = central[-1]
            central.append(x - params.alpha * (problem.gradient(problem.at(x)).sum(axis=0) / problem.n))
        for k, error in enumerate(np.linalg.norm(np.array(central) - xstar, axis=1)):
            lines.append(f"{k},{k},centralized,{error:.17g},")
        assert out.read_text().splitlines() == lines
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


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

    def test_grid_takes_a_rho_far_below_the_difference_forms_cancellation(self, capsys):
        # (sqrt(1 + rho) - sqrt(1 - rho)) / 2 reads 0.0 in doubles at rho = 1e-20; sigma0 does not.
        argv = ["grid", "--rho-min", "1e-20", "--rho-max", "0.5", "--sigma-min", "0.5", "--resolution", "2"]
        assert main([*argv, "--output", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1] == "9.9999999999999995e-21,0.5,68"

    def test_grid_at_a_denormal_rho_is_a_config_error(self, capsys):
        # sigma0(5e-324) underflows to 0, which has no round count: one config error line, exit 2.
        argv = ["grid", "--rho-min", "5e-324", "--rho-max", "0.5", "--sigma-min", "0.5", "--resolution", "2"]
        assert main([*argv, "--output", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "sigma0 underflows to 0" in err

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

    def test_grid_over_feasible_region_is_ceil_log_ratio(self, tmp_path):
        # The box (r, s) >= (rho, sigma) up to 0.999: m is the raw ceil of the log ratio, at least 1.
        out = tmp_path / "grid.csv"
        args = [
            "grid",
            "--rho-min", "0.5", "--rho-max", "0.999",
            "--sigma-min", "0.7", "--sigma-max", "0.999",
            "--resolution", "5",
            "--output", str(out),
        ]
        assert main(args) == 0
        header, rows = read_csv(out)
        assert header == ["rho", "sigma", "m"]
        assert len(rows) == 25
        for r in rows:
            rho, sigma, m = float(r[0]), float(r[1]), int(r[2])
            assert m == math.ceil(math.log(gg.sigma0(rho)) / math.log(sigma)) >= 1


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

    @pytest.mark.parametrize("kind", ["nosuch", "constant"], ids=["schedule-kind", "constant-pair"])
    def test_unbuildable_schedule_exits_2(self, tmp_path, capsys, kind):
        # Neither schedule can be built over the five-agent pair, so run exits 2; validate must agree.
        text = (CONFIGS / "quadratic.ini").read_text()
        assert text.count("kind = random") == 1
        bad = tmp_path / "bad.ini"
        assert text.count("seed = 42\n") == 1
        # Without the schedule seed, which only the random kind reads.
        bad.write_text(text.replace("kind = random", f"kind = {kind}").replace("seed = 42\n", ""))
        assert main(["validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "PASS" not in captured.out

    def test_localization_contraction_reported_not_certified(self, capsys, localization_config_path):
        # The residual objectives are nonconvex: the sampled check reports the
        # honest failure and the command exits nonzero.
        assert main(["validate", str(localization_config_path)]) == 1
        out = capsys.readouterr().out
        assert "sampled contraction" in out
        assert "gradient sum zero at optimizer" in out
