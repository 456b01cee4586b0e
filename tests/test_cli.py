import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import gossipgrad as gg
from gossipgrad import cli
from gossipgrad.cli import assemble, build_parser, main
from gossipgrad.config import load_run_config, parse_entry, parse_rows
from gossipgrad.gossip import circulant_spectrum_power


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The built-in five-agent pair written as inline matrix text.
PAIR = (
    "0, 3/8, 1/4, 0, 3/8; 1/8, 0, 3/4, 1/8, 0; 0, 5/8, 0, 3/8, 0; 3/8, 0, 0, 0, 5/8; 1/2, 0, 0, 1/2, 0",
    "0, 1/2, 1/4, 0, 1/4; 1/4, 0, 3/4, 0, 0; 0, 1/2, 0, 1/2, 0; 1/4, 0, 0, 0, 3/4; 1/2, 0, 0, 1/2, 0",
)
# The pair's schedule in configs/quadratic.ini.
RANDOM_PAIR = "kind = random\nsource = five-agent-pair\nseed = 42"
# Two blocks that never exchange values; LAPACK puts its gap at 0.9999999999999998.
DISCONNECTED = "1/2, 1/2, 0, 0, 0; 1/2, 1/2, 0, 0, 0; 0, 0, 1/3, 1/3, 1/3; 0, 0, 1/3, 1/3, 1/3; 0, 0, 1/3, 1/3, 1/3"
# Five agent positions, none at the target (1, 1).
POSITIONS = "positions = 1.38, 1.69; 0.6, 0.47; 1.84, 1.82; 0.32, 0.79; 1.3, 1.06"
# A symmetric circulant of dyadic weights, written out: the 5-agent lazy ring, gap (1 + cos(2 pi / 5)) / 2 = 0.6545.
RING_5 = "1/2, 1/4, 0, 0, 1/4; 1/4, 1/2, 1/4, 0, 0; 0, 1/4, 1/2, 1/4, 0; 0, 0, 1/4, 1/2, 1/4; 1/4, 0, 0, 1/4, 1/2"
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
# The 5-agent complete matrix, written out: uniform averaging, gap 0.
COMPLETE_5 = "; ".join([", ".join(["1/5"] * 5)] * 5)


def ring(n, *edits):
    """configs/ring400.ini, a constant ring, at n agents in the problem and the ring, with further edits."""
    return ("ring400", f"quadratic\nn = 400 -> quadratic\nn = {n}", f"ring\nn = 400 -> ring\nn = {n}", *edits)


# A constant 120-agent ring: agent ids run to three digits and m = 1,479 rounds per iteration.
RING_120 = ring(120, "iterations = 30 -> iterations = 3")
# RING_120's config over RING_5, written out inline, in place of the generated 120-ring.
INLINE_RING_5 = ring(5, f"ring\nn = 5 -> inline\nmatrix1 = {RING_5}", "iterations = 30 -> iterations = 3")


RUN, NETSIM, VALIDATE = ("run",), ("run", "--mode", "netsim"), ("validate",)
BAD = {RUN: 2, VALIDATE: 2}  # a config that run and validate both refuse
BAD_TO_RUN = {RUN: 2, NETSIM: 2}  # a size that only a run allocates, refused in each mode
DIRECTORY, MISSING = "<a directory>", "<no file>"
VALIDATE_CHECKS = ["spectral gap within bound", "sampled contraction", "gradient sum zero at optimizer"]
SCHEDULE_KIND = "unknown schedule kind 'nosuch', expected one of ('constant', 'cyclic', 'random')"
# What a fixed point whose local gradients do not cancel prints: err, codes and validate's out (see Case).
FIXED_POINT = (
    "correction fixed point does not average to zero...",
    {RUN: 3, VALIDATE: 1},
    "FAIL  gradient sum zero at optimizer: correction fixed point does not average to zero...",
)


class Case(NamedTuple):
    """One CLI exit case: a config, the exit code of each command run on it, and what the commands print.

    config is one of: a tuple of a shipped config's name and its edits, each "old -> new" text (old must occur
    once) or bytes to append; raw config text; DIRECTORY; MISSING; or None for grid and rates, which read no
    config. err is the stderr line of every exit 2 or 3 after its "config error: " or "numerical failure: ",
    whole, or its start when it ends in "...". codes maps each command (its name, then its flags) to its exit
    code. out is a line of validate's stdout, in the same form as err.
    """

    config: tuple | str | None
    err: str = ""
    codes: dict = BAD
    out: str = ""


# Every CLI exit case, by id. A row's commands run through main on its config, written as <id>.ini in an empty
# directory, with --output x.csv for run, grid and rates unless the row gives its own output.
CASES = {
    # Values that do not parse or are not finite.
    "unknown-kind": Case(
        "[problem]\nkind = nosuch\n", "unknown problem kind 'nosuch'; expected quadratic or localization"
    ),
    "iterations": Case(
        ("quadratic", "iterations = 60 -> iterations = sixty"), "iterations must be an integer >= 1, got 'sixty'"
    ),
    "mu": Case(("quadratic", "mu = 1.0 -> mu = one"), "mu must be a finite number, got 'one'"),
    "target": Case(
        ("localization", "target = 1.0, 1.0 -> target = 1.0, a"), "target must be a finite number, got ' a'"
    ),
    "alpha-nan": Case(
        ("quadratic", "alpha = auto -> alpha = nan"), "alpha, rho and sigma must be a finite number, got 'nan'"
    ),
    "alpha-inf": Case(
        ("quadratic", "alpha = auto -> alpha = inf"), "alpha, rho and sigma must be a finite number, got 'inf'"
    ),
    "L-inf": Case(("quadratic", "L = 3.0 -> L = inf"), "L must be a finite number, got 'inf'"),
    "x0": Case(("quadratic", "x0 = random -> x0 = 1.0, b, 0.0"), "point coordinate must be a finite number, got ' b'"),
    "x0-empty": Case(("quadratic", "x0 = random -> x0 = ;"), "no rows in ';'"),
    "ring-n": Case(
        ("quadratic", "source = five-agent-pair -> source = ring\nn = -1"), "n must be an integer >= 1, got '-1'"
    ),
    "matrix-nan": Case(
        ("quadratic", "source = five-agent-pair -> source = inline\nmatrix1 = nan, 0.5; 0.5, 0.5"),
        "cannot parse matrix entry 'nan'",
    ),
    "x0-nan": Case(
        ("quadratic", "x0 = random -> x0 = nan, 0, 0"), "point coordinate must be a finite number, got 'nan'"
    ),
    "percent-in-value": Case(
        ("quadratic", "output = quadratic_trace.csv -> output = a%b.csv"),
        "cannot parse config percent-in-value.ini: '%' must be followed by '%' or '('...",
    ),
    "not-utf8": Case(
        ("quadratic", b"\xff"), "cannot parse config not-utf8.ini: 'utf-8' codec can't decode byte 0xff in position..."
    ),
    "not-a-file": Case(DIRECTORY, "cannot read config not-a-file.ini: Is a directory"),
    "absent": Case(MISSING, "cannot read config absent.ini: No such file or directory"),
    # Keys, sections, kinds and sources that are missing, unknown or unread.
    "problem-kind": Case(
        ("quadratic", "kind = quadratic -> kind = nosuch"),
        "unknown problem kind 'nosuch'; expected quadratic or localization",
    ),
    "schedule-kind": Case(("quadratic", "kind = random -> kind = nosuch"), SCHEDULE_KIND),
    # Without the schedule seed, which only the random kind reads.
    "schedule-kind-unseeded": Case(("quadratic", "kind = random -> kind = nosuch", "seed = 42\n -> "), SCHEDULE_KIND),
    "schedule-source": Case(
        ("quadratic", "source = five-agent-pair -> source = nosuch"), "unknown schedule source 'nosuch'"
    ),
    "misspelled-key": Case(
        ("quadratic", "iterations = 60 -> iteration = 7"), "unknown key 'iteration' in section [run]"
    ),
    "unknown-section": Case(("quadratic", "[run] -> [runs]"), "unknown section [runs]"),
    "mode-typo": Case(
        ("quadratic", "mode = vectorized -> mode = typo"), "mode must be vectorized or netsim, got 'typo'"
    ),
    "schedule-section-missing": Case(
        ("quadratic", f"[schedule]\n{RANDOM_PAIR}\n -> "),
        "config needs a [schedule] section",
    ),
    "localization-section-missing": Case(
        ("localization", "[localization]\nn = 5\nseed = 293\ntarget = 1.0, 1.0\n -> "),
        "localization problems need a [localization] section",
    ),
    "problem-kind-missing": Case(
        ("quadratic", "[problem]\nkind = quadratic\n -> [problem]\n"), "missing key 'kind' in section [problem]"
    ),
    "schedule-kind-missing": Case(
        ("quadratic", "[schedule]\nkind = random\n -> [schedule]\n"), "missing key 'kind' in section [schedule]"
    ),
    "inline-without-matrix": Case(
        ("quadratic", "source = five-agent-pair -> source = inline"),
        "inline schedule needs matrix1 (and matrix2, ... as needed)",
    ),
    "inline-matrix-gap": Case(
        ("quadratic", f"source = five-agent-pair -> source = inline\nmatrix1 = {PAIR[0]}\nmatrix3 = {PAIR[1]}"),
        "unknown key 'matrix3' in section [schedule]",
    ),
    "matrix-without-inline": Case(
        ("quadratic", f"source = five-agent-pair -> source = five-agent-pair\nmatrix1 = {PAIR[0]}"),
        "unknown key 'matrix1' in section [schedule]",
    ),
    "schedule-n-under-pair": Case(
        ("quadratic", "source = five-agent-pair -> source = five-agent-pair\nn = 9"),
        "unknown key 'n' in section [schedule]",
    ),
    "schedule-seed-under-cyclic": Case(
        ("quadratic", "kind = random -> kind = cyclic"), "unknown key 'seed' in section [schedule]"
    ),
    "problem-mu-under-localization": Case(
        ("localization", "kind = localization -> kind = localization\nmu = 1.0"),
        "unknown key 'mu' in section [problem]",
    ),
    "problem-d-under-localization": Case(
        ("localization", "kind = localization -> kind = localization\nd = 2"),
        "unknown key 'd' in section [problem]",
    ),
    "localization-section-in-quadratic": Case(
        ("quadratic", "[schedule] -> [localization]\nn = 5\nseed = 293\n\n[schedule]"),
        "unknown section [localization]",
    ),
    "positions-beside-n-and-seed": Case(
        ("localization", f"target = 1.0, 1.0 -> target = 1.0, 1.0\n{POSITIONS}"),
        "unknown key 'n', 'seed' in section [localization]",
    ),
    # Values out of range, and parts that do not fit together.
    "d-zero": Case(("quadratic", "d = 3 -> d = 0"), "d must be an integer >= 1, got '0'"),
    "iterations-zero": Case(
        ("quadratic", "iterations = 60 -> iterations = 0"), "iterations must be an integer >= 1, got '0'"
    ),
    "localization-n-zero": Case(("localization", "n = 5 -> n = 0"), "n must be an integer >= 1, got '0'"),
    "problem-seed-negative": Case(("quadratic", "seed = 7 -> seed = -1"), "seed must be an integer >= 0, got '-1'"),
    "localization-seed-negative": Case(
        ("localization", "seed = 293 -> seed = -1"), "seed must be an integer >= 0, got '-1'"
    ),
    "schedule-seed-negative": Case(("quadratic", "seed = 42 -> seed = -1"), "seed must be an integer >= 0, got '-1'"),
    "run-seed-negative": Case(("quadratic", "seed = 1 -> seed = -1"), "seed must be an integer >= 0, got '-1'"),
    "mu-above-L": Case(("quadratic", "L = 3.0 -> L = 0.5"), "quadratic problem needs 0 < mu <= L < inf"),
    "mu-zero": Case(("quadratic", "mu = 1.0 -> mu = 0"), "quadratic problem needs 0 < mu <= L < inf"),
    "curvature-ratio": Case(
        ("quadratic", "d = 3\nmu = 1.0 -> d = 1\nmu = 1e-20"), "contraction factor must be in [0, 1), got 1.0"
    ),
    "alpha-expanding": Case(
        ("quadratic", "alpha = auto -> alpha = 0.9"), "stepsize 0.9 gives contraction factor 1.7 >= 1 on [mu, L]"
    ),
    # Under rho = auto, a localization stepsize is checked by its factor linearized at the target. Directions to a
    # far target are collinear, so one eigenvalue of the average Hessian there is 0 and the factor is exactly 1.
    "alpha-expanding-localization": Case(
        ("localization", "alpha = auto -> alpha = 3.0"),
        "stepsize 3 gives contraction factor 1.6654 >= 1 at the target 1, 1",
    ),
    "target-collinear": Case(
        ("localization", "target = 1.0, 1.0 -> target = 1e150, 1.0"),
        "stepsize 2 gives contraction factor 1 >= 1 at the target 1e+150, 1",
    ),
    "target-collinear-positions": Case(
        ("localization", f"n = 5\nseed = 293 -> {POSITIONS}", "target = 1.0, 1.0 -> target = 1e150, 1.0"),
        "stepsize 2 gives contraction factor 1 >= 1 at the target 1e+150, 1",
    ),
    "rho-below-factor": Case(
        ("quadratic", "rho = auto -> rho = 0.4"), "rho = 0.4 is below the contraction factor 0.5 of stepsize 0.5"
    ),
    "rho-negative": Case(
        ("localization", "rho = auto\nsigma = auto\nm = 6\n -> rho = -0.5\nsigma = auto\n"),
        "rho must be in (0, 1), got -0.5",
    ),
    "sigma-explicit": Case(("quadratic", "sigma = auto -> sigma = 1.5"), "sigma must be in [0, 1), got 1.5"),
    "m-below-derived": Case(
        ("quadratic", "sigma = auto -> sigma = auto\nm = 2"),
        "m=2 leaves sigma^m above the consensus threshold 0.258819; need m >= 6",
    ),
    "x0-dimension": Case(("quadratic", "x0 = random -> x0 = 1, 2"), "explicit x0 has shape (1, 2), expected (5, 3)"),
    "x0-positions-quadratic": Case(
        ("quadratic", "x0 = random -> x0 = positions"), "x0 = positions only makes sense for localization problems"
    ),
    "target-three-coordinates": Case(
        ("localization", "target = 1.0, 1.0 -> target = 1.0, 1.0, 1.0"), "target must have shape (2,), got (3,)"
    ),
    "target-far": Case(
        ("localization", "target = 1.0, 1.0 -> target = 1e300, 1e300"),
        "target 1e+300, 1e+300 is too far from the agents: a distance to it overflows",
    ),
    "target-far-positions": Case(
        ("localization", f"n = 5\nseed = 293 -> {POSITIONS}", "target = 1.0, 1.0 -> target = 1e300, 1e300"),
        "target 1e+300, 1e+300 is too far from the agents: a distance to it overflows",
    ),
    "problem-n-vs-pair": Case(("quadratic", "n = 5 -> n = 4"), "the problem has 4 agents but the schedule mixes 5"),
    # The ring's O(n) construction and sum check reach the agent-count check, where an n x n copy or scan would
    # take 8 TB or 10^12 additions first.
    "million-ring": Case(
        ("quadratic", "source = five-agent-pair -> source = ring\nn = 1000000"),
        "the problem has 5 agents but the schedule mixes 1000000",
    ),
    # Schedules that cannot be built or do not mix within sigma.
    "constant-pair": Case(
        ("quadratic", f"{RANDOM_PAIR} -> kind = constant\nsource = five-agent-pair"),
        "constant schedule takes exactly one matrix",
    ),
    "disconnected": Case(
        ("quadratic", f"source = five-agent-pair -> source = inline\nmatrix1 = {DISCONNECTED}"),
        "schedule spectral gap reads 1: at 5 agents a gap within 1.78e-14 of 1 cannot be told from 1, "
        "so no round count can be derived",
    ),
    # Its true gap, about 1 - 5.1e-10, is within GAP_ROUNDOFF * n = 5.68e-10 of 1, so it reads 1.
    "ring-160000": Case(
        ring(160000, "d = 3 -> d = 1"),
        "schedule spectral gap reads 1: at 160000 agents a gap within 5.68e-10 of 1 cannot be told "
        "from 1, so no round count can be derived",
    ),
    # Rows and columns that all sum to 1 + 2e-9: written out inline, the matrix is dense, and every sum is read.
    "off-by-2e-9": Case(
        ring(5, f"ring\nn = 5 -> inline\nmatrix1 = {RING_5.replace('1/2', '0.500000002')}"),
        "schedule matrix 0 is not doubly stochastic (max row dev 2.000e-09, max col dev 2.000e-09)",
    ),
    # m derived from sigma = 0.5 would leave the pair's true gap (0.7853) above sigma0 after m rounds.
    "tight-sigma": Case(
        ("quadratic", "sigma = auto -> sigma = 0.5"),
        "sigma = 0.5 is below the schedule's spectral gap 0.785334",
        {RUN: 2, VALIDATE: 1},
        "FAIL  spectral gap within bound: actual 0.785334 vs configured 0.500000",
    ),
    "identity": Case(
        (
            "quadratic",
            f"{RANDOM_PAIR} -> kind = constant\nsource = inline\n"
            "matrix1 = 1, 0, 0, 0, 0; 0, 1, 0, 0, 0; 0, 0, 1, 0, 0; 0, 0, 0, 1, 0; 0, 0, 0, 0, 1",
            "sigma = auto -> sigma = 0.9",
        ),
        codes={VALIDATE: 1},
        out="FAIL  spectral gap within bound: actual 1.000000 vs configured 0.900000",
    ),
    "loose-sigma": Case(("quadratic", "sigma = auto -> sigma = 0.79"), codes={VALIDATE: 0}),
    # The run configs, which CI writes from these rows (RUN_CONFIGS in .github/workflows/tests.yml) and runs in
    # both modes.
    "quadratic": Case(("quadratic",), codes={VALIDATE: 0}),
    "ring400": Case(("ring400",), codes={VALIDATE: 0}),
    # The pair cycled on the run's global round counter instead of drawn: a cyclic schedule takes no seed.
    "cyclic": Case(("quadratic", "kind = random -> kind = cyclic", "seed = 42\n -> "), codes={VALIDATE: 0}),
    # m = 1,351 random rounds per iteration, so a run draws 81,060 rounds instead of 360.
    "slow-mixing": Case(("quadratic", "sigma = auto -> sigma = 0.999"), codes={VALIDATE: 0}),
    # Inline matrices whose rows are 3 and 5 wide, so netsim rounds fold inbox slices of both widths.
    "mixed-width": Case(
        ("quadratic", f"source = five-agent-pair -> source = inline\nmatrix1 = {PAIR[0]}\nmatrix2 = {COMPLETE_5}"),
        codes={VALIDATE: 0},
    ),
    # The pair's first matrix alone: m = 5 rounds of a matrix that is not circulant, so the vectorized run mixes
    # by np.linalg.matrix_power. Its entries are dyadic, so its powers are exact.
    "constant-inline": Case(
        ("quadratic", f"{RANDOM_PAIR} -> kind = constant\nsource = inline\nmatrix1 = {PAIR[0]}"), codes={VALIDATE: 0}
    ),
    # A declared circulant, kept as its row, with gap 0 and m = 1.
    "complete": Case(("quadratic", f"{RANDOM_PAIR} -> kind = constant\nsource = complete\nn = 5"), codes={VALIDATE: 0}),
    # A constant 100-ring at m = 1,027: the vectorized mode mixes by the ring's spectrum to the m-th power, one
    # FFT pair per iteration, and the netsim mode runs the 1,027 rounds.
    "ring": Case(ring(100, "iterations = 30 -> iterations = 5"), codes={VALIDATE: 0}),
    # The nonconvex residuals fail the sampled contraction check.
    "localization": Case(("localization",), codes={VALIDATE: 1}, out="FAIL  sampled contraction: ..."),
    # Sizes numpy refuses before touching memory: one it can index but not allocate (a MemoryError), or one past
    # its index range (a ValueError). validate never allocates a trace or a round table.
    "iterations-1e13": Case(
        ("quadratic", "iterations = 60 -> iterations = 10000000000000"), "Unable to allocate...", BAD_TO_RUN
    ),
    "iterations-bytes": Case(
        ("quadratic", "iterations = 60 -> iterations = 100000000000000000"),
        "cannot allocate the trace: ...",
        BAD_TO_RUN,
    ),
    "iterations-rows": Case(
        ("quadratic", "iterations = 60 -> iterations = 2305843009213693952"),
        "cannot allocate the trace: ...",
        BAD_TO_RUN,
    ),
    "m-1e17": Case(
        ("quadratic", "sigma = auto -> sigma = auto\nm = 100000000000000000"),
        "cannot allocate the round table: ...",
        BAD_TO_RUN,
    ),
    # A 10**18-agent complete matrix: its row alone is 6.94 EiB.
    "complete-n": Case(
        ("quadratic", "source = five-agent-pair -> source = complete\nn = 1000000000000000000"),
        "Unable to allocate...",
    ),
    "complete-n-index": Case(
        ("quadratic", "source = five-agent-pair -> source = complete\nn = 100000000000000000000"),
        "cannot allocate a 100000000000000000000-agent complete matrix: ...",
    ),
    "ring-n-index": Case(
        ("quadratic", "source = five-agent-pair -> source = ring\nn = 100000000000000000000"),
        "cannot allocate a 100000000000000000000-agent ring matrix: ...",
    ),
    "quadratic-n": Case(
        ("quadratic", "n = 5 -> n = 100000000000000000000"),
        "cannot allocate a problem of 100000000000000000000 agents in dimension 3: ...",
    ),
    "quadratic-d": Case(
        ("quadratic", "d = 3 -> d = 100000000000000000000"),
        "cannot allocate a problem of 5 agents in dimension 100000000000000000000: ...",
    ),
    # The candidates are drawn as blocks, so numpy refuses the size at the first draw.
    "sampled-n-1e13": Case(("localization", "n = 5 -> n = 10000000000000"), "Unable to allocate..."),
    "sampled-n-1e20": Case(
        ("localization", "n = 5 -> n = 100000000000000000000"),
        "cannot allocate 100000000000000000000 sampled positions: ...",
    ),
    "grid-resolution": Case(
        None,
        "cannot allocate a grid of resolution 100000000000000000000: ...",
        {("grid", "--resolution", str(10**20)): 2},
    ),
    # At 2**63, numpy 2.4's linspace raises IndexError from an empty arange.
    "grid-2-63": Case(
        None, "cannot allocate a grid of resolution 9223372036854775808: ...", {("grid", "--resolution", str(2**63)): 2}
    ),
    "grid-rho-min-zero": Case(None, "range [0.0, 0.95] must sit inside (0, 1)", {("grid", "--rho-min", "0.0"): 2}),
    "grid-resolution-one": Case(None, "resolution must be >= 2, got 1", {("grid", "--resolution", "1"): 2}),
    # sigma0(5e-324) underflows to 0, which has no round count.
    "grid-denormal-rho": Case(
        None,
        "no round count at rho = 4.9406564584124654e-324, sigma = 0.5: sigma0 underflows to 0 at rho = 5e-324, so no "
        "round count reaches it",
        {("grid", "--rho-min", "5e-324", "--rho-max", "0.5", "--sigma-min", "0.5", "--resolution", "2"): 2},
    ),
    "unwritable-output": Case(
        ("quadratic",),
        "cannot write output missing-dir/x.csv: No such file or directory",
        {("run", "--output", "missing-dir/x.csv"): 2},
    ),
    # Ill-conditioned curvature: the solved optimizer passes its own gradient-sum check but not the fixed point's
    # cancellation check (at L = 3 or 1), or fails both.
    "fixed-point": Case(("quadratic", "mu = 1.0 -> mu = 1e-8"), *FIXED_POINT),
    "fixed-point-L1": Case(("quadratic", "mu = 1.0 -> mu = 1e-8", "L = 3.0 -> L = 1.0"), *FIXED_POINT),
    "optimizer-check": Case(
        ("quadratic", "mu = 1.0 -> mu = 1e-6", "L = 3.0 -> L = 1e6"),
        "the solved optimizer is not exact: local gradients do not sum to zero at the declared optimizer...",
        {RUN: 3, VALIDATE: 3},
    ),
    "overflow-x0": Case(
        ("quadratic", "x0 = random -> x0 = 1e308, 1e308, 1e308"),
        "the run produced non-finite errors or energies",
        {RUN: 3, NETSIM: 3},
    ),
    # Every agent starts at agent 2's anchor, and mixing keeps the consensus, so agent 2's gradient is taken there.
    "singular": Case(
        (
            "localization",
            "n = 5\nseed = 293 -> positions = 0.2, 0.1; 1.6, 0.3; 0.5, 1.7; 1.9, 1.4; 0.4, 0.9",
            "x0 = positions -> x0 = 0.5, 1.7",
            "m = 6\n -> ",
        ),
        "gradient undefined at the anchor [0.5 1.7]",
        {RUN: 3, NETSIM: 3},
    ),
}


def write_config(path, config):
    """Writes a row's config at ``path`` (see Case) and returns ``path``."""
    if config in (None, MISSING):
        return path
    if config == DIRECTORY:
        path.mkdir()
    elif isinstance(config, str):
        path.write_text(config)
    else:
        name, *edits = config
        text, tail = (CONFIGS / f"{name}.ini").read_text(), b""
        for edit in edits:
            if isinstance(edit, bytes):
                tail += edit
                continue
            old, new = edit.split(" -> ")
            assert text.count(old) == 1, (name, old)
            text = text.replace(old, new)
        path.write_bytes(text.encode() + tail)
    return path


def case_argv(case_id, command):
    name, *flags = command
    config = [] if name in ("grid", "rates") else [f"{case_id}.ini"]
    output = [] if name == "validate" or "--output" in flags else ["--output", "x.csv"]
    return [name, *config, *flags, *output]


def matches(text, want):
    return text.startswith(want[:-3]) if want.endswith("...") else text == want


@pytest.fixture
def exit_case(tmp_path, capsys, monkeypatch):
    """Runs rows of CASES by id through main, each command with the checks that every row gets."""
    monkeypatch.chdir(tmp_path)

    def check(case_id, *commands):
        case = CASES[case_id]
        write_config(tmp_path / f"{case_id}.ini", case.config)
        for command in commands or case.codes:
            where = f"{case_id}: {' '.join(command)}"
            start = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(case_argv(case_id, command))
            assert time.perf_counter() - start < 30.0, where
            out, err = capsys.readouterr()
            assert code == case.codes[command], (where, code, err)
            assert "Traceback" not in err and not [w for w in caught if issubclass(w.category, RuntimeWarning)], where
            if code in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL):
                prefix = "config error: " if code == cli.EXIT_CONFIG else "numerical failure: "
                assert err.startswith(prefix) and err.count("\n") == 1 and out == "", (where, err, out)
                assert matches(err[len(prefix) : -1], case.err), (where, err)
            else:
                assert err == "", where
            if command == VALIDATE and code in (cli.EXIT_OK, cli.EXIT_VALIDATION):
                lines = out.splitlines()
                assert [line[6 : line.index(":")] for line in lines] == VALIDATE_CHECKS, where
                assert all(line[:6] in ("PASS  ", "FAIL  ") for line in lines), where
                assert any(line.startswith("FAIL") for line in lines) == (code == cli.EXIT_VALIDATION), where
                assert not case.out or any(matches(line, case.out) for line in lines), (where, out)
            if code != cli.EXIT_OK:
                assert not list(tmp_path.rglob("*.csv")), where

    return check


# Rows of CASES that a test kept under an earlier test's name runs; test_exit_case runs the others.
OLDER_ROWS = set()


def older_test(*items, ids=None):
    """A test under the name of an earlier one-case test, running its rows of CASES with exit_case.

    Each item is a row id, or a row id and the one command of that row to run. The test is one item that runs
    them all; or, given ids (True for the row ids), one parametrized item per row.
    """
    items = [(item,) if isinstance(item, str) else item for item in items]
    OLDER_ROWS.update(case_id for case_id, *_ in items)
    if ids is None:

        def test(self, exit_case):
            for item in items:
                exit_case(*item)

        return test

    @pytest.mark.parametrize("item", items, ids=[item[0] for item in items] if ids is True else ids)
    def test(self, exit_case, item):
        exit_case(*item)

    return test


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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

    def test_console_exit_status(self, tmp_path):
        # The process exit status is main's return value, one row per exit code. The child imports this
        # gossipgrad, so a mutated copy is the one tested.
        src = str(Path(gg.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        rows = [("quadratic", VALIDATE), ("localization", VALIDATE), ("absent", VALIDATE), ("overflow-x0", RUN)]
        for case_id, command in rows:
            case = CASES[case_id]
            write_config(tmp_path / f"{case_id}.ini", case.config)
            argv = [sys.executable, "-m", "gossipgrad.cli", *case_argv(case_id, command)]
            result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
            assert result.returncode == case.codes[command], (case_id, result.stderr)
            assert result.stderr.count("\n") == int(result.returncode >= cli.EXIT_CONFIG), (case_id, result.stderr)


class TestRunCommand:
    def test_quadratic_csv_structure(self, tmp_path):
        config = write_config(tmp_path / "q.ini", ("quadratic", "iterations = 60 -> iterations = 40"))
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
        config = CONFIGS / "quadratic.ini"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(config), "--output", str(out1)]) == 0
        assert main(["run", str(config), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_netsim_mode_matches_vectorized(self, tmp_path):
        config = write_config(tmp_path / "q.ini", ("quadratic", "iterations = 60 -> iterations = 20"))
        out_vec, out_net = tmp_path / "vec.csv", tmp_path / "net.csv"
        assert main(["run", str(config), "--output", str(out_vec), "--mode", "vectorized"]) == 0
        assert main(["run", str(config), "--output", str(out_net), "--mode", "netsim"]) == 0
        _, rows_vec = read_csv(out_vec)
        _, rows_net = read_csv(out_net)
        for rv, rn in zip(rows_vec, rows_net):
            assert rv[:3] == rn[:3]
            assert float(rv[3]) == pytest.approx(float(rn[3]), abs=1e-12)

    def test_cyclic_config_runs_in_both_modes(self, tmp_path):
        # The schedule is built without m and follows the run's m = 6.
        config = write_config(tmp_path / "cyclic.ini", CASES["cyclic"].config)
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
        edits = ("mu = 1.0 -> mu = 2.0", "L = 3.0 -> L = 2.0", "iterations = 60 -> iterations = 6")
        config = write_config(tmp_path / "q.ini", ("quadratic", *edits))
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

    def test_localization_without_override_uses_derived_rounds(self, tmp_path):
        # The checked-in config pins m = 6; the derived value for its
        # parameters is 4 and must converge as well.
        config = write_config(tmp_path / "derived.ini", ("localization", "m = 6\n -> "))
        cfg, _, params, _, _, _ = assemble(config)
        assert cfg.m_override is None
        assert params.m == 4
        out = tmp_path / "derived.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        final = [float(r[3]) for r in rows if r[0] == "200" and r[2] != "centralized"]
        assert max(final) < 1e-6

    def test_x0_forms_and_stdout_output(self, tmp_path, capsys):
        # x0 = zeros and an explicit point per agent, each run once to a file and once to stdout.
        explicit = np.arange(15.0).reshape(5, 3) / 4 - 1
        rows = "; ".join(", ".join(map(str, row)) for row in explicit.tolist())
        for name, spec, want in [("zeros", "zeros", np.zeros((5, 3))), ("explicit", rows, explicit)]:
            path = write_config(tmp_path / f"{name}.ini", ("quadratic", f"x0 = random -> x0 = {spec}"))
            x0 = assemble(path)[4]
            assert x0.shape == (5, 3) and np.array_equal(x0, want), name
            out = tmp_path / f"{name}.csv"
            assert main(["run", str(path), "--output", str(out)]) == 0
            capsys.readouterr()
            assert main(["run", str(path), "--output", "-"]) == 0
            assert capsys.readouterr().out.encode() == out.read_bytes(), name

    def test_inline_pair_runs_as_the_builtin_pair(self, tmp_path):
        # matrix1..matrixK without gaps is read in number order.
        edit = f"source = five-agent-pair -> source = inline\nmatrix2 = {PAIR[1]}\nmatrix1 = {PAIR[0]}"
        inline = write_config(tmp_path / "inline.ini", ("quadratic", edit))
        outputs = [tmp_path / "builtin.csv", tmp_path / "inline.csv"]
        assert main(["run", str(CONFIGS / "quadratic.ini"), "--output", str(outputs[0])]) == 0
        assert main(["run", str(inline), "--output", str(outputs[1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("sigma", ["auto", "0.79"])
    def test_one_spectral_gap_per_matrix(self, tmp_path, monkeypatch, command, sigma):
        calls = []

        def counted(W):
            calls.append(W)
            return gg.spectral_gap(W)

        # Wherever a module binds the name, so that no call goes uncounted.
        for module in ("gossipgrad.config", "gossipgrad.cli"):
            monkeypatch.setattr(f"{module}.spectral_gap", counted, raising=False)
        path = write_config(tmp_path / "q.ini", ("quadratic", f"sigma = auto -> sigma = {sigma}"))
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
        for config, declared in ((RING_120, True), (INLINE_RING_5, False)):
            path = write_config(tmp_path / "ring.ini", (*config, f"sigma = auto -> sigma = {sigma}"))
            spectra.clear()
            assert main(["run", str(path), "--mode", "vectorized", "--output", str(tmp_path / "x.csv")]) == 0
            assert len(spectra) == 1 and (spectra[0] is not None) == declared

    def test_ring_5000_runs_in_linear_memory(self, tmp_path):
        # A dense 5,000-ring would take 200 MB; the run holds its row, its spectrum and O(n d) states.
        path = write_config(tmp_path / "ring.ini", ring(5000, "d = 3 -> d = 1", "iterations = 30 -> iterations = 2"))
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

    def test_complete_graph_mixes_in_one_round(self, tmp_path):
        # Uniform averaging has gap exactly 0: one round reaches consensus, so m = 1.
        edits = ("n = 5 -> n = 6", f"{RANDOM_PAIR} -> kind = constant\nsource = complete\nn = 6")
        config = write_config(tmp_path / "complete.ini", ("quadratic", *edits))
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
        config = write_config(tmp_path / "alpha.ini", ("quadratic", "alpha = auto -> alpha = 0.4"))
        _, problem, params, schedule, x0, _ = assemble(config)
        # max(|1 - 0.4 * 1|, |1 - 0.4 * 3|) = 0.6, not the auto (L - mu) / (L + mu) = 0.5
        assert params.rho == 0.6 and params.m == 5
        trace = gg.run_algorithm(problem, schedule, params, x0, 60)
        records = gg.lyapunov_trace(trace, gg.fixed_point(problem, params), params)
        assert not any(record.exceeds_tolerance for record in records)
        assert main(["run", str(config), "--output", str(tmp_path / "x.csv")]) == 0

    # The earlier one-case tests of CASES rows, under their names and ids.
    test_invalid_config_exits_2 = older_test(
        "unknown-kind", "iterations", "mu", "target", "alpha-nan", "alpha-inf", "L-inf", "x0", "x0-empty", "ring-n",
        "matrix-nan", "x0-nan", "alpha-expanding", "rho-below-factor", "disconnected", "schedule-kind",
        "constant-pair", "problem-n-vs-pair", "x0-dimension", "x0-positions-quadratic", "misspelled-key",
        "unknown-section", "d-zero", "iterations-zero", "localization-n-zero", "problem-seed-negative",
        "localization-seed-negative", "schedule-seed-negative", "run-seed-negative", "inline-matrix-gap",
        "matrix-without-inline", "percent-in-value", "curvature-ratio", "schedule-section-missing",
        "localization-section-missing", "problem-kind-missing", "schedule-kind-missing", "mu-above-L", "mu-zero",
        "inline-without-matrix", "mode-typo", "rho-negative", "target-three-coordinates", "schedule-n-under-pair",
        "schedule-seed-under-cyclic", "problem-mu-under-localization", "problem-d-under-localization",
        "localization-section-in-quadratic", "positions-beside-n-and-seed",
        ids=True,
    )
    test_unknown_key_is_named = older_test("misspelled-key")
    test_matrix_key_is_named = older_test("inline-matrix-gap", "matrix-without-inline", ids=True)
    test_config_error_names_the_culprit = older_test(
        "schedule-n-under-pair", "schedule-seed-under-cyclic", "problem-mu-under-localization",
        "problem-d-under-localization", "localization-section-in-quadratic", "positions-beside-n-and-seed",
        "problem-kind", "schedule-kind", "schedule-source",
        ids=True,
    )
    test_unwritable_output_exits_2 = older_test("unwritable-output")
    test_unallocatable_size_exits_2 = older_test(
        "iterations-1e13", "complete-n", "complete-n-index", "ring-n-index", "quadratic-n", "quadratic-d",
        "iterations-bytes", "iterations-rows", "m-1e17", "grid-resolution", "grid-2-63",
        ids=[
            "iterations", "complete-n", "complete-n-index", "ring-n-index", "quadratic-n", "quadratic-d",
            "iterations-bytes", "iterations-rows", "m", "grid-resolution", "grid-2-63",
        ],
    )
    test_unallocatable_sampled_positions_exit_2 = older_test(
        "sampled-n-1e13", "sampled-n-1e20", ids=["n-1e13", "n-1e20"]
    )
    test_unreadable_config_exits_2 = older_test("not-a-file", "absent")
    test_non_utf8_config_exits_2 = older_test("not-utf8")
    test_inexact_optimizer_exits_3 = older_test(
        "fixed-point-L1", "optimizer-check", ids=["fixed-point", "optimizer-check"]
    )
    test_sigma_below_true_gap_exits_2 = older_test("tight-sigma")
    test_parameter_error_names_its_source = older_test(
        "sigma-explicit", "disconnected", "rho-negative", "m-below-derived",
        ids=["sigma-explicit", "sigma-auto-disconnected", "rho-negative", "m-below-derived"],
    )
    test_million_agent_ring_fails_on_the_agent_count = older_test("million-ring")
    test_ring_160000_gap_reads_1_and_exits_2 = older_test("ring-160000")
    test_inline_circulant_off_by_2e_9_exits_2 = older_test("off-by-2e-9")
    test_validate_fails_where_run_cannot_cancel_gradients = older_test("fixed-point")
    test_overflowing_run_exits_3 = older_test(
        ("overflow-x0", RUN), ("overflow-x0", NETSIM), ids=["vectorized", "netsim"]
    )
    test_singular_run_exits_3 = older_test("singular")

class TestCsvRendering:
    @pytest.mark.parametrize("mode", ["vectorized", "netsim"])
    @pytest.mark.parametrize("name", ["quadratic", "localization", "ring-120"])
    def test_csv_equals_per_row_reference(self, tmp_path, name, mode):
        # The CSV is rendered row by row from the same trace, and the
        # centralized rows from gradient descent on a broadcast point.
        path = write_config(tmp_path / "ring.ini", RING_120) if name == "ring-120" else CONFIGS / f"{name}.ini"
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

    test_grid_rejects_bad_ranges = older_test("grid-rho-min-zero", "grid-resolution-one")

    def test_grid_takes_a_rho_far_below_the_difference_forms_cancellation(self, capsys):
        # (sqrt(1 + rho) - sqrt(1 - rho)) / 2 reads 0.0 in doubles at rho = 1e-20; sigma0 does not.
        argv = ["grid", "--rho-min", "1e-20", "--rho-max", "0.5", "--sigma-min", "0.5", "--resolution", "2"]
        assert main([*argv, "--output", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1] == "9.9999999999999995e-21,0.5,68"

    test_grid_at_a_denormal_rho_is_a_config_error = older_test("grid-denormal-rho")

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
    test_quadratic_config_passes = older_test("quadratic")
    test_pair_with_loose_sigma_passes = older_test("loose-sigma")
    test_pair_with_tight_sigma_fails = older_test(("tight-sigma", VALIDATE))
    test_identity_schedule_fails_gap_check = older_test("identity")
    test_unbuildable_schedule_exits_2 = older_test(
        "schedule-kind-unseeded", ("constant-pair", VALIDATE), ids=["schedule-kind", "constant-pair"]
    )
    test_localization_contraction_reported_not_certified = older_test("localization")


# Defined last, once every older_test has claimed its rows: a new row runs here with no edit beyond CASES.
@pytest.mark.parametrize("case_id", [case_id for case_id in CASES if case_id not in OLDER_ROWS])
def test_exit_case(exit_case, case_id):
    exit_case(case_id)
