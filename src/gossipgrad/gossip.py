"""Gossip matrices, time-varying schedules, and spectral gaps.

A gossip matrix W holds one round of mixing weights: ``W[i, j]`` is the
weight agent i applies to the message received from agent j, and a zero
entry means no link from j to i exists in that round. Schedules supply the
per-round matrix for iteration k and round l, either as a constant matrix,
a cycling list, or a seeded random choice from a list. ``round_table``
gives a whole run's matrix indices in one call, and ``matrix_at`` is the
one-round view of a constant or random schedule.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError, allocating

DOUBLY_STOCHASTIC_TOL = 1e-9
GAP_ROUNDOFF = 16 * np.finfo(float).eps  # per agent


class GossipMatrix:
    """One round of mixing weights over n agents.

    ``weights`` is read-only: a dense copy of the caller's array, with
    ``circulant`` False, or, from ``circulant_matrix`` (every ring and
    complete matrix), a circulant view of 2n doubles with ``circulant`` True.
    Circulance is declared, never inferred: a dense inline or API matrix
    whose weights form a circulant is summed, gapped and mixed as dense.
    Negative weights are allowed (a schedule constrains only the row and
    column sums). ``np.linalg.matrix_power`` and ``round_mixer`` densify a
    view once per run; netsim reads it as it is.
    """

    def __init__(self, weights):
        W = np.array(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ConfigError(f"gossip matrix must be square, got shape {W.shape}")
        if W.shape[0] < 1:
            raise ConfigError("gossip matrix must have at least one agent")
        W.setflags(write=False)
        self.weights, self.circulant = W, False

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def __repr__(self):
        return f"GossipMatrix(n={self.n})"


def circulant_matrix(row) -> GossipMatrix:
    """The circulant ``W[i, j] == row[(j - i) % n]``, declared so: a read-only view of 2n doubles.

    Its sum check, gap and spectrum read row 0 alone, in O(n) time and memory.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise ConfigError(f"a circulant needs a row of at least one agent, got shape {row.shape}")
    matrix = GossipMatrix.__new__(GossipMatrix)  # past __init__'s dense copy
    matrix.circulant = True
    # Row i is ``row`` shifted right by i, i.e. left by n - i, in a window over a private concatenation.
    matrix.weights = np.lib.stride_tricks.sliding_window_view(np.concatenate([row, row]), row.size)[:0:-1]
    return matrix


def complete_matrix(n: int) -> GossipMatrix:
    """Uniform averaging over the complete graph: every entry 1/n, a circulant."""
    return circulant_matrix(np.full(n, 1.0 / max(n, 1)))  # circulant_matrix rejects n < 1


def ring_matrix(n: int) -> GossipMatrix:
    """Symmetric ring: weight fl(1/3) on each of the two neighbors and 1 - 2 fl(1/3) on self.

    The self weight is exact in binary, so every row and column sums to
    exactly 1: three weights of fl(1/3) would sum to 1 - 2^-54, and a
    message-passing run would shrink the agents' mean by that factor every
    round. For n <= 2 it is the complete matrix. Either is a ``circulant_matrix``.
    """
    if n <= 2:
        return complete_matrix(n)
    row = np.zeros(n)
    row[[1, -1]] = 1.0 / 3.0
    row[0] = 1.0 - 2.0 * row[1]
    return circulant_matrix(row)


def spectral_gap(matrix) -> float:
    """Induced 2-norm of W - (1/n) * ones, the per-round disagreement contraction.

    ``matrix`` is a GossipMatrix, or a square array wrapped as one. Zero
    means one round reaches exact consensus; values below 1 mean
    disagreement shrinks. A declared circulant (``circulant_matrix``: every
    ring and complete matrix) is normal, so its gap is the largest modulus in
    the discrete Fourier transform of the deviation's row 0, in O(n log n).
    Any other W, a dense circulant too, takes the symmetric eigensolver if
    symmetric, else the SVD. Each errs by a small multiple
    of n * eps, so a gap that close to 1 is reported as exactly 1: a
    disconnected or periodic mixture never mixes, and no round count can be
    derived from its roundoff.
    """
    matrix = matrix if isinstance(matrix, GossipMatrix) else GossipMatrix(matrix)
    W, n = matrix.weights, matrix.n
    if matrix.circulant:
        gap = float(np.abs(np.fft.fft(W[0] - 1.0 / n)).max())
    else:
        deviation = W - 1.0 / n
        if np.array_equal(deviation, deviation.T):
            gap = float(np.abs(np.linalg.eigvalsh(deviation)).max())
        else:
            gap = float(np.linalg.norm(deviation, 2))
    return 1.0 if abs(1.0 - gap) <= GAP_ROUNDOFF * n else gap


class GossipSchedule:
    """Source of the mixing matrix used at (iteration k, round l).

    Kinds:
      - "constant": always the single matrix in the list.
      - "cyclic": matrices cycle with the global round counter
        ``k * m + (l - 1)``, for the run's m passed to ``round_table``.
      - "random": uniform seeded choice from the list, keyed on (seed, k, l).

    Every row and column sum of every matrix must be within
    ``DOUBLY_STOCHASTIC_TOL`` of 1 at construction, read from row 0 alone
    for a circulant; negative weights are allowed.
    """

    KINDS = ("constant", "cyclic", "random")

    def __init__(self, kind, matrices, seed=0):
        if kind not in self.KINDS:
            raise ConfigError(f"unknown schedule kind {kind!r}, expected one of {self.KINDS}")
        matrices = tuple(matrices)
        if not matrices:
            raise ConfigError("schedule needs at least one gossip matrix")
        n = matrices[0].n
        for idx, W in enumerate(matrices):
            if W.n != n:
                raise ConfigError(f"schedule matrices disagree on size: {n} vs {W.n} at index {idx}")
            if W.circulant:  # every row and column of a circulant is a rearrangement of row 0
                row_dev = col_dev = float(abs(W.weights[0].sum() - 1.0))
            else:
                row_dev = float(np.abs(W.weights.sum(axis=1) - 1.0).max())
                col_dev = float(np.abs(W.weights.sum(axis=0) - 1.0).max())
            if not (row_dev <= DOUBLY_STOCHASTIC_TOL and col_dev <= DOUBLY_STOCHASTIC_TOL):  # NaN fails too
                raise ConfigError(
                    f"schedule matrix {idx} is not doubly stochastic "
                    f"(max row dev {row_dev:.3e}, max col dev {col_dev:.3e})"
                )
        if kind == "constant" and len(matrices) != 1:
            raise ConfigError("constant schedule takes exactly one matrix")
        self.kind = kind
        self.matrices = matrices
        self.seed = int(seed)

    @classmethod
    def constant(cls, matrix: GossipMatrix) -> "GossipSchedule":
        return cls("constant", (matrix,))

    @classmethod
    def cyclic(cls, matrices) -> "GossipSchedule":
        return cls("cyclic", matrices)

    @classmethod
    def random_choice(cls, matrices, seed: int) -> "GossipSchedule":
        return cls("random", matrices, seed=seed)

    @property
    def n(self) -> int:
        return self.matrices[0].n


def _table(schedule: GossipSchedule, iterations: range, rounds: int) -> np.ndarray:
    # Matrix indices of rounds 1..rounds of each iteration in ``iterations``, one row per iteration.
    # The table is allocated before any hashing, so a size numpy cannot allocate fails at once.
    with allocating("the round table"):
        table = np.zeros((len(iterations), rounds), dtype=np.int64)
    count = len(schedule.matrices)
    if schedule.kind == "cyclic":
        start, stop = iterations.start * rounds, iterations.stop * rounds
        np.remainder(np.arange(start, stop, dtype=np.int64).reshape(table.shape), count, out=table)
    elif schedule.kind == "random":
        # Round l of iteration k draws the 8-byte blake2b digest of "seed:k:l": counter-based, so the
        # draw at any (k, l) is independent of query order. The "seed:k:" prefix is hashed once per
        # iteration and each round's hash continues a copy of it. Each row's digests go straight into
        # the table's bytes; one numpy step reads them as big-endian integers and takes them mod K.
        raw, width = memoryview(table.view(np.uint8).ravel()), 8 * rounds
        labels = [str(l).encode() for l in range(1, rounds + 1)]
        seed = hashlib.blake2b(f"{schedule.seed}:".encode(), digest_size=8)
        for p, k in enumerate(iterations):
            prefix = seed.copy()
            prefix.update(b"%d:" % k)
            copy = prefix.copy
            digests = []
            append = digests.append
            for label in labels:
                draw = copy()
                draw.update(label)
                append(draw.digest())
            raw[p * width : (p + 1) * width] = b"".join(digests)
        np.remainder(table.view(">u8"), count, out=table, casting="unsafe")
    return table


def round_table(schedule: GossipSchedule, iterations: int, rounds: int) -> np.ndarray:
    """The ``(iterations, rounds)`` indices into ``schedule.matrices`` of a whole run.

    Entry (k, l - 1) names the matrix of round l of iteration k. ``rounds``
    is the run's m: a cyclic schedule takes global round ``k * rounds + l - 1``.
    Drawn once per run, so the mixers and the locality audit index rows of
    one table instead of drawing each iteration anew.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    return _table(schedule, range(iterations), rounds)


def matrix_at(schedule: GossipSchedule, iteration: int, round_index: int) -> GossipMatrix:
    """Mixing matrix of a constant or random schedule at iteration k >= 0, round l >= 1.

    It reads the last entry of an ``l``-round table row, so it costs l hashes.
    """
    if iteration < 0:
        raise ValueError(f"iteration index must be >= 0, got {iteration}")
    if round_index < 1:
        raise ValueError(f"round index must be >= 1, got {round_index}")
    if schedule.kind == "cyclic":
        raise ValueError("a cyclic schedule's round depends on the run's m; read it from round_table")
    return schedule.matrices[_table(schedule, range(iteration, iteration + 1), round_index)[0, -1]]


def circulant_spectrum_power(matrix: GossipMatrix, rounds: int) -> np.ndarray | None:
    """lambda_k^rounds, k = 0..n-1, of a symmetric declared circulant W; None for any other W.

    lambda_k, the DFT of row 0, is real for a symmetric circulant. Each
    power is exp(rounds * log1p(-d)) with d the smaller of 1 - lambda_k and
    1 + lambda_k, each summed directly from sin^2 and cos^2 terms of the
    row: an eigenvalue rounded by one ulp near 1 would err rounds-fold in
    its power, while d keeps its relative precision. ``power_mixer`` is its
    one user in a run.
    """
    row = matrix.weights[0]
    if not (matrix.circulant and np.array_equal(row, np.roll(row[::-1], 1))):
        return None
    n = row.size
    lags = np.flatnonzero(row)
    weights = row[lags]
    one_minus = np.zeros(n)
    one_plus = np.zeros(n)
    # About 64k half-angles at a time, so a dense circulant makes no (lags x n) table; a ring's 3 lags are one block.
    step = max(1, 2**16 // n)
    for start in range(0, lags.size, step):
        block = slice(start, start + step)
        # Half-angles pi * l * k / n, with l * k reduced mod n so every angle stays below pi.
        half = np.pi / n * (np.outer(lags[block], np.arange(n)) % n)
        one_minus += 2.0 * weights[block] @ np.sin(half) ** 2
        one_plus += 2.0 * weights[block] @ np.cos(half) ** 2
    slack = 1.0 - weights.sum()
    one_minus += slack  # 1 - lambda_k
    one_plus += slack  # 1 + lambda_k
    negative = one_plus < one_minus
    distance = np.minimum(np.where(negative, one_plus, one_minus), 1.0)
    with np.errstate(divide="ignore"):  # lambda_k = 0 gives log(0) = -inf and a zero power
        power = np.exp(rounds * np.log1p(-distance))
    if rounds % 2:
        power[negative] *= -1.0
    return power

