"""Gossip matrices, time-varying schedules, and spectral gaps.

A gossip matrix W holds one round of mixing weights: ``W[i, j]`` is the
weight agent i applies to the message received from agent j, and a zero
entry means no link from j to i exists in that round. Schedules supply the
per-round matrix for iteration k and round l, either as a constant matrix,
a cycling list, or a seeded random choice from a list. ``round_indices``
gives one iteration's m matrix indices in one call; ``matrix_at`` is the
one-round view of a constant or random schedule.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError

DOUBLY_STOCHASTIC_TOL = 1e-9
GAP_ROUNDOFF = 16 * np.finfo(float).eps  # per agent


class GossipMatrix:
    """One round of mixing weights over n agents.

    The matrix is stored dense and made read-only; negative weights are
    allowed (a schedule constrains only the row and column sums).
    """

    def __init__(self, weights):
        W = np.array(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ConfigError(f"gossip matrix must be square, got shape {W.shape}")
        if W.shape[0] < 1:
            raise ConfigError("gossip matrix must have at least one agent")
        W.setflags(write=False)
        self.weights = W

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def __repr__(self):
        return f"GossipMatrix(n={self.n})"


def complete_matrix(n: int) -> GossipMatrix:
    """Uniform averaging over the complete graph: every entry 1/n."""
    return GossipMatrix(np.broadcast_to(1.0 / max(n, 1), (n, n)))  # GossipMatrix rejects n < 1


def ring_matrix(n: int) -> GossipMatrix:
    """Symmetric ring with weight 1/3 on self and each of the two neighbors."""
    if n <= 2:
        return complete_matrix(n)
    row = np.zeros(n)
    row[[0, 1, -1]] = 1.0 / 3.0
    return GossipMatrix(_circulant(row))


def _circulant(row: np.ndarray) -> np.ndarray:
    # Read-only view of the circulant whose row i is ``row`` shifted right by i, i.e. ``row`` shifted left by n - i.
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([row, row]), row.size)[:0:-1]


def is_circulant(W: np.ndarray) -> bool:
    """Whether each row of square W is row 0 shifted right by its index: ``W[i, j] == W[0, (j - i) % n]``."""
    if not np.array_equal(W[1:, 0], W[0, :0:-1]):  # column 0 is row 0 reversed: most matrices fail here in O(n)
        return False
    # A block of about 64k entries at a time, so the comparison makes no n x n boolean temporary.
    circulant, step = _circulant(W[0]), max(1, 2**16 // W.shape[0])
    return all(np.array_equal(W[i : i + step], circulant[i : i + step]) for i in range(0, W.shape[0], step))


def spectral_gap(matrix) -> float:
    """Induced 2-norm of W - (1/n) * ones, the per-round disagreement contraction.

    Accepts a GossipMatrix or a raw square array. Zero means one round
    reaches exact consensus; values below 1 mean disagreement shrinks. A
    circulant W (every ring) is normal, so its gap is the largest modulus in
    the discrete Fourier transform of the deviation's row 0, in O(n log n).
    Any other symmetric W takes the symmetric eigensolver, any other the
    SVD. Each errs by a small multiple of n * eps, so a gap that close to 1
    is reported as exactly 1: a disconnected or periodic mixture never
    mixes, and no round count can be derived from its roundoff.
    """
    W = matrix.weights if isinstance(matrix, GossipMatrix) else np.asarray(matrix, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConfigError(f"spectral gap needs a square matrix, got shape {W.shape}")
    n = W.shape[0]
    if is_circulant(W):
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
        ``k * m + (l - 1)``, for the run's m passed to ``round_indices``.
      - "random": uniform seeded choice from the list, keyed on (seed, k, l).

    Every row and column sum of every matrix must be within
    ``DOUBLY_STOCHASTIC_TOL`` of 1 at construction;
    negative weights are allowed.
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


def _indices(schedule: GossipSchedule, iteration: int, rounds: range) -> np.ndarray:
    # Matrix indices of a constant or random schedule at rounds ``rounds`` (each l >= 1) of iteration k >= 0.
    if schedule.kind == "constant":
        return np.zeros(len(rounds), dtype=np.intp)
    # Counter-based draw: a keyed hash of "seed:k:l", so the choice at any
    # (k, l) is independent of query order. The "seed:k:" prefix is hashed
    # once per call and each round's hash continues a copy of it.
    prefix = hashlib.blake2b(f"{schedule.seed}:{iteration}:".encode(), digest_size=8)
    indices = np.empty(len(rounds), dtype=np.intp)
    for p, l in enumerate(rounds):
        draw = prefix.copy()
        draw.update(str(l).encode())
        indices[p] = int.from_bytes(draw.digest(), "big") % len(schedule.matrices)
    return indices


def round_indices(schedule: GossipSchedule, iteration: int, rounds: int) -> np.ndarray:
    """Indices into ``schedule.matrices`` of rounds 1..``rounds`` of iteration ``iteration`` (k >= 0).

    Entry l - 1 names the matrix of round l. ``rounds`` is the run's m: a
    cyclic schedule takes global round ``iteration * rounds + l - 1``.
    """
    if iteration < 0:
        raise ValueError(f"iteration index must be >= 0, got {iteration}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if schedule.kind == "cyclic":
        return np.arange(iteration * rounds, (iteration + 1) * rounds, dtype=np.intp) % len(schedule.matrices)
    return _indices(schedule, iteration, range(1, rounds + 1))


def matrix_at(schedule: GossipSchedule, iteration: int, round_index: int) -> GossipMatrix:
    """Mixing matrix of a constant or random schedule at iteration k >= 0, round l >= 1."""
    if iteration < 0:
        raise ValueError(f"iteration index must be >= 0, got {iteration}")
    if round_index < 1:
        raise ValueError(f"round index must be >= 1, got {round_index}")
    if schedule.kind == "cyclic":
        raise ValueError("a cyclic schedule's round depends on the run's m; read it from round_indices")
    return schedule.matrices[_indices(schedule, iteration, range(round_index, round_index + 1))[0]]


def circulant_spectrum_power(W: np.ndarray, rounds: int) -> np.ndarray | None:
    """lambda_k^rounds, k = 0..n-1, of a symmetric circulant W; None for any other W.

    lambda_k, the DFT of row 0, is real for a symmetric circulant. Each
    power is exp(rounds * log1p(-d)) with d the smaller of 1 - lambda_k and
    1 + lambda_k, each summed directly from sin^2 and cos^2 terms of the
    row: an eigenvalue rounded by one ulp near 1 would err rounds-fold in
    its power, while d keeps its relative precision.
    """
    row = W[0]
    if not (is_circulant(W) and np.array_equal(row, np.roll(row[::-1], 1))):
        return None
    n = row.size
    lags = np.flatnonzero(row)
    weights = row[lags]
    # Half-angles pi * l * k / n, with l * k reduced mod n so every angle stays below pi.
    half = np.pi / n * (np.outer(lags, np.arange(n)) % n)
    slack = 1.0 - weights.sum()
    one_minus = 2.0 * weights @ np.sin(half) ** 2 + slack  # 1 - lambda_k
    one_plus = 2.0 * weights @ np.cos(half) ** 2 + slack  # 1 + lambda_k
    negative = one_plus < one_minus
    distance = np.minimum(np.where(negative, one_plus, one_minus), 1.0)
    with np.errstate(divide="ignore"):  # lambda_k = 0 gives log(0) = -inf and a zero power
        power = np.exp(rounds * np.log1p(-distance))
    if rounds % 2:
        power[negative] *= -1.0
    return power


def mixing_product(matrix: GossipMatrix, rounds: int) -> np.ndarray:
    """W^rounds of one mixing matrix, the m-round product of a one-matrix schedule.

    A symmetric circulant W (every ring and complete matrix) is diagonal in
    the Fourier basis with real eigenvalues lambda_k, so its power is the
    circulant whose row 0 is the inverse DFT of the
    ``circulant_spectrum_power`` spectrum, in O(n^2) time for its n x n
    copy. The vectorized run never forms this matrix: ``power_mixer``
    applies the spectrum to each iteration's states directly.

    Every other W, and rounds = 1, keeps left-to-right binary powering,
    O(n^3 log rounds) in two alternating n x n buffers; at rounds = 1 that
    is W's own read-only values. Every power of an exactly symmetric W is
    symmetric in exact arithmetic, so its squares are taken as
    ``power @ power.T``, which numpy hands to BLAS ``syrk`` at about half
    the flops of a general square; the multiplies by W, and every square of
    a non-symmetric W, stay ``gemm``.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    W = matrix.weights
    spectrum = circulant_spectrum_power(W, rounds) if rounds > 1 else None
    if spectrum is not None:
        first = np.fft.ifft(spectrum).real
        first = 0.5 * (first + np.roll(first[::-1], 1))  # first[j] and first[-j] are one sum, so exactly equal
        return np.ascontiguousarray(_circulant(first))
    symmetric = np.array_equal(W, W.T)
    buffers = (np.empty_like(W), np.empty_like(W))
    power = W
    for bit in bin(rounds)[3:]:
        # Write into the buffer that ``power`` does not occupy.
        power = np.matmul(power, power.T if symmetric else power, out=buffers[power is buffers[0]])
        if bit == "1":
            power = np.matmul(power, W, out=buffers[power is buffers[0]])
    return power
