"""Binary linear block codes: GF(2) encoding and pluggable decoding.

A code is defined by its generator matrix G of shape (M, K): codeword
v = G c mod 2 for a source word c of K bits. Log-likelihood ratios follow
the package-wide sign convention: positive LLR favors bit 0.

`encode` and `decode` take one frame, shape (K,) or (M,), or a block of T
frames, shape (T, K) or (T, M), and return the same layout; row t of a
block gives the same bits as frame t on its own.

The code's structure picks its decoder: a parity matrix means sum-product
belief propagation, a generator equal to the identity means per-bit hard
decisions, and every other code decodes by maximum likelihood over its
codebook. Built-in codes: repetition-n, systematic Hamming(7,4), identity
(uncoded), and a (3,6)-regular LDPC built by a seeded random
socket-permutation construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "LinearCode",
    "encode",
    "decode",
    "repetition_code",
    "hamming74",
    "identity_code",
    "ldpc_code",
    "from_generator_file",
    "builtin_code",
    "gf2_rank",
]

_ML_MAX_K = 16
_ML_METRIC_ENTRIES = 1 << 16  # frames x codewords per ML correlation chunk
_BP_DEFAULT_ITERATIONS = 50
LLR_CLIP = 30.0  # decoders saturate message magnitudes here


def gf2_rank(mat: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2)."""
    return len(_gf2_rref(mat)[1])


def _gf2_rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    a = (np.asarray(mat) % 2).astype(np.uint8).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        a[[r, p]] = a[[p, r]]
        elim = np.nonzero(a[:, c])[0]
        elim = elim[elim != r]
        a[elim] ^= a[r]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _binary_matrix(mat, what: str) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"{what} must be a 2D matrix")
    if not ((mat == 0) | (mat == 1)).all():
        raise ValueError(f"{what} entries must be 0/1")
    return mat.astype(np.uint8)


def _tanner_graph(parity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(variable of each edge, first edge of each check, edges of each check).

    Edges are in row-major order, so each check's edges are contiguous:
    reduceat over the first edges reduces check by check, and repeat by the
    degrees spreads a per-check value back over its edges. Empty checks,
    which constrain nothing, are left out.
    """
    rows = parity[parity.any(axis=1)]
    _, var_idx = np.nonzero(rows)
    degrees = np.count_nonzero(rows, axis=1)
    return var_idx, np.cumsum(degrees) - degrees, degrees


@dataclass(eq=False)
class LinearCode:
    """A binary linear block code with an injective M x K generator.

    A parity matrix selects belief propagation, which reads the source bits
    at source_positions, so a parity matrix needs them.
    """

    generator: np.ndarray
    parity: np.ndarray | None = None  # check matrix; selects BP decoding
    source_positions: np.ndarray | None = None  # codeword indices of source bits

    def __post_init__(self):
        g = _binary_matrix(self.generator, "generator")
        m, k = g.shape
        if not (0 < k <= m):
            raise ValueError(f"need 0 < K <= M, got K={k}, M={m}")
        if self.source_positions is None:
            if gf2_rank(g) != k:
                raise ValueError("generator must have full column rank over GF(2)")
        else:
            # decoders read the source bits at these positions; G's rows
            # there being I_K also proves full column rank
            pos = np.asarray(self.source_positions, dtype=int)
            if (pos.shape != (k,) or ((pos < 0) | (pos >= m)).any()
                    or not np.array_equal(g[pos], np.eye(k, dtype=np.uint8))):
                raise ValueError(f"source positions must be {k} generator rows forming I_{k}")
            self.source_positions = pos
        self.generator = g
        self._identity = np.array_equal(g, np.eye(k, dtype=np.uint8))
        self._generator32 = g.astype(np.float32)  # BLAS operand of encode
        self._codebook = None
        self._tanner = None
        if self.parity is not None:
            if self.source_positions is None:
                raise ValueError("a parity matrix needs source positions, where BP reads the source bits")
            self.parity = _binary_matrix(self.parity, "parity matrix")
            if self.parity.shape[1] != m:
                raise ValueError(f"parity matrix must have {m} columns, got {self.parity.shape[1]}")
            self._tanner = _tanner_graph(self.parity)
            var_idx, row_starts, _ = self._tanner
            # each check's XOR of the generator rows it touches, bit-packed
            if np.bitwise_xor.reduceat(np.packbits(g, axis=1)[var_idx], row_starts).any():
                raise ValueError("parity matrix does not annihilate the generator")

    @property
    def K(self) -> int:
        return self.generator.shape[1]

    @property
    def M(self) -> int:
        return self.generator.shape[0]

    @property
    def rate(self) -> float:
        return self.K / self.M

    @property
    def kind(self) -> str:
        """The decoder the structure selects: "ldpc" (BP), "identity" or "general" (ML)."""
        if self.parity is not None:
            return "ldpc"
        return "identity" if self._identity else "general"

    def codebook(self) -> np.ndarray:
        """All 2^K codewords, source words enumerated in counting order."""
        if self._codebook is None:
            if self.K > _ML_MAX_K:
                raise ValueError(f"refusing to enumerate 2^{self.K} codewords")
            srcs = ((np.arange(2**self.K)[:, None] >> np.arange(self.K - 1, -1, -1)) & 1).astype(np.uint8)
            self._codebook = encode(self, srcs)
        return self._codebook


def _frames(x, length: int, what: str, dtype) -> np.ndarray:
    """x as a (T, length) block; a single frame becomes T = 1."""
    x = np.asarray(x).astype(dtype, copy=False)
    if x.ndim not in (1, 2) or x.shape[-1] != length:
        raise ValueError(f"{what} must have shape ({length},) or (T, {length}), got {x.shape}")
    return x.reshape(-1, length)


def encode(code: LinearCode, source: np.ndarray) -> np.ndarray:
    """Codeword v_m = xor_k g_mk c_k of a (K,) source word, or of each row of (T, K).

    The sum runs as a float32 BLAS product, exact because every partial sum
    is an integer of at most K, far below 2**24.
    """
    c = _frames(source, code.K, "source", np.float32)
    v = ((c @ code._generator32.T) % 2).astype(np.uint8)
    return v if np.ndim(source) == 2 else v[0]


def decode(code: LinearCode, llr: np.ndarray, bp_iterations: int = _BP_DEFAULT_ITERATIONS) -> np.ndarray:
    """Source estimate from channel LLRs (positive favors bit 0).

    llr is one frame, (M,), or a block, (T, M); the estimate is (K,) or
    (T, K), and each row depends only on its own frame. The code's kind picks
    the rule: identity thresholds per bit, a code with a parity matrix runs
    sum-product belief propagation, anything else is maximum likelihood over
    the enumerated codebook by LLR correlation. Ties resolve toward 0.
    """
    frames = _frames(llr, code.M, "llr", float)
    if code.kind == "identity":
        src = (frames < 0.0).astype(np.uint8)
    elif code.kind == "ldpc":
        src = _bp_decode(code, frames, bp_iterations)
    else:
        src = _ml_decode(code, frames)
    return src if np.ndim(llr) == 2 else src[0]


def _ml_decode(code: LinearCode, llr: np.ndarray) -> np.ndarray:
    signs = 1.0 - 2.0 * code.codebook()
    rows = max(1, _ML_METRIC_ENTRIES // signs.shape[0])
    best = np.empty(llr.shape[0], dtype=np.intp)
    for i in range(0, llr.shape[0], rows):
        # first maximum: lowest source word wins ties
        best[i:i + rows] = np.argmax(llr[i:i + rows] @ signs.T, axis=1)
    return ((best[:, None] >> np.arange(code.K - 1, -1, -1)) & 1).astype(np.uint8)


def _phi(x: np.ndarray) -> np.ndarray:
    """phi(x) = -ln tanh(x/2), self-inverse on (0, inf); overwrites x."""
    np.clip(x, 1e-12, LLR_CLIP, out=x)
    x *= 0.5
    np.tanh(x, out=x)
    np.log(x, out=x)
    return np.negative(x, out=x)


def _bp_decode(code: LinearCode, llr: np.ndarray, iterations: int) -> np.ndarray:
    """Flooding sum-product decoder on a (T, M) block of frames.

    Messages live in a (frames, edges) array. A frame leaves the live set
    after the first iteration whose hard decision has a zero syndrome, so
    each frame runs exactly the iterations it would run alone.
    """
    if iterations < 1:
        raise ValueError("BP needs at least one iteration")
    var_idx, row_starts, degrees = code._tanner
    hard = np.zeros(llr.shape, dtype=bool)
    live = np.arange(llr.shape[0])
    msg_c2v = np.zeros((live.size, var_idx.size))
    posterior = llr
    # per-frame bincount: live frame f's variables are slots f*M .. f*M+M-1
    slots = (np.arange(live.size) * code.M)[:, None] + var_idx
    for it in range(iterations):
        msg_v2c = np.take(posterior, var_idx, axis=1)
        msg_v2c -= msg_c2v
        np.clip(msg_v2c, -LLR_CLIP, LLR_CLIP, out=msg_v2c)
        # an outgoing message is negative when an odd number of the check's
        # other incoming messages are
        negative = msg_v2c < 0.0
        flip = np.repeat(np.bitwise_xor.reduceat(negative, row_starts, axis=1), degrees, axis=1)
        flip ^= negative
        mags = _phi(np.abs(msg_v2c))
        mag_sum = np.repeat(np.add.reduceat(mags, row_starts, axis=1), degrees, axis=1)
        mag_sum -= mags
        msg_c2v = _phi(mag_sum)
        msg_c2v *= 1.0 - 2.0 * flip
        posterior = llr[live] + np.bincount(
            slots.ravel(), weights=msg_c2v.ravel(), minlength=live.size * code.M
        ).reshape(live.size, code.M)
        frame_hard = posterior < 0.0
        syndrome = np.bitwise_xor.reduceat(np.take(frame_hard, var_idx, axis=1), row_starts, axis=1)
        done = ~syndrome.any(axis=1) if it < iterations - 1 else np.ones(live.size, dtype=bool)
        hard[live[done]] = frame_hard[done]
        if done.all():
            break
        if done.any():
            keep = ~done
            live, msg_c2v, posterior = live[keep], msg_c2v[keep], posterior[keep]
            slots = slots[: live.size]
    return hard[:, code.source_positions].astype(np.uint8)


def repetition_code(n: int) -> LinearCode:
    if n < 1:
        raise ValueError("repetition length must be >= 1")
    return LinearCode(np.ones((n, 1), dtype=np.uint8))


def hamming74() -> LinearCode:
    """Systematic Hamming(7,4): codeword [d1 d2 d3 d4 p1 p2 p3]."""
    parity_rows = np.array([
        [1, 1, 0, 1],  # p1 = d1 + d2 + d4
        [1, 0, 1, 1],  # p2 = d1 + d3 + d4
        [0, 1, 1, 1],  # p3 = d2 + d3 + d4
    ], dtype=np.uint8)
    g = np.vstack([np.eye(4, dtype=np.uint8), parity_rows])
    return LinearCode(g)


def identity_code(n: int) -> LinearCode:
    if n < 1:
        raise ValueError("identity length must be >= 1")
    return LinearCode(np.eye(n, dtype=np.uint8))


def ldpc_code(n: int = 1024, seed: int = 0, var_degree: int = 3, check_degree: int = 6) -> LinearCode:
    """(3,6)-regular LDPC of even block length n via random socket permutation.

    Edge sockets (var_degree per column, check_degree per row) are matched
    by a seeded permutation; repeated edges cancel mod 2, so a few rows end
    up slightly irregular, which is fine for waterfall demonstrations. The
    generator is derived from the reduced check matrix; source bits sit at
    its non-pivot positions. K = n - rank(H), slightly above n/2.
    """
    if n % 2 or n < 12:
        raise ValueError("LDPC block length must be even and >= 12")
    n_checks = n * var_degree // check_degree
    rng = np.random.default_rng(seed)
    var_sockets = np.repeat(np.arange(n), var_degree)
    check_sockets = np.repeat(np.arange(n_checks), check_degree)
    perm = rng.permutation(n * var_degree)
    h = np.zeros((n_checks, n), dtype=np.uint8)
    np.add.at(h, (check_sockets[perm], var_sockets), 1)
    h %= 2
    h = h[h.any(axis=1)]  # double edges cancel; drop any row left empty

    rref, pivots = _gf2_rref(h)
    free = np.setdiff1d(np.arange(n), pivots)
    k = free.size
    g = np.zeros((n, k), dtype=np.uint8)
    g[free, np.arange(k)] = 1
    # pivot bit p_i = sum of rref[i, free] * source bits
    g[np.asarray(pivots)] = rref[:, free]
    return LinearCode(g, parity=h, source_positions=free)


def from_generator_file(path) -> LinearCode:
    """Load a generator matrix from text: one codeword row per line, 0/1 entries."""
    path = Path(path)
    rows = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged matrix rows in {path}")
    return LinearCode(np.array(rows, dtype=np.uint8))


def builtin_code(name: str) -> LinearCode:
    """Resolve a code by name: hamming74, repetitionN, identityN, ldpcN."""
    name = name.strip().lower()
    if name == "hamming74":
        return hamming74()
    for prefix, factory in (("repetition", repetition_code), ("identity", identity_code), ("ldpc", ldpc_code)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return factory(int(name[len(prefix):]))
    raise ValueError(f"unknown code name {name!r}")
