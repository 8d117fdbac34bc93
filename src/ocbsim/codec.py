"""Binary linear block codes: GF(2) encoding and pluggable decoding.

A code is defined by its generator matrix G of shape (M, K): codeword
v = G c mod 2 for a source word c of K bits. Log-likelihood ratios follow
the package-wide sign convention: positive LLR favors bit 0.

Built-in codes: repetition-n, systematic Hamming(7,4), identity (uncoded),
and a (3,6)-regular LDPC built by a seeded random socket-permutation
construction with a sum-product decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
_BP_DEFAULT_ITERATIONS = 50
_BP_LLR_CLIP = 30.0


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


@dataclass(eq=False)
class LinearCode:
    """A binary linear block code with an injective M x K generator."""

    generator: np.ndarray
    name: str = ""
    kind: str = "general"  # repetition | identity | ldpc | general (ML)
    parity: np.ndarray | None = None  # check matrix, required for kind="ldpc"
    source_positions: np.ndarray | None = None  # codeword indices of source bits
    _codebook: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        g = np.asarray(self.generator)
        if g.ndim != 2:
            raise ValueError("generator must be a 2D matrix")
        if not np.isin(g, (0, 1)).all():
            raise ValueError("generator entries must be 0/1")
        g = g.astype(np.uint8)
        m, k = g.shape
        if not (0 < k <= m):
            raise ValueError(f"need 0 < K <= M, got K={k}, M={m}")
        if gf2_rank(g) != k:
            raise ValueError("generator must have full column rank over GF(2)")
        self.generator = g
        if self.parity is not None:
            self.parity = np.asarray(self.parity).astype(np.uint8)
            if np.any((self.parity @ g) % 2):
                raise ValueError("parity matrix does not annihilate the generator")
        if self.source_positions is not None:
            self.source_positions = np.asarray(self.source_positions, dtype=int)
        if self.kind == "ldpc" and (self.parity is None or self.source_positions is None):
            raise ValueError("ldpc codes need a parity matrix and source positions")

    @property
    def K(self) -> int:
        return self.generator.shape[1]

    @property
    def M(self) -> int:
        return self.generator.shape[0]

    @property
    def rate(self) -> float:
        return self.K / self.M

    def codebook(self) -> np.ndarray:
        """All 2^K codewords, source words enumerated in counting order."""
        if self._codebook is None:
            if self.K > _ML_MAX_K:
                raise ValueError(f"refusing to enumerate 2^{self.K} codewords")
            srcs = ((np.arange(2**self.K)[:, None] >> np.arange(self.K - 1, -1, -1)) & 1).astype(np.uint8)
            self._codebook = (srcs @ self.generator.T) % 2
        return self._codebook


def encode(code: LinearCode, source: np.ndarray) -> np.ndarray:
    """Codeword v_m = xor_k g_mk c_k."""
    c = np.asarray(source)
    if c.shape != (code.K,):
        raise ValueError(f"source must have length {code.K}, got shape {c.shape}")
    return ((code.generator @ c.astype(np.uint8)) % 2).astype(np.uint8)


def decode(code: LinearCode, llr: np.ndarray, bp_iterations: int = _BP_DEFAULT_ITERATIONS) -> np.ndarray:
    """Source estimate from channel LLRs (positive favors bit 0).

    Dispatch: repetition sums its LLRs, identity thresholds per bit, LDPC
    runs sum-product belief propagation, anything else is maximum-likelihood
    over the enumerated codebook by LLR correlation. Ties resolve toward 0.
    """
    llr = np.asarray(llr, dtype=float)
    if llr.shape != (code.M,):
        raise ValueError(f"llr must have length {code.M}, got shape {llr.shape}")
    if code.kind == "repetition":
        return np.array([0 if llr.sum() >= 0.0 else 1], dtype=np.uint8)
    if code.kind == "identity":
        return (llr < 0.0).astype(np.uint8)
    if code.kind == "ldpc":
        return _bp_decode(code, llr, bp_iterations)
    return _ml_decode(code, llr)


def _ml_decode(code: LinearCode, llr: np.ndarray) -> np.ndarray:
    book = code.codebook()
    metric = (1.0 - 2.0 * book) @ llr
    best = int(np.argmax(metric))  # first maximum: lowest source word wins ties
    src = (best >> np.arange(code.K - 1, -1, -1)) & 1
    return src.astype(np.uint8)


def _bp_decode(code: LinearCode, llr: np.ndarray, iterations: int) -> np.ndarray:
    """Flooding sum-product decoder on the code's parity-check matrix."""
    h = code.parity
    check_idx, var_idx = np.nonzero(h)
    order = np.lexsort((var_idx, check_idx))
    check_idx, var_idx = check_idx[order], var_idx[order]
    n_edges = check_idx.size
    row_starts = np.searchsorted(check_idx, np.arange(h.shape[0]))

    def phi(x):
        # phi(x) = -ln tanh(x/2), self-inverse on (0, inf)
        x = np.clip(x, 1e-12, _BP_LLR_CLIP)
        return -np.log(np.tanh(0.5 * x))

    msg_c2v = np.zeros(n_edges)
    posterior = llr.copy()
    for _ in range(iterations):
        msg_v2c = np.clip(posterior[var_idx] - msg_c2v, -_BP_LLR_CLIP, _BP_LLR_CLIP)
        signs = np.where(msg_v2c < 0.0, -1.0, 1.0)
        sign_prod = np.multiply.reduceat(signs, row_starts)[check_idx] * signs
        mags = phi(np.abs(msg_v2c))
        mag_sum = np.add.reduceat(mags, row_starts)[check_idx] - mags
        msg_c2v = sign_prod * phi(mag_sum)
        posterior = llr + np.bincount(var_idx, weights=msg_c2v, minlength=code.M)
        hard = (posterior < 0.0).astype(np.uint8)
        if not np.any((h @ hard) % 2):
            break
    return hard[code.source_positions]


def repetition_code(n: int) -> LinearCode:
    if n < 1:
        raise ValueError("repetition length must be >= 1")
    return LinearCode(np.ones((n, 1), dtype=np.uint8), name=f"repetition{n}", kind="repetition")


def hamming74() -> LinearCode:
    """Systematic Hamming(7,4): codeword [d1 d2 d3 d4 p1 p2 p3]."""
    parity_rows = np.array([
        [1, 1, 0, 1],  # p1 = d1 + d2 + d4
        [1, 0, 1, 1],  # p2 = d1 + d3 + d4
        [0, 1, 1, 1],  # p3 = d2 + d3 + d4
    ], dtype=np.uint8)
    g = np.vstack([np.eye(4, dtype=np.uint8), parity_rows])
    return LinearCode(g, name="hamming74", kind="general")


def identity_code(n: int) -> LinearCode:
    if n < 1:
        raise ValueError("identity length must be >= 1")
    return LinearCode(np.eye(n, dtype=np.uint8), name=f"identity{n}", kind="identity")


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
    return LinearCode(g, name=f"ldpc{n}", kind="ldpc", parity=h, source_positions=free)


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
    return LinearCode(np.array(rows, dtype=np.uint8), name=path.stem, kind="general")


def builtin_code(name: str) -> LinearCode:
    """Resolve a code by name: hamming74, repetitionN, identityN, ldpcN."""
    name = name.strip().lower()
    if name == "hamming74":
        return hamming74()
    for prefix, factory in (("repetition", repetition_code), ("identity", identity_code), ("ldpc", ldpc_code)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return factory(int(name[len(prefix):]))
    raise ValueError(f"unknown code name {name!r}")
