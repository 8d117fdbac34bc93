"""Binary linear block codes: GF(2) encoding, and the decoder each code's structure picks.

A code is defined by its generator matrix G of shape (M, K): codeword
v = G c mod 2 for a source word c of K bits. Log-likelihood ratios follow
the package-wide sign convention: positive LLR favors bit 0.

`encode` and `decode` take one frame, shape (K,) or (M,), or a block of T
frames, shape (T, K) or (T, M), and return the same layout; row t of a
block gives the same bits as frame t on its own. Encoding packs source
words and generator rows 64 bits to a uint64 word and takes each codeword
bit as the parity of a popcount.

The code's structure picks its decoder: a parity matrix means sum-product
belief propagation, a generator equal to the identity means per-bit hard
decisions, and every other code decodes by maximum likelihood over its
codebook. BP runs on a slot-major layout of the Tanner graph, built once
per code: one message per (frame, slot, check). Built-in codes:
repetition-n, systematic Hamming(7,4), identity (uncoded), and a
(3,6)-regular LDPC built by a seeded random socket-permutation
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_ML_MAX_K = 16
_ML_METRIC_ENTRIES = 1 << 16  # frames x codewords per ML correlation chunk
_BP_DEFAULT_ITERATIONS = 50
LLR_CLIP = 30.0  # decoders saturate message magnitudes here
# largest built-in generator, M x K entries: identity8192, built from two
# 64 MB copies of its generator (the caller's and the code's own); LDPC
# elimination XORs whole rows held as Python ints (30 bits to a digit), so
# it grows as n^3 / 30
MAX_GENERATOR_ENTRIES = 1 << 26


def _gf2_basis(bits: np.ndarray) -> tuple[dict[int, int], int]:
    """Echelon basis of a 0/1 matrix's rows over GF(2), and its width.

    Each row is packed once into a Python int, bit c holding column c, and
    inserted keyed by its lowest set bit: while a basis row owns that bit,
    XORing that row in clears it, until the row's lowest bit is one no basis
    row owns or the row vanishes. Packing reads any nonzero entry as 1, so
    other integers are reduced mod 2 first.
    """
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    basis: dict[int, int] = {}
    for r in range(packed.shape[0]):
        row = int.from_bytes(data[r * width:(r + 1) * width], "little")
        while row:
            low = (row & -row).bit_length() - 1
            owner = basis.get(low)
            if owner is None:
                basis[low] = row
                break
            row ^= owner
    return basis, bits.shape[1]


def _gf2_rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2), entries taken mod 2; returns (rref, pivot columns).

    The echelon basis is reduced in descending pivot order, so each XOR
    with an already-reduced row clears exactly one pivot bit.
    """
    basis, cols = _gf2_basis((np.asarray(mat) % 2).astype(np.uint8, copy=False))
    pivots = sorted(basis)
    pivot_mask = sum(1 << c for c in pivots)
    for c in reversed(pivots):
        row = basis[c]
        above = (row & pivot_mask) ^ (1 << c)
        while above:
            bit = above & -above
            row ^= basis[bit.bit_length() - 1]
            above ^= bit
        basis[c] = row
    width = -(-cols // 8)
    data = b"".join(basis[c].to_bytes(width, "little") for c in pivots)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(pivots), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little"), pivots


def _binary_matrix(mat, what: str) -> np.ndarray:
    """A uint8 copy of a 2D matrix of 0/1 entries, which the caller's array cannot change."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"{what} must be a 2D matrix")
    if mat.dtype in (np.uint8, np.bool_):  # one reduction over the copy
        bits = mat.astype(np.uint8)
        binary = bits.max(initial=0) <= 1
    else:
        binary = ((mat == 0) | (mat == 1)).all()
        bits = mat.astype(np.uint8)
    if not binary:
        raise ValueError(f"{what} entries must be 0/1")
    return bits


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 bytes as rows of uint64 words; bit k sits in word k // 64."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)  # whole words
    words[:, :packed.shape[1]] = packed
    return words.view(np.uint64)


@dataclass(frozen=True)
class _SlotLayout:
    """The Tanner graph of a parity matrix, laid out slot-major for BP.

    Slot s of check c holds the check's s-th edge, in row-major edge order;
    arrays of per-edge values have shape (frames, max check degree, checks
    + 1). Slots past a check's degree are padding, and so is the whole last
    column, a spare check that lower-degree variables read as a zero
    message. Empty checks, which constrain nothing, are left out.
    """

    slot_var: np.ndarray  # (D, C + 1): variable of each slot; 0 in padding
    pads: tuple[np.ndarray, np.ndarray]  # (slot, check) of each padding slot
    var_slots: np.ndarray  # (max variable degree, M): flat slots of each variable's edges

    @classmethod
    def of(cls, parity: np.ndarray) -> "_SlotLayout":
        rows = parity[parity.any(axis=1)]
        checks, var = np.divmod(np.flatnonzero(rows), rows.shape[1])  # row-major edges
        degrees = np.bincount(checks, minlength=rows.shape[0])
        slot = np.arange(var.size) - (np.cumsum(degrees) - degrees)[checks]
        shape = (max(1, degrees.max(initial=0)), rows.shape[0] + 1)
        flat = np.ravel_multi_index((slot, checks), shape)
        slot_var = np.zeros(shape, dtype=np.intp)
        slot_var.flat[flat] = var
        # each variable's edges in row-major order; missing ones read the spare check
        order = np.argsort(var, kind="stable")
        var_degrees = np.bincount(var, minlength=parity.shape[1])
        rank = np.arange(var.size) - (np.cumsum(var_degrees) - var_degrees)[var[order]]
        var_slots = np.full((max(1, var_degrees.max(initial=0)), parity.shape[1]), slot_var.size - 1)
        var_slots[rank, var[order]] = flat[order]
        is_pad = np.ones(slot_var.size, dtype=bool)
        is_pad[flat] = False
        pads = np.unravel_index(np.flatnonzero(is_pad), shape)
        return cls(slot_var, pads, var_slots)

    def zero_pads(self, per_slot: np.ndarray) -> np.ndarray:
        """Clear the padding of a (frames, D, C + 1) array in place."""
        per_slot[:, self.pads[0], self.pads[1]] = 0
        return per_slot


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
            if len(_gf2_basis(g)[0]) != k:
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
        # K ones, all on the diagonal of a square matrix; no K x K temporary
        self._identity = m == k and np.count_nonzero(g) == k and bool(g.diagonal().all())
        self._generator_words = np.ascontiguousarray(_pack_words(g).T)  # (words, M), for encode
        self._codebook = None
        self._slots = None
        if self.parity is not None:
            if self.source_positions is None:
                raise ValueError("a parity matrix needs source positions, where BP reads the source bits")
            self.parity = _binary_matrix(self.parity, "parity matrix")
            if self.parity.shape[1] != m:
                raise ValueError(f"parity matrix must have {m} columns, got {self.parity.shape[1]}")
            self._slots = _SlotLayout.of(self.parity)
            # each check's XOR of the generator rows on its slots, word by word
            rows = self._slots.zero_pads(self._generator_words[:, self._slots.slot_var])
            if np.bitwise_xor.reduce(rows, axis=1).any():
                raise ValueError("parity matrix does not annihilate the generator")

    @property
    def K(self) -> int:
        return self.generator.shape[1]

    @property
    def M(self) -> int:
        return self.generator.shape[0]

    @property
    def kind(self) -> str:
        """The decoder the structure selects: "ldpc" (BP), "identity" or "general" (ML)."""
        if self.parity is not None:
            return "ldpc"
        return "identity" if self._identity else "general"

    def check_decodable(self) -> None:
        """Refuse a code whose ML decoding would enumerate more than 2^16
        codewords: one with K above 16 that has no parity matrix and is not
        the identity."""
        if self.kind == "general" and self.K > _ML_MAX_K:
            raise ValueError(f"ML decoding of a K = {self.K} code would search 2^{self.K} codewords, "
                             f"more than the limit of 2^{_ML_MAX_K}")

    def codebook(self) -> np.ndarray:
        """All 2^K codewords, source words enumerated in counting order."""
        if self._codebook is None:
            if self.K > _ML_MAX_K:
                raise ValueError(f"refusing to enumerate 2^{self.K} codewords")
            srcs = ((np.arange(2**self.K)[:, None] >> np.arange(self.K - 1, -1, -1)) & 1).astype(np.uint8)
            self._codebook = encode(self, srcs)
        return self._codebook


def _frames(x, length: int, what: str) -> np.ndarray:
    """x as a (T, length) block; a single frame becomes T = 1."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[-1] != length:
        raise ValueError(f"{what} must have shape ({length},) or (T, {length}), got {x.shape}")
    return x.reshape(-1, length)


def encode(code: LinearCode, source: np.ndarray) -> np.ndarray:
    """Codeword v_m = xor_k g_mk c_k of a (K,) source word, or of each row of (T, K).

    Source words and generator rows are packed 64 bits to a word; v_m is
    the parity of the popcount of the XOR over words of their ANDs.
    Entries other than 0 and 1 are refused.
    """
    c = _frames(source, code.K, "source")
    if not ((c == 0) | (c == 1)).all():
        raise ValueError("source bits must be 0 or 1")
    words = _pack_words(c.astype(np.uint8, copy=False))
    gen = code._generator_words
    acc = words[:, :1] & gen[0]
    for w in range(1, gen.shape[0]):
        acc ^= words[:, w:w + 1] & gen[w]
    v = np.bitwise_count(acc)
    v &= 1
    return v if np.ndim(source) == 2 else v[0]


def decode(code: LinearCode, llr: np.ndarray, bp_iterations: int = _BP_DEFAULT_ITERATIONS) -> np.ndarray:
    """Source estimate from channel LLRs (positive favors bit 0).

    llr is one frame, (M,), or a block, (T, M); the estimate is (K,) or
    (T, K), and each row depends only on its own frame. The code's kind picks
    the rule: identity thresholds per bit, a code with a parity matrix runs
    sum-product belief propagation, anything else is maximum likelihood over
    the enumerated codebook by LLR correlation. Ties resolve toward 0.
    """
    frames = _frames(llr, code.M, "llr").astype(float, copy=False)
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
    """phi(x) = -ln tanh(x/2), self-inverse on (0, inf); overwrites x.

    The callers clip x to [1e-12, LLR_CLIP] first, each with the one clip it needs.
    """
    x *= 0.5
    np.tanh(x, out=x)
    np.log(x, out=x)
    return np.negative(x, out=x)


def _bp_decode(code: LinearCode, llr: np.ndarray, iterations: int) -> np.ndarray:
    """Flooding sum-product decoder on a (T, M) block of frames.

    Messages live in slot-major (frames, D, C + 1) arrays (see
    `_SlotLayout`), so each check reduces over the slot axis. A variable's
    posterior adds its incoming messages in row-major edge order. A frame
    leaves the live set after the first iteration whose hard decision has a
    zero syndrome, so each frame runs exactly the iterations it would run
    alone.
    """
    if iterations < 1:
        raise ValueError("BP needs at least one iteration")
    lay = code._slots
    hard = np.zeros(llr.shape, dtype=bool)
    live = np.arange(llr.shape[0])
    llr_live = llr
    # the posterior on each slot's variable; its gather serves the syndrome
    # and the next iteration's variable-to-check messages
    on_slots = np.take(llr, lay.slot_var, axis=1)
    msg_c2v = np.zeros_like(on_slots)
    for it in range(iterations):
        msg_v2c = np.subtract(on_slots, msg_c2v, out=on_slots)
        # an outgoing message is negative when an odd number of the check's
        # other incoming messages are
        flip = lay.zero_pads(msg_v2c < 0.0)
        flip ^= np.bitwise_xor.reduce(flip, axis=1, keepdims=True)
        # one clip of |v2c|: |clip(v, -LLR_CLIP, LLR_CLIP)| is min(|v|, LLR_CLIP)
        mags = np.clip(np.abs(msg_v2c, out=msg_v2c), 1e-12, LLR_CLIP, out=msg_v2c)
        mags = lay.zero_pads(_phi(mags))
        # slot 0 plus the in-order sum of the others, the association that
        # np.add.reduceat uses on an edge list for checks of degree up to 8
        mag_sum = np.add.reduce(mags[:, 1:], axis=1, keepdims=True)
        mag_sum += mags[:, :1]
        msg_c2v = _phi(np.clip(np.subtract(mag_sum, mags, out=mags), 1e-12, LLR_CLIP, out=mags))
        sign_bits = msg_c2v.view(np.uint64)  # phi > 0: setting the sign bit negates
        sign_bits |= np.left_shift(flip, 63, dtype=np.uint64)
        lay.zero_pads(msg_c2v)
        # each variable's incoming messages, added in row-major edge order
        incoming = np.take(msg_c2v.reshape(live.size, -1), lay.var_slots, axis=1)
        posterior = np.add.reduce(incoming, axis=1)
        posterior += llr_live
        if it == iterations - 1:
            done = np.ones(live.size, dtype=bool)
        else:
            on_slots = np.take(posterior, lay.slot_var, axis=1)
            unmet = lay.zero_pads(on_slots < 0.0)
            done = ~np.bitwise_xor.reduce(unmet, axis=1).any(axis=1)
        hard[live[done]] = posterior[done] < 0.0
        if done.all():
            break
        if done.any():
            keep = ~done
            live, llr_live = live[keep], llr_live[keep]
            msg_c2v, on_slots = msg_c2v[keep], on_slots[keep]
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
    """Regular LDPC of block length n via random socket permutation.

    Edge sockets (var_degree per column, check_degree per row) are matched
    by a seeded permutation, so n * var_degree must be a multiple of
    check_degree; for the default (3,6) that means n even. Repeated edges
    cancel mod 2, so a few rows end up slightly irregular, which is fine
    for waterfall demonstrations. The generator is derived from the reduced
    check matrix; source bits sit at its non-pivot positions. K = n -
    rank(H) >= n (1 - var_degree / check_degree), which is n/2 at (3,6),
    with equality when the checks are independent.
    """
    if n < 12:
        raise ValueError("LDPC block length must be >= 12")
    if var_degree < 1 or check_degree < 1:
        raise ValueError(f"LDPC degrees must be >= 1, got ({var_degree}, {check_degree})")
    if n * var_degree % check_degree:
        raise ValueError(f"LDPC sockets do not match: n * var_degree = {n * var_degree} "
                         f"is not a multiple of check_degree = {check_degree}")
    n_checks = n * var_degree // check_degree
    rng = np.random.default_rng(seed)
    var_sockets = np.repeat(np.arange(n), var_degree)
    check_sockets = np.repeat(np.arange(n_checks), check_degree)
    perm = rng.permutation(n * var_degree)
    h = np.zeros((n_checks, n), dtype=np.uint8)
    np.add.at(h, (check_sockets[perm], var_sockets), 1)
    h &= 1
    h = h[h.any(axis=1)]  # double edges cancel; drop any row left empty

    rref, pivots = _gf2_rref(h)
    is_free = np.ones(n, dtype=bool)  # not np.setdiff1d, which imports numpy.ma
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    k = free.size
    g = np.zeros((n, k), dtype=np.uint8)
    g[free, np.arange(k)] = 1
    # pivot bit p_i = sum of rref[i, free] * source bits
    g[pivots] = rref[:, free]
    return LinearCode(g, parity=h, source_positions=free)


def from_generator_file(path) -> LinearCode:
    """Load a generator matrix from text: one row of the M x K generator per
    line, entries the tokens 0 and 1 and nothing else."""
    path = Path(path)
    rows = []
    for number, line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        for tok in tokens:
            if tok not in ("0", "1"):
                raise ValueError(f"{path}:{number}: generator entries must be 0 or 1, got {tok!r}")
        rows.append([int(tok) for tok in tokens])
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged matrix rows in {path}")
    return LinearCode(np.array(rows, dtype=np.uint8))


def builtin_code(name: str) -> LinearCode:
    """Resolve a code by name: hamming74, repetitionN, identityN, ldpcN.

    A name whose N x K generator would hold more than MAX_GENERATOR_ENTRIES
    entries (K taken as N/2 for ldpcN) is refused before anything is built.
    """
    name = name.strip().lower()
    if name == "hamming74":
        return hamming74()
    for prefix, factory, k_of in (("repetition", repetition_code, lambda n: 1),
                                  ("identity", identity_code, lambda n: n),
                                  ("ldpc", ldpc_code, lambda n: n // 2)):
        digits = name[len(prefix):]
        if name.startswith(prefix) and digits.isascii() and digits.isdigit():
            n = int(digits)
            if n * k_of(n) > MAX_GENERATOR_ENTRIES:
                raise ValueError(f"code {name!r} needs a generator of {n} x {k_of(n)} entries, "
                                 f"more than the limit of {MAX_GENERATOR_ENTRIES} (2^26)")
            return factory(n)
    raise ValueError(f"unknown code name {name!r}")
