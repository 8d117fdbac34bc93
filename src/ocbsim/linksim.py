"""Monte Carlo end-to-end link simulation of the layered two-stream scheme.

Chain per trial (one frame = one codeword pair): draw source bits, encode
both streams, map bit pairs to symbols, add AWGN, demap the axis stream,
decode it, rebuild the axis word, demap the sign stream on the chosen axes,
decode it, tally errors.

Reproducibility contract: trial t draws what a private generator seeded by
SeedSequence([seed, t]) would draw, in the order c1, c2, real noise,
imaginary noise, so tallies are independent of how run_trials splits the
blocks of frames across worker processes: ProcessPoolExecutor.map hands
each worker consecutive chunks of at most ceil(blocks / workers) whole
blocks.

Frames run in blocks of about BLOCK_SYMBOLS symbols (16384: 16 frames of
ldpc1024, 2340 of hamming74). _pcg64_seeds hashes the block's
SeedSequences in uint32 array arithmetic, one pass for each run of ids with
the same number of 32-bit words, into the four uint64 words each frame's
PCG64 seeds itself from, and numpy finishes the seeding: each frame's PCG64
is built from its row through an ISeedSequence that hands the row back.
That frame's draws are one random_raw for its source bits, collected in a
list and concatenated once, and one standard_normal drawn into its row of
the block's noise. The block's noise is then scaled by sigma once, and
+ 0.0 reproduces normal's 0 + sigma z (+0.0 where sigma z is -0.0).
Tests check these draws bit for bit, -0.0 included, against numpy's own
per-frame generators, on the oldest numpy the package allows and the latest.
Everything after the draws (encoding, mapping, demapping, decoding,
tallying) runs on (T, M) arrays of the block's T frames at once.
A frame's result does not depend on the block it lands in, so the block
size changes speed and memory, not tallies. Larger blocks spread the
per-call cost of each BP iteration over more frames; a block of 16 ldpc1024
frames keeps BP's message arrays near 400 KB each.

Uncoded per-symbol statistics are the link's own: with identity codes, ber1
is the hard axis-decision error rate (llr1 < 0 exactly when |im| > |re|),
and with stage2_input="genie", ber2 is the sign error rate given the true
axis, Q(sqrt(2) alpha / sigma).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import codec
from .awgn_info import GAMMA_MAX, NoiseModel
from .ocb import Constellation, demap_stage1, demap_stage2, map_bits, reconstruct_v1

# the receivers: each stage2_input mode's axis word for stage 2, from the
# config, stage 1's LLRs, decoder 1's source estimate and the sent block
_STAGE2_AXIS = {
    "reconstructed": lambda cfg, llr1, c1_hat, blk: reconstruct_v1(c1_hat, cfg.code1),
    "raw_hard": lambda cfg, llr1, c1_hat, blk: (llr1 < 0.0).astype(np.uint8),
    "genie": lambda cfg, llr1, c1_hat, blk: blk.v1,  # axis word forced correct
}
STAGE2_MODES = tuple(_STAGE2_AXIS)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
BLOCK_SYMBOLS = 16384  # symbols per block of frames (at least one frame)


def q_function(x: float) -> float:
    """Gaussian tail probability P(N > x) for standard normal N."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass
class LinkConfig:
    """Everything needed to reproduce a simulation run bit for bit."""

    code1: codec.LinearCode
    code2: codec.LinearCode
    alpha: float
    sigma2: float
    trials: int
    seed: int = 0
    stage2_input: str = "reconstructed"

    def __post_init__(self):
        self.sigma2 = self.sigma2 + 0.0  # -0.0 becomes 0.0, which the noise draw accepts
        if self.code1.M != self.code2.M:
            raise ValueError(
                f"both streams must span the same block length, got {self.code1.M} and {self.code2.M}"
            )
        self._cons = Constellation(self.alpha)  # refuses an alpha that is not positive and finite
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.stage2_input not in STAGE2_MODES:
            raise ValueError(f"stage2_input must be one of {STAGE2_MODES}")
        self.code1.check_decodable()  # before any frame is drawn, not at the first decode
        self.code2.check_decodable()
        # both 2 alpha^2, the energy the LLRs scale with, and gamma are bounded
        if self.sigma2 > 0.0 and not (self.alpha <= math.sqrt(0.5 * GAMMA_MAX)
                                      and self.gamma <= GAMMA_MAX):
            raise ValueError(f"2 alpha^2 and 2 alpha^2 / sigma2 must be at most {GAMMA_MAX:g}; "
                             "use --sigma2 0 for the noiseless limit")
        # None is the demappers' noiseless limit
        self._noise = None if self.sigma2 == 0.0 else NoiseModel(self.sigma2)

    @property
    def gamma(self) -> float:
        """Symbol SNR 2 alpha^2 / sigma2; inf at sigma2 = 0. It squares alpha / sigma, as alpha^2
        underflows first, by a product: past float range ** raises where * gives inf."""
        ratio = float(self.alpha) / math.sqrt(self.sigma2) if self.sigma2 > 0.0 else math.inf
        return 2.0 * ratio * ratio

    @property
    def shards(self) -> int:
        """Always 1: only the benchmark's replay reads it, so it goes when the replay goes."""
        return 1


@dataclass
class TxBlock:
    """A block of T transmitted frames: source words, codewords, received
    samples, each a (T, length) array with one row per frame."""

    c1: np.ndarray
    c2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    y: np.ndarray  # complex, (T, M)


@dataclass
class SimStats:
    """Integer tallies from a batch of trials; rates are derived views."""

    trials: int
    k1: int
    k2: int
    block_len: int
    bit_errors1: int = 0
    bit_errors2: int = 0
    frame_errors1: int = 0
    frame_errors2: int = 0
    cond_events: int = 0
    cond_errors: int = 0

    def __add__(self, other: "SimStats") -> "SimStats":
        if (self.k1, self.k2, self.block_len) != (other.k1, other.k2, other.block_len):
            raise ValueError("cannot merge stats from different configurations")
        merged = {f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        merged.update(k1=self.k1, k2=self.k2, block_len=self.block_len)
        return SimStats(**merged)

    def _counts(self) -> dict[str, tuple[int, int]]:
        """(errors, n) behind each rate, keyed by the name ci95 takes."""
        return {
            "ber1": (self.bit_errors1, self.trials * self.k1),
            "ber2": (self.bit_errors2, self.trials * self.k2),
            "fer1": (self.frame_errors1, self.trials),
            "fer2": (self.frame_errors2, self.trials),
            "cond": (self.cond_errors, self.cond_events),
        }

    def _rate(self, which: str) -> float:
        """errors / n, or NaN when n = 0 (undefined, not zero)."""
        errors, n = self._counts()[which]
        return errors / n if n else float("nan")

    ber1 = property(lambda self: self._rate("ber1"))
    ber2 = property(lambda self: self._rate("ber2"))
    fer1 = property(lambda self: self._rate("fer1"))
    fer2 = property(lambda self: self._rate("fer2"))
    # the stage-2 symbol error rate among symbols whose axis word was wrong
    cond_ber2_given_v1_err = property(lambda self: self._rate("cond"))

    def ci95(self, which: str) -> float:
        """95% Wilson score half-width for one of ber1/ber2/fer1/fer2/cond.

        The Wilson interval (Wilson 1927) is not centred on the point
        estimate p, so this is the larger of its two distances from p, and
        p +/- ci95 covers the interval. It stays positive at zero errors,
        where it equals z^2 / (n + z^2). NaN when n = 0.
        """
        errors, n = self._counts()[which]
        if n == 0:
            return float("nan")
        p = errors / n
        z2n = _Z95 * _Z95 / n
        centre = (p + 0.5 * z2n) / (1.0 + z2n)
        half = _Z95 * math.sqrt(p * (1.0 - p) / n + 0.25 * z2n / n) / (1.0 + z2n)
        return abs(centre - p) + half


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's entropy words of a nonnegative int: 32 bits each,
    least significant first, one word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(hash_const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, keeping its running hash
    constant, which does not depend on the data, as a Python int."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> 16)


def _generate_state(words: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(e).generate_state(4, uint64) for each column e of the
    entropy words, a list of equal-length uint32 arrays, as the rows of an
    (n, 4) uint64 array."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(words[0])) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(words)):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(words[src]))
    # eight uint32 draws, each uint64 word from its (low, high) pair of them
    draw = _hashmix(_INIT_B, _MULT_B)
    out32 = [draw(pool[i % 4]) for i in range(8)]
    return np.stack([out32[2 * j + 1].astype(np.uint64) << 32 | out32[2 * j] for j in range(4)],
                    axis=1)


def _pcg64_seeds(seed: int, trials: range) -> np.ndarray:
    """SeedSequence([seed, t]).generate_state(4, uint64), the words PCG64
    seeds itself from, as row i of a C-contiguous (T, 4) array for the i-th
    trial id t < 2**64.

    The entropy is seed's words then t's; each run of trials whose ids have
    the same number of words is hashed in one pass of uint32 array arithmetic.
    """
    parts = []
    start = trials.start
    while start < trials.stop:
        n = len(_uint32_words(start))
        t = np.arange(start, min(trials.stop, 1 << 32 * n), dtype=np.uint64)
        words = [np.full(t.size, w, dtype=np.uint32) for w in _uint32_words(seed)]
        words += [(t >> np.uint64(32 * j)).astype(np.uint32) for j in range(n)]
        parts.append(_generate_state(words))
        start += t.size
    return np.concatenate(parts)


@functools.cache
def _seeded_words():
    """An ISeedSequence whose generate_state returns the words it holds, so
    PCG64 seeds itself from _pcg64_seeds' row as from its SeedSequence. Built
    on first use: importing linksim loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeededWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words

    return SeededWords


def transmit_block(cfg: LinkConfig, trials: range) -> TxBlock:
    """Draw, encode, map and add noise to a block of frames, one per trial id.

    Frame t gets the draws of default_rng(SeedSequence([cfg.seed, t])):
    integers(0, 2, K1, uint8) for c1, the same for c2, then normal(0, sigma,
    M) for the real and for the imaginary noise. Those bits are the top bits
    of the bytes of successive little-endian uint32 halves of the generator's
    64-bit outputs, ceil(K/4) words per stream (numpy's bounded uint8 draw
    never rejects at range 2), and one normal call of 2M values equals the
    two calls of M, which return 0 + sigma z for the z that standard_normal
    draws. So each frame's PCG64 seeds itself from its row of the words that
    _pcg64_seeds hashed for the whole block, takes one random_raw, appended
    to a list that is concatenated once, and one standard_normal fill into
    its noise row; the block is then scaled by sigma once, and + 0.0
    reproduces normal's 0 + sigma z, which is +0.0 where sigma z is -0.0
    (at sigma2 = 0).
    """
    sigma = np.sqrt(cfg.sigma2)
    k1, k2, m = cfg.code1.K, cfg.code2.K, cfg.code1.M
    w1, w2 = -(-k1 // 4), -(-k2 // 4)
    n_raw = -(-(w1 + w2) // 2)
    noise = np.empty((len(trials), 2 * m))
    pcg64, generator, seeded = np.random.PCG64, np.random.Generator, _seeded_words()
    raws = []
    for words, row in zip(_pcg64_seeds(cfg.seed, trials), noise):
        bitgen = pcg64(seeded(words))
        raws.append(bitgen.random_raw(n_raw))
        generator(bitgen).standard_normal(out=row)
    raw = np.concatenate(raws).reshape(len(trials), n_raw)
    noise *= sigma
    noise += 0.0
    top = raw.astype("<u8", copy=False).view(np.uint8) >> 7
    c1 = np.ascontiguousarray(top[:, :k1])
    c2 = np.ascontiguousarray(top[:, 4 * w1:4 * w1 + k2])
    v1 = codec.encode(cfg.code1, c1)
    v2 = codec.encode(cfg.code2, c2)
    y = map_bits(v1, v2, cfg._cons) + noise[:, :m] + 1j * noise[:, m:]
    return TxBlock(c1, c2, v1, v2, y)


def _tally(cfg: LinkConfig, blk: TxBlock) -> SimStats:
    """Receive a block of frames and count its errors."""
    cons, noise = cfg._cons, cfg._noise
    llr1 = demap_stage1(blk.y, cons, noise)
    c1_hat = codec.decode(cfg.code1, llr1)
    v1_used = _STAGE2_AXIS[cfg.stage2_input](cfg, llr1, c1_hat, blk)
    llr2 = demap_stage2(blk.y, v1_used, cons, noise)
    c2_hat = codec.decode(cfg.code2, llr2)

    be1 = np.count_nonzero(c1_hat != blk.c1, axis=1)
    be2 = np.count_nonzero(c2_hat != blk.c2, axis=1)
    wrong_axis = v1_used != blk.v1
    v2_hard = (llr2 < 0.0).astype(np.uint8)
    return SimStats(
        trials=be1.size,
        k1=cfg.code1.K,
        k2=cfg.code2.K,
        block_len=cfg.code1.M,
        bit_errors1=int(be1.sum()),
        bit_errors2=int(be2.sum()),
        frame_errors1=int(np.count_nonzero(be1)),
        frame_errors2=int(np.count_nonzero(be2)),
        cond_events=int(np.count_nonzero(wrong_axis)),
        cond_errors=int(np.count_nonzero((v2_hard != blk.v2) & wrong_axis)),
    )


def _run_block(cfg: LinkConfig, trials: range) -> SimStats:
    """Tallies of one block of frames, a range of trial ids."""
    return _tally(cfg, transmit_block(cfg, trials))


def run_trials(cfg: LinkConfig, threads: int = 1) -> SimStats:
    """Full receiver chain over cfg.trials frames, on min(threads, blocks)
    worker processes or, with one worker, in-process. The executor splits
    the blocks into consecutive chunks of at most ceil(blocks / workers)
    whole blocks, one task each, and the tallies add up in block order, so
    they do not depend on threads."""
    per_block = max(1, BLOCK_SYMBOLS // cfg.code1.M)
    blocks = [range(t, min(t + per_block, cfg.trials)) for t in range(0, cfg.trials, per_block)]
    workers = min(threads, len(blocks))
    empty = SimStats(trials=0, k1=cfg.code1.K, k2=cfg.code2.K, block_len=cfg.code1.M)
    if workers == 1:
        return sum((_run_block(cfg, ids) for ids in blocks), empty)
    # imported only when workers start, so importing linksim loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_run_block, [cfg] * len(blocks), blocks,
                            chunksize=-(-len(blocks) // workers)), empty)
