"""Monte Carlo end-to-end link simulation of the layered two-stream scheme.

Chain per trial (one frame = one codeword pair): draw source bits, encode
both streams, map bit pairs to symbols, add AWGN, demap the axis stream,
decode it, rebuild the axis word, demap the sign stream on the chosen axes,
decode it, tally errors.

Reproducibility contract: trial t draws from a private generator seeded by
SeedSequence([seed, t]), in the order c1, c2, real noise, imaginary noise,
so tallies are independent of how run_trials splits the blocks of frames
across worker processes.

Frames run in blocks of about BLOCK_SYMBOLS symbols (16384: 16 frames of
ldpc1024, 2340 of hamming74). Within a block each frame still draws from
its own generator; everything after the draws (encoding, mapping,
demapping, decoding, tallying) runs on (T, M) arrays of the block's T
frames at once. A frame's result does not depend on the block it lands in,
so the block size changes speed and memory, not tallies. Larger blocks
spread the per-call cost of each BP iteration over more frames; a block of
16 ldpc1024 frames keeps BP's message arrays near 400 KB each.

Uncoded per-symbol statistics are the link's own: with identity codes, ber1
is the hard axis-decision error rate (llr1 < 0 exactly when |im| > |re|),
and with stage2_input="genie", ber2 is the sign error rate given the true
axis, Q(sqrt(2) alpha / sigma).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import codec
from .awgn_info import GAMMA_MAX, NoiseModel
from .ocb import Constellation, demap_stage1, demap_stage2, map_bits, reconstruct_v1

__all__ = [
    "LinkConfig",
    "TxBlock",
    "SimStats",
    "transmit_block",
    "run_trials",
    "q_function",
]

STAGE2_MODES = ("reconstructed", "raw_hard", "genie")

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
        if self.code1.M != self.code2.M:
            raise ValueError(
                f"both streams must span the same block length, got {self.code1.M} and {self.code2.M}"
            )
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.stage2_input not in STAGE2_MODES:
            raise ValueError(f"stage2_input must be one of {STAGE2_MODES}")
        # the alpha bound comes first, so alpha ** 2 in gamma cannot overflow
        if self.sigma2 > 0.0 and not (self.alpha <= math.sqrt(0.5 * GAMMA_MAX)
                                      and self.gamma <= GAMMA_MAX):
            raise ValueError(f"2 alpha^2 and 2 alpha^2 / sigma2 must be at most {GAMMA_MAX:g}; "
                             "use --sigma2 0 for the noiseless limit")

    @property
    def gamma(self) -> float:
        """Symbol SNR 2 alpha^2 / sigma2; inf at sigma2 = 0."""
        return 2.0 * float(self.alpha) ** 2 / self.sigma2 if self.sigma2 > 0.0 else math.inf

    @property
    def shards(self) -> int:
        """Always 1, for the benchmark's replay; goes with it, like codec.LinearCode.kind."""
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

    @property
    def ber1(self) -> float:
        return self.bit_errors1 / (self.trials * self.k1)

    @property
    def ber2(self) -> float:
        return self.bit_errors2 / (self.trials * self.k2)

    @property
    def fer1(self) -> float:
        return self.frame_errors1 / self.trials

    @property
    def fer2(self) -> float:
        return self.frame_errors2 / self.trials

    @property
    def cond_ber2_given_v1_err(self):
        """Stage-2 symbol error rate among symbols whose axis word was wrong.

        None when no conditioning event occurred (undefined, not zero).
        """
        if self.cond_events == 0:
            return None
        return self.cond_errors / self.cond_events

    def ci95(self, which: str) -> float:
        """95% Wilson score half-width for one of ber1/ber2/fer1/fer2/cond.

        The Wilson interval (Wilson 1927) is not centred on the point
        estimate p, so this is the larger of its two distances from p, and
        p +/- ci95 covers the interval. It stays positive at zero errors,
        where it equals z^2 / (n + z^2).
        """
        lookup = {
            "ber1": (self.bit_errors1, self.trials * self.k1),
            "ber2": (self.bit_errors2, self.trials * self.k2),
            "fer1": (self.frame_errors1, self.trials),
            "fer2": (self.frame_errors2, self.trials),
            "cond": (self.cond_errors, self.cond_events),
        }
        errors, n = lookup[which]
        if n == 0:
            return float("nan")
        p = errors / n
        z2n = _Z95 * _Z95 / n
        centre = (p + 0.5 * z2n) / (1.0 + z2n)
        half = _Z95 * math.sqrt(p * (1.0 - p) / n + 0.25 * z2n / n) / (1.0 + z2n)
        return abs(centre - p) + half


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def transmit_block(cfg: LinkConfig, rngs, frames: int) -> TxBlock:
    """Draw, encode, map and add noise to a block of frames, one per generator.

    Each generator draws its frame's c1, c2, real and imaginary noise, in
    that order. rngs may be a lazy iterable of `frames` generators, so only
    one generator is alive at a time.
    """
    sigma = np.sqrt(cfg.sigma2)
    k1, k2, m = cfg.code1.K, cfg.code2.K, cfg.code1.M
    c1 = np.empty((frames, k1), dtype=np.uint8)
    c2 = np.empty((frames, k2), dtype=np.uint8)
    re = np.empty((frames, m))
    im = np.empty((frames, m))
    for i, rng in enumerate(rngs):
        c1[i] = rng.integers(0, 2, size=k1, dtype=np.uint8)
        c2[i] = rng.integers(0, 2, size=k2, dtype=np.uint8)
        re[i] = rng.normal(0.0, sigma, m)
        im[i] = rng.normal(0.0, sigma, m)
    v1 = codec.encode(cfg.code1, c1)
    v2 = codec.encode(cfg.code2, c2)
    y = map_bits(v1, v2, Constellation(cfg.alpha)) + re + 1j * im
    return TxBlock(c1, c2, v1, v2, y)


def _tally(cfg: LinkConfig, cons: Constellation, noise: NoiseModel | None, blk: TxBlock) -> SimStats:
    """Receive a block of frames and count its errors; noise None is sigma2 = 0."""
    llr1 = demap_stage1(blk.y, cons, noise)
    c1_hat = codec.decode(cfg.code1, llr1)
    if cfg.stage2_input == "reconstructed":
        v1_used = reconstruct_v1(c1_hat, cfg.code1)
    elif cfg.stage2_input == "raw_hard":
        v1_used = (llr1 < 0.0).astype(np.uint8)
    else:  # genie: axis word forced correct
        v1_used = blk.v1
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


def _run_blocks(cfg: LinkConfig, blocks) -> SimStats:
    """Tallies for a list of blocks, each a range of trial ids."""
    cons = Constellation(cfg.alpha)
    noise = None if cfg.sigma2 == 0.0 else NoiseModel(cfg.sigma2)
    stats = SimStats(trials=0, k1=cfg.code1.K, k2=cfg.code2.K, block_len=cfg.code1.M)
    for ids in blocks:
        blk = transmit_block(cfg, (_trial_rng(cfg.seed, t) for t in ids), len(ids))
        stats = stats + _tally(cfg, cons, noise, blk)
    return stats


def run_trials(cfg: LinkConfig, threads: int = 1) -> SimStats:
    """Full receiver chain over cfg.trials frames on min(threads, blocks)
    worker processes, each running a contiguous run of whole blocks; with one
    worker it runs in-process. The tallies do not depend on threads."""
    per_block = max(1, BLOCK_SYMBOLS // cfg.code1.M)
    blocks = [range(t, min(t + per_block, cfg.trials)) for t in range(0, cfg.trials, per_block)]
    workers = min(threads, len(blocks))
    if workers == 1:
        return _run_blocks(cfg, blocks)
    runs = [blocks[len(blocks) * i // workers:len(blocks) * (i + 1) // workers]
            for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_blocks, [cfg] * workers, runs))
    return sum(parts[1:], parts[0])
