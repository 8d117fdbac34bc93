"""Layered BPSK-on-QPSK ("orthogonal cocktail BPSK") toolkit.

Exact mutual-information curves for finite constellations over AWGN, GF(2)
block codecs, the two-stage mapper/demapper, a reproducible Monte Carlo
link simulator, and the rate accounting that compares the scheme's claimed
composite rate with the exact chain-rule decomposition.
"""

__version__ = "0.1.0"

from .awgn_info import (
    MiResult,
    NoiseModel,
    PointSet,
    gaussian_capacity,
    mi_awgn,
    mi_bpsk,
    mi_monte_carlo,
    mi_qpsk,
    noise_entropy,
    stream_mi_ocb,
)
from .codec import LinearCode, builtin_code, decode, encode, hamming74, repetition_code
from .linksim import LinkConfig, SimStats, q_function, run_trials
from .ocb import Constellation, demap_stage1, demap_stage2, map_bits
from .rates import (
    ClaimInterval,
    RateRow,
    SweepSpec,
    check_superposition_inequality,
    claimed_gap,
    find_claim_interval,
    rate_ocb_claimed,
    rate_ocb_exact,
    sweep,
)

__all__ = [
    "__version__",
    "MiResult",
    "NoiseModel",
    "PointSet",
    "gaussian_capacity",
    "mi_awgn",
    "mi_bpsk",
    "mi_monte_carlo",
    "mi_qpsk",
    "noise_entropy",
    "stream_mi_ocb",
    "LinearCode",
    "builtin_code",
    "decode",
    "encode",
    "hamming74",
    "repetition_code",
    "LinkConfig",
    "SimStats",
    "q_function",
    "run_trials",
    "Constellation",
    "demap_stage1",
    "demap_stage2",
    "map_bits",
    "ClaimInterval",
    "RateRow",
    "SweepSpec",
    "check_superposition_inequality",
    "claimed_gap",
    "find_claim_interval",
    "rate_ocb_claimed",
    "rate_ocb_exact",
    "sweep",
]
