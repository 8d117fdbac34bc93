"""Layered BPSK-on-QPSK constellation: bit-pair mapper and two-stage demapper.

The four symbols sit on the coordinate axes at radius sqrt(2)*alpha. The
first bit stream selects the axis (0 horizontal, 1 vertical), the second
the sign along that axis:

    (v1, v2) = (0, 0) -> (+sqrt(2)a, 0)      (0, 1) -> (-sqrt(2)a, 0)
    (v1, v2) = (1, 0) -> (0, +sqrt(2)a)      (1, 1) -> (0, -sqrt(2)a)

Received samples are complex numbers y = re + j*im with AWGN of variance
sigma2 per real dimension. Stage 1 demaps the axis bit from the 2-vs-2
grouping; stage 2, after the axis word has been reconstructed, sees a plain
BPSK on the selected axis. LLRs are positive when bit 0 is more likely. With
noise None (sigma2 = 0) both give +-LLR_CLIP by the sign of their statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .awgn_info import NoiseModel
from . import codec


@dataclass(frozen=True)
class Constellation:
    """Four axis-aligned symbols parameterized by the amplitude alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def amplitude(self) -> float:
        """Radius of every symbol, sqrt(2) * alpha."""
        return float(np.sqrt(2.0) * self.alpha)

    @property
    def symbol_energy(self) -> float:
        return 2.0 * self.alpha * self.alpha

    @property
    def points(self) -> np.ndarray:
        """The symbols s1..s4 as complex numbers, in index order."""
        a = self.amplitude
        return np.array([a, 1j * a, -a, -1j * a])


def map_bits(v1, v2, cons: Constellation):
    """Bit pair to symbol; elementwise on arrays, complex output."""
    v1 = np.asarray(v1)
    v2 = np.asarray(v2)
    sign = 1.0 - 2.0 * v2
    sym = cons.amplitude * sign * np.where(v1 == 0, 1.0 + 0.0j, 1.0j)
    return sym if sym.ndim else complex(sym)


def _saturated(statistic: np.ndarray) -> np.ndarray:
    """Noiseless-limit LLRs: +-LLR_CLIP by sign, ties toward bit 0."""
    return np.where(statistic >= 0.0, codec.LLR_CLIP, -codec.LLR_CLIP)


def demap_stage1(y, cons: Constellation, noise: NoiseModel | None):
    """Axis LLR ln[(p(y|s1)+p(y|s3)) / (p(y|s2)+p(y|s4))], equal priors.

    Factoring the common Gaussian terms leaves
        llr = ln cosh(a*re/sigma2) - ln cosh(a*im/sigma2),
    evaluated via logaddexp for stability.
    """
    y = np.asarray(y, dtype=complex)
    if noise is None:
        llr = _saturated(np.abs(y.real) - np.abs(y.imag))
    else:
        kre = cons.amplitude * y.real / noise.sigma2
        kim = cons.amplitude * y.imag / noise.sigma2
        llr = np.logaddexp(kre, -kre) - np.logaddexp(kim, -kim)
    return llr if llr.ndim else float(llr)


def demap_stage2(y, v1_hat, cons: Constellation, noise: NoiseModel | None):
    """Sign LLR on the axis named by v1_hat: 2*a*coord/sigma2."""
    y = np.asarray(y, dtype=complex)
    v1_hat = np.asarray(v1_hat)
    coord = np.where(v1_hat == 0, y.real, y.imag)
    llr = _saturated(coord) if noise is None else 2.0 * cons.amplitude * coord / noise.sigma2
    return llr if llr.ndim else float(llr)


def reconstruct_v1(c1_hat: np.ndarray, code1: codec.LinearCode) -> np.ndarray:
    """Re-encode the decoded axis stream; deterministic."""
    return codec.encode(code1, c1_hat)
