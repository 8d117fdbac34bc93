"""Rate accounting for the layered scheme: claimed composite rates versus
the exact chain-rule decomposition, plus superposition checks and sweeps.

The claimed accounting assigns the axis stream half of the QPSK mutual
information and the sign stream a full BPSK rate at the same symbol SNR
(the r_c1_claimed and r_c2 columns of curves.csv):

    r_j_claimed(gamma) = mi_qpsk(gamma) / 2 + mi_bpsk(gamma)

The exact accounting decomposes the joint four-point rate by the chain rule
I(V1,V2;Y) = I(V1;Y) + I(V2;Y|V1); its total always equals mi_qpsk(gamma).
The difference between the two accountings is reported, never asserted away.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .awgn_info import (
    DEFAULT_QUAD_ORDER,
    GAMMA_MAX,
    NoiseModel,
    check_gamma,
    gaussian_capacity,
    mi_bpsk,
    mi_qpsk,
    stream_mi_ocb,
)

__all__ = [
    "RateRow",
    "SweepSpec",
    "ClaimInterval",
    "rate_ocb_claimed",
    "rate_ocb_exact",
    "check_superposition_inequality",
    "gamma_grid",
    "rate_row",
    "sweep",
    "claimed_gap",
    "find_claim_interval",
]

CSV_COLUMNS = (
    "gamma",
    "i_bpsk",
    "i_qpsk",
    "c_gauss",
    "r_c1_claimed",
    "r_c2",
    "r_j_claimed",
    "i_v1_exact",
    "i_v2_exact",
    "sum_exact",
)


@dataclass(frozen=True)
class RateRow:
    """All rate columns at one SNR grid point."""

    gamma: float
    i_bpsk: float
    i_qpsk: float
    c_gauss_complex: float
    r_c1_claimed: float
    r_c2: float
    r_j_claimed: float
    i_v1_exact: float
    i_v2_exact: float
    sum_exact: float

    def as_csv_values(self) -> tuple:
        """The fields in declaration order, which is the CSV_COLUMNS order."""
        return astuple(self)


@dataclass(frozen=True)
class SweepSpec:
    """An SNR grid for rate sweeps; gamma is the linear ratio E_s/sigma2."""

    gamma_min: float = 0.01
    gamma_max: float = 100.0
    points: int = 60
    spacing: str = "log"
    quad_order: int = DEFAULT_QUAD_ORDER

    def __post_init__(self):
        if not self.gamma_min > 0.0:
            raise ValueError("gamma_min must be positive")
        if self.gamma_max < self.gamma_min:
            raise ValueError("gamma_max must be >= gamma_min")
        if not self.gamma_max <= GAMMA_MAX:
            raise ValueError(f"gamma_max must be at most {GAMMA_MAX:g}, got {self.gamma_max}")
        if self.points < 1 or (self.points < 2 and self.gamma_max > self.gamma_min):
            raise ValueError("need at least 2 grid points for a nontrivial range")
        if self.spacing not in ("log", "linear"):
            raise ValueError("spacing must be 'log' or 'linear'")


def gamma_grid(spec: SweepSpec) -> np.ndarray:
    if spec.points == 1:
        return np.array([spec.gamma_min])
    if spec.spacing == "log":
        return np.geomspace(spec.gamma_min, spec.gamma_max, spec.points)
    return np.linspace(spec.gamma_min, spec.gamma_max, spec.points)


def rate_ocb_claimed(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """Claimed composite rate: half the QPSK rate (axis stream) plus the
    BPSK rate at the symbol SNR (sign stream)."""
    return 0.5 * mi_qpsk(gamma, order) + mi_bpsk(gamma, order)


def rate_ocb_exact(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> tuple[float, float, float]:
    """Exact chain-rule stream rates (i_v1, i_v2, total) at symbol SNR gamma."""
    check_gamma(gamma)
    if gamma == 0.0:
        return 0.0, 0.0, 0.0
    alpha = np.sqrt(gamma / 2.0)  # sigma2 = 1, so 2 alpha^2 / sigma2 = gamma
    i_v1, i_v2 = stream_mi_ocb(alpha, NoiseModel(1.0), order)
    return i_v1, i_v2, i_v1 + i_v2


def check_superposition_inequality(
    e1: float, e2: float, sigma2: float, modulation: str = "bpsk", order: int = DEFAULT_QUAD_ORDER
) -> tuple[float, float, bool]:
    """Compare I((E1+E2)/s2) against I(E1/s2) + I(E2/s2).

    Returns (lhs, rhs, holds) with holds = strict lhs < rhs; concavity of
    the finite-alphabet rate in SNR makes this strict for E1, E2 > 0 and an
    equality when either energy vanishes.
    """
    if e1 < 0.0 or e2 < 0.0:
        raise ValueError("energies must be nonnegative")
    mi = {"bpsk": mi_bpsk, "qpsk": mi_qpsk}.get(modulation)
    if mi is None:
        raise ValueError(f"modulation must be 'bpsk' or 'qpsk', got {modulation!r}")
    lhs = mi((e1 + e2) / sigma2, order)
    rhs = mi(e1 / sigma2, order) + mi(e2 / sigma2, order)
    return lhs, rhs, lhs < rhs


def rate_row(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> RateRow:
    i_b = mi_bpsk(gamma, order)
    i_q = mi_qpsk(gamma, order)
    c_g = gaussian_capacity(gamma, "complex")
    r_c1 = 0.5 * i_q
    i_v1, i_v2, total = rate_ocb_exact(gamma, order)
    return RateRow(
        gamma=float(gamma),
        i_bpsk=i_b,
        i_qpsk=i_q,
        c_gauss_complex=c_g,
        r_c1_claimed=r_c1,
        r_c2=i_b,
        r_j_claimed=r_c1 + i_b,
        i_v1_exact=i_v1,
        i_v2_exact=i_v2,
        sum_exact=total,
    )


def sweep(spec: SweepSpec) -> list[RateRow]:
    """One RateRow per grid point, in grid order."""
    return [rate_row(g, spec.quad_order) for g in gamma_grid(spec)]


def claimed_gap(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """rate_ocb_claimed - mi_qpsk, in bits.

    Evaluated through the decomposition mi_qpsk(g) = 2 mi_bpsk(g/2) as
    mi_bpsk(g) - mi_bpsk(g/2): same value to machine precision, but one
    dimensional, so interval searches stay cheap.
    """
    return mi_bpsk(gamma, order) - mi_bpsk(gamma / 2.0, order)


@dataclass(frozen=True)
class ClaimInterval:
    """Where the claimed composite rate exceeds QPSK by more than a threshold."""

    gamma_lo: float
    gamma_hi: float
    gamma_peak: float
    peak_gap: float
    threshold: float


def _bisect(f, lo: float, hi: float, iterations: int = 80) -> float:
    flo = f(lo)
    for _ in range(iterations):
        mid = np.sqrt(lo * hi)  # bisect in log-gamma
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return float(np.sqrt(lo * hi))

def find_claim_interval(
    threshold: float = 0.01,
    gamma_lo: float = 1e-3,
    gamma_hi: float = 1e4,
    order: int = DEFAULT_QUAD_ORDER,
    scan_points: int = 160,
) -> ClaimInterval:
    """Locate by bisection where claimed_gap crosses the threshold.

    The gap is positive for every gamma > 0 and vanishes at both extremes,
    so the raw difference has no sign change; the reported interval is where
    the gap exceeds ``threshold`` bits, with its endpoints refined by
    bisection on claimed_gap - threshold and the peak by golden section.
    """
    grid = np.geomspace(gamma_lo, gamma_hi, scan_points)
    gaps = np.array([claimed_gap(g, order) for g in grid])
    above = gaps > threshold
    if not above.any():
        raise ValueError(f"gap never exceeds threshold {threshold}")
    first, last = int(np.argmax(above)), int(len(above) - 1 - np.argmax(above[::-1]))
    if first == 0 or last == len(grid) - 1:
        raise ValueError("scan range does not bracket the threshold crossings")

    def excess(g):
        return claimed_gap(g, order) - threshold

    lo = _bisect(excess, grid[first - 1], grid[first])
    hi = _bisect(excess, grid[last], grid[last + 1])

    # golden-section refinement of the peak around the best scanned point
    k = int(np.argmax(gaps))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c = b - (b - a) * invphi
        d = a + (b - a) * invphi
        if claimed_gap(c, order) < claimed_gap(d, order):
            a = c
        else:
            b = d
    peak = 0.5 * (a + b)
    return ClaimInterval(lo, hi, float(peak), claimed_gap(float(peak), order), threshold)
