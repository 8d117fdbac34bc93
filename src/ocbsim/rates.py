"""Rate accounting for the layered scheme: claimed composite rates versus
the exact chain-rule decomposition, swept over an SNR grid.

The claimed accounting assigns the axis stream half of the QPSK mutual
information and the sign stream a full BPSK rate at the same symbol SNR
(the r_c1_claimed and r_c2 columns of curves.csv). QPSK is two orthogonal
BPSK streams at half the symbol SNR, so every claimed column comes from the
one 1D curve mi_bpsk, at gamma and at gamma / 2:

    i_qpsk(gamma)      = 2 mi_bpsk(gamma / 2)
    r_j_claimed(gamma) = mi_bpsk(gamma / 2) + mi_bpsk(gamma)

The exact accounting, awgn_info.stream_mi_ocb, decomposes the joint
four-point rate by the chain rule I(V1,V2;Y) = I(V1;Y) + I(V2;Y|V1) (the
i_v1_exact and i_v2_exact columns); its total always equals the QPSK rate.
Its rotated four-point quadrature is the one 2D call per row. The 2D
awgn_info.mi_qpsk is not called here: it is verify's independent oracle
for both the decomposition and the chain-rule total.
The difference between the two accountings is reported, never asserted away.

The claimed gap over QPSK is unimodal in gamma; find_claim_interval leans
on that and finds its peak and both threshold crossings by bisection in log
gamma alone, on the fixed bracket [CLAIM_GAMMA_LO, CLAIM_GAMMA_HI].
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .awgn_info import (
    DEFAULT_QUAD_ORDER,
    GAMMA_MAX,
    gaussian_capacity,
    mi_bpsk,
    stream_mi_ocb,
)

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
        # the grid has one point exactly when its range is one value
        if self.points < 1 or (self.points == 1) != (self.gamma_max == self.gamma_min):
            if self.gamma_max == self.gamma_min:
                raise ValueError(f"gamma_min = gamma_max = {self.gamma_min:g} is one grid point: "
                                 f"use --points 1, got {self.points}")
            raise ValueError("need at least 2 grid points for a nontrivial range")
        if self.spacing not in ("log", "linear"):
            raise ValueError("spacing must be 'log' or 'linear'")


def gamma_grid(spec: SweepSpec) -> np.ndarray:
    if spec.spacing == "log":
        return np.geomspace(spec.gamma_min, spec.gamma_max, spec.points)
    return np.linspace(spec.gamma_min, spec.gamma_max, spec.points)


def rate_row(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> RateRow:
    i_b = mi_bpsk(gamma, order)
    r_c1 = mi_bpsk(gamma / 2.0, order)  # the claimed axis rate: QPSK's half, one BPSK stream at gamma / 2
    c_g = gaussian_capacity(gamma, "complex")
    i_v1, i_v2 = stream_mi_ocb(gamma, order)
    return RateRow(
        gamma=float(gamma),
        i_bpsk=i_b,
        i_qpsk=2.0 * r_c1,
        c_gauss_complex=c_g,
        r_c1_claimed=r_c1,
        r_c2=i_b,
        r_j_claimed=r_c1 + i_b,
        i_v1_exact=i_v1,
        i_v2_exact=i_v2,
        sum_exact=i_v1 + i_v2,
    )


def sweep(spec: SweepSpec) -> list[RateRow]:
    """One RateRow per grid point, in grid order."""
    return [rate_row(g, spec.quad_order) for g in gamma_grid(spec)]


def claimed_gap(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """The claimed composite rate less the QPSK rate: rate_row's r_j_claimed - i_qpsk, in bits.

    Both come from the 1D curve, i_qpsk = 2 mi_bpsk(gamma / 2), so the gap is
    mi_bpsk(gamma) - mi_bpsk(gamma / 2), the value rate_row's columns give up
    to one rounding of their sum and difference.
    """
    return mi_bpsk(gamma, order) - mi_bpsk(gamma / 2.0, order)


# the claim search's bracket in gamma; its gap at the lower end is the
# smallest threshold the search can place, and at the upper end it is 0.0
CLAIM_GAMMA_LO = 1e-3
CLAIM_GAMMA_HI = 1e4


@dataclass(frozen=True)
class ClaimInterval:
    """Where the claimed composite rate exceeds QPSK by more than a threshold."""

    gamma_lo: float
    gamma_hi: float
    gamma_peak: float
    peak_gap: float
    threshold: float


def _bisect(f, lo: float, hi: float) -> float:
    """Where f changes sign in [lo, hi], f(lo) giving the left side's sign:
    bisection in log gamma until no float lies strictly between the ends."""
    left = f(lo) > 0.0
    while True:
        mid = np.sqrt(lo) * np.sqrt(hi)  # the log-gamma midpoint, free of overflow
        if not lo < mid < hi:
            mid = lo + (hi - lo) / 2.0  # the ends are a few floats apart
            if not lo < mid < hi:
                return float(mid)
        if (f(mid) > 0.0) == left:
            lo = mid
        else:
            hi = mid


def find_claim_interval(threshold: float = 0.01, order: int = DEFAULT_QUAD_ORDER) -> ClaimInterval:
    """Where claimed_gap exceeds ``threshold`` bits, by three bisections in log gamma.

    The gap must be unimodal on the bracket [CLAIM_GAMMA_LO, CLAIM_GAMMA_HI].
    The peak is the root of claimed_gap(gamma r) - claimed_gap(gamma / r),
    r = 1 + 1e-6, over the whole bracket: the difference is symmetric in log
    gamma, so its root is the peak to O((r - 1)^2). Each endpoint is the root
    of claimed_gap - threshold on its own side of the peak; the gap is 0.0 at
    CLAIM_GAMMA_HI, so the upper crossing always lies inside. A threshold below
    the gap at CLAIM_GAMMA_LO, the smallest the search can place, is refused
    before the peak is sought, and so is one the peak gap does not exceed.
    """
    lo, hi = CLAIM_GAMMA_LO, CLAIM_GAMMA_HI
    floor = claimed_gap(lo, order)
    if threshold < floor:
        raise ValueError(f"threshold must be at least {floor} bits, the claimed gap at gamma = {lo:g} "
                         f"where the claim search starts; got {threshold:g}")

    def excess(g):
        return claimed_gap(g, order) - threshold

    r = 1.0 + 1e-6
    peak = _bisect(lambda g: claimed_gap(g * r, order) - claimed_gap(g / r, order), lo, hi)
    peak_gap = claimed_gap(peak, order)
    if not peak_gap > threshold:
        raise ValueError(f"gap never exceeds threshold {threshold}: the peak gap is {peak_gap:.6g} bits "
                         f"at gamma = {peak:.4g}")
    return ClaimInterval(_bisect(excess, lo, peak), _bisect(excess, peak, hi), peak, peak_gap, threshold)
