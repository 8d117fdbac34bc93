"""Rate accounting for the layered scheme: claimed composite rates versus
the exact chain-rule decomposition, plus superposition checks and sweeps.

The claimed accounting assigns the axis stream half of the QPSK mutual
information and the sign stream a full BPSK rate at the same symbol SNR
(the r_c1_claimed and r_c2 columns of curves.csv):

    r_j_claimed(gamma) = mi_qpsk(gamma) / 2 + mi_bpsk(gamma)

The exact accounting decomposes the joint four-point rate by the chain rule
I(V1,V2;Y) = I(V1;Y) + I(V2;Y|V1); its total always equals mi_qpsk(gamma).
The difference between the two accountings is reported, never asserted away.

The claimed gap over QPSK is unimodal in gamma; find_claim_interval leans
on that and finds its peak and both threshold crossings by bisection in log
gamma alone.
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
    alpha = np.sqrt(gamma / 2.0)  # sigma2 = 1, so 2 alpha^2 / sigma2 = gamma
    if alpha == 0.0:  # gamma = 0, or the smallest subnormal, whose half rounds to 0
        return 0.0, 0.0, 0.0
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


# the claim search's default bracket in gamma; its gap at the lower end is
# the smallest threshold the search can place
CLAIM_GAMMA_LO = 1e-3
CLAIM_GAMMA_HI = 1e4
# the lowest bracket end the search accepts: below it the gap, about
# gamma / (4 ln 2) bits, sinks under the quadrature's rounding
CLAIM_GAMMA_FLOOR = 1e-10


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


def find_claim_interval(
    threshold: float = 0.01,
    gamma_lo: float = CLAIM_GAMMA_LO,
    gamma_hi: float = CLAIM_GAMMA_HI,
    order: int = DEFAULT_QUAD_ORDER,
) -> ClaimInterval:
    """Where claimed_gap exceeds ``threshold`` bits, by three bisections in log gamma.

    The gap must be unimodal on the bracket 0 < gamma_lo < gamma_hi <=
    GAMMA_MAX. The peak is the root of claimed_gap(gamma r) - claimed_gap(gamma
    / r), r = 1 + 1e-6, over the whole bracket: the difference is symmetric in
    log gamma, so its root is the peak to O((r - 1)^2). Each endpoint is the
    root of claimed_gap - threshold on its own side of the peak, so the bracket
    must hold both crossings. A gamma_lo below CLAIM_GAMMA_FLOOR is refused:
    there the gap's sign test reads rounding, not the gap.
    """
    if not 0.0 < gamma_lo < gamma_hi <= GAMMA_MAX:
        raise ValueError(f"need 0 < gamma_lo < gamma_hi <= {GAMMA_MAX:g}, got [{gamma_lo}, {gamma_hi}]")
    if gamma_lo < CLAIM_GAMMA_FLOOR:
        raise ValueError(f"gamma_lo must be at least {CLAIM_GAMMA_FLOOR:g}, the rounding floor: below it "
                         f"the gap, about gamma / (4 ln 2) bits, sinks under the quadrature's rounding; "
                         f"got {gamma_lo:g}")

    def excess(g):
        return claimed_gap(g, order) - threshold

    r = 1.0 + 1e-6
    peak = _bisect(lambda g: claimed_gap(g * r, order) - claimed_gap(g / r, order), gamma_lo, gamma_hi)
    peak_gap = claimed_gap(peak, order)
    if not peak_gap > threshold:
        raise ValueError(f"gap never exceeds threshold {threshold}")
    if excess(gamma_lo) > 0.0 or excess(gamma_hi) > 0.0:
        raise ValueError("the range does not bracket the crossings")
    lo, hi = _bisect(excess, gamma_lo, peak), _bisect(excess, peak, gamma_hi)
    return ClaimInterval(lo, hi, peak, peak_gap, threshold)
