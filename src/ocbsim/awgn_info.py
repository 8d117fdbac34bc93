"""Mutual information of finite constellations over AWGN.

Conventions used throughout the package:
  - noise is circularly symmetric with variance ``sigma2`` PER REAL DIMENSION,
  - entropies and rates are in bits (log base 2),
  - SNR ``gamma`` always means symbol energy over per-dimension noise
    variance, E_s / sigma2, as a linear ratio.

An alphabet is one ``PointSet``: K points as a (K, D) array, D = 1 (real
amplitudes) or D = 2 (planar points), with their prior probabilities.

The Gauss-Hermite quadrature, ``mi_awgn`` (deterministic, the default), is
one kernel for D = 1 and D = 2. It works in noise units, so any noise
variance is safe; from the point offsets s_l - s_k, so the noise stays exact
next to any amplitude up to the SNR ceiling GAMMA_MAX; and from the split
of the Gaussian exponent by dimension: one exponentiated (K, K, N) factor
table per dimension, contracted over the points by one batched product for
all K components, so its working set is O(K N^2). The seeded Monte Carlo estimator, used for cross-validation,
exponentiates the max-shifted (K, m) exponent table of m samples once and
takes each sample's information density as the ratio of its in-group and
total column sums, so one estimator serves any grouping of the points.
Both backends leave points of zero prior out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "DEFAULT_QUAD_ORDER",
    "MIN_QUAD_ORDER",
    "MAX_QUAD_ORDER",
    "MIN_MC_SAMPLES",
    "GAMMA_MAX",
    "check_gamma",
    "NoiseModel",
    "PointSet",
    "PointSet1D",
    "PointSet2D",
    "MiResult",
    "noise_entropy",
    "mi_awgn",
    "mi_monte_carlo",
    "mi_monte_carlo_grouped",
    "gaussian_capacity",
    "mi_bpsk",
    "mi_qpsk",
    "stream_mi_ocb",
]

LN2 = np.log(2.0)

# 128 nodes per dimension holds the worst-case rotation dependence of the
# 2D rule below 1e-7 on the working SNR range; 64 lets it creep past 1e-6
# around gamma = 20 for axis-aligned four-point sets.
DEFAULT_QUAD_ORDER = 128
# numpy's hermgauss loses its weights past order 370: at 371 they sum to 0,
# from 372 on they are NaN (numpy 2.4)
MIN_QUAD_ORDER = 16
MAX_QUAD_ORDER = 370
MIN_MC_SAMPLES = 10_000
# Ceiling on a symbol SNR E_s / sigma2 (and, for the link, on the energy
# 2 alpha^2): the quadrature squares point offsets of up to 2 sqrt(gamma)
# and the demappers' LLRs grow with it, and past float range both give
# inf or NaN.
GAMMA_MAX = 1e300

_PROB_TOL = 1e-12
# quadrature rounding stays near 1e-14 bits; anything past this is an error
_CLIP_TOL = 1e-9
_MC_CHUNK = 1_000_000


@dataclass(frozen=True)
class NoiseModel:
    """AWGN with variance ``sigma2`` per real dimension."""

    sigma2: float

    def __post_init__(self):
        if not (self.sigma2 > 0.0) or not np.isfinite(self.sigma2):
            raise ValueError(f"noise variance must be positive, got {self.sigma2}")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))


def _check_probs(points: np.ndarray, probs: np.ndarray) -> None:
    if points.shape[0] == 0:
        raise ValueError("alphabet must contain at least one point")
    if points.shape[0] != probs.shape[0]:
        raise ValueError("points and probs must have the same length")
    if np.any(probs < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(probs.sum()) - 1.0) > _PROB_TOL:
        raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")


@dataclass(frozen=True, eq=False)
class PointSet:
    """Input alphabet: K points in D = 1 or 2 real dimensions with priors.

    ``points`` is stored as a (K, D) array; a flat sequence of K amplitudes
    is a D = 1 alphabet, and any shape but (K,), (K, 1) or (K, 2) is refused.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError(f"alphabet points must have shape (K,), (K, 1) or (K, 2), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float).reshape(-1))
        _check_probs(self.points, self.probs)

    @classmethod
    def uniform(cls, points) -> "PointSet":
        points = np.asarray(points, dtype=float)
        return cls(points, np.ones(len(points)) / len(points))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        return self.points.shape[1]


PointSet1D = PointSet2D = PointSet


@dataclass(frozen=True)
class MiResult:
    """A mutual-information value in bits/symbol with its provenance."""

    bits: float
    method: str  # "quadrature" or "monte_carlo"
    stderr: float = 0.0

    def __post_init__(self):
        if self.method not in ("quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


def noise_entropy(noise: NoiseModel) -> float:
    """Differential entropy of the noise, bits per real dimension."""
    return 0.5 * np.log2(2.0 * np.pi * np.e * noise.sigma2)


@lru_cache(maxsize=None)
def _gh_nodes(order: int):
    if not MIN_QUAD_ORDER <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be in [{MIN_QUAD_ORDER}, {MAX_QUAD_ORDER}], got {order}")
    return hermgauss(order)


def _log_terms(y, coords: np.ndarray, sigma2: float, log_probs=None) -> np.ndarray:
    """-(y - c_l)^2 / (2 sigma2) [+ ln pi_l], alphabet axis l first."""
    expand = (-1,) + (1,) * np.ndim(y)
    expo = y - coords.reshape(expand)
    expo *= expo
    expo /= -2.0 * sigma2
    if log_probs is not None:
        expo += log_probs.reshape(expand)
    return expo


def _log_joint(coords, points: np.ndarray, probs: np.ndarray, sigma2: float) -> np.ndarray:
    """ln pi_l - |y - s_l|^2 / (2 sigma2), alphabet axis l first; one array of y per dimension."""
    expo = _log_terms(coords[0], points[:, 0], sigma2, np.log(probs))
    for y, c in zip(coords[1:], points.T[1:]):
        expo += _log_terms(y, c, sigma2)
    return expo


def _clip_bits(bits: float, size: int) -> float:
    """Clamp rounding noise into [0, log2 K]; refuse a larger excursion."""
    top = float(np.log2(size))
    if not -_CLIP_TOL <= bits <= top + _CLIP_TOL:
        raise ValueError(
            f"quadrature gave {float(bits)} bits, outside [0, {top:g}] by more than {_CLIP_TOL:g}"
        )
    return float(min(max(bits, 0.0), top))


def mi_awgn(alphabet: PointSet, noise: NoiseModel, order: int = DEFAULT_QUAD_ORDER) -> MiResult:
    """I(X;Y) for Y = X + N over a D = 1 or D = 2 alphabet, by Gauss-Hermite quadrature.

    It works in noise units: the points are divided once by sqrt(2 sigma2),
    so the noise has variance 1/2 per dimension and the rule's bare nodes
    x_i are its samples, at any sigma2 a NoiseModel takes. With the mixture
    m(u) = sum_l pi_l exp(-|u - s_l|^2) in those units,
        I = -(sum_k pi_k E_x[ln m(s_k + x)] + D/2) / ln 2,
    on a tensor rule of N^D nodes; points of zero prior are left out. The
    mixture at s_k + (x_i, x_j) is sum_l pi_l A[k, l, i] B[k, l, j] times
    exp(shifts), with A and B each dimension's factor table over the offsets
    s_l - s_k, so one (K, N, K) @ (K, K, N) product gives it for every k; one
    log and the shifts added back follow. For D = 1, B is a column of ones.
    Peak memory is the (K, N, N) product, 2 MB at K = 16, N = 128.

    Where the two factors peak at different points, a product can underflow.
    Its own term l = k keeps it at least pi_k exp(-x_i^2 - x_j^2), so it
    underflows only where x_i^2 + x_j^2 > 708 + ln(1/pi_k), and is clamped
    there at the smallest normal float. Those nodes weigh w_i w_j < exp(-708)
    (w exp(x^2) < 1 at every order), so the clamp moves I by less than 1e-300
    bits.
    """
    keep = alphabet.probs > 0.0
    points, probs = alphabet.points[keep], alphabet.probs[keep]
    if np.all(points == points[0]):
        return MiResult(0.0, "quadrature")
    points = points / (np.sqrt(2.0) * noise.sigma)  # noise units; 2 sigma2 itself can overflow
    x, w = _gh_nodes(order)
    k, dims = points.shape
    factors = []  # per dimension: the (K, K, N) table, its (K, 1, N) shift, the weights
    for c in points.T:
        expo = _log_terms(x, (c - c[:, None]).reshape(-1), 0.5).reshape(k, k, -1)
        shift = expo.max(axis=1, keepdims=True)
        factors.append((np.exp(np.subtract(expo, shift, out=expo), out=expo), shift, w))
    factors += [(np.ones((k, k, 1)), np.zeros((k, 1, 1)), np.ones(1))] * (2 - dims)
    (a, shift_a, w_a), (b, shift_b, w_b) = factors
    a *= probs[:, None]  # the prior, along the point axis l
    mix = np.matmul(a.transpose(0, 2, 1), b)
    lnp = np.log(np.maximum(mix, np.finfo(float).tiny, out=mix), out=mix)
    lnp += shift_a.transpose(0, 2, 1)
    lnp += shift_b
    lnp = lnp @ w_b @ w_a
    bits = -(float(probs @ lnp) / np.pi ** (0.5 * dims) + 0.5 * dims) / LN2
    return MiResult(_clip_bits(bits, k), "quadrature")


# the benchmark's replay still calls the two names the kernel had per dimension
mi_awgn_1d = mi_awgn_2d = mi_awgn


def _mc_sample_stats(values_iter) -> tuple[float, float, int]:
    """Mean and standard error over chunks of per-sample values.

    Per-chunk (count, mean, M2) are merged with Chan et al.'s pairwise
    update, which stays accurate when the spread is tiny next to the mean.
    """
    count = 0
    mean = 0.0
    m2 = 0.0
    for chunk in values_iter:
        n_b = chunk.size
        mean_b = float(chunk.mean())
        dev = chunk - mean_b
        m2_b = float(dev @ dev)
        total = count + n_b
        delta = mean_b - mean
        mean += delta * (n_b / total)
        m2 += m2_b + delta * delta * (count * n_b / total)
        count = total
    var = m2 / count
    return mean, float(np.sqrt(var / count)), count


def mi_monte_carlo(alphabet: PointSet, noise: NoiseModel, samples: int, seed: int) -> MiResult:
    """Monte Carlo estimate of I(X;Y); deterministic for a fixed seed.

    The grouped estimator with every point in a group of its own: the
    sample mean of the information density log2 p(y|x) - log2 p(y).
    """
    return mi_monte_carlo_grouped(alphabet, np.arange(alphabet.size), noise, samples, seed)


def mi_monte_carlo_grouped(alphabet: PointSet, groups, noise: NoiseModel, samples: int, seed: int) -> MiResult:
    """Monte Carlo estimate of I(G;Y) where G labels groups of points.

    Direct estimator E[log2 p(y|g) - log2 p(y)] for a D = 1 or D = 2
    alphabet; used to cross-check the chain-rule split of a layered labeling
    against quadrature. Points of zero prior are left out. Each chunk of m
    samples draws the points from one uniform(m), as ``Generator.choice``
    with ``p`` does, then one normal(m) per dimension. Its (K, m) exponent
    table ln pi_l - |y_i - s_l|^2 / (2 sigma2), shifted by its column
    maximum and exponentiated in place, is E; for sample i in group g,
        ln(sum_{l in g} E[l, i] / sum_l E[l, i]) - ln pi_g,
    since the shift and the Gaussian normalisation cancel in the ratio. A
    degenerate alphabet yields exactly 0 +/- 0.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}, got {samples}")
    groups = np.asarray(groups, dtype=int).reshape(-1)
    if groups.shape[0] != alphabet.size:
        raise ValueError("groups must label every alphabet point")
    keep = alphabet.probs > 0.0
    points, probs = alphabet.points[keep], alphabet.probs[keep]
    _, group_of = np.unique(groups[keep], return_inverse=True)
    ln_pg = np.log(np.bincount(group_of, probs))
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    sigma = noise.sigma

    def chunks():
        left = samples
        while left > 0:
            m = min(left, _MC_CHUNK)
            k = np.searchsorted(cdf, rng.random(m), side="right")
            ys = [c[k] + rng.normal(0.0, sigma, m) for c in points.T]
            expo = _log_joint(ys, points, probs, noise.sigma2)
            expo -= expo.max(axis=0)
            np.exp(expo, out=expo)
            total = expo.sum(axis=0)
            g = group_of[k]
            expo *= group_of[:, None] == g
            yield (np.log(expo.sum(axis=0) / total) - ln_pg[g]) / LN2
            left -= m

    mean, stderr, _ = _mc_sample_stats(chunks())
    return MiResult(max(mean, 0.0), "monte_carlo", stderr)


def gaussian_capacity(snr: float, dims: str = "real") -> float:
    """Shannon capacity of the Gaussian-input AWGN channel at linear SNR."""
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    if dims == "real":
        return 0.5 * np.log2(1.0 + snr)
    if dims == "complex":
        return float(np.log2(1.0 + snr))
    raise ValueError(f"dims must be 'real' or 'complex', got {dims!r}")


def check_gamma(gamma: float) -> None:
    """Refuse a symbol SNR outside [0, GAMMA_MAX]: negative, NaN, inf or past the ceiling."""
    if not 0.0 <= gamma <= GAMMA_MAX:
        raise ValueError(f"gamma must be in [0, {GAMMA_MAX:g}], got {gamma}")


def _bpsk_points(gamma: float) -> PointSet:
    a = np.sqrt(gamma)
    return PointSet.uniform([-a, a])


def _qpsk_points(gamma: float) -> PointSet:
    # axis-aligned four points with symbol energy gamma (sigma2 = 1)
    c = np.sqrt(gamma / 2.0)
    return PointSet.uniform([(c, c), (c, -c), (-c, c), (-c, -c)])


def _ocb_points(alpha: float) -> PointSet:
    amp = np.sqrt(2.0) * alpha
    return PointSet.uniform([(amp, 0.0), (0.0, amp), (-amp, 0.0), (0.0, -amp)])


def mi_bpsk(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """BPSK mutual information as a function of gamma = E_s / sigma2 alone."""
    check_gamma(gamma)
    return mi_awgn(_bpsk_points(gamma), NoiseModel(1.0), order).bits


def mi_qpsk(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """QPSK mutual information as a function of gamma = E_s / sigma2 alone."""
    check_gamma(gamma)
    return mi_awgn(_qpsk_points(gamma), NoiseModel(1.0), order).bits


def stream_mi_ocb(alpha: float, noise: NoiseModel, order: int = DEFAULT_QUAD_ORDER) -> tuple[float, float]:
    """Chain-rule split of the layered labeling: (I(V1;Y), I(V2;Y|V1)).

    V1 selects the axis (the 2-vs-2 grouping of the rotated four-point set),
    V2 the sign on that axis. Given V1, the constellation decouples into a
    one-dimensional BPSK of energy 2*alpha^2, so
        I(V2;Y|V1) = mi_bpsk(2 alpha^2 / sigma2)
    exactly, and I(V1;Y) is the remainder of the joint four-point rate.
    Both 2 alpha^2 and gamma must be at most GAMMA_MAX, checked on alpha.
    """
    if not 0.0 < alpha <= np.sqrt(0.5 * GAMMA_MAX * min(1.0, noise.sigma2)):
        raise ValueError(f"alpha must be positive with 2 alpha^2 and 2 alpha^2 / sigma2 "
                         f"at most {GAMMA_MAX:g}, got {alpha}")
    gamma = 2.0 * alpha * alpha / noise.sigma2
    i_joint = mi_awgn(_ocb_points(alpha), noise, order).bits
    # not mi_bpsk: at alpha = sqrt(GAMMA_MAX / 2), gamma rounds one unit past the ceiling
    i_v2_given_v1 = mi_awgn(_bpsk_points(gamma), NoiseModel(1.0), order).bits
    i_v1 = max(i_joint - i_v2_given_v1, 0.0)
    return i_v1, i_v2_given_v1
