"""Mutual information of finite constellations over AWGN.

Conventions used throughout the package:
  - noise is circularly symmetric with variance ``sigma2`` PER REAL DIMENSION,
  - entropies and rates are in bits (log base 2),
  - SNR ``gamma`` always means symbol energy over per-dimension noise
    variance, E_s / sigma2, as a linear ratio.

Two backends are provided: Gauss-Hermite quadrature (deterministic, the
default) and a seeded Monte Carlo estimator used for cross-validation.

Both backends evaluate the output log-density ln p(y) of the K-point
Gaussian mixture the same way: the exponents ln pi_l - |y - s_l|^2 / 2 sigma2
are laid out with the alphabet axis l first and reduced by one max-shifted
log-sum-exp, in place. The 2D quadrature exploits the separable exponent:
per component k it adds a (K, N) real-axis table to a (K, N) imaginary-axis
table into one (K, N, N) array over (point l, node i, node j), so its working
set is O(K N^2) for an order-N rule and never the (K, K, N, N) joint grid.
The 1D quadrature evaluates all K components at once in a (K, K, N) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "DEFAULT_QUAD_ORDER",
    "NoiseModel",
    "PointSet1D",
    "PointSet2D",
    "MiResult",
    "noise_entropy",
    "mi_awgn_1d",
    "mi_awgn_2d",
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

_PROB_TOL = 1e-12
# quadrature rounding stays near 1e-14 bits; anything past this is an error
_CLIP_TOL = 1e-9
_MIN_MC_SAMPLES = 10_000
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
class PointSet1D:
    """Real input alphabet: amplitudes with prior probabilities."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float).reshape(-1))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float).reshape(-1))
        _check_probs(self.points, self.probs)

    @classmethod
    def uniform(cls, points) -> "PointSet1D":
        points = np.asarray(points, dtype=float).reshape(-1)
        return cls(points, np.full(points.shape[0], 1.0 / points.shape[0]))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def degenerate(self) -> bool:
        return bool(np.all(self.points == self.points[0]))


@dataclass(frozen=True, eq=False)
class PointSet2D:
    """Planar input alphabet: (re, im) points with prior probabilities."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("2D alphabet points must have shape (K, 2)")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float).reshape(-1))
        _check_probs(self.points, self.probs)

    @classmethod
    def uniform(cls, points) -> "PointSet2D":
        points = np.asarray(points, dtype=float)
        return cls(points, np.full(points.shape[0], 1.0 / points.shape[0]))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def degenerate(self) -> bool:
        return bool(np.all(self.points == self.points[0]))


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
    if order < 16:
        raise ValueError(f"quadrature order must be at least 16, got {order}")
    return hermgauss(order)


def _logsumexp0(expo: np.ndarray) -> np.ndarray:
    """ln sum_l exp(expo[l]) over the leading alphabet axis; overwrites ``expo``.

    The per-position maximum is finite because some point has a nonzero
    prior, so the shift keeps exp() in range.
    """
    peak = expo.max(axis=0)
    expo -= peak
    np.exp(expo, out=expo)
    return np.log(expo.sum(axis=0)) + peak


def _log_terms(y, coords: np.ndarray, sigma2: float, log_probs=None) -> np.ndarray:
    """-(y - c_l)^2 / (2 sigma2) [+ ln pi_l], alphabet axis l first."""
    expand = (-1,) + (1,) * np.ndim(y)
    expo = y - coords.reshape(expand)
    expo *= expo
    expo /= -2.0 * sigma2
    if log_probs is not None:
        expo += log_probs.reshape(expand)
    return expo


def _log_mixture_1d(y: np.ndarray, points: np.ndarray, probs: np.ndarray, sigma2: float) -> np.ndarray:
    """ln p(y) for the Gaussian-mixture output density, y of any shape."""
    expo = _log_terms(y, points, sigma2, np.log(probs))
    return _logsumexp0(expo) - 0.5 * np.log(2.0 * np.pi * sigma2)


def _log_mixture_2d(yr: np.ndarray, yi: np.ndarray, points: np.ndarray, probs: np.ndarray, sigma2: float) -> np.ndarray:
    """ln p(yr + j yi) for the planar mixture; yr and yi broadcast together."""
    expo = _log_terms(yr, points[:, 0], sigma2, np.log(probs)) + _log_terms(yi, points[:, 1], sigma2)
    return _logsumexp0(expo) - np.log(2.0 * np.pi * sigma2)


def _clip_bits(bits: float, size: int) -> float:
    """Clamp rounding noise into [0, log2 K]; refuse a larger excursion."""
    top = float(np.log2(size))
    if not -_CLIP_TOL <= bits <= top + _CLIP_TOL:
        raise ValueError(
            f"quadrature gave {bits!r} bits, outside [0, {top:g}] by more than {_CLIP_TOL:g}"
        )
    return float(min(max(bits, 0.0), top))


def mi_awgn_1d(alphabet: PointSet1D, noise: NoiseModel, order: int = DEFAULT_QUAD_ORDER) -> MiResult:
    """I(X;Y) for Y = X + N over a real alphabet, by Gauss-Hermite quadrature.

    The output entropy H(Y) is evaluated as -sum_k pi_k E_n[log2 p(s_k + n)]
    with one Gauss-Hermite rule per mixture component, all K components in
    one (K, K, N) array; I = H(Y) - H(N).
    """
    if alphabet.degenerate():
        return MiResult(0.0, "quadrature")
    x, w = _gh_nodes(order)
    n = np.sqrt(2.0 * noise.sigma2) * x
    y = alphabet.points[:, None] + n
    lnp = _log_mixture_1d(y, alphabet.points, alphabet.probs, noise.sigma2)
    h_y = -float(alphabet.probs @ (lnp @ w)) / np.sqrt(np.pi) / LN2
    bits = h_y - noise_entropy(noise)
    return MiResult(_clip_bits(bits, alphabet.size), "quadrature")


def mi_awgn_2d(alphabet: PointSet2D, noise: NoiseModel, order: int = DEFAULT_QUAD_ORDER) -> MiResult:
    """I(X;Y) for a planar alphabet with iid per-dimension noise.

    Tensor-product Gauss-Hermite over the two noise dimensions; H(N) counts
    both real dimensions. Per component k, ln p(s_k + n) on the N x N node
    grid comes from one (K, N, N) exponent array, the broadcast sum of a
    (K, N) real-axis and a (K, N) imaginary-axis table, reduced over the
    points in place and contracted with the weights as (lnp @ w) @ w. Peak
    memory is a few (K, N, N) float64 arrays, each 2 MB at K = 16, N = 128.
    """
    if alphabet.degenerate():
        return MiResult(0.0, "quadrature")
    x, w = _gh_nodes(order)
    n = np.sqrt(2.0 * noise.sigma2) * x
    acc = 0.0
    for (s_re, s_im), p_k in zip(alphabet.points, alphabet.probs):
        yr, yi = (s_re + n)[:, None], (s_im + n)[None, :]
        lnp = _log_mixture_2d(yr, yi, alphabet.points, alphabet.probs, noise.sigma2)
        acc += p_k * float((lnp @ w) @ w)
    h_y = -acc / np.pi / LN2
    bits = h_y - 2.0 * noise_entropy(noise)
    return MiResult(_clip_bits(bits, alphabet.size), "quadrature")


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


def mi_monte_carlo(alphabet, noise: NoiseModel, samples: int, seed: int) -> MiResult:
    """Monte Carlo estimate of I(X;Y); deterministic for a fixed seed.

    Sample mean of the information density log2 p(y|x) - log2 p(y), which
    averages to -sum_k pi_k E[log2 p(s_k + n)] minus H(N) but subtracts the
    noise entropy per sample, pairing away its variance (a degenerate
    alphabet yields exactly 0 +/- 0). Accepts a PointSet1D or PointSet2D.
    """
    if samples < _MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {_MIN_MC_SAMPLES}, got {samples}")
    two_dim = isinstance(alphabet, PointSet2D)
    rng = np.random.default_rng(seed)
    sigma = noise.sigma
    s2 = noise.sigma2

    def chunks():
        left = samples
        while left > 0:
            m = min(left, _MC_CHUNK)
            k = rng.choice(alphabet.size, size=m, p=alphabet.probs)
            if two_dim:
                nr = rng.normal(0.0, sigma, m)
                ni = rng.normal(0.0, sigma, m)
                yr = alphabet.points[k, 0] + nr
                yi = alphabet.points[k, 1] + ni
                lnp = _log_mixture_2d(yr, yi, alphabet.points, alphabet.probs, s2)
                ln_cond = -(nr * nr + ni * ni) / (2.0 * s2) - np.log(2.0 * np.pi * s2)
            else:
                n = rng.normal(0.0, sigma, m)
                y = alphabet.points[k] + n
                lnp = _log_mixture_1d(y, alphabet.points, alphabet.probs, s2)
                ln_cond = -(n * n) / (2.0 * s2) - 0.5 * np.log(2.0 * np.pi * s2)
            yield (ln_cond - lnp) / LN2
            left -= m

    bits, stderr, _ = _mc_sample_stats(chunks())
    return MiResult(max(bits, 0.0), "monte_carlo", stderr)


def mi_monte_carlo_grouped(alphabet: PointSet2D, groups, noise: NoiseModel, samples: int, seed: int) -> MiResult:
    """Monte Carlo estimate of I(G;Y) where G labels groups of points.

    Direct estimator E[log2 p(y|g) - log2 p(y)]; used to cross-check the
    chain-rule split of a layered labeling against quadrature.
    """
    if samples < _MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {_MIN_MC_SAMPLES}, got {samples}")
    groups = np.asarray(groups, dtype=int).reshape(-1)
    if groups.shape[0] != alphabet.size:
        raise ValueError("groups must label every alphabet point")
    rng = np.random.default_rng(seed)
    sigma = noise.sigma
    group_ids = np.unique(groups)
    # per-group conditional alphabets with renormalized priors
    cond = {}
    for g in group_ids:
        mask = groups == g
        pg = float(alphabet.probs[mask].sum())
        cond[int(g)] = (alphabet.points[mask], alphabet.probs[mask] / pg)

    def chunks():
        left = samples
        while left > 0:
            m = min(left, _MC_CHUNK)
            k = rng.choice(alphabet.size, size=m, p=alphabet.probs)
            yr = alphabet.points[k, 0] + rng.normal(0.0, sigma, m)
            yi = alphabet.points[k, 1] + rng.normal(0.0, sigma, m)
            lnp = _log_mixture_2d(yr, yi, alphabet.points, alphabet.probs, noise.sigma2)
            lnp_g = np.empty(m)
            gk = groups[k]
            for g in group_ids:
                sel = gk == g
                if np.any(sel):
                    pts_g, pr_g = cond[int(g)]
                    lnp_g[sel] = _log_mixture_2d(yr[sel], yi[sel], pts_g, pr_g, noise.sigma2)
            yield (lnp_g - lnp) / LN2
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


def _bpsk_points(gamma: float) -> PointSet1D:
    a = np.sqrt(gamma)
    return PointSet1D.uniform([-a, a])


def _qpsk_points(gamma: float) -> PointSet2D:
    # axis-aligned four points with symbol energy gamma (sigma2 = 1)
    c = np.sqrt(gamma / 2.0)
    return PointSet2D.uniform([(c, c), (c, -c), (-c, c), (-c, -c)])


def _ocb_points(alpha: float, probs=None) -> PointSet2D:
    amp = np.sqrt(2.0) * alpha
    pts = [(amp, 0.0), (0.0, amp), (-amp, 0.0), (0.0, -amp)]
    if probs is None:
        return PointSet2D.uniform(pts)
    return PointSet2D(np.asarray(pts), probs)


def mi_bpsk(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """BPSK mutual information as a function of gamma = E_s / sigma2 alone."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return mi_awgn_1d(_bpsk_points(gamma), NoiseModel(1.0), order).bits


def mi_qpsk(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """QPSK mutual information as a function of gamma = E_s / sigma2 alone."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return mi_awgn_2d(_qpsk_points(gamma), NoiseModel(1.0), order).bits


def stream_mi_ocb(alpha: float, noise: NoiseModel, order: int = DEFAULT_QUAD_ORDER) -> tuple[float, float]:
    """Chain-rule split of the layered labeling: (I(V1;Y), I(V2;Y|V1)).

    V1 selects the axis (the 2-vs-2 grouping of the rotated four-point set),
    V2 the sign on that axis. Given V1, the constellation decouples into a
    one-dimensional BPSK of energy 2*alpha^2, so
        I(V2;Y|V1) = mi_bpsk(2 alpha^2 / sigma2)
    exactly, and I(V1;Y) is the remainder of the joint four-point rate.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    gamma = 2.0 * alpha * alpha / noise.sigma2
    i_joint = mi_awgn_2d(_ocb_points(alpha), noise, order).bits
    i_v2_given_v1 = mi_bpsk(gamma, order)
    i_v1 = max(i_joint - i_v2_given_v1, 0.0)
    return i_v1, i_v2_given_v1
