"""Mutual information of finite constellations over AWGN.

Conventions used throughout the package:
  - noise is circularly symmetric with variance ``sigma2`` PER REAL DIMENSION,
  - entropies and rates are in bits (log base 2),
  - SNR ``gamma`` always means symbol energy over per-dimension noise
    variance, E_s / sigma2, as a linear ratio.

An alphabet is one ``PointSet``: K points as a (K, D) array, D = 1 (real
amplitudes) or D = 2 (planar points), with their prior probabilities.

Two backends are provided: Gauss-Hermite quadrature (deterministic, the
default) and a seeded Monte Carlo estimator used for cross-validation.

Both build the same exponent table, ln pi_l - |y - s_l|^2 / 2 sigma2 with the
alphabet axis l first, as the sum of one per-coordinate table per real
dimension. The quadrature, ``mi_awgn``, is one kernel for D = 1 and D = 2:
per component k it evaluates that table at the noise nodes n over the
offsets s_l - s_k, on the tensor node grid (N,) or (N, N), reduces it over
the points by one max-shifted log-sum-exp in place, and contracts it with
the weights once per dimension. Its working set is O(K N^D) for an order-N
rule, never the (K, K, N, N) joint grid, and working from offsets keeps the
noise exact next to any amplitude up to the SNR ceiling GAMMA_MAX. The
Monte Carlo estimator exponentiates the max-shifted (K, m) table of a chunk
of m samples once and takes each sample's information density as a ratio
of its column sums, so one estimator serves any grouping of the points.
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

    def degenerate(self) -> bool:
        return bool(np.all(self.points == self.points[0]))


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


def _log_joint(coords, points: np.ndarray, probs: np.ndarray, sigma2: float) -> np.ndarray:
    """ln pi_l - |y - s_l|^2 / (2 sigma2), alphabet axis l first.

    ``coords`` holds one array per real dimension of y; they broadcast
    together, so the per-dimension tables are summed out of place.
    """
    expo = _log_terms(coords[0], points[:, 0], sigma2, np.log(probs))
    for y, c in zip(coords[1:], points.T[1:]):
        expo = expo + _log_terms(y, c, sigma2)
    return expo


def _log_mixture(coords, points: np.ndarray, probs: np.ndarray, sigma2: float) -> np.ndarray:
    """ln p(y) for the Gaussian-mixture output density of a (K, D) alphabet."""
    expo = _log_joint(coords, points, probs, sigma2)
    return _logsumexp0(expo) - 0.5 * len(coords) * np.log(2.0 * np.pi * sigma2)


def _clip_bits(bits: float, size: int) -> float:
    """Clamp rounding noise into [0, log2 K]; refuse a larger excursion."""
    top = float(np.log2(size))
    if not -_CLIP_TOL <= bits <= top + _CLIP_TOL:
        raise ValueError(
            f"quadrature gave {bits!r} bits, outside [0, {top:g}] by more than {_CLIP_TOL:g}"
        )
    return float(min(max(bits, 0.0), top))


def mi_awgn(alphabet: PointSet, noise: NoiseModel, order: int = DEFAULT_QUAD_ORDER) -> MiResult:
    """I(X;Y) for Y = X + N over a D = 1 or D = 2 alphabet, by Gauss-Hermite quadrature.

    H(Y) = -sum_k pi_k E_n[log2 p(s_k + n)], one tensor-product rule of N^D
    nodes per component k; I = H(Y) - D H(N). The mixture at s_k + n is
    evaluated as the mixture over the offsets s_l - s_k at n, so the noise
    keeps full precision next to any amplitude. Peak memory is a few
    (K, N^D) float64 arrays, each 2 MB at K = 16, N = 128, D = 2.
    """
    if alphabet.degenerate():
        return MiResult(0.0, "quadrature")
    x, w = _gh_nodes(order)
    n = np.sqrt(2.0 * noise.sigma2) * x
    dims = alphabet.dims
    grid = (n,) if dims == 1 else (n[:, None], n[None, :])
    acc = 0.0
    for s_k, p_k in zip(alphabet.points, alphabet.probs):
        lnp = _log_mixture(grid, alphabet.points - s_k, alphabet.probs, noise.sigma2)
        for _ in range(dims):
            lnp = lnp @ w
        acc += p_k * float(lnp)
    h_y = -acc / np.pi ** (0.5 * dims) / LN2
    bits = h_y - dims * noise_entropy(noise)
    return MiResult(_clip_bits(bits, alphabet.size), "quadrature")


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
    against quadrature. Each chunk of m samples draws the point indices,
    then one normal(m) per dimension in order. Its (K, m) exponent table
    ln pi_l - |y_i - s_l|^2 / (2 sigma2) is shifted by its column maximum
    and exponentiated in place once, giving E; with ``member`` the (G, K)
    group-indicator matrix, the density of sample i in group g is
        ln((member @ E)[g, i] / sum_l E[l, i]) - ln pi_g,
    since the shift and the Gaussian normalisation cancel in the ratio. A
    degenerate alphabet yields exactly 0 +/- 0.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}, got {samples}")
    groups = np.asarray(groups, dtype=int).reshape(-1)
    if groups.shape[0] != alphabet.size:
        raise ValueError("groups must label every alphabet point")
    labels, group_of = np.unique(groups, return_inverse=True)
    member = (group_of == np.arange(labels.size)[:, None]).astype(float)
    ln_pg = np.log(member @ alphabet.probs)
    rng = np.random.default_rng(seed)
    sigma = noise.sigma

    def chunks():
        left = samples
        while left > 0:
            m = min(left, _MC_CHUNK)
            k = rng.choice(alphabet.size, size=m, p=alphabet.probs)
            ys = [c[k] + rng.normal(0.0, sigma, m) for c in alphabet.points.T]
            expo = _log_joint(ys, alphabet.points, alphabet.probs, noise.sigma2)
            expo -= expo.max(axis=0)
            np.exp(expo, out=expo)
            g = group_of[k]
            ratio = (member @ expo)[g, np.arange(m)] / expo.sum(axis=0)
            yield (np.log(ratio) - ln_pg[g]) / LN2
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
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return mi_awgn(_bpsk_points(gamma), NoiseModel(1.0), order).bits


def mi_qpsk(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """QPSK mutual information as a function of gamma = E_s / sigma2 alone."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return mi_awgn(_qpsk_points(gamma), NoiseModel(1.0), order).bits


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
    i_joint = mi_awgn(_ocb_points(alpha), noise, order).bits
    i_v2_given_v1 = mi_bpsk(gamma, order)
    i_v1 = max(i_joint - i_v2_given_v1, 0.0)
    return i_v1, i_v2_given_v1
