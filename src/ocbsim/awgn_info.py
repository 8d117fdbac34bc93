"""Mutual information of finite constellations over AWGN.

Conventions used throughout the package:
  - noise is circularly symmetric with variance ``sigma2`` PER REAL DIMENSION,
  - entropies and rates are in bits (log base 2),
  - SNR ``gamma`` always means symbol energy over per-dimension noise
    variance, E_s / sigma2, as a linear ratio.

An alphabet is one ``PointSet``: K points as a (K, D) array, D = 1 (real
amplitudes) or D = 2 (planar points), with their prior probabilities.

The Gauss-Hermite quadrature, ``mi_awgn`` (deterministic, the default), is
one kernel for D = 1 and D = 2. An alphabet is checked once, at the public
boundary: ``mi_awgn`` takes a PointSet and a NoiseModel, leaves out points
of zero prior, gives 0 bits for one distinct point, and hands plain arrays
to ``_quadrature``, which checks nothing. The named curves ``mi_bpsk``,
``mi_qpsk`` and ``stream_mi_ocb`` take the SNR alone and check it, then call
``_quadrature`` directly on their fixed alphabets: the same bits as
``mi_awgn`` on the matching PointSet, and the rate audit's thousand-odd
calls build no PointSet. The kernel works
in noise units, so any noise variance is safe; from the point offsets
s_l - s_k, differenced before they are scaled, so the geometry stays exact
far from the origin and the noise stays exact next to any amplitude up to
the SNR ceiling GAMMA_MAX; and from the split of the Gaussian exponent by
dimension: one exponentiated (K, K, N) factor table per dimension,
contracted over the points by one batched product for all K components, so
its working set is O(K N^2). Its nodes are the roots of the Hermite
polynomial H_N, found by Newton's method on the three-term recurrence from
an asymptotic first guess, and its weights follow from H_{N-1} at the
roots: no eigensolver, so no rate path calls LAPACK, whose threaded kernels
would wake BLAS's worker pool (a test runs curves and verify with numpy's
eigensolvers replaced by a function that raises).

The rate rows use the 1D ``mi_bpsk`` (QPSK as 2 mi_bpsk(gamma / 2)) and
``stream_mi_ocb``; the 2D ``mi_qpsk`` and the Monte Carlo estimator are
verify's independent oracles for them.

The seeded Monte Carlo estimator, used for cross-validation, takes each
sample's information density as the ratio of its in-group and total sums of
the max-shifted, exponentiated joint terms, so one estimator serves any
grouping of the points. It does this arithmetic in cache-sized blocks of
samples, finds each sample's point by counting cdf entries rather than by a
search, takes each sample's group term as the column sum of the
exponentiated table masked to its group, and reduces without BLAS, so its
working set is O(m) in the m samples of a chunk and its result does not
depend on the block size. A chunk holds two sample rows: the uniforms,
which its per-sample values overwrite, and a 2D set's first noise
dimension, which the deviations from the mean overwrite. The last
dimension's noise is drawn a block at a time, the same draws as
one fill, into a buffer allocated once per estimate with the block tables.
It refuses a noise variance at which a sample's own exponent could
overflow, and takes any other exponent past float range as a term of 0.
Like the kernel, it adds the noise to the point offsets s_k - s_l, and it
returns its sample mean unclamped, so near 0 bits it may read slightly
below 0: ``_clip_bits`` is the one clamp. Both backends leave points of
zero prior out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LN2 = np.log(2.0)

# 128 nodes per dimension holds the worst-case rotation dependence of the
# 2D rule below 1e-7 on the working SNR range; 64 lets it creep past 1e-6
# around gamma = 20 for axis-aligned four-point sets.
DEFAULT_QUAD_ORDER = 128
# The weights 1/h_{N-1}(x_i)^2, with h_{N-1} scaled by its largest value,
# run out of float range past order 370: the smallest is 2.4e-308 there, and
# at 371 their sum overflows before they are normalised, leaving them all 0.
MIN_QUAD_ORDER = 16
MAX_QUAD_ORDER = 370
MIN_MC_SAMPLES = 10_000
# Ceiling on a symbol SNR E_s / sigma2 (and, for the link, on the energy
# 2 alpha^2): the quadrature squares point offsets of up to 2 sqrt(gamma)
# and the demappers' LLRs grow with it, and past float range both give
# inf or NaN.
GAMMA_MAX = 1e300

_PROB_TOL = 1e-12
_TINY = np.finfo(float).tiny
# quadrature rounding stays near 1e-14 bits; anything past this is an error
_CLIP_TOL = 1e-9
_MC_CHUNK = 1_000_000
# samples per pass of the density arithmetic: its (K, block) tables stay in cache
_MC_BLOCK = 8192


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


@dataclass(frozen=True, eq=False)
class PointSet:
    """Input alphabet: K points in D = 1 or 2 real dimensions with priors.

    ``points`` is stored as a (K, D) array; a flat sequence of K amplitudes
    is a D = 1 alphabet, and any shape but (K,), (K, 1) or (K, 2) is refused,
    as are a non-finite point and a prior outside [0, 1] or NaN.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError(f"alphabet points must have shape (K,), (K, 1) or (K, 2), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("alphabet points must be finite")
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if pts.shape[0] == 0:
            raise ValueError("alphabet must contain at least one point")
        if pts.shape[0] != probs.shape[0]:
            raise ValueError("points and probs must have the same length")
        if not ((probs >= 0.0) & (probs <= 1.0)).all():  # NaN fails both; K terms of at most 1 sum finite
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {float(probs.sum())}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, points) -> "PointSet":
        points = np.asarray(points, dtype=float)
        return cls(points, np.ones(len(points)) / len(points))

    @property
    def size(self) -> int:
        return self.points.shape[0]


# the benchmark's replay still calls the two names the alphabet had per dimension
PointSet1D = PointSet2D = PointSet


@dataclass(frozen=True)
class MiResult:
    """A mutual-information value in bits/symbol with its standard error (0 from quadrature)."""

    bits: float
    stderr: float = 0.0


@lru_cache(maxsize=None)
def _gh_nodes(order: int):
    """Gauss-Hermite nodes and weights, for the weight exp(-x^2), in increasing node order.

    The nodes are the roots of the orthonormal Hermite polynomial h_n,
    n = order, each found by Newton's method from x = sqrt(2n + 1) cos(theta),
    where theta - sin(theta) cos(theta) = pi (4k - 1) / (4n + 2) for the k-th
    largest root (Townsend, Trogdon and Olver, IMA J. Numer. Anal. 36, 2016).
    Newton solves that too, on the half theta <= pi/2 and mirrored, from
    theta = (3t/2)^(1/3), below the root since 2 theta^3 / 3 bounds the left
    side. One pass of the recurrence gives h_n and h_{n-1}, and
    h_n' = sqrt(2n) h_{n-1}. Three steps bring every guess to rounding; the
    rest is numpy's hermgauss after its eigensolver: one more Newton step,
    weights 1 / h_{n-1}^2 with h_{n-1} scaled by its largest magnitude, nodes
    and weights symmetrised, and the weights normalised to sum to sqrt(pi).
    """
    if not MIN_QUAD_ORDER <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be in [{MIN_QUAD_ORDER}, {MAX_QUAD_ORDER}], got {order}")
    # h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1} on u_k = h_k / s_k,
    # with s_{k+1} = sqrt(k/(k+1)) s_{k-1}, reads u_{k+1} = c_k x u_k - u_{k-1}:
    # two array operations a degree
    s = [1.0, 1.0]
    for k in range(1, order):
        s.append(math.sqrt(k / (k + 1)) * s[k - 1])
    c = np.sqrt(2.0 / np.arange(1, order + 1)) * np.divide(s[:-1], s[1:])

    def h_pair(x):
        prev, cur = np.zeros_like(x), np.full_like(x, np.pi ** -0.25)
        for row in np.multiply.outer(c, x):
            row *= cur
            row -= prev
            prev, cur = cur, row
        return cur * s[order], prev * s[order - 1]

    t = np.pi * (4 * np.arange(1, order + 1) - 1) / (4 * order + 2)
    half = np.minimum(t, np.pi - t)
    theta = np.cbrt(1.5 * half)
    for _ in range(4):
        theta -= (theta - np.sin(theta) * np.cos(theta) - half) / (2.0 * np.sin(theta) ** 2)
    x = np.sqrt(2 * order + 1) * np.copysign(np.cos(theta), np.pi / 2 - t)[::-1]
    for _ in range(4):  # the fourth step is hermgauss's
        h_n, h_m = h_pair(x)
        x -= h_n / (h_m * np.sqrt(2.0 * order))
    fm = h_pair(x)[1]
    fm /= np.abs(fm).max()
    w = 1.0 / (fm * fm)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return x, w


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

    The checked entry: the alphabet and noise come as a PointSet and a
    NoiseModel, points of zero prior are left out, and an alphabet of one
    distinct point carries 0 bits; the rest is ``_quadrature``. An offset
    past float range in noise units, at a tiny noise variance or between
    points far apart (any two at sigma2 = 5e-324, or points 1e200 apart at
    sigma2 = 1), makes an exponent -inf: a term of exactly 0, without a warning.
    """
    keep = alphabet.probs > 0.0
    points, probs = alphabet.points[keep], alphabet.probs[keep]
    if np.all(points == points[0]):
        return MiResult(0.0)
    with np.errstate(over="ignore"):  # not in the kernel, which the named curves call bare
        return MiResult(_quadrature(points, probs, noise.sigma, order))


@lru_cache(maxsize=None)
def _unit_factor(k: int):
    """The D = 1 alphabet's second dimension: a (K, K, 1) table of ones, no shift, weight 1."""
    table, shift, weight = np.ones((k, k, 1)), np.zeros((k, 1, 1)), np.ones(1)
    for arr in (table, shift, weight):
        arr.flags.writeable = False
    return table, shift, weight


def _quadrature(points: np.ndarray, probs: np.ndarray, sigma: float, order: int) -> float:
    """I(X;Y) in bits for (K, D) points with positive priors, at noise sigma per dimension.

    The kernel behind ``mi_awgn`` and the named curves, which call it with
    their own fixed alphabets; it checks nothing, so its callers pass at
    least two distinct points, priors summing to 1 and a positive sigma.

    It works in noise units: the point offsets s_l - s_k are taken first and
    then divided by sqrt(2 sigma2), so they round as the plain differences do
    however far the alphabet sits from the origin, the noise has variance
    1/2 per dimension, and the rule's bare nodes x_i are its samples, at any
    sigma2 a NoiseModel takes. With the mixture
    m(u) = sum_l pi_l exp(-|u - s_l|^2) in those units, and E_x[|x|^2] = D/2,
        I = -sum_k pi_k E_x[ln m(s_k + x) + |x|^2] / ln 2,
    on a tensor rule of N^D nodes. With
    o = s_l - s_k, the exponent -|x - o|^2 + |x|^2 is o . (2x - o), 0 for
    l = k, so I is not the difference of two numbers near D/2, and at low SNR
    it rounds several times less. The term at s_k + (x_i, x_j) is
    ln sum_l pi_l A[k, l, i] B[k, l, j] plus the shifts, with A and B each
    dimension's factor table, exp(o (2x - o) - shift), so one
    (K, N, K) @ (K, K, N) product gives the sums for every k; one log and the
    shifts added back follow. For D = 1, B is a column of ones. Peak memory
    is the (K, N, N) product, 2 MB at K = 16, N = 128.

    Where the two factors peak at different points, a product can underflow.
    Its own term l = k keeps it at least pi_k exp(-shift_i - shift_j), and
    each shift is at most x^2, so it underflows only where
    x_i^2 + x_j^2 > 708 + ln(1/pi_k), and is clamped there at the smallest
    normal float. Those nodes weigh w_i w_j < exp(-708) (w exp(x^2) < 1 at
    every order), so the clamp moves I by less than 1e-300 bits.
    """
    scale = np.sqrt(0.5) * sigma  # sqrt(2 sigma2) / 2; 2 sigma2 itself can overflow
    x, w = _gh_nodes(order)
    k, dims = points.shape
    factors = []  # per dimension: the (K, K, N) table, its (K, 1, N) shift, the weights
    for c in 0.5 * points.T:  # halved, so no difference overflows
        offsets = ((c - c[:, None]) / scale)[..., None]  # s_l - s_k in noise units
        expo = (2.0 * x - offsets) * offsets
        shift = expo.max(axis=1, keepdims=True)
        factors.append((np.exp(np.subtract(expo, shift, out=expo), out=expo), shift, w))
    if dims == 1:
        factors.append(_unit_factor(k))
    (a, shift_a, w_a), (b, shift_b, w_b) = factors
    a *= probs[:, None]  # the prior, along the point axis l
    mix = np.matmul(a.transpose(0, 2, 1), b)
    lnp = np.log(np.maximum(mix, _TINY, out=mix), out=mix)
    lnp += shift_a.transpose(0, 2, 1)
    lnp += shift_b
    lnp = lnp @ w_b @ w_a
    bits = -float(probs @ lnp) / np.pi ** (0.5 * dims) / LN2
    return _clip_bits(bits, k)


# the benchmark's replay still calls the two names the kernel had per dimension
mi_awgn_1d = mi_awgn_2d = mi_awgn


def _mc_sample_stats(chunks) -> tuple[float, float, int]:
    """Mean and standard error over chunks of per-sample values.

    Each chunk is a pair (values, spare): the values, which are only read,
    and an array of their length that takes their deviations from the chunk
    mean. Per-chunk (count, mean, M2) are merged with Chan et al.'s pairwise
    update, which stays accurate when the spread is tiny next to the mean.
    """
    count = 0
    mean = 0.0
    m2 = 0.0
    for chunk, spare in chunks:
        n_b = chunk.size
        mean_b = float(chunk.mean())
        dev = np.subtract(chunk, mean_b, out=spare)
        m2_b = float(np.einsum("i,i->", dev, dev))  # not dev @ dev: a BLAS ddot wakes its thread pool
        total = count + n_b
        delta = mean_b - mean
        mean += delta * (n_b / total)
        m2 += m2_b + delta * delta * (count * n_b / total)
        count = total
    var = m2 / count
    return mean, float(np.sqrt(var / count)), count


def _point_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") by counting, for cdf[-1] = 1.0 and u < 1."""
    return np.sum(cdf[:-1, None] <= u, axis=0)


def mi_monte_carlo(alphabet: PointSet, noise: NoiseModel, samples: int, seed: int) -> MiResult:
    """Monte Carlo estimate of I(X;Y); deterministic for a fixed seed.

    The grouped estimator with every point in a group of its own: the
    sample mean of the information density log2 p(y|x) - log2 p(y).
    """
    return mi_monte_carlo_grouped(alphabet, np.arange(alphabet.size), noise, samples, seed)


def mi_monte_carlo_grouped(alphabet: PointSet, groups, noise: NoiseModel, samples: int, seed: int) -> MiResult:
    """Monte Carlo estimate of I(G;Y), G given by ``groups``: a 1-D integer array, a label per point.

    Direct estimator E[log2 p(y|g) - log2 p(y)] for a D = 1 or D = 2
    alphabet; used to cross-check the chain-rule split of a layered labeling
    against quadrature. Points of zero prior are left out. Each chunk of m
    samples draws one uniform(m) u, then one normal(0, sigma, m) per
    dimension: the noise as sigma times ``standard_normal``, the same values,
    since ``normal`` returns 0 + sigma z for the same z. The chunk holds two
    rows of m: the uniforms, and a 2D set's first noise dimension. The last
    dimension's noise is drawn a block at a time, just before that block's
    arithmetic, into one block-sized buffer. numpy fills its ziggurat
    normals one after another from the bit generator, so the blocks make up
    the same draws as one fill of m. Sample i's point is the number of cdf
    entries at or below u_i, the index ``Generator.choice`` with ``p`` takes
    (cdf[-1] is 1.0 and u_i < 1). The density is then computed in blocks of
    _MC_BLOCK samples, so each (K, block) table stays in cache: the exponent table
    ln pi_l - |y_i - s_l|^2 / (2 sigma2), from y_i - s_l = (s_k - s_l) + n_i
    so a large common offset loses no noise ({1e16, 1e16 + 2} has the rate
    of {0, 2}), shifted by its column maximum and
    exponentiated in place, is E; for sample i in group g,
        ln(sum_{l in g} E[l, i] / sum_l E[l, i]) - ln pi_g,
    since the shift and the Gaussian normalisation cancel in the ratio; the
    group sum is the column sum of E masked to the sample's group. Every
    operation is per sample, so the values do not depend on the block size.
    Chunks merge by Chan et al.'s update, and no reduction calls BLAS, whose
    threaded dot product would wake its worker pool. The working set is
    O(m), and no chunk-sized array is allocated beyond the two rows: each
    block's values overwrite its uniforms once they are read, and the
    deviations from the mean take the second row, after a 2D set's
    first-dimension noise. The two (K, block) tables and the noise buffer
    are allocated once per estimate. One allocation a chunk is also one the
    allocator can keep for the next estimate, which then touches no fresh
    pages. The mean is not clamped, so near 0 bits it may read below 0. A
    degenerate alphabet yields exactly 0 +/- 0.

    A noise variance above float max / 150 is refused, since a sample's own
    term (sigma z)^2 could overflow there. Any other exponent past float
    range becomes -inf without a warning: a term of exactly 0 in the sums.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}, got {samples}")
    # numpy's ziggurat draws |z| < r + sqrt(2 * 53 ln 2) < 12.23, with r = 3.654 the
    # start of its tail and 2^-53 the least 1 - U of its uniforms; so (sigma z)^2 < 150
    # sigma2 keeps each sample's own term, and with it its column's largest, finite
    sigma2_max = np.finfo(float).max / 150.0
    if noise.sigma2 > sigma2_max:
        raise ValueError(f"the Monte Carlo estimator needs a noise variance of at most "
                         f"{sigma2_max:g}, got {noise.sigma2:g}")
    groups = np.asarray(groups)
    if groups.shape != (alphabet.size,) or not np.issubdtype(groups.dtype, np.integer):
        raise ValueError(f"groups must be a 1-D array of {alphabet.size} integer labels, one per point")
    keep = alphabet.probs > 0.0
    points, probs = alphabet.points[keep], alphabet.probs[keep]
    _, group_of = np.unique(groups[keep], return_inverse=True)
    ln_p, ln_pg = np.log(probs)[:, None], np.log(np.bincount(group_of, probs))
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    sigma = noise.sigma
    dims = points.shape[1]
    width = min(samples, _MC_BLOCK)
    # the exponent table, and the terms of a further dimension, then the masked densities
    expo_table, term_table = np.empty((2, points.shape[0], width))
    last = np.empty(width)  # the last dimension's noise, one block at a time

    def chunks():
        left = samples
        while left > 0:
            m = min(left, _MC_CHUNK)
            # the uniforms, until their block's values replace them, and a 2D
            # set's first noise dimension, until the deviations replace it
            values, spare = np.empty((2, m))
            rng.random(out=values)
            if dims == 2:
                rng.standard_normal(out=spare)
                spare *= sigma
            for lo in range(0, m, _MC_BLOCK):
                blk = slice(lo, lo + _MC_BLOCK)
                k = _point_index(cdf, values[blk])
                n = k.size
                noise_last = rng.standard_normal(out=last[:n])
                noise_last *= sigma
                draws = (spare[blk], noise_last)[-dims:]
                expo = expo_table[:, :n]
                for c, d, terms in zip(points.T, draws, (expo, term_table[:, :n])):
                    np.subtract(np.take(c, k), c[:, None], out=terms)  # s_k - s_l, then the noise
                    terms += d
                    terms *= terms
                    terms /= -2.0 * noise.sigma2
                    expo += ln_p if terms is expo else terms
                expo -= expo.max(axis=0)
                np.exp(expo, out=expo)
                total = expo.sum(axis=0)
                g = np.take(group_of, k)
                # the masked column sum of each sample's group; the values overwrite the uniforms
                term = np.sum(np.multiply(expo, group_of[:, None] == g, out=term_table[:, :n]),
                              axis=0, out=values[blk])
                term /= total
                np.log(term, out=term)
                term -= np.take(ln_pg, g)
                term /= LN2
            yield values, spare
            left -= m

    with np.errstate(over="ignore"):  # an exponent past float range is -inf: a term of exactly 0
        mean, stderr, _ = _mc_sample_stats(chunks())
    return MiResult(mean, stderr)


def gaussian_capacity(snr: float, dims: str = "real") -> float:
    """Shannon capacity of the Gaussian-input AWGN channel at linear SNR."""
    if not snr >= 0.0:  # NaN too
        raise ValueError(f"snr must be nonnegative, got {snr}")
    if dims == "real":
        return 0.5 * np.log2(1.0 + snr)
    if dims == "complex":
        return float(np.log2(1.0 + snr))
    raise ValueError(f"dims must be 'real' or 'complex', got {dims!r}")


def _check_gamma(gamma: float) -> None:
    """Refuse a symbol SNR outside [0, GAMMA_MAX]: negative, NaN, inf or past the ceiling."""
    if not 0.0 <= gamma <= GAMMA_MAX:
        raise ValueError(f"gamma must be in [0, {GAMMA_MAX:g}], got {gamma}")


# the named curves' uniform priors; the kernel only reads them
_HALVES = np.full(2, 0.5)
_QUARTERS = np.full(4, 0.25)
_HALVES.flags.writeable = _QUARTERS.flags.writeable = False


def _bpsk_bits(gamma: float, order: int) -> float:
    """BPSK at symbol SNR gamma and unit noise: the points -sqrt(gamma), sqrt(gamma)."""
    a = np.sqrt(gamma)
    if a == 0.0:  # one distinct point
        return 0.0
    return _quadrature(np.array([[-a], [a]]), _HALVES, 1.0, order)


def mi_bpsk(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """BPSK mutual information as a function of gamma = E_s / sigma2 alone."""
    _check_gamma(gamma)
    return _bpsk_bits(gamma, order)


def mi_qpsk(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """QPSK mutual information as a function of gamma = E_s / sigma2 alone.

    The axis-aligned 2D quadrature: verify's oracle for the rate rows' QPSK
    column, which is the 1D form 2 mi_bpsk(gamma / 2).
    """
    _check_gamma(gamma)
    # axis-aligned four points with symbol energy gamma (sigma2 = 1)
    c = np.sqrt(gamma / 2.0)
    if c == 0.0:  # one distinct point
        return 0.0
    return _quadrature(np.array([(c, c), (c, -c), (-c, c), (-c, -c)]), _QUARTERS, 1.0, order)


def stream_mi_ocb(gamma: float, order: int = DEFAULT_QUAD_ORDER) -> tuple[float, float]:
    """Chain-rule split of the layered labeling at gamma = E_s / sigma2: (I(V1;Y), I(V2;Y|V1)).

    V1 selects the axis (the 2-vs-2 grouping of the rotated four-point set of
    energy gamma at sigma2 = 1), V2 the sign on that axis. Given V1, the
    constellation decouples into a one-dimensional BPSK of energy 2 alpha^2,
    alpha = sqrt(gamma / 2), so I(V2;Y|V1) = mi_bpsk(2 alpha^2) exactly, and
    I(V1;Y) is the remainder of the joint four-point rate, passed through
    ``_clip_bits`` into [0, 1], the range of a binary V1.
    """
    _check_gamma(gamma)
    alpha = np.sqrt(gamma / 2.0)
    if alpha == 0.0:  # gamma = 0, or the smallest subnormal, whose half rounds to 0
        return 0.0, 0.0
    amp = np.sqrt(2.0) * alpha  # positive, so the four points are distinct
    points = np.array([(amp, 0.0), (0.0, amp), (-amp, 0.0), (0.0, -amp)])
    i_joint = _quadrature(points, _QUARTERS, 1.0, order)
    # at 2 alpha^2, not gamma: the two differ by a rounding at 28 of the default
    # grid's 60 points, and at GAMMA_MAX 2 alpha^2 is one unit past the ceiling
    i_v2_given_v1 = _bpsk_bits(2.0 * alpha * alpha, order)
    return _clip_bits(i_joint - i_v2_given_v1, 2), i_v2_given_v1
