"""Mutual-information engine: closed-form anchors, frozen Monte Carlo
oracles, backend agreement, and structural properties."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.special import logsumexp

from ocbsim import awgn_info as ai, cli

# Frozen from an independent Monte Carlo estimator (10^7 draws each, fixed
# seeds, run outside this package); bands are 3 standard errors.
V1_MC, V1_SE = 0.485955, 2.57e-4  # BPSK MI at sigma2 = 1
W1_MC, W1_SE = 0.095005, 1.53e-4  # axis-stream MI at alpha = 1/sqrt2, sigma2 = 1

INV2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# noise model


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_noise_model_rejects_nonpositive_variance(bad):
    with pytest.raises(ValueError):
        ai.NoiseModel(bad)


# ---------------------------------------------------------------------------
# alphabet containers


def test_pointset_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        ai.PointSet([1.0, -1.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        ai.PointSet([1.0, -1.0], [1.5, -0.5])
    with pytest.raises(ValueError):
        ai.PointSet([], [])
    with pytest.raises(ValueError):
        ai.PointSet.uniform([])


def test_pointset2d_needs_two_columns():
    with pytest.raises(ValueError):
        ai.PointSet(np.zeros((4, 3)), np.full(4, 0.25))


@pytest.mark.parametrize("points,dims", [
    ([1.0, -1.0, 0.5], 1),
    ([[1.0], [-1.0], [0.5]], 1),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], 2),
])
def test_pointset_stores_k_by_d(points, dims):
    alphabet = ai.PointSet.uniform(points)
    assert alphabet.points.shape == (3, dims)
    assert alphabet.size == 3


@pytest.mark.parametrize("shape", [(), (2, 2, 1), (4, 3), (4, 0)])
def test_pointset_refuses_other_shapes(shape):
    with pytest.raises(ValueError):
        ai.PointSet(np.zeros(shape), np.full(4, 0.25))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("points,probs,match", [
    ([np.nan, 1.0], [0.5, 0.5], "points must be finite"),  # gave nan +/- nan from Monte Carlo
    ([np.inf, 0.0], [0.5, 0.5], "points must be finite"),  # warned of inf - inf in both backends
    ([-np.inf, 0.0], [1.0, 0.0], "points must be finite"),
    ([-1.0, 1.0], [np.nan, 1.0], r"must lie in \[0, 1\]"),  # passed the sum check: 0 bits
    ([-1.0, 1.0], [np.nan, np.nan], r"must lie in \[0, 1\]"),  # an IndexError in mi_awgn
    ([-1.0, 1.0], [np.inf, 0.0], r"must lie in \[0, 1\]"),
    ([-1.0, 1.0], [1e308, 1e308], r"must lie in \[0, 1\]"),  # the sum overflowed
    ([-1.0, 1.0], [0.25, 0.5], "must sum to 1, got 0.75$"),  # a plain number, not np.float64(0.75)
], ids=["nan-point", "inf-point", "minus-inf-point", "nan-prior", "nan-priors", "inf-prior",
        "huge-priors", "sum-named-plainly"])
def test_pointset_refuses_non_finite_points_and_priors(points, probs, match, dims):
    pts = np.array(points)[:, None] * np.ones(dims)
    with pytest.raises(ValueError, match=match):
        ai.PointSet(pts, np.array(probs))


# ---------------------------------------------------------------------------
# quadrature backend, 1D


def test_single_point_alphabet_carries_no_information():
    r = ai.mi_awgn(ai.PointSet.uniform([0.0]), ai.NoiseModel(1.0))
    assert r.bits == 0.0


def test_bpsk_vanishing_snr():
    r = ai.mi_awgn(ai.PointSet.uniform([1.0, -1.0]), ai.NoiseModel(1e6))
    assert 0.0 <= r.bits < 1e-4


def test_bpsk_sigma2_one_matches_frozen_mc_oracle():
    r = ai.mi_awgn(ai.PointSet.uniform([1.0, -1.0]), ai.NoiseModel(1.0))
    assert abs(r.bits - V1_MC) < 3.0 * V1_SE


def test_quadrature_order_floor():
    with pytest.raises(ValueError):
        ai.mi_awgn(ai.PointSet.uniform([1.0, -1.0]), ai.NoiseModel(1.0), order=8)


# ---------------------------------------------------------------------------
# quadrature backend, 2D


def test_square_constellation_splits_into_two_bpsk_dimensions():
    for alpha, s2 in [(1.0, 1.0), (0.5, 0.25), (2.0, 1.3)]:
        pts = [(alpha, alpha), (alpha, -alpha), (-alpha, alpha), (-alpha, -alpha)]
        two_d = ai.mi_awgn(ai.PointSet.uniform(pts), ai.NoiseModel(s2)).bits
        one_d = ai.mi_awgn(ai.PointSet.uniform([alpha, -alpha]), ai.NoiseModel(s2)).bits
        assert abs(two_d - 2.0 * one_d) < 1e-6


def test_rotated_four_point_set_has_the_qpsk_rate():
    # axis-aligned points vs the 45-degree square at equal symbol energy
    a = np.sqrt(2.0) * INV2
    axis = ai.PointSet.uniform([(a, 0.0), (0.0, a), (-a, 0.0), (0.0, -a)])
    c = a / np.sqrt(2.0)
    square = ai.PointSet.uniform([(c, c), (c, -c), (-c, c), (-c, -c)])
    noise = ai.NoiseModel(1.0)
    assert abs(ai.mi_awgn(axis, noise).bits - ai.mi_awgn(square, noise).bits) < 1e-6


def test_four_point_set_saturates_at_two_bits():
    pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    r = ai.mi_awgn(ai.PointSet.uniform(pts), ai.NoiseModel(1e-8))
    assert abs(r.bits - 2.0) < 1e-6


@pytest.mark.parametrize("gamma", [1e20, 1e100, 1e300])
@pytest.mark.parametrize("points", [
    [1.0, -1.0],
    [(INV2, INV2), (INV2, -INV2), (-INV2, INV2), (-INV2, -INV2)],
    [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
], ids=["bpsk", "qpsk", "rotated"])
def test_quadrature_saturates_exactly_up_to_the_snr_ceiling(gamma, points):
    # symbol energy gamma at sigma2 = 1, as the named curves build them; unit noise
    # next to amplitudes of 1e150 is kept exact only by working from point offsets
    alphabet = ai.PointSet.uniform(np.sqrt(gamma) * np.array(points))
    r = ai.mi_awgn(alphabet, ai.NoiseModel(1.0))
    assert abs(r.bits - np.log2(alphabet.size)) < 1e-12


def test_degenerate_2d_alphabet_is_zero():
    pts = [(0.3, -0.2), (0.3, -0.2)]
    assert ai.mi_awgn(ai.PointSet.uniform(pts), ai.NoiseModel(0.5)).bits == 0.0


# ---------------------------------------------------------------------------
# Monte Carlo backend


def test_mc_same_seed_is_bit_identical():
    alphabet = ai.PointSet.uniform([1.0, -1.0])
    noise = ai.NoiseModel(1.0)
    a = ai.mi_monte_carlo(alphabet, noise, 20_000, seed=42)
    b = ai.mi_monte_carlo(alphabet, noise, 20_000, seed=42)
    assert a.bits == b.bits and a.stderr == b.stderr


def test_mc_agrees_with_quadrature_on_bpsk():
    alphabet = ai.PointSet.uniform([1.0, -1.0])
    noise = ai.NoiseModel(1.0)
    mc = ai.mi_monte_carlo(alphabet, noise, 400_000, seed=7)
    exact = ai.mi_awgn(alphabet, noise).bits
    assert abs(mc.bits - exact) < 3.0 * mc.stderr


def test_mc_agrees_with_quadrature_in_2d():
    pts = [(0.7, 0.7), (0.7, -0.7), (-0.7, 0.7), (-0.7, -0.7)]
    alphabet = ai.PointSet.uniform(pts)
    noise = ai.NoiseModel(0.8)
    mc = ai.mi_monte_carlo(alphabet, noise, 400_000, seed=19)
    exact = ai.mi_awgn(alphabet, noise).bits
    assert abs(mc.bits - exact) < 3.0 * mc.stderr


def test_mc_single_point_is_exactly_zero_with_tiny_stderr():
    r = ai.mi_monte_carlo(ai.PointSet.uniform([0.7]), ai.NoiseModel(1.0), 50_000, seed=5)
    assert r.bits == 0.0
    assert r.stderr < 1e-3


def test_mc_sample_floor():
    with pytest.raises(ValueError):
        ai.mi_monte_carlo(ai.PointSet.uniform([1.0, -1.0]), ai.NoiseModel(1.0), 5000, seed=0)


def test_grouped_mc_matches_axis_stream_quadrature():
    a = np.sqrt(2.0) * INV2
    pts = ai.PointSet.uniform([(a, 0.0), (0.0, a), (-a, 0.0), (0.0, -a)])
    noise = ai.NoiseModel(1.0)
    grouped = ai.mi_monte_carlo_grouped(pts, [0, 1, 0, 1], noise, 400_000, seed=23)
    i_v1, _ = ai.stream_mi_ocb(1.0)
    assert abs(grouped.bits - i_v1) < 3.0 * grouped.stderr


def test_grouped_mc_validates_labels():
    # one integer label per point, in a flat sequence: nothing truncated, flattened or overflowed
    pts = ai.PointSet.uniform([(1.0, 0.0), (-1.0, 0.0)])
    for labels in ([0, 1, 0], [0.5, 0.7], [2**70, 0], [[0], [1]], [True, False]):
        with pytest.raises(ValueError, match="integer labels"):
            ai.mi_monte_carlo_grouped(pts, labels, ai.NoiseModel(1.0), 20_000, seed=0)


# ---------------------------------------------------------------------------
# Gaussian reference capacity


def test_gaussian_capacity_values():
    assert ai.gaussian_capacity(0.0, "real") == 0.0
    assert ai.gaussian_capacity(0.0, "complex") == 0.0
    assert ai.gaussian_capacity(3.0, "real") == pytest.approx(1.0, abs=1e-12)
    assert ai.gaussian_capacity(3.0, "complex") == pytest.approx(2.0, abs=1e-12)


def test_gaussian_capacity_domain():
    with pytest.raises(ValueError):
        ai.gaussian_capacity(-0.1, "real")
    with pytest.raises(ValueError, match="nonnegative"):
        ai.gaussian_capacity(np.nan, "complex")
    with pytest.raises(ValueError):
        ai.gaussian_capacity(1.0, "quaternion")


# ---------------------------------------------------------------------------
# named modulation curves


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_qpsk_decomposes_into_two_half_energy_bpsk(gamma):
    assert abs(ai.mi_qpsk(gamma) - 2.0 * ai.mi_bpsk(gamma / 2.0)) < 1e-6


def test_bpsk_limits():
    assert ai.mi_bpsk(0.0) == 0.0
    assert abs(ai.mi_bpsk(1e4) - 1.0) < 1e-4


def test_bpsk_frozen_oracle_value():
    assert abs(ai.mi_bpsk(1.0) - V1_MC) < 3.0 * V1_SE


def test_modulation_curves_reject_negative_snr():
    with pytest.raises(ValueError):
        ai.mi_bpsk(-1.0)
    with pytest.raises(ValueError):
        ai.mi_qpsk(-0.5)


@pytest.mark.parametrize("gamma", [1e308, np.inf, np.nan])
@pytest.mark.parametrize("curve", [
    ai.mi_bpsk,
    ai.mi_qpsk,
    ai.stream_mi_ocb,
], ids=["bpsk", "qpsk", "stream_split"])
def test_named_curves_refuse_an_snr_past_the_ceiling(curve, gamma):
    # refused at the entry point, naming the ceiling, before any quadrature
    with pytest.raises(ValueError, match="at most 1e\\+300|\\[0, 1e\\+300\\]"):
        curve(gamma)


@pytest.mark.parametrize("alpha,sigma2", [(1e154, 1e10), (1.0, 1e-301)])
def test_stream_split_refuses_an_energy_or_snr_past_the_ceiling(alpha, sigma2):
    # 2 alpha^2 = 2e308 overflows to an SNR of inf; 2 alpha^2 / sigma2 = 2e301
    with pytest.raises(ValueError, match="\\[0, 1e\\+300\\]"):
        ai.stream_mi_ocb(2.0 * alpha * alpha / sigma2)


def test_named_curves_at_the_snr_ceiling():
    assert abs(ai.mi_bpsk(ai.GAMMA_MAX) - 1.0) < 1e-12
    assert abs(ai.mi_qpsk(ai.GAMMA_MAX) - 2.0) < 1e-12
    # alpha = sqrt(GAMMA_MAX / 2), whose 2 alpha^2 rounds one unit past the ceiling
    i_v1, i_v2 = ai.stream_mi_ocb(ai.GAMMA_MAX)
    assert abs(i_v1 - 1.0) < 1e-12 and abs(i_v2 - 1.0) < 1e-12


# the named curves call the quadrature kernel on their own arrays; the checked
# entry on the matching PointSet and NoiseModel must give the same bits
SPLIT_GAMMAS = [0.0, 5e-324, 1e-300, 1e-3, 0.5, 2.096, 40.0, 1e6, 1e300]


@pytest.mark.parametrize("order", [16, 64, 128, 370])
@pytest.mark.parametrize("gamma", SPLIT_GAMMAS)
def test_named_curves_are_the_checked_entry_bit_for_bit(gamma, order):
    unit = ai.NoiseModel(1.0)
    a, c = np.sqrt(gamma), np.sqrt(gamma / 2.0)
    bpsk = ai.mi_awgn(ai.PointSet.uniform([-a, a]), unit, order).bits
    qpsk = ai.mi_awgn(ai.PointSet.uniform([(c, c), (c, -c), (-c, c), (-c, -c)]), unit, order).bits
    assert ai.mi_bpsk(gamma, order) == bpsk
    assert ai.mi_qpsk(gamma, order) == qpsk


@pytest.mark.parametrize("order", [16, 64, 128, 370])
@pytest.mark.parametrize("sigma2", [1.0, 0.35])
@pytest.mark.parametrize("gamma", SPLIT_GAMMAS)
def test_stream_split_is_the_checked_entry_bit_for_bit(gamma, sigma2, order):
    # the checked entry at amplitude alpha and noise sigma2 of SNR gamma = 2 alpha^2 / sigma2
    noise = ai.NoiseModel(sigma2)
    alpha = np.sqrt(gamma * sigma2 / 2.0)
    amp = np.sqrt(2.0) * alpha
    joint = ai.mi_awgn(ai.PointSet.uniform([(amp, 0.0), (0.0, amp), (-amp, 0.0), (0.0, -amp)]), noise, order)
    b = np.sqrt(2.0 * alpha * alpha / sigma2)
    sign = ai.mi_awgn(ai.PointSet.uniform([-b, b]), ai.NoiseModel(1.0), order).bits
    i_v1, i_v2 = ai.stream_mi_ocb(gamma, order)
    if sigma2 == 1.0:
        assert (i_v1, i_v2) == (ai._clip_bits(joint.bits - sign, 2), sign)
    else:
        # a function of gamma alone: off sigma2 = 1 the kernel's division by sigma
        # rounds, so the split agrees to a few rounding units, not bit for bit
        assert i_v1 == pytest.approx(ai._clip_bits(joint.bits - sign, 2), rel=0.0, abs=4 * np.finfo(float).eps)
        assert i_v2 == pytest.approx(sign, rel=0.0, abs=4 * np.finfo(float).eps)
    assert 0.0 <= i_v1 <= 1.0


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -1.0, -5e-324, np.nextafter(ai.GAMMA_MAX, np.inf)])
def test_named_curves_still_refuse_a_bad_snr(gamma):
    for curve in (ai.mi_bpsk, ai.mi_qpsk, ai.stream_mi_ocb):
        with pytest.raises(ValueError, match="gamma must be in"):
            curve(gamma)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma2,bits", [(1e306, 0.0), (1.7e308, 0.0), (1e-300, 1.0),
                                         (1e-310, 1.0), (1e-320, 1.0), (5e-324, 1.0)])
def test_quadrature_at_the_extremes_of_the_noise_variance(sigma2, bits):
    # the kernel works in noise units, so no sqrt(2 sigma2) node is ever squared; below
    # 1e-300 the offsets' o (2x - o) overflows to -inf, a factor of exactly 0
    r = ai.mi_awgn(ai.PointSet.uniform([1.0, -1.0]), ai.NoiseModel(sigma2))
    assert abs(r.bits - bits) <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points,sigma2,bits", [
    ([-1.0, 1e300, 0.0], 5e-324, np.log2(3.0)),
    ([1e308, -1e308], 1.0, 1.0),
    ([1e200, -1e200], 1.0, 1.0),
    ([(INV2, INV2), (INV2, -INV2), (-INV2, INV2), (-INV2, -INV2)], 1e-300, 1.9999999999999993),
])
def test_quadrature_takes_an_offset_past_float_range_as_a_term_of_0(points, sigma2, bits):
    # the offsets in noise units overflow to inf, and o (2x - o) to -inf: each such
    # factor is exactly 0, and no overflow warning escapes; QPSK at 1e-300 keeps its value
    assert ai.mi_awgn(ai.PointSet.uniform(points), ai.NoiseModel(sigma2)).bits == bits


@pytest.mark.parametrize("offset", [1e8, 1e12, 1e16])
@pytest.mark.parametrize("dims", [1, 2])
def test_quadrature_keeps_the_geometry_of_an_alphabet_far_from_the_origin(offset, dims):
    # the offsets are differenced before scaling, so {o, o + 2} rounds as {0, 2} does
    centred, shifted = ([0.0, 2.0], [offset, offset + 2.0]) if dims == 1 else (
        [(0.0, 0.0), (2.0, 0.0)], [(offset, offset), (offset + 2.0, offset)])
    noise = ai.NoiseModel(1.0)
    want = ai.mi_awgn(ai.PointSet.uniform(centred), noise).bits
    assert abs(ai.mi_awgn(ai.PointSet.uniform(shifted), noise).bits - want) <= 1e-15


@pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
def test_bpsk_curve_is_scale_invariant(sigma2):
    # same gamma from different (energy, noise) pairs, same value
    gamma = 1.7
    amp = np.sqrt(gamma * sigma2)
    direct = ai.mi_awgn(ai.PointSet.uniform([amp, -amp]), ai.NoiseModel(sigma2)).bits
    assert direct == pytest.approx(ai.mi_bpsk(gamma), abs=1e-9)


# ---------------------------------------------------------------------------
# layered stream split


@pytest.mark.parametrize("alpha,sigma2", [(INV2, 1.0), (1.0, 0.5), (0.4, 2.0), (2.0, 1.0)])
def test_stream_split_obeys_the_chain_rule(alpha, sigma2):
    gamma = 2.0 * alpha**2 / sigma2
    i_v1, i_v2 = ai.stream_mi_ocb(gamma)
    assert abs(i_v1 + i_v2 - ai.mi_qpsk(gamma)) < 1e-6
    assert i_v1 >= 0.0 and i_v2 >= 0.0


def test_stream_split_saturates_noiselessly():
    i_v1, i_v2 = ai.stream_mi_ocb(1e4)
    assert abs(i_v1 - 1.0) < 1e-6
    assert abs(i_v2 - 1.0) < 1e-6


def test_axis_stream_frozen_oracle_value():
    i_v1, _ = ai.stream_mi_ocb(1.0)
    assert abs(i_v1 - W1_MC) < 3.0 * W1_SE


def test_conditional_stream_is_plain_bpsk():
    # BPSK at energy 2 alpha^2, which here rounds one unit below gamma itself
    gamma = 2.0 * 0.9**2 / 0.7
    alpha = np.sqrt(gamma / 2.0)
    i_v1, i_v2 = ai.stream_mi_ocb(gamma)
    assert i_v2 == ai.mi_bpsk(2.0 * alpha * alpha)


# ---------------------------------------------------------------------------
# grid-level structure


def test_curves_are_monotone_and_bounded_on_the_grid():
    grid = np.geomspace(0.01, 100.0, 40)
    b = np.array([ai.mi_bpsk(g) for g in grid])
    q = np.array([ai.mi_qpsk(g) for g in grid])
    c = np.array([ai.gaussian_capacity(g, "complex") for g in grid])
    assert np.all(np.diff(b) >= -1e-12)
    assert np.all(np.diff(q) >= -1e-12)
    assert np.all((b >= 0.0) & (b <= 1.0))
    assert np.all((q >= 0.0) & (q <= 2.0))
    assert np.all(q <= c + 1e-6)


@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5), st.floats(0.05, 5.0))
@settings(max_examples=25, deadline=None)
def test_mi_is_between_zero_and_log_alphabet_size(points, sigma2):
    alphabet = ai.PointSet.uniform(points)
    r = ai.mi_awgn(alphabet, ai.NoiseModel(sigma2))
    assert 0.0 <= r.bits <= np.log2(alphabet.size) + 1e-9


# points, noise variances and labels at and past the ends of float range
EXTREME_POINTS = [0.0, -0.0, 1.0, -1.0, 1e-320, 1e150, 1e300, 1e308, -1e308, np.inf, -np.inf, np.nan]
EXTREME_SIGMA2 = [5e-324, 1e-310, 1e-300, 1.0, 1e300, 1e306, 1e307, np.finfo(float).max]
# each Monte Carlo sample's value rounds by a few ulps, the same way in every sample
# where the density ratio is constant, so no standard error covers it; the largest
# excursion past [0, log2 K] in 30,000 random alphabets was 2.6e-16 bits
MC_ROUNDING = 1e-14


@st.composite
def extreme_alphabets(draw):
    """(points, priors, group labels, whether the labels must be refused) for K = 1..4
    points in D = 1 or 2 dimensions."""
    k, dims = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    points = [[draw(st.sampled_from(EXTREME_POINTS)) for _ in range(dims)] for _ in range(k)]
    weights = [draw(st.sampled_from([0.0, 1.0, 3.0, np.nan])) for _ in range(k)]
    total = sum(weights)
    probs = [w / total for w in weights] if total else [1.0 / k] * k
    labels = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=k, max_size=k))
    # int64 labels, or K labels of which one is a float or past int64, or them nested
    bad = draw(st.sampled_from([None, None, None, 0.5, 2**70, "nested"]))
    if bad is not None:
        labels = [labels] if bad == "nested" else labels[1:] + [bad]
    return points, probs, labels, bad is not None


# outermost, so a failing example is reported: as an error, hypothesis's own
# DeprecationWarning from mypy_extensions.TypedDict ends the run in INTERNALERROR
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@seed(20190423)
@settings(max_examples=1500, deadline=None)
@given(extreme_alphabets(), st.sampled_from(EXTREME_SIGMA2))
def test_public_entries_give_a_bounded_rate_or_refuse(case, sigma2):
    points, probs, labels, bad_labels = case
    try:
        alphabet = ai.PointSet(np.array(points), np.array(probs))
    except ValueError:
        return
    noise = ai.NoiseModel(sigma2)
    top = np.log2(alphabet.size)
    try:
        r = ai.mi_awgn(alphabet, noise)
        assert np.isfinite(r.bits) and 0.0 <= r.bits <= top and r.stderr == 0.0
    except ValueError:
        pass
    try:
        r = ai.mi_monte_carlo_grouped(alphabet, labels, noise, 10_000, 0)
    except ValueError:
        return
    assert not bad_labels
    assert np.isfinite(r.bits) and np.isfinite(r.stderr)
    slack = 5.0 * r.stderr + MC_ROUNDING
    assert -slack <= r.bits <= top + slack


# ---------------------------------------------------------------------------
# kernels against an independent reference
#
# The reference is the per-component algorithm the kernels replaced: one
# scipy logsumexp over a trailing alphabet axis per mixture component, and
# two-pass sample statistics. It shares no code with the package.

LN2 = np.log(2.0)


def _ref_log_mixture(ys, coords, probs, sigma2):
    d2 = sum((y[..., None] - c) ** 2 for y, c in zip(ys, coords))
    expo = -d2 / (2.0 * sigma2) + np.log(probs)
    return logsumexp(expo, axis=-1) - 0.5 * len(ys) * np.log(2.0 * np.pi * sigma2)


def _ref_mi_quadrature(points, probs, sigma2, order):
    """Unclipped Gauss-Hermite I(X;Y) for a (K,) or (K, 2) alphabet."""
    x, w = hermgauss(order)
    n = np.sqrt(2.0 * sigma2) * x
    dims = 1 if points.ndim == 1 else 2
    coords = [points] if dims == 1 else [points[:, 0], points[:, 1]]
    grids = [n] if dims == 1 else np.meshgrid(n, n, indexing="ij")
    wts = w / np.sqrt(np.pi) if dims == 1 else np.outer(w, w) / np.pi
    h_y = 0.0
    for k, p_k in enumerate(probs):
        ys = [c[k] + g for c, g in zip(coords, grids)]
        h_y += -p_k * float((wts * _ref_log_mixture(ys, coords, probs, sigma2)).sum()) / LN2
    return h_y - 0.5 * dims * np.log2(2.0 * np.pi * np.e * sigma2)


def _random_alphabet(seed, dims):
    """K in 1..16 points, a non-uniform prior with one zero, sigma2 in [1e-2, 1e2]."""
    rng = np.random.default_rng(seed)
    k = 1 + seed % 16
    points = rng.normal(0.0, 1.5, (k,) if dims == 1 else (k, 2))
    probs = rng.dirichlet(np.full(k, 0.7))
    if k > 1:
        probs[rng.integers(k)] = 0.0
        probs /= probs.sum()
    return points, probs, float(10.0 ** rng.uniform(-2.0, 2.0))


def _clipped(bits, k):
    return min(max(bits, 0.0), np.log2(k))


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("seed", range(16))
def test_1d_quadrature_matches_reference(seed):
    points, probs, sigma2 = _random_alphabet(seed, 1)
    got = ai.mi_awgn(ai.PointSet(points, probs), ai.NoiseModel(sigma2)).bits
    want = _clipped(_ref_mi_quadrature(points, probs, sigma2, ai.DEFAULT_QUAD_ORDER), points.size)
    assert abs(got - want) < 1e-12


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("seed", range(16))
def test_2d_quadrature_matches_reference(seed):
    points, probs, sigma2 = _random_alphabet(seed, 2)
    order = 32 + 32 * (seed % 4)
    got = ai.mi_awgn(ai.PointSet(points, probs), ai.NoiseModel(sigma2), order).bits
    want = _clipped(_ref_mi_quadrature(points, probs, sigma2, order), len(points))
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("c", [30.0, 37.6, 45.0])
def test_2d_quadrature_where_the_underflow_clamp_engages(c):
    # At order 370 the two factors of thousands of node pairs peak at different
    # points, so their product underflows and is clamped before the log.
    points = np.array([(0.0, 0.0), (c, -c), (-c, c)])
    probs = np.full(3, 1.0 / 3.0)
    got = ai.mi_awgn(ai.PointSet(points, probs), ai.NoiseModel(1.0), ai.MAX_QUAD_ORDER).bits
    want = _clipped(_ref_mi_quadrature(points, probs, 1.0, ai.MAX_QUAD_ORDER), 3)
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("points,groups", [
    ([1.5, -0.5, 0.25, 3.0], [0, 1, 1, 2]),
    ([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)], [0, 1, 0, 1]),
], ids=["1d", "2d"])
def test_zero_prior_points_are_left_out(points, groups):
    # no filterwarnings marker: the point's ln 0 must never be taken
    points, groups = np.array(points), np.array(groups)
    probs = np.array([0.3, 0.0, 0.5, 0.2])
    keep = probs > 0.0
    full, reduced = ai.PointSet(points, probs), ai.PointSet(points[keep], probs[keep])
    noise = ai.NoiseModel(0.8)
    assert abs(ai.mi_awgn(full, noise).bits - ai.mi_awgn(reduced, noise).bits) < 1e-12
    assert ai.mi_monte_carlo(full, noise, 20_000, 3) == ai.mi_monte_carlo(reduced, noise, 20_000, 3)
    assert (ai.mi_monte_carlo_grouped(full, groups, noise, 20_000, 4)
            == ai.mi_monte_carlo_grouped(reduced, groups[keep], noise, 20_000, 4))


@pytest.mark.parametrize("points", [
    [(INV2, INV2), (INV2, -INV2), (-INV2, INV2), (-INV2, -INV2)],
    [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
], ids=["qpsk", "rotated"])
def test_2d_quadrature_at_the_snr_ceiling_on_the_largest_rule(points):
    alphabet = ai.PointSet.uniform(np.sqrt(ai.GAMMA_MAX) * np.array(points))
    r = ai.mi_awgn(alphabet, ai.NoiseModel(1.0), ai.MAX_QUAD_ORDER)
    assert abs(r.bits - 2.0) < 1e-12


def _ref_two_pass(values):
    values = np.concatenate(values)
    dev = values - values.mean()
    return values.mean(), np.sqrt((dev @ dev) / values.size / values.size)


def _ref_monte_carlo(points, probs, groups, sigma2, samples, seed, chunk):
    """Same draws as the package estimators; groups=None is the plain one."""
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(sigma2)
    dims = 1 if points.ndim == 1 else 2
    coords = [points] if dims == 1 else [points[:, 0], points[:, 1]]
    values = []
    left = samples
    while left > 0:
        m = min(left, chunk)
        k = rng.choice(len(probs), size=m, p=probs)
        noise = [rng.normal(0.0, sigma, m) for _ in coords]
        ys = [c[k] + nz for c, nz in zip(coords, noise)]
        lnp = _ref_log_mixture(ys, coords, probs, sigma2)
        if groups is None:
            ln_num = -sum(nz * nz for nz in noise) / (2.0 * sigma2) - 0.5 * dims * np.log(2.0 * np.pi * sigma2)
        else:
            ln_num = np.empty(m)
            for g in np.unique(groups):
                sel, mask = groups[k] == g, groups == g
                pr_g = probs[mask] / probs[mask].sum()
                ln_num[sel] = _ref_log_mixture([y[sel] for y in ys], [c[mask] for c in coords], pr_g, sigma2)
        values.append((ln_num - lnp) / LN2)
        left -= m
    return _ref_two_pass(values)


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("seed,dims,grouped", [
    (3, 1, False), (6, 1, False), (9, 2, False), (15, 2, False), (5, 2, True), (11, 2, True),
])
def test_monte_carlo_matches_reference(seed, dims, grouped, monkeypatch):
    # a small chunk size makes the estimators merge several chunks
    monkeypatch.setattr(ai, "_MC_CHUNK", 7_000)
    points, probs, sigma2 = _random_alphabet(seed, dims)
    noise = ai.NoiseModel(sigma2)
    if grouped:
        groups = np.arange(len(probs)) % 3
        got = ai.mi_monte_carlo_grouped(ai.PointSet(points, probs), groups, noise, 20_000, seed)
    else:
        groups = None
        got = ai.mi_monte_carlo(ai.PointSet(points, probs), noise, 20_000, seed)
    bits, stderr = _ref_monte_carlo(points, probs, groups, sigma2, 20_000, seed, 7_000)
    assert abs(got.bits - bits) < 1e-12
    assert abs(got.stderr - stderr) < 1e-12


@pytest.mark.parametrize("points,probs,groups", [
    ([1.5, -0.5, 0.25, 3.0], [0.1, 0.4, 0.3, 0.2], None),
    ([(1.0, 0.5), (0.0, 1.0), (-1.2, 0.0), (0.3, -1.0), (2.0, 2.0)], [0.3, 0.1, 0.2, 0.25, 0.15], None),
    ([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)], [0.25] * 4, [0, 1, 0, 1]),
    ([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)], [0.3, 0.0, 0.5, 0.2], [0, 1, 1, 0]),
], ids=["1d", "2d", "grouped", "zero-prior"])
def test_monte_carlo_does_not_depend_on_the_block_size(points, probs, groups, monkeypatch):
    # chunks of 7,000 merge; blocks of 1 and 7 split every chunk unevenly
    monkeypatch.setattr(ai, "_MC_CHUNK", 7_000)
    alphabet = ai.PointSet(np.array(points), np.array(probs))
    groups = np.arange(alphabet.size) if groups is None else np.array(groups)
    results = []
    for block in (1, 7, 8192, 10**9):
        monkeypatch.setattr(ai, "_MC_BLOCK", block)
        results.append(ai.mi_monte_carlo_grouped(alphabet, groups, ai.NoiseModel(0.7), 10_000, 8))
    assert all(r.bits == results[0].bits and r.stderr == results[0].stderr for r in results)


@pytest.mark.parametrize("seed", range(8))
def test_counted_point_index_is_the_cdf_search(seed):
    rng = np.random.default_rng(seed)
    k = 2 + seed * 2
    probs = rng.dirichlet(np.full(k, 0.5))
    probs[rng.choice(k, size=k // 2, replace=False)] *= 1e-14  # priors below 1e-12
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    u = np.concatenate([rng.random(5000), cdf[:-1], np.nextafter(cdf[:-1], 0.0), [0.0]])
    u = u[u < 1.0]  # as every uniform draw is
    assert np.array_equal(ai._point_index(cdf, u), np.searchsorted(cdf, u, side="right"))


def test_monte_carlo_working_set_stays_linear_in_the_samples():
    # the whole-chunk (16, 200000) tables alone took 25.6 MB each
    alphabet = ai.PointSet.uniform(np.random.default_rng(2).normal(size=(16, 2)))
    noise = ai.NoiseModel(1.0)
    tracemalloc.start()
    try:
        ai.mi_monte_carlo(alphabet, noise, 200_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_monte_carlo_holds_two_sample_rows_a_chunk():
    # uniforms then values, and the first noise dimension then the deviations,
    # 3.2 MB at 200k samples; the last dimension's noise is drawn a block at a
    # time, where a third 200k-sample row would take the traced peak to 5.4 MB
    alphabet = ai.PointSet.uniform(np.array(MC_CASES["axis-grouping"][0]))
    noise = ai.NoiseModel(1.0)
    tracemalloc.start()
    try:
        ai.mi_monte_carlo_grouped(alphabet, [0, 1, 0, 1], noise, 200_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def test_mc_sample_stats_survive_a_large_offset():
    # E[x^2] - E[x]^2 loses every digit here; merged (count, mean, M2) does not
    rng = np.random.default_rng(4)
    chunks = [1e8 + 1e-3 * rng.standard_normal(n) for n in (50_000, 30_000, 20_000)]
    mean, stderr, count = ai._mc_sample_stats((c, np.empty_like(c)) for c in chunks)
    want_mean, want_stderr = _ref_two_pass(chunks)
    assert count == 100_000
    assert mean == pytest.approx(want_mean, rel=1e-12)
    assert abs(stderr - want_stderr) <= 1e-6 * want_stderr


def test_2d_quadrature_working_set_stays_at_k_n_n():
    # one (K, K, N, N) temporary alone would take 34 MB at K = 16, N = 128
    alphabet = ai.PointSet.uniform(np.random.default_rng(1).normal(size=(16, 2)))
    noise = ai.NoiseModel(1.0)
    ai.mi_awgn(alphabet, noise, 128)  # fill the node cache first
    tracemalloc.start()
    try:
        ai.mi_awgn(alphabet, noise, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_clip_bits_absorbs_rounding_and_refuses_larger_excursions():
    assert ai._clip_bits(-1e-12, 4) == 0.0
    assert ai._clip_bits(2.0 + 1e-12, 4) == 2.0
    assert ai._clip_bits(1.25, 4) == 1.25
    for bad in (-1e-6, 2.0 + 1e-6, float("nan")):
        with pytest.raises(ValueError):
            ai._clip_bits(bad, 4)


def test_clip_bits_names_a_plain_number():
    with pytest.raises(ValueError) as err:
        ai._clip_bits(np.float64(2.5), 4)
    assert "np.float64" not in str(err.value)
    assert "gave 2.5 bits" in str(err.value)


# ---------------------------------------------------------------------------
# the Gauss-Hermite rule, against numpy's eigensolver-based hermgauss

ORDERS = range(ai.MIN_QUAD_ORDER, ai.MAX_QUAD_ORDER + 1)


def test_gh_nodes_match_hermgauss_at_every_order():
    for order in ORDERS:
        x, w = ai._gh_nodes(order)
        x_ref, w_ref = hermgauss(order)
        assert np.all(np.abs(x - x_ref) <= 1e-14 * np.maximum(1.0, np.abs(x_ref))), order
        assert np.all(np.abs(w - w_ref) <= 1e-12 * w_ref), order


def test_gh_nodes_are_sorted_symmetric_and_integrate_even_moments():
    root_pi = np.sqrt(np.pi)
    for order in ORDERS:
        x, w = ai._gh_nodes(order)
        assert np.all(np.diff(x) > 0.0), order
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), order
        if order % 2:
            assert x[order // 2] == 0.0
        for power, want in ((0, root_pi), (2, root_pi / 2.0), (4, 0.75 * root_pi)):
            assert float(w @ x**power) == pytest.approx(want, rel=1e-13), (order, power)


def test_gh_weights_stay_finite_and_positive_up_to_the_ceiling():
    x, w = ai._gh_nodes(ai.MAX_QUAD_ORDER)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and np.all(w > 0.0)
    with pytest.raises(ValueError):
        ai._gh_nodes(ai.MAX_QUAD_ORDER + 1)


def test_rate_commands_call_no_lapack(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a rate path")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    ai._gh_nodes.cache_clear()
    try:
        assert cli.main(["curves", "--points", "5", "--svg", "--out", str(tmp_path)]) == 0
        argv = ["verify", "--grid-points", "3", "--mc-samples", "20000", "--trials", "20"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    finally:
        ai._gh_nodes.cache_clear()


# ---------------------------------------------------------------------------
# the blocked Monte Carlo estimator, bit for bit against whole-chunk arithmetic


def _whole_chunk_monte_carlo(points, probs, groups, sigma2, samples, seed, chunk):
    """I(G;Y) by the whole-chunk arithmetic: random(m), then normal(0, sigma, m)
    per dimension, then the masked (K, m) density from the point offsets plus
    the noise; chunks merged by Chan's update, the mean not clamped."""
    points = np.asarray(points, dtype=float).reshape(len(probs), -1)
    probs = np.asarray(probs, dtype=float)
    _, group_of = np.unique(groups, return_inverse=True)
    ln_pg = np.log(np.bincount(group_of, probs))
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    sigma = float(np.sqrt(sigma2))
    count, mean, m2 = 0, 0.0, 0.0
    left = samples
    while left > 0:
        m = min(left, chunk)
        u = rng.random(m)
        noise = [rng.normal(0.0, sigma, m) for _ in points.T]
        k = np.searchsorted(cdf, u, side="right")
        # y - s_l as the point offset s_k - s_l plus the noise
        diffs = [c[k] - c[:, None] + n for c, n in zip(points.T, noise)]
        expo = diffs[0] ** 2 / (-2.0 * sigma2) + np.log(probs)[:, None]
        for diff in diffs[1:]:
            expo = expo + diff ** 2 / (-2.0 * sigma2)
        expo = np.exp(expo - expo.max(axis=0))
        g = group_of[k]
        numerator = (expo * (group_of[:, None] == g)).sum(axis=0)
        values = (np.log(numerator / expo.sum(axis=0)) - ln_pg[g]) / LN2
        mean_b = float(values.mean())
        dev = values - mean_b
        m2_b = float(np.einsum("i,i->", dev, dev))
        total = count + m
        delta = mean_b - mean
        mean += delta * (m / total)
        m2 += m2_b + delta * delta * (count * m / total)
        count = total
        left -= m
    return mean, float(np.sqrt(m2 / count / count))


MC_CASES = {
    "bpsk": ([1.0, -1.0], [0, 1]),
    # group rows differ from point rows, and the grouping is not all singletons
    "1d-k3-grouped": ([-1.0, 0.5, 1.5], [0, 1, 1]),
    "qpsk": ([(0.8, 0.8), (-0.8, 0.8), (0.8, -0.8), (-0.8, -0.8)], [0, 1, 2, 3]),
    "axis-grouping": ([(1.2, 0.0), (0.0, 1.2), (-1.2, 0.0), (0.0, -1.2)], [0, 1, 0, 1]),
}


@pytest.mark.parametrize("seed", [3, 40])
@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_monte_carlo_is_bit_identical_to_whole_chunk_arithmetic(case, seed):
    points, groups = MC_CASES[case]
    probs = np.full(len(groups), 1.0 / len(groups))
    got = ai.mi_monte_carlo_grouped(ai.PointSet(np.array(points), probs), np.array(groups),
                                    ai.NoiseModel(0.9), 20_000, seed)
    want = _whole_chunk_monte_carlo(points, probs, groups, 0.9, 20_000, seed, ai._MC_CHUNK)
    assert (got.bits, got.stderr) == want


@pytest.mark.parametrize("case,probs", [
    ("axis-grouping", [0.1, 0.2, 0.3, 0.4]),
    ("bpsk", [0.3, 0.7]),  # D = 1: the streamed noise row is the only one
])
def test_monte_carlo_is_bit_identical_across_chunks(case, probs, monkeypatch):
    monkeypatch.setattr(ai, "_MC_CHUNK", 7_000)
    points, groups = MC_CASES[case]
    probs = np.array(probs)
    got = ai.mi_monte_carlo_grouped(ai.PointSet(np.array(points), probs), np.array(groups),
                                    ai.NoiseModel(0.6), 20_000, 11)
    assert (got.bits, got.stderr) == _whole_chunk_monte_carlo(points, probs, groups, 0.6, 20_000, 11, 7_000)


@pytest.mark.parametrize("case", ["qpsk", "1d-k3-grouped"])
def test_monte_carlo_is_bit_identical_with_a_partial_last_block(case):
    # two full blocks, then one of 3 lanes
    points, groups = MC_CASES[case]
    probs = np.linspace(1.0, 2.0, len(groups))
    probs /= probs.sum()
    samples = 2 * ai._MC_BLOCK + 3
    got = ai.mi_monte_carlo_grouped(ai.PointSet(np.array(points), probs), np.array(groups),
                                    ai.NoiseModel(0.8), samples, 21)
    want = _whole_chunk_monte_carlo(points, probs, groups, 0.8, samples, 21, ai._MC_CHUNK)
    assert (got.bits, got.stderr) == want


def test_mc_sample_stats_leave_their_chunks_unchanged():
    rng = np.random.default_rng(9)
    chunks = [rng.standard_normal(n) for n in (5_000, 3_000)]
    copies = [c.copy() for c in chunks]
    ai._mc_sample_stats((c, np.empty_like(c)) for c in chunks)
    assert all(np.array_equal(c, k) for c, k in zip(chunks, copies))


# ---------------------------------------------------------------------------
# each rate rule once: point offsets before the noise, and only _clip_bits clamps

AXIS2 = [(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)]


@pytest.mark.parametrize("points,centred,groups", [
    ([1e16, 1e16 + 2.0], [0.0, 2.0], [0, 1]),
    (np.add(AXIS2, 1e16), AXIS2, [0, 1, 0, 1]),
    (np.add(AXIS2, 1e16), AXIS2, [0, 1, 2, 3]),
], ids=["bpsk", "axis-grouping", "axis-ungrouped"])
def test_monte_carlo_keeps_the_geometry_far_from_the_origin(points, centred, groups):
    # s_k - s_l is exact for both sets, so the noise meets the same offsets
    unit = ai.NoiseModel(1.0)
    far, near = ai.PointSet.uniform(np.array(points)), ai.PointSet.uniform(np.array(centred))
    got = ai.mi_monte_carlo_grouped(far, groups, unit, 200_000, 3)
    assert got == ai.mi_monte_carlo_grouped(near, groups, unit, 200_000, 3)
    if len(set(groups)) == len(groups):
        assert ai.mi_monte_carlo(far, unit, 200_000, 3) == got


@pytest.mark.parametrize("gamma", [192.0, 1e6, 1e300])
def test_stream_split_never_gives_the_binary_axis_stream_more_than_one_bit(gamma):
    assert ai.stream_mi_ocb(gamma, ai.MAX_QUAD_ORDER)[0] <= 1.0


def test_monte_carlo_reports_a_mean_below_zero_as_measured():
    # the axis grouping at gamma = 1e-4 carries about 2e-9 bits; seed 1's draws read below it
    r = np.sqrt(1e-4)
    alphabet = ai.PointSet.uniform(np.array([(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)]))
    mc = ai.mi_monte_carlo_grouped(alphabet, [0, 1, 0, 1], ai.NoiseModel(1.0), 20_000, 1)
    assert mc.bits < 0.0
    assert abs(mc.bits - ai.stream_mi_ocb(1e-4)[0]) < 3.0 * mc.stderr


# ---------------------------------------------------------------------------
# the Monte Carlo estimator at the extremes of the noise variance

MC_SIGMA2_MAX = np.finfo(float).max / 150.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma2", [5e-324, 1e-300, 1e306, MC_SIGMA2_MAX, 1e307, np.finfo(float).max])
@pytest.mark.parametrize("case", ["bpsk", "axis-grouping"])
def test_monte_carlo_at_the_extremes_of_the_noise_variance(case, sigma2):
    # 1e307 gave nan +/- nan: (sigma z)^2 overflowed in every row of a column;
    # 5e-324 warned of an overflow in the divide, a term that is exactly 0
    points, groups = MC_CASES[case]
    alphabet = ai.PointSet.uniform(np.array(points))
    noise = ai.NoiseModel(sigma2)
    if sigma2 > MC_SIGMA2_MAX:
        with pytest.raises(ValueError, match=re.escape(f"at most {MC_SIGMA2_MAX:g}")):
            ai.mi_monte_carlo_grouped(alphabet, groups, noise, 200_000, 0)
        return
    want = ai.mi_awgn(alphabet, noise).bits
    if case == "axis-grouping":  # I(V1;Y) = I(X;Y) - I(V2;Y|V1), a BPSK along either axis
        want -= ai.mi_awgn(ai.PointSet.uniform([1.2, -1.2]), noise).bits
    got = ai.mi_monte_carlo_grouped(alphabet, groups, noise, 200_000, 0)
    assert np.isfinite(got.bits) and np.isfinite(got.stderr)
    assert abs(got.bits - want) <= 3.0 * got.stderr + 1e-12  # 1e-12: the quadrature's rounding
