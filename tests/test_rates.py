"""Rate accounting: claimed composite rates, exact chain-rule columns,
sweep invariants, and the claim interval search."""

import numpy as np
import pytest

from ocbsim import rates
from ocbsim.awgn_info import DEFAULT_QUAD_ORDER, MAX_QUAD_ORDER, MIN_QUAD_ORDER, mi_bpsk, mi_qpsk, stream_mi_ocb
from ocbsim.rates import CSV_COLUMNS, SweepSpec

# quadrature value of the exact axis-stream rate at gamma = 1, cross-checked
# against an independent Monte Carlo run (0.095005 +- 1.53e-4, one se)
W1_QUAD = 0.09501607258470601


# ---------------------------------------------------------------------------
# claimed rates


def test_claimed_rates_vanish_at_zero_snr():
    assert rates.rate_row(0.0).r_j_claimed == 0.0
    assert 0.5 * mi_qpsk(0.0) == 0.0
    assert mi_bpsk(0.0) == 0.0


def test_claimed_rate_saturates_at_two_bits():
    assert rates.rate_row(1e4).r_j_claimed == pytest.approx(2.0, abs=1e-4)


def test_claimed_axis_rate_is_bpsk_at_half_snr():
    # mi_qpsk(g) = 2 mi_bpsk(g/2), so the claimed axis rate at 2 must equal mi_bpsk(1)
    assert 0.5 * mi_qpsk(2.0) == pytest.approx(mi_bpsk(1.0), abs=1e-9)


# ---------------------------------------------------------------------------
# exact chain-rule accounting


def test_exact_accounting_at_zero_and_negative_snr():
    assert stream_mi_ocb(0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        stream_mi_ocb(-1.0)


def test_rate_row_at_the_smallest_subnormal_snr_is_the_zero_limit():
    # gamma / 2 rounds to 0 there, so the four-point set has no amplitude left
    row = rates.rate_row(5e-324)
    assert row.gamma == 5e-324
    assert row.as_csv_values()[1:] == (0.0,) * (len(CSV_COLUMNS) - 1)
    assert stream_mi_ocb(1e-323) == (0.0, 0.0)  # the next float: alpha > 0, rates round to 0


@pytest.mark.parametrize("gamma", [1e308, np.inf, np.nan])
@pytest.mark.parametrize("entry", [rates.rate_row, rates.claimed_gap], ids=["rate_row", "claimed_gap"])
def test_rate_entry_points_refuse_an_snr_past_the_ceiling(entry, gamma):
    with pytest.raises(ValueError, match="1e\\+300"):
        entry(gamma)


def test_exact_accounting_at_the_snr_ceiling():
    i_v1, i_v2 = stream_mi_ocb(rates.GAMMA_MAX)
    assert abs(i_v1 - 1.0) < 1e-12 and abs(i_v2 - 1.0) < 1e-12 and abs(i_v1 + i_v2 - 2.0) < 1e-12


@pytest.mark.parametrize("gamma", np.geomspace(0.02, 80.0, 15).tolist())
def test_exact_total_is_the_qpsk_rate(gamma):
    i_v1, i_v2 = stream_mi_ocb(gamma)
    assert abs(i_v1 + i_v2 - mi_qpsk(gamma)) < 1e-6


def test_exact_sign_stream_rate_is_bpsk():
    for gamma in (0.3, 1.0, 5.0):
        _, i_v2 = stream_mi_ocb(gamma)
        assert i_v2 == pytest.approx(mi_bpsk(gamma), abs=1e-12)


def test_axis_stream_rate_at_unit_snr():
    i_v1, _ = stream_mi_ocb(1.0)
    assert i_v1 == pytest.approx(W1_QUAD, abs=1e-9)


# ---------------------------------------------------------------------------
# sweep grid and rows


def test_gamma_grid_hits_both_endpoints():
    g = rates.gamma_grid(SweepSpec(gamma_min=0.01, gamma_max=100.0, points=60))
    assert g.size == 60
    assert g[0] == pytest.approx(0.01, rel=1e-12)
    assert g[-1] == pytest.approx(100.0, rel=1e-12)


def test_gamma_grid_linear_spacing():
    g = rates.gamma_grid(SweepSpec(gamma_min=1.0, gamma_max=5.0, points=5, spacing="linear"))
    assert np.allclose(g, [1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("gamma", [2.0, 1.0 / 3.0, 5e-324, 1e300])
def test_gamma_grid_single_point(spacing, gamma):
    g = rates.gamma_grid(SweepSpec(gamma_min=gamma, gamma_max=gamma, points=1, spacing=spacing))
    assert g.tobytes() == np.array([gamma]).tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma_min=0.0),
        dict(gamma_min=2.0, gamma_max=1.0),
        dict(gamma_min=1.0, gamma_max=2.0, points=1),
        dict(spacing="cubic"),
        dict(gamma_max=1e301),
        dict(gamma_max=float("inf")),
        dict(gamma_max=float("nan")),
        dict(gamma_min=2.0, gamma_max=2.0, points=2),
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


def test_csv_columns_match_row_layout():
    row = rates.rate_row(1.0)
    vals = row.as_csv_values()
    assert len(vals) == len(CSV_COLUMNS)
    assert vals[CSV_COLUMNS.index("gamma")] == 1.0
    assert vals[CSV_COLUMNS.index("i_bpsk")] == row.i_bpsk
    assert vals[CSV_COLUMNS.index("sum_exact")] == row.sum_exact


def test_sweep_row_invariants():
    rows = rates.sweep(SweepSpec())
    assert len(rows) == 60
    for row in rows:
        # the claimed total is the literal sum of its two parts: half the QPSK rate, the BPSK rate
        assert row.r_j_claimed == row.r_c1_claimed + row.r_c2
        assert (row.r_c1_claimed, row.r_c2) == (0.5 * row.i_qpsk, row.i_bpsk)
        # exact accounting reproduces the four-point joint rate
        assert abs(row.sum_exact - row.i_qpsk) < 1e-6
        # chain rule sandwich: 0 <= i_v1 <= min(1, i_qpsk), i_v1 >= i_qpsk - 1;
        # slack matches the quadrature agreement between the two integrals
        assert 0.0 <= row.i_v1_exact <= min(1.0, row.i_qpsk) + 1e-6
        assert row.i_v1_exact >= row.i_qpsk - 1.0 - 1e-6
        # the accounting discrepancy is carried entirely by the axis stream
        lhs = row.r_j_claimed - row.sum_exact
        rhs = row.r_c1_claimed - row.i_v1_exact
        assert abs(lhs - rhs) < 1e-12
        assert row.r_c2 == pytest.approx(row.i_v2_exact, abs=1e-12)


@pytest.mark.parametrize("order", [MIN_QUAD_ORDER, DEFAULT_QUAD_ORDER, MAX_QUAD_ORDER])
def test_qpsk_columns_are_the_1d_curve_and_print_as_the_2d_quadrature(order):
    # the row's QPSK column is 2 mi_bpsk(gamma / 2) exactly; curves.csv prints
    # its columns to 12 significant digits, and on the default grid those
    # digits are the ones the 2D QPSK quadrature gives
    from ocbsim.cli import _fmt

    for g in rates.gamma_grid(SweepSpec()):
        row = rates.rate_row(g, order)
        half = mi_bpsk(g / 2.0, order)
        assert row.i_qpsk == 2.0 * half
        assert row.r_c1_claimed == half
        i_q = mi_qpsk(g, order)
        r_c1 = 0.5 * i_q
        from_2d = (i_q, r_c1, r_c1 + mi_bpsk(g, order))
        assert tuple(map(_fmt, (row.i_qpsk, row.r_c1_claimed, row.r_j_claimed))) == tuple(map(_fmt, from_2d))


def test_sweep_curves_are_monotone_and_ordered():
    rows = rates.sweep(SweepSpec())
    for prev, cur in zip(rows, rows[1:]):
        assert cur.i_bpsk >= prev.i_bpsk
        assert cur.i_qpsk >= prev.i_qpsk
        assert cur.c_gauss_complex >= prev.c_gauss_complex
    for row in rows:
        assert row.c_gauss_complex >= row.i_qpsk - 1e-9


# ---------------------------------------------------------------------------
# claimed-vs-exact gap and the claim interval


def test_claimed_gap_agrees_with_the_direct_difference():
    for g in np.geomspace(0.05, 50.0, 12):
        direct = 0.5 * mi_qpsk(g) + mi_bpsk(g) - mi_qpsk(g)  # the claimed composite rate less QPSK
        assert rates.claimed_gap(g) == pytest.approx(direct, abs=1e-9)


def test_claimed_gap_is_positive_at_positive_snr():
    for g in np.geomspace(0.01, 100.0, 25):
        assert rates.claimed_gap(g) > 0.0


def test_claim_interval_structure():
    ci = rates.find_claim_interval(threshold=0.01)
    assert 0.0 < ci.gamma_lo < ci.gamma_peak < ci.gamma_hi
    assert ci.peak_gap > ci.threshold
    # endpoints sit on the threshold contour
    assert rates.claimed_gap(ci.gamma_lo) == pytest.approx(0.01, abs=1e-9)
    assert rates.claimed_gap(ci.gamma_hi) == pytest.approx(0.01, abs=1e-9)
    # the peak is a local max relative to the endpoints
    assert ci.peak_gap >= rates.claimed_gap(ci.gamma_lo)
    assert ci.peak_gap >= rates.claimed_gap(ci.gamma_hi)


def test_claim_interval_unreachable_threshold():
    with pytest.raises(ValueError, match=r"gap never exceeds threshold 0\.5: the peak gap is 0\.2357"):
        rates.find_claim_interval(threshold=0.5)


def test_claim_interval_refuses_a_threshold_below_its_reach_before_the_peak_search(monkeypatch):
    # the claimed gap at the bracket's lower end, gamma = 1e-3, is about 3.6e-4 bits
    calls = []
    gap = rates.claimed_gap
    monkeypatch.setattr(rates, "claimed_gap", lambda *a: calls.append(a) or gap(*a))
    with pytest.raises(ValueError, match=r"threshold must be at least 0\.00036"):
        rates.find_claim_interval(threshold=1e-4)
    assert len(calls) <= 3


def test_claim_interval_reaches_down_to_the_gap_at_the_brackets_lower_end():
    floor = rates.claimed_gap(rates.CLAIM_GAMMA_LO)
    ci = rates.find_claim_interval(threshold=floor)
    assert ci.gamma_lo == pytest.approx(rates.CLAIM_GAMMA_LO, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError, match="threshold must be at least"):
        rates.find_claim_interval(threshold=np.nextafter(floor, 0.0))


# -inf up to 0 lies below the gap at the lower end; nan and inf are never exceeded
@pytest.mark.parametrize("threshold,message",
                         [(float("-inf"), "threshold must be at least"), (-1.0, "threshold must be at least"),
                          (-0.0, "threshold must be at least"), (0.0, "threshold must be at least"),
                          (float("inf"), "gap never exceeds threshold"),
                          (float("nan"), "gap never exceeds threshold")])
def test_claim_interval_refuses_a_threshold_outside_its_reach(threshold, message):
    with pytest.raises(ValueError, match=message):
        rates.find_claim_interval(threshold=threshold)


@pytest.mark.parametrize("threshold", [1e-3, 0.1, 0.2])
@pytest.mark.parametrize("order", [MIN_QUAD_ORDER, DEFAULT_QUAD_ORDER, MAX_QUAD_ORDER])
def test_claim_interval_endpoints_sit_on_the_threshold(order, threshold):
    ci = rates.find_claim_interval(threshold=threshold, order=order)
    assert rates.CLAIM_GAMMA_LO < ci.gamma_lo < ci.gamma_peak < ci.gamma_hi < rates.CLAIM_GAMMA_HI
    assert rates.claimed_gap(ci.gamma_lo, order) == pytest.approx(threshold, rel=0.0, abs=1e-12)
    assert rates.claimed_gap(ci.gamma_hi, order) == pytest.approx(threshold, rel=0.0, abs=1e-12)
    assert ci.peak_gap == rates.claimed_gap(ci.gamma_peak, order) > threshold


@pytest.mark.parametrize("order", [MIN_QUAD_ORDER, DEFAULT_QUAD_ORDER, MAX_QUAD_ORDER])
def test_claim_interval_narrows_around_one_peak_as_the_threshold_rises(order):
    intervals = [rates.find_claim_interval(threshold=t, order=order) for t in (1e-3, 0.01, 0.1, 0.2)]
    for wide, narrow in zip(intervals, intervals[1:]):
        assert wide.gamma_lo < narrow.gamma_lo < narrow.gamma_hi < wide.gamma_hi
    # the peak search does not read the threshold
    assert len({ci.gamma_peak for ci in intervals}) == 1


# the upper crossing lies inside the bracket for every threshold the search
# accepts only because the gap is exactly 0.0 at its upper end
@pytest.mark.parametrize("order", [MIN_QUAD_ORDER, DEFAULT_QUAD_ORDER, MAX_QUAD_ORDER])
def test_claimed_gap_vanishes_at_the_brackets_upper_end(order):
    assert rates.claimed_gap(rates.CLAIM_GAMMA_HI, order) == 0.0


def test_peak_search_sign_holds_on_either_side_of_the_peak():
    # the peak bisection assumes gap(g r) - gap(g / r) > 0 exactly left of the peak
    r = 1.0 + 1e-6
    peak = rates.find_claim_interval().gamma_peak
    for g in np.geomspace(1e-3, 1e4, 1000):
        rising = rates.claimed_gap(g * r) - rates.claimed_gap(g / r) > 0.0
        assert rising == (g < peak), g


def test_claim_interval_search_cost(monkeypatch):
    calls = []
    gap = rates.claimed_gap
    monkeypatch.setattr(rates, "claimed_gap", lambda *a: calls.append(a) or gap(*a))
    rates.find_claim_interval()
    assert len(calls) <= 240
