"""SVG line charts: the log axis's decade ticks and their labels."""

import re

import pytest

from ocbsim import cli
from ocbsim.svgfig import LineChart

# the x tick labels are the only centred 11-point text in a chart
X_LABEL = re.compile(r'text-anchor="middle" font-family="sans-serif" font-size="11">([^<]*)<')


def _x_labels(svg: str) -> list:
    return X_LABEL.findall(svg)


@pytest.mark.parametrize("x0", [-300.0, -299.7])
def test_log_axis_has_at_most_nine_ticks_all_inside_it(x0):
    chart = LineChart("t", "x", "y")
    for span in range(1, 601):
        decades = [d for d, _ in chart._x_ticks(x0, x0 + span)]
        assert 1 <= len(decades) <= 9, span
        assert all(x0 <= d <= x0 + span for d in decades), span
        assert all(float(d).is_integer() for d in decades), span


def test_log_axis_labels_a_subnormal_decade_by_its_exponent():
    chart = LineChart("t", "x", "y")
    chart.add_series("s", [1e-320, 1e-315, 1e-310], [0.0, 0.5, 1.0])
    labels = _x_labels(chart.render())
    assert "1e-320" in labels
    assert all(re.fullmatch(r"1e-3\d\d", lab) for lab in labels), labels


def test_default_curves_chart_labels_every_decade(tmp_path):
    assert cli.main(["curves", "--svg", "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "curves.svg").read_text()
    assert _x_labels(svg) == ["0.01", "0.1", "1", "10", "100"]
