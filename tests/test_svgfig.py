"""SVG line charts: the log axis's decade ticks and their labels, and each
element of a rendered chart."""

import re
import xml.etree.ElementTree as ET

import pytest

from ocbsim import cli
from ocbsim.svgfig import _PALETTE, LineChart

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


# ---------------------------------------------------------------------------
# the rendered elements, read back from the parsed SVG

SVG = "{http://www.w3.org/2000/svg}"


def _parse(chart: LineChart) -> ET.Element:
    return ET.fromstring(chart.render())


def _points(polyline: ET.Element) -> list:
    return [tuple(map(float, p.split(","))) for p in polyline.get("points").split()]


def _ticks(root: ET.Element, anchor: str) -> list:
    """(label, x, y) of each 11-point tick label with the given anchor."""
    return [(t.text, float(t.get("x")), float(t.get("y"))) for t in root.iter(f"{SVG}text")
            if t.get("font-size") == "11" and t.get("text-anchor") == anchor]


@pytest.mark.parametrize("log_x,x,labels", [
    (True, 2.0, ["10"]),
    (False, 2.0, ["2", "2.2", "2.4", "2.6", "2.8", "3"]),
    # x + 1 rounds back to x, so the axis runs from x to 2x
    (False, 1e300, ["1e+300", "1.2e+300", "1.4e+300", "1.6e+300", "1.8e+300", "2e+300"]),
])
def test_one_point_series_widens_both_degenerate_limits(log_x, x, labels):
    chart = LineChart("t", "x", "y", log_x=log_x)
    chart.add_series("s", [x], [0.0])
    root = _parse(chart)
    # the point sits at the frame's lower-left corner: x0 on the left edge, y = 0 at the bottom
    assert [_points(p) for p in root.iter(f"{SVG}polyline")] == [[(64.0, 432.0)]]
    assert [lab for lab, _, _ in _ticks(root, "middle")] == labels
    assert [lab for lab, _, _ in _ticks(root, "end")] == ["0", "0.2", "0.4", "0.6", "0.8", "1"]


def test_linear_axis_has_six_evenly_spaced_tick_labels():
    chart = LineChart("t", "x", "y", log_x=False)
    chart.add_series("s", [0.0, 1.0, 2.5], [0.0, 1.0, 2.0])
    ticks = _ticks(_parse(chart), "middle")
    assert [lab for lab, _, _ in ticks] == ["0", "0.5", "1", "1.5", "2", "2.5"]
    assert [x for _, x, _ in ticks] == [64.0, 192.0, 320.0, 448.0, 576.0, 704.0]


def test_dash_is_on_the_polyline_and_its_legend_swatch_only():
    chart = LineChart("t", "x", "y")
    chart.add_series("solid", [1.0, 10.0], [0.0, 1.0])
    chart.add_series("dashed", [1.0, 10.0], [1.0, 0.0], dash="6,3")
    root = _parse(chart)
    polylines = list(root.iter(f"{SVG}polyline"))
    swatches = [ln for ln in root.iter(f"{SVG}line") if ln.get("stroke-width") == "1.5"]
    assert [p.get("stroke-dasharray") for p in polylines] == [None, "6,3"]
    assert [s.get("stroke-dasharray") for s in swatches] == [None, "6,3"]


def test_series_take_the_palette_in_insertion_order():
    chart = LineChart("t", "x", "y")
    for i in range(9):  # past the seven colours, so the palette wraps
        chart.add_series(f"s{i}", [1.0, 10.0], [0.0, float(i)])
    root = _parse(chart)
    colours = [_PALETTE[i % len(_PALETTE)] for i in range(9)]
    assert [p.get("stroke") for p in root.iter(f"{SVG}polyline")] == colours
    swatches = [ln for ln in root.iter(f"{SVG}line") if ln.get("stroke-width") == "1.5"]
    assert [s.get("stroke") for s in swatches] == colours
    legend = [t.text for t in root.iter(f"{SVG}text") if t.get("text-anchor") is None]
    assert legend == [f"s{i}" for i in range(9)]


def test_y_ticks_start_at_zero_on_the_frames_bottom_edge():
    chart = LineChart("t", "x", "y")
    chart.add_series("s", [1.0, 10.0], [0.3, 0.7])
    root = _parse(chart)
    ticks = _ticks(root, "end")
    assert ticks[0] == ("0", 58.0, 436.0)  # 4 below its grid line, which is the frame's bottom
    grid = [ln for ln in root.iter(f"{SVG}line") if ln.get("stroke") == "#dddddd"]
    assert float(grid[-len(ticks)].get("y1")) == 432.0


@pytest.mark.parametrize("log_x,x,y", [
    (True, [0.01, 1.0, 100.0], [0.0, 1.9, 0.5]),
    (False, [0.01, 50.0, 100.0], [0.0, 1.9, 0.5]),
    (False, [-3.0, 4.0], [-2.0, 5.0]),
    (True, [1e-320, 1e-300], [1e-320, 1e-300]),
])
def test_every_polyline_coordinate_is_inside_the_plot_frame(log_x, x, y):
    chart = LineChart("t", "x", "y", log_x=log_x)
    chart.add_series("a", x, y)
    chart.add_series("b", x, [v / 2.0 for v in y], dash="2,2")
    root = _parse(chart)
    frame = next(r for r in root.iter(f"{SVG}rect") if r.get("fill") == "none")
    fx, fy = float(frame.get("x")), float(frame.get("y"))
    fw, fh = float(frame.get("width")), float(frame.get("height"))
    for p in root.iter(f"{SVG}polyline"):
        for px, py in _points(p):
            assert fx <= px <= fx + fw and fy <= py <= fy + fh, (px, py)


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_curves_chart_names_its_x_axis_scale(tmp_path, spacing):
    argv = ["curves", "--svg", "--points", "5", "--spacing", spacing, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    root = ET.parse(tmp_path / "curves.svg").getroot()
    x_label = [t.text for t in root.iter(f"{SVG}text")
               if t.get("font-size") == "12" and t.get("transform") is None]
    assert x_label == [f"symbol SNR (linear scale, {spacing} axis)"]
