"""Axis ticks of the SVG line charts."""

import pytest

from gchlab.svgplot import LineChart, _ticks_125


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, 0.0), (3.0, 2.0), (0.0, 5e-324), (1.0, 1.0 + 2.0**-52)],
    ids=["empty", "reversed", "subnormal", "one-ulp"],
)
def test_degenerate_span_gets_the_unit_span(lo, hi):
    # a span whose 1-2-5 step (hi - lo) / 6 is not positive, underflows, or
    # is too small to move a tick from lo gets the ticks of [lo, lo + 1]
    assert _ticks_125(lo, hi) == _ticks_125(lo, lo + 1.0)


def test_ticks_cover_the_span_in_one_two_five_steps():
    ticks = _ticks_125(0.0, 1.0)
    assert ticks[0] == 0.0 and ticks[-1] == pytest.approx(1.0)
    assert all(b - a == pytest.approx(0.2) for a, b in zip(ticks, ticks[1:]))


def test_series_one_ulp_wide_renders():
    # an energy conserved to the last bit spans one ulp on the y-axis
    chart = LineChart("energy", "t", "E")
    chart.add("E", [0.0, 1.0], [1.0, 1.0 + 2.0**-52])
    assert chart.render().rstrip().endswith("</svg>")
