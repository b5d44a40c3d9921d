"""The SVG renderer of `regions --format svg`.

It is checked byte for byte against an inline copy of the old renderer,
which formatted every point in its own Python loop, on random curve sets:
poles, nan and inf values, points beyond modulus 8, one-point runs, more
curves than colours, and boxes with no axis inside.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imexssp.cli import _svg_render
from imexssp.stability import BoundaryCurve


# ---------------------------------------------------------------------------
# Inline copy of the old renderer
# ---------------------------------------------------------------------------

def old_svg_render(curves) -> str:
    width = height = 640
    clip = 8.0
    pts_all = [v for _, c in curves for v in c.finite_values()
               if abs(v) <= clip and np.isfinite(v)]
    if not pts_all:
        raise ValueError("nothing to render")
    re = np.array([p.real for p in pts_all])
    im = np.array([p.imag for p in pts_all])
    lo_x, hi_x = re.min(), re.max()
    lo_y, hi_y = im.min(), im.max()
    pad_x = 0.1 * max(hi_x - lo_x, 1e-3)
    pad_y = 0.1 * max(hi_y - lo_y, 1e-3)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y

    def to_px(v):
        x = (v.real - lo_x) / (hi_x - lo_x) * width
        y = height - (v.imag - lo_y) / (hi_y - lo_y) * height
        return f"{x:.2f},{y:.2f}"

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if lo_x < 0 < hi_x:
        x0 = (0 - lo_x) / (hi_x - lo_x) * width
        parts.append(f'<line x1="{x0:.2f}" y1="0" x2="{x0:.2f}" y2="{height}" '
                     'stroke="#999" stroke-width="1"/>')
    if lo_y < 0 < hi_y:
        y0 = height - (0 - lo_y) / (hi_y - lo_y) * height
        parts.append(f'<line x1="0" y1="{y0:.2f}" x2="{width}" y2="{y0:.2f}" '
                     'stroke="#999" stroke-width="1"/>')
    for i, (label, curve) in enumerate(curves):
        color = colors[i % len(colors)]
        segment = []
        segments = []
        for v, p in zip(curve.values, curve.is_pole):
            if p or not np.isfinite(v) or abs(v) > clip:
                if len(segment) > 1:
                    segments.append(segment)
                segment = []
            else:
                segment.append(v)
        if len(segment) > 1:
            segments.append(segment)
        for seg in segments:
            pts = " ".join(to_px(v) for v in seg)
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"><title>{label}</title></polyline>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Random curve sets
# ---------------------------------------------------------------------------

def curve(values, is_pole):
    n = len(values)
    return BoundaryCurve(np.linspace(-math.pi, math.pi, n, endpoint=False), values, is_pole)


def rendered(render, curves):
    try:
        return render(curves)
    except ValueError as exc:
        return f"ValueError: {exc}"


# values near the clip radius and the non-finite ones, beside plain points
EDGES = np.array([8.0, -8.0, 8j, -8j, 8.000000000000002, 7.999999999999999j, 0.0, -0.0,
                  math.nan, math.inf, -math.inf, complex(math.nan, 1.0),
                  complex(1.0, math.inf)])


@st.composite
def curve_sets(draw):
    """1 to 8 labelled curves; the values come from a seeded generator, as
    Hypothesis draws point by point too slowly for sets of this size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a shift of the whole set moves the box off one axis or both; a flat
    # set (in a band of width 0 or 1e-4 along an axis) gives the box a
    # height or width below the 1e-3 the padding takes at least
    shift = draw(st.sampled_from([0, 4.0, -4.0j, 4.0 + 4.0j, -5.0 - 5.0j]))
    flat = draw(st.sampled_from([None, 1.0, 1j]))
    band = draw(st.sampled_from([0.0, 1e-4]))
    out = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(3, 40))
        values = rng.uniform(-9, 9, n) + 1j * rng.uniform(-9, 9, n)
        if flat is not None:
            values = flat * (rng.uniform(-9, 9, n) + 1j * rng.uniform(0.5, 0.5 + band, n))
        edge = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
        values[edge] = rng.choice(EDGES, edge.sum())
        is_pole = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        out.append((draw(st.text("ab=% .-", max_size=6)), curve(values + shift, is_pole)))
    return out


@settings(max_examples=200, deadline=None)
@given(curve_sets())
@example([("one", curve(np.array([1.0 + 1.0j, 2.0 + 3.0j, 3.0 + 1.5j]),
                        np.zeros(3, dtype=bool)))])
@example([("%", curve(np.array([1.0, 9.0, 2.0, 3.0j, math.nan, 1.0j]),
                      np.array([False, False, False, False, False, False])))])
# the box's lower edge at exactly 0: 0.5 - 0.1 * (5.5 - 0.5), so no real axis
@example([("edge", curve(np.array([0.5j, 5.5j, 1.0 + 0.5j]), np.zeros(3, dtype=bool)))])
def test_matches_the_old_renderer_byte_for_byte(curves):
    assert rendered(_svg_render, curves) == rendered(old_svg_render, curves)


@pytest.mark.parametrize("curves", [
    [],
    [("poles", curve(np.ones(4, dtype=complex), np.ones(4, dtype=bool)))],
    [("far", curve(np.array([9.0, -20j, math.nan, math.inf]), np.zeros(4, dtype=bool))),
     ("pole", curve(np.zeros(3, dtype=complex), np.ones(3, dtype=bool)))],
], ids=["empty", "all-poles", "all-clipped"])
def test_nothing_to_render(curves):
    with pytest.raises(ValueError, match="^nothing to render$"):
        _svg_render(curves)


def test_one_point_runs_give_no_polyline():
    # runs 0 | 1+1j, 2 | 3-1j: the middle one is drawn, the single points only
    # set the box
    values = np.array([0.0, 9.0, 1.0 + 1.0j, 2.0, 9.0, 3.0 - 1.0j])
    svg = _svg_render([("c", curve(values, np.zeros(6, dtype=bool)))])
    assert svg.count("<polyline") == 1
    assert svg == old_svg_render([("c", curve(values, np.zeros(6, dtype=bool)))])
