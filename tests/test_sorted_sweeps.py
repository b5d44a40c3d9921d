"""The sorted sweeps behind the winding-number count and verify's near-curve
mask, against inline copies of the all-pairs loops they replaced.

Both sweeps only skip pairs that cannot matter, so every result must be
equal, not close: integer-lattice polylines make horizontal edges and ties
at vertex heights common, and the near-curve points sit exactly at the band
along the real axis and along a diagonal.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imexssp.schemes import imex_scheme
from imexssp.stability import image_winding_number, interval_pairs, mu_image
from imexssp.verify import _near_curve


def blocked_winding(values, mu):
    """image_winding_number as it was: every edge against 64 mu at a time."""
    v = values[np.isfinite(values)]
    x0, y0 = v.real, v.imag
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    mu = np.asarray(mu, dtype=complex)
    flat = mu.ravel()
    out = np.empty(len(flat), dtype=int)
    for start in range(0, len(flat), 64):
        m = flat[start:start + 64]
        below0 = y0 <= m.imag[:, None]
        below1 = y1 <= m.imag[:, None]
        rows, e = np.nonzero(below0 != below1)
        mx, my = m.real[rows], m.imag[rows]
        side = (x1[e] - x0[e]) * (my - y0[e]) - (mx - x0[e]) * (y1[e] - y0[e])
        upward = below0[rows, e]
        crossing = (upward & (side > 0)).astype(int) - (~upward & (side < 0))
        out[start:start + 64] = np.bincount(rows, weights=crossing, minlength=len(m))
    return int(out[0]) if mu.ndim == 0 else out.reshape(mu.shape)


def all_pairs_near(curve_pts, mus, band):
    """_near_curve as it was: the distance from every mu to every sample."""
    near = np.empty(len(mus), dtype=bool)
    for start in range(0, len(mus), 64):
        dist = np.abs(curve_pts[None, :] - mus[start:start + 64, None])
        near[start:start + 64] = dist.min(axis=1) < band
    return near


# ---------------------------------------------------------------------------
# interval_pairs
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(st.integers(-6, 6), max_size=25),
    bounds=st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7)), max_size=12),
    budget=st.integers(1, 40),
)
def test_interval_pairs_is_every_pair_once(keys, bounds, budget):
    keys = np.array(keys, dtype=float)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    batches = list(interval_pairs(keys, lo, hi, budget))
    assert all(0 < len(i) == len(j) <= budget for i, j in batches)
    got = sorted((int(a), int(b)) for i, j in batches for a, b in zip(i, j))
    expected = [(a, b) for a in range(len(lo)) for b in range(len(keys))
                if lo[a] <= keys[b] < hi[a]]
    assert got == expected


# ---------------------------------------------------------------------------
# Winding number
# ---------------------------------------------------------------------------

lattice = st.integers(-4, 4)


@st.composite
def lattice_polyline_and_mus(draw):
    """A closed polyline on the integer lattice, some samples replaced by nan
    (pole gaps), and mu on its vertices, on its edge midpoints and on a
    half-integer grid."""
    pts = draw(st.lists(st.tuples(lattice, lattice), max_size=24))
    values = np.array([complex(x, y) for x, y in pts], dtype=complex)
    gaps = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    values[np.array(gaps, dtype=bool)] = complex(math.nan, math.nan)
    v = values[np.isfinite(values)]
    on_curve = np.concatenate([v, (v + np.roll(v, -1)) / 2])
    picks = draw(st.lists(st.integers(0, max(len(on_curve) - 1, 0)), max_size=12))
    grid = draw(st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                         max_size=12))
    mus = [on_curve[i] for i in picks if len(on_curve)]
    mus += [complex(x / 2, y / 2) for x, y in grid]
    return values, np.array(mus, dtype=complex)


@settings(max_examples=200, deadline=None)
@given(case=lattice_polyline_and_mus(), shape=st.sampled_from(["flat", "2d", "scalar"]))
@example(case=(np.array([0, 2, 2 + 2j, 2j], dtype=complex),
               np.array([0, 1, 2, 1j, 2 + 1j, 1 + 1j, 1 + 2j, 3 + 2j])), shape="flat")
@example(case=(np.array([0, 1, 1 + 1j, 1 + 1j, 2 + 1j, 1j], dtype=complex),
               np.array([0.5 + 1j, 1 + 1j, 3 + 1j, -1 + 1j])), shape="flat")
@example(case=(np.array([0, 1, complex(math.nan, math.nan), 1 + 1j], dtype=complex),
               np.array([0.5 + 0.5j, 0.5j, 2j])), shape="flat")
def test_winding_matches_blocked_loop(case, shape):
    values, mus = case
    if shape == "scalar":
        for mu in mus:
            got = image_winding_number(values, mu)
            assert isinstance(got, int)
            assert got == blocked_winding(values, mu)
        return
    if shape == "2d" and len(mus) % 2 == 0:
        mus = mus.reshape(2, -1)
    got = image_winding_number(values, mus)
    assert got.shape == mus.shape
    assert got.dtype == blocked_winding(values, mus).dtype
    np.testing.assert_array_equal(got, blocked_winding(values, mus))


def test_empty_mu_keeps_its_shape():
    circle = np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
    for shape in [(0,), (3, 0)]:
        got = image_winding_number(circle, np.zeros(shape, dtype=complex))
        assert got.shape == shape
    assert image_winding_number(np.array([math.nan, math.nan]), 0.0) == 0


def test_dense_zigzag_splits_across_batches():
    # every edge straddles every mu, so the pairs (about 2000 per edge) run in
    # batches of 64 per edge, and single edges are split between batches
    n = 41
    x = np.arange(n, dtype=float)
    values = x + 1j * np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    mus = np.linspace(-3.0, n + 3.0, 2000) + 1j * np.linspace(-0.9, 0.9, 2000)
    got = image_winding_number(values, mus)
    np.testing.assert_array_equal(got, blocked_winding(values, mus))
    assert set(got.tolist()) > {0}


@pytest.mark.parametrize("lam", [0.0, -0.5, -1.0 + 0.2j])
def test_root_vs_winding_grid_matches_blocked_loop(lam):
    image = mu_image(imex_scheme("biased", 3), lam, 4096)
    grid = np.array([complex(re, im) for re in np.linspace(-2.0, 6.0, 50)
                     for im in np.linspace(-4.0, 4.0, 50)])
    np.testing.assert_array_equal(image_winding_number(image.values, grid),
                                  blocked_winding(image.values, grid))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_mu_rejected(bad):
    circle = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    with pytest.raises(ValueError, match="mu must be finite"):
        image_winding_number(circle, bad)
    with pytest.raises(ValueError, match="mu must be finite"):
        image_winding_number(circle, np.array([0.1, bad]))


# ---------------------------------------------------------------------------
# Near-curve mask
# ---------------------------------------------------------------------------

BAND = 0.25


@st.composite
def curve_and_mus(draw):
    """Samples on a quarter-lattice and mu at exactly BAND from some of them,
    along the real axis and along a diagonal, plus mu anywhere nearby."""
    pts = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                        min_size=1, max_size=30))
    curve = np.array([complex(x / 4, y / 4) for x, y in pts])
    diag = BAND / math.sqrt(2.0)
    steps = [BAND, -BAND, 1j * BAND, complex(diag, diag), complex(-diag, diag),
             complex(BAND, 1e-17), complex(BAND * (1 - 2**-52), 0.0)]
    picks = draw(st.lists(st.tuples(st.integers(0, len(curve) - 1),
                                    st.integers(0, len(steps) - 1)), max_size=15))
    mus = [curve[i] + steps[k] for i, k in picks]
    free = draw(st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), max_size=10))
    mus += [complex(x, y) for x, y in free]
    return curve, np.array(mus, dtype=complex)


@settings(max_examples=200, deadline=None)
@given(case=curve_and_mus())
@example(case=(np.array([0.0, 1.0 + 1j]), np.array([BAND, complex(BAND, 0) / math.sqrt(2)
                                                      * (1 + 1j), 1.0 + 1j - BAND])))
def test_near_curve_matches_all_pairs(case):
    curve, mus = case
    np.testing.assert_array_equal(_near_curve(curve, mus, BAND),
                                  all_pairs_near(curve, mus, BAND))


def test_near_curve_dense_case_splits_across_batches():
    # every sample is within the real-part window of every mu, so the pairs
    # run in several batches
    curve = 1j * np.linspace(0.0, 1.0, 300)
    mus = np.linspace(-1e-3, 1e-3, 500) + 1j * np.linspace(-0.1, 1.1, 500)
    got = _near_curve(curve, mus, 1e-3)
    np.testing.assert_array_equal(got, all_pairs_near(curve, mus, 1e-3))
    assert 0 < got.sum() < len(mus)


@pytest.mark.parametrize("lam", [0.0, -0.5, -1.0 + 0.2j])
def test_root_vs_winding_mask_matches_all_pairs(lam):
    pts = mu_image(imex_scheme("biased", 3), lam, 4096).finite_values()
    grid = np.array([complex(re, im) for re in np.linspace(-2.0, 6.0, 50)
                     for im in np.linspace(-4.0, 4.0, 50)])
    np.testing.assert_array_equal(_near_curve(pts, grid, 1e-3),
                                  all_pairs_near(pts, grid, 1e-3))
