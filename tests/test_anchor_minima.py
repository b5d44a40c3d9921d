"""Stage 1 of the sweep: the anchor directions' exact infima over a locus.

A locus carries its source map (explicit_boundary, restrict_curve), and
the sweep takes its anchor limits in closed form over the continuous
locus; a dense (theta*, theta) grid must never beat those rows. Golden section runs
only on brackets off the anchors, and SweepResult says which stage located
its minimum.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexssp import _circle, stability
from imexssp import verify as verify_module
from imexssp.cli import main
from imexssp.schemes import CoefficientSet, imex_scheme, mcnab, order_residual, ssp_explicit
from imexssp.stability import (
    ORIGIN_TOLERANCE,
    BoundaryCurve,
    explicit_boundary,
    imex_alpha_sweep,
    lambda_at,
    measure_alpha,
    mu_image,
)

GOLDEN_WIDTH = 2 * (2 * math.pi / 4096) * stability._INV_PHI ** stability._GOLDEN_STEPS


@pytest.fixture(scope="module")
def rows():
    """(scheme, lambda curve, result) of each sweep of the default angle table."""
    calls = []

    def recording(s, curve, n):
        calls.append((s, curve, imex_alpha_sweep(s, curve, n)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "imex_alpha_sweep", recording)
        verify_module.angle_table()
    return calls


def dense_family(s, nu, n):
    """n eigenvalues on the explicit locus at theta* = (k + 1/3) 2pi/n - pi,
    clipped to |Im| <= nu with the strip segments sampled as well; their
    ends are found by bisection on lambda_at, independently of the sweep."""
    theta = (np.arange(n) + 1 / 3) * 2 * np.pi / n - np.pi
    lam = lambda_at(s, theta)
    if nu is None:
        return lam
    inside = np.abs(lam.imag) <= nu
    i = np.flatnonzero(inside != np.roll(inside, -1))
    lo, hi = theta[i], theta[i] + 2 * np.pi / n
    for _ in range(60):
        mid = (lo + hi) / 2
        same = (np.abs(lambda_at(s, mid).imag) <= nu) == inside[i]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    ends = lambda_at(s, lo)
    # each excursion leaves the strip at one crossing and comes back at the next
    segments = [np.linspace(ends[k].real, ends[(k + 1) % len(i)].real, n // 4)
                + 1j * np.sign(ends[k].imag) * nu
                for k in range(len(i)) if inside[i[k]]]
    return np.concatenate([lam[inside], *segments])


def dense_alpha(s, lams, n):
    """The least wedge angle of the images of lams over n circle angles,
    offset from every theta* of dense_family by at least 2pi/(3n)."""
    theta = np.arange(n) * 2 * np.pi / n - np.pi
    best = math.inf
    for _, _, mu in stability._image_map(s).blocks(lams, theta):
        neg = -mu.real
        ok = np.isfinite(mu) & (neg > ORIGIN_TOLERANCE)
        if ok.any():
            best = min(best, float((np.abs(mu.imag[ok]) / neg[ok]).min()))
    return math.atan(best)


def test_a_dense_grid_never_beats_a_row(rows):
    for s, curve, result in rows:
        got = dense_alpha(s, dense_family(s, curve._nu, 512), 1024)
        assert got >= result.alpha - 1e-12, (s.name, got, result.alpha)
        # and it comes close: the grid samples near every row's infimum
        assert got <= result.alpha + 0.02, (s.name, got, result.alpha)


@pytest.mark.parametrize("nu", [None, 0.9])
@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_both_poles_on_the_family(beta, nu):
    # imex-centred-k4's C has roots at theta = +/-pi/2, both on its explicit
    # locus, so the limit at each pole on the family is offered at once
    s = imex_scheme("centred", 4, beta)
    curve = explicit_boundary(s, 1024)
    if nu is not None:
        curve = stability.restrict_curve(curve, nu)
    result = imex_alpha_sweep(s, curve)
    got = dense_alpha(s, dense_family(s, nu, 512), 1024)
    assert result.alpha - 1e-12 <= got <= result.alpha + 0.02, (got, result.alpha)


def test_rows_do_not_depend_on_the_lambda_sampling(rows):
    coarse = verify_module.angle_table(256, 4096)
    for (_, _, result), row in zip(rows, coarse):
        assert abs(row["alpha_measured"] - result.alpha) <= 1e-13, row["scheme"]


def test_every_row_is_a_closed_form_limit(rows):
    for s, curve, result in rows:
        if result.lam is None:
            assert result.alpha == math.pi / 2
            continue
        assert result.kind == "limit", s.name
        assert -math.pi <= result.theta_star < math.pi


# ---------------------------------------------------------------------------
# Generated schemes: the sweep against the dense grid
# ---------------------------------------------------------------------------

def _in_closed_disk(a) -> bool:
    """The roots of a_0 z^k + ... + a_k lie in the closed unit disk, and 1
    is a simple one (-sum i a_i, the derivative there, is not 0)."""
    return (sum(i * x for i, x in enumerate(a)) != 0
            and np.abs(np.roots([float(x) for x in a])).max() <= 1 + 1e-9)


@st.composite
def second_order_schemes(draw):
    """A k-step IMEX scheme of order 2 in Fraction arithmetic: a_0 = 1,
    small-rational middle a-weights, a_k from consistency (sum a = 0), kept
    when zero-stable by _in_closed_disk; b_3.. and c_2.. drawn, and b_1, b_2,
    c_0, c_1 solved from the order-1 and order-2 conditions."""
    k = draw(st.integers(2, 4))
    a = draw(st.lists(st.fractions(-2, 1, max_denominator=4), min_size=k - 1, max_size=k - 1)
             .map(lambda mid: (Fraction(1), *mid, -1 - sum(mid))).filter(_in_closed_disk))
    weight = st.fractions(-2, 2, max_denominator=3)
    b_rest = draw(st.lists(weight, min_size=k - 2, max_size=k - 2))
    c_rest = draw(st.lists(weight, min_size=k - 1, max_size=k - 1))
    # order_residual's grid t_i = 1 - i: sum w_i t_i^(q-1) q = sum a_i t_i^q
    # for q = 1, 2, and t_1 = 0, t_2 = -1
    t = [1 - i for i in range(k + 1)]
    s1, s2 = (sum(x * ti**q for x, ti in zip(a, t)) for q in (1, 2))
    b2 = sum(x * ti for x, ti in zip(b_rest, t[3:])) - s2 / 2
    c0 = s2 / 2 - sum(x * ti for x, ti in zip(c_rest, t[2:]))
    return CoefficientSet(k, a, (0, s1 - sum(b_rest) - b2, b2, *b_rest),
                          (c0, s1 - sum(c_rest) - c0, *c_rest), name="generated")


centred_schemes = st.builds(imex_scheme, st.just("centred"), st.sampled_from([3, 4]),
                            st.fractions(0, Fraction(1, 2), max_denominator=8))
clip = st.none() | st.floats(0.05, 1.0)


def check_against_dense_grid(s, nu):
    """The sweep accepts the locus, clipped at nu or not, or raises its
    documented ValueError; when it accepts, the dense grid never beats it."""
    try:
        curve = explicit_boundary(s, 1024)
        if nu is not None:
            curve = stability.restrict_curve(curve, nu)
        result = imex_alpha_sweep(s, curve)
    except ValueError as exc:
        # a root of B on the circle: the locus has a pole
        assert str(exc).endswith("no pole on the circle"), exc
        return
    got = dense_alpha(s, dense_family(s, nu, 512), 1024)
    tol = 1e-12 if result.kind == "limit" else 1e-9
    assert got >= result.alpha - tol, (s, nu, got, result)


@settings(max_examples=20, deadline=None)
@given(second_order_schemes(), clip)
def test_generated_schemes_against_the_dense_grid(s, nu):
    assert order_residual(s, 2) == 0
    check_against_dense_grid(s, nu)


@settings(max_examples=12, deadline=None)
@given(centred_schemes, clip)
def test_centred_family_against_the_dense_grid(s, nu):
    # C has roots on the circle: families with poles on the locus
    check_against_dense_grid(s, nu)


# ---------------------------------------------------------------------------
# The source map that the sweep requires
# ---------------------------------------------------------------------------

def test_restrict_curve_passes_the_source_on():
    curve = explicit_boundary(ssp_explicit(3), 256)
    assert curve._source is stability._image_map(ssp_explicit(3), "B")
    clipped = stability.restrict_curve(curve, 1 / 3)
    assert (clipped._source, clipped._nu) == (curve._source, 1 / 3)
    # a curve built from the samples alone carries no source
    assert BoundaryCurve(curve.theta, curve.values, curve.is_pole)._source is None


# ---------------------------------------------------------------------------
# Golden section only off the anchors; what the result says was done
# ---------------------------------------------------------------------------

def test_golden_section_runs_only_where_a_bracket_is_off_the_anchors(monkeypatch):
    searched, current = [], []
    golden, sweep = stability._golden_min, verify_module.imex_alpha_sweep

    def counting(f, lo, hi, steps):
        searched.append((current[-1] if current else None, len(lo)))
        return golden(f, lo, hi, steps)

    def naming(s, curve, n):
        current.append(s.name)
        return sweep(s, curve, n)

    monkeypatch.setattr(stability, "_golden_min", counting)
    monkeypatch.setattr(verify_module, "imex_alpha_sweep", naming)
    verify_module.angle_table()
    # 18 of imex-biased-k4's 78 brackets lie off its anchors; every bracket
    # of the other rows lies within two grid steps of one
    assert searched == [("imex-biased-k4", 18)]


def test_angles_json_says_which_stage_located_each_row(tmp_path):
    out = tmp_path / "angles.json"
    assert main(["angles", "--format", "json", "--out", str(out)]) == 0
    for row in json.loads(out.read_text()):
        assert row["n_evals"] > 0
        if row["scheme"] == "imex-biased-k4":
            # golden section searched brackets there: their final width
            assert row["resolution"] == pytest.approx(GOLDEN_WIDTH, rel=1e-12)
        else:
            # the closed form alone: the Newton step left at its root
            assert 0 < row["resolution"] < 1e-12


# ---------------------------------------------------------------------------
# Pole directions at rounding level
# ---------------------------------------------------------------------------

def test_a_numerator_at_rounding_level_has_no_pole_direction():
    # lambda = -1 makes A - lambda B vanish at mcnab(0)'s pole z = -1: the
    # image is 2 - z, which constrains nothing
    curve = mu_image(mcnab(0), -1.0, 64)
    assert np.isnan(curve.asymptotes).all()
    assert measure_alpha(curve).alpha == math.pi / 2


def test_mcnab_c0_reads_zero_as_a_limit_at_the_pole(rows):
    s, _, result = rows[5]
    assert s == mcnab(0)
    assert result.kind == "limit" and result.theta == result.theta_star == -math.pi
    assert result.alpha <= 1e-15


@pytest.mark.parametrize("c", [np.zeros(5, dtype=complex),
                               np.array([0, 0, 2.5 - 1j, 0, 0])],
                         ids=["zero", "constant"])
def test_circle_roots_of_a_constant_are_none(c):
    # a polynomial with no root: no angles and no Newton steps, as floats,
    # so that they concatenate with the roots of the others
    angles, steps = _circle._circle_roots(c)
    assert angles.shape == steps.shape == (0,)
    assert angles.dtype == steps.dtype == np.float64
