"""The anchor limits: the leading Taylor term of the image map at a zero
crossing and at a pole, which the sweep, measure_alpha and the
zero-slope-expansion criterion all read.

The kernel's directions are checked against sampled images approaching the
anchor, the loci's asymptotes against the closed-form centred angles, and the
sweep's limit witnesses against the anchors they name.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imexssp import stability
from imexssp.schemes import (
    BUILTIN_IDS,
    imex_scheme,
    implicit_centred,
    mcnab,
    scheme_from_id,
    ssp_explicit,
)
from imexssp.stability import (
    ORIGIN_TOLERANCE,
    alpha_closed_form,
    explicit_boundary,
    imex_alpha_sweep,
    implicit_boundary,
    lambda_at,
    measure_alpha,
    mu_image,
)

IMEX_IDS = [sid for sid in BUILTIN_IDS
            if any(scheme_from_id(sid).b) and any(scheme_from_id(sid).c)]
CENTRED = [(k, beta) for k in (3, 4) for beta in (0.0, 0.1, 0.25, 0.4, 0.5)]

# |ratio(theta_a + d) - limit ratio| <= LIMIT_K * d. The slope of the ratio
# grows with the ratio itself (as 1 + ratio^2) and with the curvature of the
# image, so the property is taken where the limit ratio is at most
# RATIO_CAP (angles up to 1.25 rad; every angle_table row is below 1.03),
# away from the poles for zero crossings, and where the pole's leading
# numerator is not small. Over these sets the largest slope measured on
# dense grids of anchors is 35 (zero crossings) and 10 (poles).
LIMIT_K = 100.0
RATIO_CAP = 3.0


def ratio(mu):
    return abs(mu.imag) / -mu.real


def constraining(directions):
    """The (side, direction) pairs whose direction constrains, with a
    limit ratio of at most RATIO_CAP."""
    return [(side, u) for side, u in zip((1.0, -1.0), directions)
            if -u.real > ORIGIN_TOLERANCE and ratio(u) <= RATIO_CAP]


# ---------------------------------------------------------------------------
# The kernel against sampled images
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(sid=st.sampled_from(IMEX_IDS),
       theta_star=st.floats(-math.pi, math.pi, exclude_max=True),
       exponent=st.floats(-6.0, -3.0))
def test_zero_crossing_limit_is_approached_linearly(sid, theta_star, exponent):
    s = scheme_from_id(sid)
    image = stability._image_map(s)
    if len(image.den.pole_angles):
        assume(np.abs(stability._wrap_diff(theta_star, image.den.pole_angles)).min() > 0.01)
    lam = complex(lambda_at(s, theta_star))
    slope = image.crossing_terms(lam, image.on(np.array([theta_star])))[0][0]
    sides = constraining(stability._anchor_directions(slope, 1))
    if sid == "imex-biased-k3":
        # the first-order term is imaginary: no side constrains (A-stable)
        assert sides == []
    d = 10.0 ** exponent
    for side, u in sides:
        mu = image.sample(lam, np.array([theta_star + side * d]))[0][0]
        assert abs(ratio(mu) - ratio(u)) <= LIMIT_K * d


POLE_CASES = ([("imex", k, 0.0) for k in (3, 4)] + [("mcnab", 2, 0.0)]
              + [("implicit", k, beta) for k, beta in CENTRED])


def pole_case(case, theta_star):
    """The scheme and the explicit eigenvalue of a pole case: lambda on the
    explicit locus at theta_star, or 0 for a pure implicit locus."""
    kind, k, beta = case
    if kind == "implicit":
        return implicit_centred(k, beta), 0j
    if kind == "mcnab":
        s = mcnab(beta)
        return s, complex(lambda_at(s, theta_star))
    return imex_scheme("centred", k, beta), complex(lambda_at(ssp_explicit(k), theta_star))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(POLE_CASES),
       theta_star=st.floats(-math.pi, math.pi, exclude_max=True),
       exponent=st.floats(-6.0, -3.0))
def test_pole_limit_is_approached_linearly(case, theta_star, exponent):
    s, lam = pole_case(case, theta_star)
    image = stability._image_map(s)
    num = image.numerator(lam, image.den.pole_z)
    directions = image.den.asymptotes(num)
    d = 10.0 ** exponent
    for theta_p, n_p, sides in zip(image.den.pole_angles, num, directions):
        if abs(n_p) < 0.05:
            continue
        for side, u in constraining(sides):
            mu, pole = image.sample(lam, np.array([theta_p + side * d]))
            if pole[0]:
                # within POLE_TOLERANCE of C: d below about 2e-6 at a double pole
                continue
            assert abs(ratio(mu[0]) - ratio(u)) <= LIMIT_K * d


def test_double_pole_gives_one_direction_on_both_sides():
    # beta = 1/2: C = (1 + z)^2 / 4 has a double zero at z = -1
    image = stability._image_map(implicit_centred(3, 0.5))
    assert list(image.den.pole_orders) == [2]
    ahead, behind = image.den.asymptotes(image.numerator(0.0, image.den.pole_z))[0]
    assert ahead == behind
    assert ahead == pytest.approx(-1.0, abs=1e-15)


def test_simple_pole_flips_sides():
    image = stability._image_map(imex_scheme("centred", 3, 0.0))
    assert list(image.den.pole_orders) == [1, 1]
    for ahead, behind in image.den.asymptotes(image.numerator(-0.5 + 0.1j, image.den.pole_z)):
        assert behind == -ahead
        assert abs(ahead) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Loci: measure_alpha reads the asymptotes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,beta", CENTRED)
def test_measure_alpha_equals_the_closed_form(k, beta):
    measured = measure_alpha(implicit_boundary(implicit_centred(k, beta)))
    closed = alpha_closed_form("implicit_centred", k, beta)
    assert abs(measured.alpha - closed.alpha) <= 1e-15


def test_loci_carry_one_direction_per_side_of_each_pole():
    s = imex_scheme("centred", 4, 0.0)
    assert len(implicit_boundary(s, 64).asymptotes) == 4  # two simple poles
    assert len(mu_image(s, -0.3j, 64).asymptotes) == 4
    assert len(explicit_boundary(s, 64).asymptotes) == 0  # B has no circle zero
    assert np.allclose(np.abs(implicit_boundary(s, 64).asymptotes), 1.0)


# ---------------------------------------------------------------------------
# The sweep's limit witnesses
# ---------------------------------------------------------------------------

def test_zero_crossing_witness_names_its_anchor():
    s = imex_scheme("biased", 4)
    result = imex_alpha_sweep(s, explicit_boundary(ssp_explicit(4), 256), 1024)
    assert result.kind == "limit"
    assert result.theta == result.theta_star
    assert abs(result.mu) == pytest.approx(1.0, abs=1e-15)
    # the image just past the anchor, on one side, points the same way
    past = stability._image_map(s).sample(result.lam, result.theta + np.array([1e-7, -1e-7]))[0]
    assert min(abs(mu / abs(mu) - result.mu) for mu in past) < 1e-5


def test_pole_witness_is_wrapped_into_the_half_open_range():
    # mcnab c=0 has its pole at z = -1; the worst direction there is real
    result = imex_alpha_sweep(mcnab(0), explicit_boundary(mcnab(0), 256), 1024)
    assert result.kind == "limit"
    assert result.theta == -math.pi
    assert result.alpha <= 1e-15


def test_a_stable_row_has_no_witness_kind():
    s = imex_scheme("biased", 3)
    result = imex_alpha_sweep(s, explicit_boundary(ssp_explicit(3), 256), 1024)
    assert (result.alpha, result.tan_alpha) == (math.pi / 2, math.inf)
    assert result.kind is None

