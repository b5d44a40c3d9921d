import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexssp.cli import _curves_csv
from imexssp.schemes import (
    REGISTRY_IDS,
    CoefficientSet,
    char_polys,
    imex_bdf2,
    imex_scheme,
    implicit_biased,
    implicit_centred,
    mcnab,
    scheme_from_id,
    ssp_explicit,
)
from imexssp.stability import (
    BoundaryCurve,
    alpha_closed_form,
    explicit_boundary,
    image_winding_number,
    imex_alpha_sweep,
    implicit_boundary,
    lambda_at,
    measure_alpha,
    min_image_real_part,
    _image_map,
    mu_image,
    restrict_curve,
    root_condition,
    zero_expansion_coefficients,
)


def closest_sample(curve, theta):
    i = np.argmin(np.abs(curve.theta - theta))
    return curve.values[i]


class TestBoundaryLoci:
    def test_ssp3_explicit_at_pi(self):
        # A(-1)/B(-1) = (4+3+1)/6 / (-1)
        curve = explicit_boundary(ssp_explicit(3), 64)
        assert abs(closest_sample(curve, -math.pi) - (-4.0 / 3.0)) < 1e-12

    def test_ssp4_explicit_at_pi(self):
        curve = explicit_boundary(ssp_explicit(4), 64)
        assert abs(closest_sample(curve, -math.pi) - (-4.0 / 3.0)) < 1e-12

    def test_consistency_zero_at_theta_zero(self):
        for s in (ssp_explicit(3), imex_bdf2(), mcnab(0.125)):
            curve = explicit_boundary(s, 64)
            assert abs(closest_sample(curve, 0.0)) < 1e-12

    def test_ssp3_real_axis_extent(self):
        v = explicit_boundary(ssp_explicit(3)).finite_values()
        assert abs(v.real.min() + 4.0 / 3.0) < 1e-6
        assert v.real.max() < 1e-12

    def test_implicit_biased_at_pi(self):
        curve = implicit_boundary(implicit_biased(3), 64)
        assert abs(closest_sample(curve, -math.pi) - 4.0) < 1e-12

    def test_centred_pole_marker_at_half_pi(self):
        assert _image_map(implicit_centred(3, 0)).sample(0.0, np.array([math.pi / 2]))[1][0]

    def test_pole_samples_marked_on_grid(self):
        curve = implicit_boundary(implicit_centred(3, 0), 64)
        i = np.argmin(np.abs(curve.theta - math.pi / 2))
        assert curve.is_pole[i]

    def test_n_too_small(self):
        with pytest.raises(ValueError, match="16"):
            explicit_boundary(ssp_explicit(3), 8)

    def test_no_explicit_part(self):
        with pytest.raises(ValueError, match="explicit"):
            explicit_boundary(implicit_biased(3))

    def test_curve_invariants(self):
        with pytest.raises(ValueError, match="increasing"):
            BoundaryCurve([0.0, 0.0, 1.0], [0j, 0j, 0j], [False] * 3)
        with pytest.raises(ValueError, match="3 samples"):
            BoundaryCurve([0.0, 1.0], [0j, 0j], [False, False])


EXPLICIT_IDS = [sid for sid in REGISTRY_IDS if any(scheme_from_id(sid).b)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPLICIT_IDS), st.integers(16, 2048))
def test_lambda_at_reproduces_explicit_boundary(sid, n):
    # no explicit B has a root on the unit circle, so the locus never takes
    # its pole-anchored form and both evaluate A/B by the same Horner steps
    s = scheme_from_id(sid)
    curve = explicit_boundary(s, n)
    finite = ~curve.is_pole
    np.testing.assert_array_equal(lambda_at(s, curve.theta[finite]), curve.values[finite])


class TestImageMap:
    def test_lambda_zero_reduces_to_implicit_boundary(self):
        s = imex_scheme("biased", 3)
        curve = implicit_boundary(s, 128)
        finite = ~curve.is_pole[::7]
        mu, pole = _image_map(s).sample(0.0, curve.theta[::7][finite])
        assert not pole.any()
        assert np.abs(mu - curve.values[::7][finite]).max() < 1e-12

    def test_zero_at_matching_boundary_eigenvalue(self):
        s = imex_scheme("biased", 3)
        for theta_star in (0.7, 2.0, -1.3):
            lam = lambda_at(s, theta_star)
            assert abs(_image_map(s).sample(lam, np.array([theta_star]))[0][0]) < 1e-12

    def test_biased_k3_value_at_pi(self):
        s = imex_scheme("biased", 3)
        assert abs(_image_map(s).sample(-4.0 / 3.0, np.array([math.pi]))[0][0]) < 1e-12

    def test_requires_implicit_part(self):
        with pytest.raises(ValueError, match="implicit"):
            _image_map(ssp_explicit(3))


class TestRootCondition:
    def test_consistency_root_stable(self):
        v = root_condition(ssp_explicit(3), 0.0, 0.0)
        assert v.stable
        assert abs(v.max_root_modulus - 1.0) < 1e-10

    @pytest.mark.parametrize("sid", ["ssp3", "ssp4", "imex-biased-k3",
                                     "imex-centred-k4", "mcnab", "imex-bdf2"])
    def test_consistency_root_everywhere(self, sid):
        roots = np.roots(char_polys(scheme_from_id(sid)).A)
        assert np.min(np.abs(roots - 1.0)) < 1e-10

    def test_boundary_eigenvalue_marginal(self):
        v = root_condition(ssp_explicit(3), -4.0 / 3.0, 0.0)
        assert abs(v.max_root_modulus - 1.0) < 1e-9
        assert v.stable

    def test_stiff_implicit_stable(self):
        assert root_condition(imex_scheme("biased", 3), -0.5, -10.0).stable

    def test_outside_interval_unstable(self):
        assert not root_condition(ssp_explicit(3), -1.5, 0.0).stable

    def test_degenerate_leading_coefficient(self):
        # a_0 = c_0 = 2/3, so mu = 1 kills the leading coefficient
        v = root_condition(imex_scheme("biased", 3), 0.0, 1.0)
        assert v.degenerate_leading
        assert not v.stable


class TestWedgeAngles:
    def test_centred_k3_tan_two(self):
        w = measure_alpha(implicit_boundary(implicit_centred(3, 0)))
        assert abs(w.tan_alpha - 2.0) < 1e-6

    def test_centred_k4_tan_one(self):
        w = measure_alpha(implicit_boundary(implicit_centred(4, 0)))
        assert abs(w.tan_alpha - 1.0) < 1e-6

    @pytest.mark.parametrize("k", [3, 4])
    def test_biased_a_stable(self, k):
        w = measure_alpha(implicit_boundary(implicit_biased(k)))
        assert w.alpha == pytest.approx(math.pi / 2)
        assert math.isinf(w.tan_alpha)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_closed_form_equivalence(self, k, beta):
        measured = measure_alpha(implicit_boundary(implicit_centred(k, beta)))
        closed = alpha_closed_form("implicit_centred", k, beta)
        assert abs(measured.alpha - closed.alpha) < 1e-6

    def test_corrupted_weights_break_equivalence(self):
        # negative control: swapped implicit weights still sum to 1 but the
        # measured wedge no longer matches the closed form
        from imexssp.schemes import CoefficientSet
        good = implicit_centred(3, 0)
        bad = CoefficientSet(3, good.a, good.b,
                             (good.c[2], good.c[0], good.c[1], good.c[3]),
                             name="corrupted")
        measured = measure_alpha(implicit_boundary(bad))
        closed = alpha_closed_form("implicit_centred", 3, 0)
        assert abs(measured.alpha - closed.alpha) > 1e-3


class TestClosedForms:
    def test_implicit_centred_values(self):
        assert alpha_closed_form("implicit_centred", 3, 0).tan_alpha == 2.0
        assert alpha_closed_form("implicit_centred", 4, 0).tan_alpha == 1.0

    def test_imex_centred_table_values(self):
        w3 = alpha_closed_form("imex_centred", 3, 0, nu=1 / 3)
        assert w3.tan_alpha == pytest.approx(1.0, abs=1e-14)
        assert w3.alpha == pytest.approx(math.pi / 4, abs=1e-14)
        w4 = alpha_closed_form("imex_centred", 4, 0, nu=1 / 3)
        assert w4.tan_alpha == pytest.approx(0.5, abs=1e-14)

    def test_imaginary_bound_violation(self):
        with pytest.raises(ValueError, match="imaginary bound"):
            alpha_closed_form("imex_centred", 3, 0, nu=0.7)

    def test_nu_required_for_imex(self):
        with pytest.raises(ValueError, match="nu"):
            alpha_closed_form("imex_centred", 3, 0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            alpha_closed_form("biased", 3, 0)


class TestSweep:
    def test_biased_k3_a_stable_over_boundary(self):
        w = imex_alpha_sweep(imex_scheme("biased", 3),
                             explicit_boundary(ssp_explicit(3), 512), 2048)
        assert w.alpha == pytest.approx(math.pi / 2, abs=1e-9)

    def test_biased_k4_wedge(self):
        w = imex_alpha_sweep(imex_scheme("biased", 4),
                             explicit_boundary(ssp_explicit(4), 512), 2048)
        assert 0.87 <= w.tan_alpha <= 0.91

    def test_bdf2_wedge(self):
        # frozen against root-condition brute force and direct recurrence
        # simulation; larger than the widely quoted conservative 0.31 pi
        s = imex_bdf2()
        w = imex_alpha_sweep(s, explicit_boundary(s, 512), 2048)
        assert w.alpha == pytest.approx(0.3250 * math.pi, abs=0.002 * math.pi)

    def test_mcnab_wedges(self):
        for c, expected in ((0.125, 0.1387), (0.5, 0.3030)):
            s = mcnab(c)
            w = imex_alpha_sweep(s, explicit_boundary(s, 512), 2048)
            assert w.alpha == pytest.approx(expected * math.pi, abs=0.002 * math.pi)

    def test_plain_cnab_collapses(self):
        s = mcnab(0.0)
        w = imex_alpha_sweep(s, explicit_boundary(s, 512), 2048)
        assert w.alpha < 0.005


class TestZeroExpansion:
    def test_k3_at_pi(self):
        assert zero_expansion_coefficients(3, math.pi) == pytest.approx(2.0)

    def test_k3_at_zero(self):
        assert zero_expansion_coefficients(3, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_k4_pair_at_half_pi(self):
        re, im = zero_expansion_coefficients(4, math.pi / 2)
        assert re == pytest.approx(0.6)
        assert im == pytest.approx(1.2)

    def test_k3_nonnegative_everywhere(self):
        thetas = np.linspace(-math.pi, math.pi, 400)
        vals = [zero_expansion_coefficients(3, t) for t in thetas]
        assert min(vals) >= 0.0


class TestGridMin:
    def test_biased_k3_min_real_part(self):
        assert min_image_real_part(imex_scheme("biased", 3)) >= -1e-10


class TestSymmetries:
    def test_root_condition_conjugation(self):
        # real scheme weights: conjugating both eigenvalues mirrors the roots
        rng = np.random.default_rng(17)
        s = imex_scheme("biased", 3)
        for _ in range(25):
            lam = complex(rng.uniform(-2, 0.5), rng.uniform(-2, 2))
            mu = complex(rng.uniform(-3, 1), rng.uniform(-2, 2))
            a = root_condition(s, lam, mu)
            b = root_condition(s, lam.conjugate(), mu.conjugate())
            assert a.stable == b.stable
            assert a.max_root_modulus == pytest.approx(b.max_root_modulus, rel=1e-12)

    def test_measure_alpha_scale_invariant(self):
        # the wedge is a cone: positive real scaling cannot change its angle
        curve = implicit_boundary(implicit_centred(3, 0.25), 512)
        base = measure_alpha(curve).alpha
        for c in (0.1, 3.0, 250.0):
            scaled = BoundaryCurve(curve.theta, c * curve.values, curve.is_pole,
                                   asymptotes=curve.asymptotes)
            assert measure_alpha(scaled).alpha == pytest.approx(base, abs=1e-12)


def _without_source(curve):
    return BoundaryCurve(curve.theta, curve.values, curve.is_pole)


def _with_b(s, b):
    return CoefficientSet(s.k, s.a, b, s.c)


class TestEdgeCases:
    def test_implicit_biased_k4_at_pi(self):
        curve = implicit_boundary(implicit_biased(4), 64)
        assert abs(closest_sample(curve, -math.pi) - 4.0) < 1e-12

    def test_wedge_from_tan_infinity(self):
        from imexssp.stability import WedgeAngle
        w = WedgeAngle.from_tan(math.inf)
        assert w.alpha == math.pi / 2

    def test_closed_form_beta_near_one(self):
        with pytest.raises(ValueError, match="beta"):
            alpha_closed_form("implicit_centred", 3, 1.0)

    @pytest.mark.parametrize("variant,beta,nu,name", [
        ("implicit_centred", 0.7, None, "beta"),
        ("implicit_centred", -5.0, None, "beta"),
        ("implicit_centred", math.nan, None, "beta"),
        ("imex_centred", 0.6, 0.1, "beta"),
        ("imex_centred", 0.0, -1.0, "nu"),
        ("imex_centred", 0.0, 0.0, "nu"),
        ("imex_centred", 0.0, math.nan, "nu"),
        ("imex_centred", 0.0, math.inf, "nu"),
    ])
    def test_closed_form_bad_input_rejected(self, variant, beta, nu, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            alpha_closed_form(variant, 3, beta, nu)

    def test_mu_image_needs_16_samples(self):
        with pytest.raises(ValueError, match="16"):
            mu_image(imex_scheme("biased", 3), -0.5, 15)

    def test_sweep_needs_16_samples(self):
        s = imex_scheme("biased", 3)
        with pytest.raises(ValueError, match="16"):
            imex_alpha_sweep(s, explicit_boundary(s, 64), 15)

    @pytest.mark.parametrize("family", [
        pytest.param(lambda: BoundaryCurve([0.0, 0.5, 1.0], [-0.5, -0.4 + 0.1j, -0.3j],
                                           [False] * 3), id="hand-built"),
        pytest.param(lambda: _without_source(explicit_boundary(mcnab(), 64)),
                     id="stripped-of-its-source"),
        pytest.param(lambda: explicit_boundary(ssp_explicit(3), 64), id="another-schemes-A"),
        pytest.param(lambda: explicit_boundary(_with_b(mcnab(), (0, 2, -1)), 64),
                     id="another-B-with-the-same-A"),
    ])
    def test_sweep_rejects_a_family_that_is_not_the_schemes_locus(self, family):
        with pytest.raises(ValueError, match="explicit_boundary locus"):
            imex_alpha_sweep(mcnab(), family())

    def test_sweep_rejects_a_locus_with_a_pole_on_the_circle(self):
        # B(z) = z + 1 vanishes at z = -1: the scheme's own locus has a pole
        s = _with_b(mcnab(), (0, 1, 1))
        curve = explicit_boundary(s, 64)
        assert curve.is_pole.any()
        with pytest.raises(ValueError, match="no pole on the circle"):
            imex_alpha_sweep(s, curve)

    def test_sweep_accepts_the_schemes_own_locus(self):
        assert imex_alpha_sweep(mcnab(), explicit_boundary(mcnab(), 64), 64).n_evals > 0

    def test_measure_alpha_plain_curve(self):
        # a manually built curve without pole metadata still measures
        theta = np.linspace(-math.pi, math.pi, 100, endpoint=False)
        values = -1.0 + 0.5j * np.sin(theta)
        curve = BoundaryCurve(theta, values, np.zeros(100, dtype=bool))
        w = measure_alpha(curve)
        assert w.alpha == pytest.approx(np.arctan2(np.abs(values.imag), 1.0).min())


class TestRestrictCurve:
    def test_large_nu_identity(self):
        curve = explicit_boundary(ssp_explicit(3), 256)
        clipped = restrict_curve(curve, 100.0)
        np.testing.assert_array_equal(clipped.values, curve.finite_values())

    def test_clip_bound(self):
        curve = explicit_boundary(ssp_explicit(3), 1024)
        clipped = restrict_curve(curve, 1 / 3)
        assert np.max(np.abs(clipped.values.imag)) <= 1 / 3 + 1e-12

    def test_strip_edges_present(self):
        curve = explicit_boundary(ssp_explicit(3), 1024)
        clipped = restrict_curve(curve, 1 / 3)
        on_edge = np.isclose(clipped.values.imag, 1 / 3)
        assert on_edge.sum() >= 8

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
    def test_nu_positive(self, nu):
        with pytest.raises(ValueError, match="nu must be finite and positive"):
            restrict_curve(explicit_boundary(ssp_explicit(3), 64), nu)

    @pytest.mark.parametrize("k", [3, 4])
    def test_corners_are_the_exact_crossings(self, k):
        s, nu = ssp_explicit(k), 1 / 3
        clipped = restrict_curve(explicit_boundary(s, 2048), nu)
        # the points on the edge, to 1e-15, run from corner to corner
        on_edge = np.abs(np.abs(clipped.values.imag) - nu) <= 1e-15
        step = np.diff(on_edge.astype(int))
        corners = np.concatenate([np.flatnonzero(step == 1) + 1, np.flatnonzero(step == -1)])
        assert len(corners) == 4
        lam = clipped.values[corners]
        assert np.all(np.abs(lam - lambda_at(s, clipped.theta[corners])) <= 1e-14 * np.abs(lam))

    @pytest.mark.parametrize("nu", [1e-15, 1e-16, 1e-300])
    @pytest.mark.parametrize("sid, imex", [("ssp3", "imex-biased-k3"),
                                           ("ssp4", "imex-biased-k4"),
                                           ("imex-bdf2", "imex-bdf2")])
    def test_nu_at_rounding_level(self, sid, imex, nu):
        # below about 1e-16 the corners next to theta = 0 and -pi wrap onto
        # the kept samples there; the clip keeps one sample per theta
        clipped = restrict_curve(explicit_boundary(scheme_from_id(sid)), nu)
        assert np.all(np.diff(clipped.theta) > 0)
        assert np.max(np.abs(clipped.values.imag)) <= nu + 2.5e-16
        assert imex_alpha_sweep(scheme_from_id(imex), clipped).n_evals > 0

    @pytest.mark.parametrize("curve", [
        BoundaryCurve(np.linspace(-np.pi, np.pi, 16, endpoint=False),
                      np.linspace(-1, 1, 16) + 0.1j, np.zeros(16, dtype=bool)),
        implicit_boundary(implicit_centred(3, 0), 256),
    ], ids=["hand-built", "pole-on-the-circle"])
    def test_curve_without_a_pole_free_source_rejected(self, curve):
        with pytest.raises(ValueError, match="locus with no pole on the circle"):
            restrict_curve(curve, 0.5)


class TestWindingTest:
    def test_winding_number_unit_circle(self):
        theta = np.linspace(-np.pi, np.pi, 256, endpoint=False)
        circle = np.exp(1j * theta)
        assert image_winding_number(circle, 0.0) == 1
        assert image_winding_number(circle, 2.0 + 0j) == 0

    def test_agreement_with_root_condition(self):
        s = imex_scheme("biased", 3)
        lam = -0.5
        image = mu_image(s, lam, 2048)
        rng = np.random.default_rng(5)
        curve_pts = image.finite_values()
        # argument principle: winding = roots inside - poles of C inside, so
        # "outside the image" means winding == -(poles of C inside the disk)
        c = np.trim_zeros(char_polys(s).C.astype(complex), "b")
        poles_inside = int(np.sum(np.abs(np.roots(c[::-1])) < 1.0 - 1e-9))
        checked = 0
        for _ in range(200):
            mu = complex(rng.uniform(-2, 6), rng.uniform(-4, 4))
            if np.min(np.abs(curve_pts - mu)) < 1e-2:
                continue
            checked += 1
            assert (image_winding_number(image.values, mu) == -poles_inside) == \
                root_condition(s, lam, mu).stable
        assert checked > 150


class TestCsv:
    def test_curve_csv_format(self):
        curve = explicit_boundary(ssp_explicit(3), 64)
        buf = io.StringIO()
        _curves_csv("", [("", curve)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "theta,re,im,is_pole"
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[1]) == pytest.approx(-4 / 3, abs=1e-10)

    def test_pole_rows_marked(self):
        curve = implicit_boundary(implicit_centred(3, 0), 64)
        buf = io.StringIO()
        _curves_csv("", [("", curve)], buf)
        assert ",nan,nan,1" in buf.getvalue()
