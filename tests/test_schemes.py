from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imexssp.schemes import (
    BUILTIN_IDS,
    REGISTRY_IDS,
    CoefficientSet,
    char_polys,
    forward_euler,
    imex_bdf2,
    imex_scheme,
    implicit_biased,
    implicit_centred,
    mcnab,
    order_residual,
    scheme_from_id,
    ssp_explicit,
)

F = Fraction


class TestSSPExplicit:
    def test_k3_weights(self):
        s = ssp_explicit(3)
        assert s.a == (F(2, 3), F(-1, 2), F(0), F(-1, 6))
        assert s.b == (0, 1, 0, 0)
        assert all(ci == 0 for ci in s.c)

    def test_k4_weights(self):
        s = ssp_explicit(4)
        assert s.a == (F(3, 4), F(-2, 3), F(0), F(0), F(-1, 12))
        assert s.b == (0, 1, 0, 0, 0)

    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_unsupported_step_count(self, k):
        with pytest.raises(ValueError, match="unsupported step count"):
            ssp_explicit(k)

    def test_consistency_sum(self):
        assert sum(ssp_explicit(3).a) == 0


class TestImplicitBiased:
    def test_c_polynomial_k3(self):
        polys = char_polys(implicit_biased(3))
        np.testing.assert_array_equal(polys.C, [2 / 3, 0, 0, 1 / 3])

    @pytest.mark.parametrize("k", [3, 4])
    def test_weights_sum_to_one(self, k):
        assert sum(implicit_biased(k).c) == 1

    def test_k4_leading_weight(self):
        s = implicit_biased(4)
        assert s.c[0] == F(2, 3)
        assert s.c[3] == F(1, 3)
        assert s.c[4] == 0

    def test_is_implicit(self):
        assert implicit_biased(3).is_implicit
        assert not ssp_explicit(3).is_implicit


class TestImplicitCentred:
    def test_beta_zero(self):
        s = implicit_centred(3, 0)
        assert s.c == (F(1, 2), F(0), F(1, 2), F(0))

    def test_beta_half(self):
        s = implicit_centred(3, 0.5)
        assert s.c == (F(1, 4), F(1, 2), F(1, 4), F(0))

    def test_c_polynomial_beta_zero(self):
        polys = char_polys(implicit_centred(3, 0))
        np.testing.assert_array_equal(polys.C, [0.5, 0.0, 0.5, 0.0])

    @pytest.mark.parametrize("beta", [-0.1, 0.51, 1.0])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(ValueError, match="beta"):
            implicit_centred(3, beta)

    def test_k4_trailing_zeros(self):
        s = implicit_centred(4, 0.25)
        assert s.c[3] == 0 and s.c[4] == 0
        assert sum(s.c) == 1


class TestImexSchemes:
    def test_biased_k3_polynomials(self):
        polys = char_polys(imex_scheme("biased", 3))
        np.testing.assert_array_equal(polys.A, np.array([4, -3, 0, -1]) / 6)
        np.testing.assert_array_equal(polys.B, [0, 1, 0, 0])
        np.testing.assert_array_equal(polys.C, [2 / 3, 0, 0, 1 / 3])

    def test_centred_k4_beta_zero(self):
        s = imex_scheme("centred", 4, 0)
        assert s.b == (0, 1, 0, 0, 0)
        assert s.c == (F(1, 2), F(0), F(1, 2), F(0), F(0))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            imex_scheme("upwind", 3)

    def test_biased_rejects_beta(self):
        with pytest.raises(ValueError):
            imex_scheme("biased", 3, beta=0.2)


class TestMcnab:
    def test_crank_nicolson_limit(self):
        assert mcnab(0).c == (F(1, 2), F(1, 2), F(0))

    def test_c_half(self):
        assert mcnab(0.5).c == (F(3, 4), F(0), F(1, 4))

    @pytest.mark.parametrize("c", [0.0, 0.125, 0.3, 0.5, 1.0])
    def test_weights_sum_to_one(self, c):
        assert sum(mcnab(c).c) == 1

    def test_explicit_part(self):
        assert mcnab(0.125).b == (F(0), F(3, 2), F(-1, 2))


class TestImexBdf2:
    def test_a_polynomial(self):
        polys = char_polys(imex_bdf2())
        np.testing.assert_array_equal(polys.A, [1.5, -2.0, 0.5])

    def test_consistency(self):
        s = imex_bdf2()
        assert sum(s.a) == 0
        assert sum(s.b) == 1
        assert s.c == (1, 0, 0)


class TestCharPolys:
    @pytest.mark.parametrize("k", [3, 4])
    def test_explicit_ssp_B_is_z(self, k):
        polys = char_polys(ssp_explicit(k))
        expected = np.zeros(k + 1)
        expected[1] = 1.0
        np.testing.assert_array_equal(polys.B, expected)

    def test_linearity_under_scaling(self):
        s = imex_scheme("biased", 3)
        r = F(3, 7)
        scaled = char_polys(CoefficientSet(s.k, tuple(r * x for x in s.a),
                                           tuple(r * x for x in s.b),
                                           tuple(r * x for x in s.c)))
        base = char_polys(s)
        np.testing.assert_allclose(scaled.A, float(r) * base.A, rtol=1e-15)
        np.testing.assert_allclose(scaled.B, float(r) * base.B, rtol=1e-15)
        np.testing.assert_allclose(scaled.C, float(r) * base.C, rtol=1e-15)

    @pytest.mark.parametrize("sid", REGISTRY_IDS)
    def test_round_trip(self, sid):
        s = scheme_from_id(sid)
        polys = char_polys(s)
        rebuilt = CoefficientSet(len(polys.A) - 1, tuple(polys.A), tuple(polys.B),
                                 tuple(polys.C))
        np.testing.assert_array_equal(rebuilt.a_array(), s.a_array())
        np.testing.assert_array_equal(rebuilt.b_array(), s.b_array())
        np.testing.assert_array_equal(rebuilt.c_array(), s.c_array())
        assert rebuilt.k == s.k


class TestOrderResidual:
    @given(st.sampled_from(REGISTRY_IDS), st.integers(0, 4),
           st.fractions(-20, 20, max_denominator=50).filter(bool))
    def test_scales_with_the_coefficients(self, sid, degree, r):
        s = scheme_from_id(sid)
        scaled = CoefficientSet(s.k, tuple(r * x for x in s.a), tuple(r * x for x in s.b),
                                tuple(r * x for x in s.c))
        assert order_residual(scaled, degree) == pytest.approx(
            abs(float(r)) * order_residual(s, degree), rel=1e-14, abs=0.0)

    def test_imex_biased_second_order(self):
        assert order_residual(imex_scheme("biased", 3), 2) <= 1e-13

    def test_ssp3_not_third_order(self):
        assert order_residual(ssp_explicit(3), 3) > 0.1

    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    def test_all_builtins_second_order(self, sid):
        assert order_residual(scheme_from_id(sid), 2) <= 1e-12

    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    def test_degree_zero_consistency(self, sid):
        assert order_residual(scheme_from_id(sid), 0) == 0.0

    def test_forward_euler_first_order(self):
        assert order_residual(forward_euler(), 1) == 0.0
        assert order_residual(forward_euler(), 2) > 0.1


class TestInvariants:
    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    def test_a_sums_to_zero_exactly(self, sid):
        assert sum(scheme_from_id(sid).a) == F(0)

    def test_b0_must_vanish(self):
        with pytest.raises(ValueError, match="b_0"):
            CoefficientSet(2, (1, -1, 0), (F(1, 2), F(1, 2), 0), (0, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            CoefficientSet(3, (1, -1), (0, 1), (0, 0))

    def test_validate_rejects_bad_sums(self):
        bad = CoefficientSet(2, (1, -1, 0), (0, 1, 0), (F(1, 2), F(1, 4), 0))
        with pytest.raises(ValueError, match="implicit weights"):
            bad.validate()

    def test_unknown_registry_id(self):
        with pytest.raises(ValueError, match="unknown scheme id"):
            scheme_from_id("rk4")

    @pytest.mark.parametrize("sid,params", [
        ("ssp3", {"beta": 0.4}),
        ("imex-biased-k3", {"mcnab_c": 0.5}),
        ("mcnab", {"beta": 0.0}),
        ("implicit-centred-k4", {"mcnab_c": 0.125}),
    ])
    def test_parameter_the_scheme_does_not_read_rejected(self, sid, params):
        with pytest.raises(ValueError, match=f"{sid} does not read {next(iter(params))}"):
            scheme_from_id(sid, **params)

    def test_registry_parameters(self):
        s = scheme_from_id("imex-centred-k3", beta=0.25)
        assert s.c[1] == 0.25  # the centred weights are ((1-beta)/2, beta, (1-beta)/2)
        s = scheme_from_id("mcnab", mcnab_c=0.5)
        assert 2 * s.c[2] == 0.5  # the last implicit weight is c/2


class TestFloatView:
    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    def test_arrays_built_once_and_read_only(self, sid):
        s = scheme_from_id(sid)
        for method, weights in ((s.a_array, s.a), (s.b_array, s.b), (s.c_array, s.c)):
            arr = method()
            assert method() is arr
            assert not arr.flags.writeable
            assert arr.tolist() == [float(x) for x in weights]
            with pytest.raises(ValueError):
                arr[0] = 1.0
