"""The batched stability oracles against one-pair references.

root_verdicts is checked row by row against an inline copy of the np.roots
root-condition algorithm, the array empirical probe against a per-pair loop,
and the crossing-count winding number against the angle-sum formula.
"""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexssp import verify as verify_module
from imexssp.integrate import (
    BLOWUP_LIMIT,
    History,
    ScalarOperator,
    StepFailureError,
    empirical_stability,
    step,
)
from imexssp.problems import dahlquist
from imexssp.schemes import BUILTIN_IDS, char_polys, imex_scheme, scheme_from_id, ssp_explicit
from imexssp.stability import (
    ROOT_CLUSTER_TOLERANCE,
    ROOT_TOLERANCE,
    image_winding_number,
    mu_image,
    root_condition,
    root_verdicts,
)
from imexssp.verify import _root_vs_empirical_pairs

# the package re-exports the function integrate under the module's name
integrate_module = importlib.import_module("imexssp.integrate")


def np_roots_verdict(s, lam, mu):
    """(stable, max modulus, multiple, degenerate) by np.roots, one pair."""
    polys = char_polys(s)
    d = polys.A.astype(complex) - lam * polys.B - mu * polys.C
    scale = max(1.0, float(np.max(np.abs(d))))
    if abs(d[0]) < 1e-12 * scale:
        return False, math.inf, False, True
    roots = np.roots(d)
    moduli = np.abs(roots)
    max_mod = float(moduli.max())
    multiple = False
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) <= ROOT_CLUSTER_TOLERANCE and \
                    max(moduli[i], moduli[j]) >= 1.0 - ROOT_CLUSTER_TOLERANCE:
                multiple = True
    stable = (max_mod <= 1.0 + ROOT_TOLERANCE) and not multiple
    return stable, max_mod, multiple, False


def assert_rows_match(s, lams, mus):
    v = root_verdicts(s, lams, mus)
    for i, (lam, mu) in enumerate(zip(lams, mus)):
        stable, max_mod, multiple, degenerate = np_roots_verdict(s, lam, mu)
        assert bool(v.stable[i]) == stable
        assert v.max_root_modulus[i] == max_mod
        assert bool(v.multiple_root_on_boundary[i]) == multiple
        assert bool(v.degenerate_leading[i]) == degenerate


def one_pair_probe(s, lam, mu, n_steps):
    """The empirical probe for one pair with early exit, as a scalar loop."""
    op = dahlquist(lam, mu).operator
    ys = [np.array([np.exp((lam + mu) * j) + 1e-6 * (-1) ** j], dtype=complex)
          for j in range(s.k)][::-1]
    h = History(s.k, ys, [op.explicit.apply(y) for y in ys],
                [op.implicit.apply(y) for y in ys], t=float(s.k - 1), dt=1.0)
    threshold = 1e3 * max(1.0, max(float(np.abs(y[0])) for y in ys))
    for _ in range(n_steps):
        try:
            m = float(np.abs(step(s, h, op)[0]))
        except StepFailureError:
            return False
        if not np.isfinite(m) or m > BLOWUP_LIMIT or m > threshold:
            return False
    return True


def angle_sum_winding(values, mu):
    """Winding number by summing the angles the polyline edges subtend."""
    v = values[np.isfinite(values)] - mu
    return int(np.rint(np.angle(np.roll(v, -1) / v).sum() / (2 * np.pi)))


_coord = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _coord, _coord)


class TestRootVerdicts:
    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(_complex, _complex), min_size=1, max_size=12))
    def test_matches_np_roots_row_by_row(self, sid, pairs):
        lams = np.array([p[0] for p in pairs])
        mus = np.array([p[1] for p in pairs])
        assert_rows_match(scheme_from_id(sid), lams, mus)

    @pytest.mark.parametrize("sid, lams, mus", [
        # constant coefficient exactly 0: np.roots strips it, the companion keeps it
        ("imex-biased-k3", [0.3 - 0.2j, -1.0, 2.0j], [-0.5, -0.5, -0.5]),
        ("imex-bdf2", [-0.5, -0.5, -0.5], [0.7 + 0.1j, -3.0, 1.5j]),
        ("mcnab", [-0.25 + 0.5j, 0.1, -1.0j], [-2.0 + 4.0j, 0.8, -8.0j]),
    ])
    def test_zero_constant_coefficient_rows(self, sid, lams, mus):
        s = scheme_from_id(sid)
        polys = char_polys(s)
        for lam, mu in zip(lams, mus):
            assert (polys.A - lam * polys.B - mu * polys.C)[-1] == 0
        assert_rows_match(s, np.array(lams), np.array(mus))

    def test_degenerate_leading_row(self):
        # a_0 = c_0 = 2/3, so mu = 1 kills the leading coefficient
        v = root_verdicts(imex_scheme("biased", 3), np.array([-0.5, 0.0, -0.5]),
                          np.array([-1.0, 1.0, -2.0]))
        assert v.degenerate_leading.tolist() == [False, True, False]
        assert v.stable[1] == False  # noqa: E712
        assert v.max_root_modulus[1] == math.inf
        assert not v.multiple_root_on_boundary[1]

    def test_marginal_ssp3_row(self):
        v = root_verdicts(ssp_explicit(3), np.array([-4.0 / 3.0]), 0.0)
        assert abs(v.max_root_modulus[0] - 1.0) < 1e-9
        assert v.stable[0]
        assert_rows_match(ssp_explicit(3), [-4.0 / 3.0], [0.0])

    def test_broadcast_shape(self):
        lams = np.array([-0.5, -1.0 + 0.2j])[:, None]
        mus = np.array([-1.0, 0.0, 2.0])
        v = root_verdicts(imex_scheme("biased", 3), lams, mus)
        for field in (v.stable, v.max_root_modulus, v.multiple_root_on_boundary,
                      v.degenerate_leading):
            assert field.shape == (2, 3)

    def test_root_condition_is_one_row(self):
        s = imex_scheme("biased", 3)
        verdict = root_condition(s, -0.3 + 0.4j, -1.2)
        assert isinstance(verdict.stable, bool)
        assert isinstance(verdict.max_root_modulus, float)
        assert (verdict.stable, verdict.max_root_modulus,
                verdict.multiple_root_on_boundary, verdict.degenerate_leading) \
            == np_roots_verdict(s, -0.3 + 0.4j, -1.2)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_root_condition(self, bad):
        s = imex_scheme("biased", 3)
        with pytest.raises(ValueError, match="lambda must be finite"):
            root_condition(s, bad, 0.0)
        with pytest.raises(ValueError, match="mu must be finite"):
            root_condition(s, 0.0, bad)

    def test_root_verdicts_one_bad_row(self):
        with pytest.raises(ValueError, match="mu must be finite"):
            root_verdicts(imex_scheme("biased", 3), -0.5, np.array([-1.0, math.nan, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_empirical_stability(self, bad):
        s = imex_scheme("biased", 3)
        with pytest.raises(ValueError, match="lambda must be finite"):
            empirical_stability(s, bad, -1.0)
        with pytest.raises(ValueError, match="mu must be finite"):
            empirical_stability(s, -0.5, np.array([-1.0, bad]))


class TestBatchedEmpirical:
    def test_scalar_gives_bool(self):
        assert empirical_stability(ssp_explicit(3), -1.0, 0.0) is True
        assert empirical_stability(ssp_explicit(3), -1.5, 0.0) is False

    @pytest.mark.parametrize("sid", ["ssp3", "imex-biased-k3", "mcnab", "imex-bdf2"])
    def test_matches_per_pair_loop(self, sid):
        s = scheme_from_id(sid)
        rng = np.random.default_rng(7)
        lams = rng.uniform(-2.5, 0.5, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
        mus = rng.uniform(-4.0, 1.0, 40) + 1j * rng.uniform(-3.0, 3.0, 40)
        batched = empirical_stability(s, lams, mus, 300)
        assert batched.shape == (40,)
        assert batched.tolist() == [empirical_stability(s, lam, mu, 300)
                                    for lam, mu in zip(lams, mus)]
        assert batched.tolist() == [one_pair_probe(s, lam, mu, 300)
                                    for lam, mu in zip(lams, mus)]
        assert 0 < batched.sum() < 40  # both verdicts occur

    def test_singular_row_mid_batch(self):
        # a_0 - c_0 mu = 0 at mu = 1 for the biased k=3 scheme
        s = imex_scheme("biased", 3)
        lams = np.array([-1.0, -0.5, -0.2, -0.5])
        mus = np.array([-2.0, -1.0, 1.0, -10.0])
        assert empirical_stability(s, lams, mus).tolist() == [True, True, False, True]
        assert [one_pair_probe(s, lam, mu, 800) for lam, mu in zip(lams, mus)] \
            == [True, True, False, True]
        assert empirical_stability(s, -0.2, 1.0) is False

    def test_retired_rows_cannot_overflow(self):
        # the lambda = -10 row passes its threshold within a few steps; zeroed
        # in the history, it stays finite while the stable row runs on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = empirical_stability(ssp_explicit(3), np.array([-1.0, -10.0]), 0.0, 5000)
        assert out.tolist() == [True, False]

    def test_stepping_stops_when_every_row_is_retired(self, monkeypatch):
        calls = []
        real_step = integrate_module.step

        def counting_step(*args):
            calls.append(1)
            return real_step(*args)

        monkeypatch.setattr(integrate_module, "step", counting_step)
        out = empirical_stability(ssp_explicit(3), np.array([-2.0, -10.0]), 0.0, 800)
        assert out.tolist() == [False, False]
        assert 0 < len(calls) < 100

    def test_broadcast(self):
        s = imex_scheme("biased", 3)
        out = empirical_stability(s, np.array([-1.0, -2.9])[:, None],
                                  np.array([-1.0, -100.0]), 200)
        assert out.shape == (2, 2)
        assert out.tolist() == [[empirical_stability(s, lam, mu, 200)
                                 for mu in (-1.0, -100.0)] for lam in (-1.0, -2.9)]


class TestDiagonalScalarOperator:
    def test_array_coefficient_applies_and_solves_elementwise(self):
        op = ScalarOperator(np.array([1.0, -2.0, 0.5j]))
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(op.apply(v), op.coef * v)
        x = op.solve_shifted(2.0, 0.5, v)
        assert np.allclose((2.0 - 0.5 * op.coef) * x, v)

    def test_one_singular_element_raises(self):
        op = ScalarOperator(np.array([1.0, 4.0, -1.0]))
        assert op.singular(2.0, 0.5).tolist() == [False, True, False]
        with pytest.raises(StepFailureError):
            op.solve_shifted(2.0, 0.5, np.ones(3))


class TestWindingNumberArray:
    def test_circle_matches_angle_sum(self):
        circle = np.exp(1j * np.linspace(0, 2 * np.pi, 400, endpoint=False))
        pts = np.array([0.0, 0.3 - 0.4j, -0.99j, 0.7 + 0.7j, 1.01, 2.0 + 1j, -3.0, 0.5j])
        expected = [angle_sum_winding(circle, p) for p in pts]
        assert expected == [1, 1, 1, 1, 0, 0, 0, 1]
        assert image_winding_number(circle, pts).tolist() == expected
        assert image_winding_number(circle[::-1], pts).tolist() == [-w for w in expected]

    @pytest.mark.parametrize("lam", [0.0, -0.5, -1.0 + 0.2j])
    def test_mu_image_matches_angle_sum_away_from_curve(self, lam):
        image = mu_image(imex_scheme("biased", 3), lam, 1024)
        rng = np.random.default_rng(3)
        mus = rng.uniform(-2.0, 6.0, 300) + 1j * rng.uniform(-4.0, 4.0, 300)
        pts = image.finite_values()
        mus = mus[np.array([np.min(np.abs(pts - m)) > 1e-2 for m in mus])]
        got = image_winding_number(image.values, mus)
        assert got.tolist() == [angle_sum_winding(image.values, m) for m in mus]
        assert len(set(got.tolist())) > 1

    def test_scalar_and_array_agree(self):
        image = mu_image(imex_scheme("biased", 3), -0.5, 512)
        mus = np.array([[0.5 + 0.1j, 4.0 - 3.0j], [-1.5, 2.0 + 2.0j]])
        got = image_winding_number(image.values, mus)
        assert got.shape == (2, 2)
        for idx in np.ndindex(mus.shape):
            scalar = image_winding_number(image.values, mus[idx])
            assert isinstance(scalar, int)
            assert scalar == got[idx]

    def test_blocks_cover_every_mu(self):
        circle = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        mus = np.linspace(-2.0, 2.0, 201) + 0.01j  # more than three blocks
        expected = (np.abs(mus) < np.cos(np.pi / 64)).astype(int)
        assert image_winding_number(circle, mus).tolist() == expected.tolist()


class TestRootVsEmpiricalPairs:
    def test_selection_matches_scalar_draw_loop(self):
        s = imex_scheme("biased", 3)
        n_pairs, margin = 200, 0.05
        rng = np.random.default_rng(2024)
        pairs = []
        tried = 0
        while len(pairs) < n_pairs and tried < 100 * n_pairs:
            tried += 1
            lam = complex(rng.uniform(-2.5, 0.5), rng.uniform(-2.0, 2.0))
            mu = complex(rng.uniform(-4.0, 1.0), rng.uniform(-3.0, 3.0))
            verdict = root_condition(s, lam, mu)
            if abs(verdict.max_root_modulus - 1.0) <= margin:
                continue
            pairs.append((lam, mu, verdict.stable))
        lams, mus, stable = _root_vs_empirical_pairs(s, n_pairs, margin)
        assert lams.tolist() == [p[0] for p in pairs]
        assert mus.tolist() == [p[1] for p in pairs]
        assert stable.tolist() == [p[2] for p in pairs]

    def test_chunk_size_does_not_change_the_selection(self, monkeypatch):
        s = imex_scheme("biased", 3)
        b = _root_vs_empirical_pairs(s, 50, 0.05)
        monkeypatch.setattr(verify_module, "_VERDICT_CHUNK", 7)
        a = _root_vs_empirical_pairs(s, 50, 0.05)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
