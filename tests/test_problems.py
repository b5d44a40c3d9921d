import numpy as np
import pytest

from imexssp.integrate import (
    BLOWUP_LIMIT,
    CirculantOperator,
    LinearSplitOperator,
    ScalarOperator,
    SplitProblem,
    ZeroOperator,
    integrate,
    start,
    step,
)
from imexssp.problems import (
    AdvectionDiffusionConfig,
    GridSpec,
    advection_diffusion_1d,
    convergence,
    dahlquist,
    dahlquist_for,
    fourier_modes,
    fourier_symbol_kappa,
    monotone_staircase,
    step_data,
    total_variation,
    tv_series,
    upwind_advection,
)
from imexssp.schemes import REGISTRY_IDS, forward_euler, scheme_from_id

PURE_IMPLICIT = [sid for sid in REGISTRY_IDS if sid.startswith("implicit-")]


class TestDahlquist:
    def test_exact_decay(self):
        prob = dahlquist(-0.4, -0.6)
        assert prob.exact(1.0)[0] == pytest.approx(np.exp(-1.0))

    def test_constant_solution(self):
        prob = dahlquist(0.0, 0.0)
        assert prob.exact(5.0)[0] == pytest.approx(1.0)

    def test_oscillatory_modulus_preserved(self):
        prob = dahlquist(1j, 0.0)
        for t in (0.5, 2.0, 7.0):
            assert abs(prob.exact(t)[0]) == pytest.approx(1.0)

    def test_operator_application(self):
        prob = dahlquist(-0.4, -0.6)
        y = np.array([2.0 + 0j])
        assert prob.operator.explicit.apply(y)[0] == pytest.approx(-0.8)
        assert prob.operator.implicit.apply(y)[0] == pytest.approx(-1.2)


class TestExperiments:
    @pytest.mark.parametrize("sid", REGISTRY_IDS)
    def test_rate_lies_on_the_parts_the_scheme_has(self, sid):
        s = scheme_from_id(sid)
        op = dahlquist_for(s).operator
        lam, mu = op.explicit.coef, op.implicit.coef
        assert lam + mu == -1
        assert (lam != 0) == any(s.b)
        assert (mu != 0) == s.is_implicit

    @pytest.mark.parametrize("sid", PURE_IMPLICIT)
    def test_pure_implicit_scheme_converges(self, sid):
        # with the rate on the explicit half, which b = 0 never applies, the
        # errors stayed near 0.18 and the fitted order near 0
        s = scheme_from_id(sid)
        errs, order = convergence(dahlquist_for(s), s, 1.0, [1 / 40, 1 / 80, 1 / 160, 1 / 320])
        assert max(errs) < 1e-3
        assert order > 1.9

    def test_tv_series_ends_on_the_level_past_the_guard(self):
        grid = GridSpec(256)
        s = scheme_from_id("ssp3")
        dt = 3 * grid.dx
        t, max_norm, tv, own = tv_series(upwind_advection(grid), s, 400 * dt, dt)
        assert len(t) == len(max_norm) == len(tv) < 401
        assert max_norm[-1] > BLOWUP_LIMIT >= max(max_norm[:-1])
        assert len(own) == len(tv) - s.k


class TestAdvectionDiffusion:
    def test_constant_field_annihilated(self):
        grid = GridSpec(32)
        prob = advection_diffusion_1d(grid, AdvectionDiffusionConfig(0.35, 0.1), mode=1)
        u = np.ones(32)
        np.testing.assert_allclose(prob.operator.explicit.apply(u), 0.0, atol=1e-13)
        np.testing.assert_allclose(prob.operator.implicit.apply(u), 0.0, atol=1e-13)

    def test_mode_eigenvalue_matches_symbol(self):
        grid = GridSpec(64)
        cfg = AdvectionDiffusionConfig(courant=0.35)
        dt = cfg.courant * grid.dx
        prob = advection_diffusion_1d(grid, cfg, mode=1)
        F = prob.operator.explicit
        for m in range(1, 32):
            phi = 2 * np.pi * m / 64
            u = np.exp(1j * phi * np.arange(64))
            applied = F.apply(u)
            expected = fourier_symbol_kappa(cfg, phi) / dt * u
            np.testing.assert_allclose(applied, expected, rtol=1e-10, atol=1e-12)

    def test_diffusion_eigenvalue(self):
        grid = GridSpec(64)
        cfg = AdvectionDiffusionConfig(courant=0.5, diffusion_number=0.2)
        dt = cfg.courant * grid.dx
        prob = advection_diffusion_1d(grid, cfg, mode=2)
        G = prob.operator.implicit
        for m in (1, 5, 20):
            phi = 2 * np.pi * m / 64
            expected = -(2 * cfg.diffusion_number / dt) * (1 - np.cos(phi))
            assert G.symbol(phi).real == pytest.approx(expected, rel=1e-12)
            assert G.symbol(phi).imag == pytest.approx(0.0, abs=1e-12)

    def test_stencil_third_order(self):
        errs = []
        for n in (32, 64, 128, 256):
            grid = GridSpec(n)
            prob = advection_diffusion_1d(grid, AdvectionDiffusionConfig(0.35), mode=1)
            x = np.arange(n) * grid.dx
            u = np.sin(2 * np.pi * x)
            target = -2 * np.pi * np.cos(2 * np.pi * x)  # explicit op is -du/dx
            errs.append(np.max(np.abs(prob.operator.explicit.apply(u) - target)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 2.9)

    def test_exact_mode_solution_second_order(self):
        grid = GridSpec(64)
        cfg = AdvectionDiffusionConfig(courant=0.35, diffusion_number=0.1)
        prob = advection_diffusion_1d(grid, cfg, mode=3)
        s = scheme_from_id("imex-biased-k3")

        def err(dt):
            final = integrate(prob, s, 0.25, dt)
            return np.max(np.abs(final - prob.exact(0.25)))

        assert err(1 / 512) / err(1 / 1024) == pytest.approx(4.0, abs=0.7)


class TestFourierModes:
    def advdiff(self, dnum=0.1, n=32):
        return advection_diffusion_1d(GridSpec(n), AdvectionDiffusionConfig(0.35, dnum), mode=1)

    def test_halves_are_the_grid_eigenvalues(self):
        prob = self.advdiff()
        modal = fourier_modes(prob)
        v = np.random.default_rng(5).uniform(-1, 1, 32)
        for half, diagonal in zip((prob.operator.explicit, prob.operator.implicit),
                                  (modal.operator.explicit, modal.operator.implicit)):
            assert isinstance(diagonal, ScalarOperator)
            assert diagonal.coef is half.eigenvalues
            np.testing.assert_allclose(diagonal.apply(np.fft.fft(v, norm="forward")),
                                       np.fft.fft(half.apply(v), norm="forward"), atol=1e-12)

    def test_halves_are_the_operators_modes(self):
        prob = self.advdiff()
        modal = fourier_modes(prob)
        assert modal.operator.explicit is prob.operator.explicit.modes
        assert modal.operator.implicit is prob.operator.implicit.modes

    def test_zero_half_stays_zero(self):
        modal = fourier_modes(self.advdiff(dnum=0.0))
        assert isinstance(modal.operator.explicit, ScalarOperator)
        assert isinstance(modal.operator.implicit, ZeroOperator)

    def test_no_exact_stays_none(self):
        prob = self.advdiff()
        assert fourier_modes(SplitProblem(prob.operator, None)).exact is None

    def test_exact_is_the_dft_of_the_physical_one(self):
        prob = self.advdiff()
        modal = fourier_modes(prob)
        for t in (0.0, 0.3):
            np.testing.assert_array_equal(modal.exact(t),
                                          np.fft.fft(prob.exact(t), norm="forward"))
        # a single Fourier mode: the blow-up guard reads the same max norm
        assert np.abs(modal.exact(0.3)).max() == pytest.approx(np.abs(prob.exact(0.3)).max(),
                                                               rel=1e-14)

    @pytest.mark.parametrize("sid", ["imex-biased-k3", "ssp3"])
    def test_stepping_matches_grid_values(self, sid):
        s = scheme_from_id(sid)
        prob = self.advdiff(dnum=0.1 if s.is_implicit else 0.0)
        dt = 0.35 / 32
        physical = integrate(prob, s, 40 * dt, dt)
        modal = integrate(fourier_modes(prob), s, 40 * dt, dt)
        np.testing.assert_allclose(np.fft.ifft(modal, norm="forward"), physical, atol=1e-13)

    @pytest.mark.parametrize("halves", [
        (ScalarOperator(1.0), ZeroOperator()),
        (ZeroOperator(), ZeroOperator()),
        (CirculantOperator((0, -1), (-1.0, 1.0), 8), CirculantOperator((0,), (1.0,), 9)),
    ])
    def test_rejects_what_the_dft_does_not_diagonalize(self, halves):
        with pytest.raises(ValueError, match="circulant"):
            fourier_modes(SplitProblem(LinearSplitOperator(*halves), None))


class TestFourierSymbol:
    def test_zero_at_constant_mode(self):
        cfg = AdvectionDiffusionConfig(0.35)
        assert fourier_symbol_kappa(cfg, 0.0) == 0.0

    def test_third_order_expansion(self):
        cfg = AdvectionDiffusionConfig(0.35)
        for phi in (1e-1, 1e-2, 1e-3):
            sym = fourier_symbol_kappa(cfg, phi)
            assert abs(sym + 1j * cfg.courant * phi) <= cfg.courant * phi**4
            assert sym.real <= 0.0

    def test_imaginary_extent_exceeds_third(self):
        cfg = AdvectionDiffusionConfig(0.35)
        phis = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
        assert np.max(np.abs(fourier_symbol_kappa(cfg, phis).imag)) > 1 / 3


class TestUpwind:
    def test_unit_courant_exact_shift(self):
        grid = GridSpec(32)
        prob = upwind_advection(grid)
        s = forward_euler()
        h = start(prob, s, grid.dx)
        y = step(s, h, prob.operator)
        np.testing.assert_allclose(y, np.roll(step_data(32), 1), atol=1e-14)

    def test_tv_non_increasing_at_half(self, level_record):
        grid = GridSpec(64)
        prob = upwind_advection(grid)
        dt = 0.5 * grid.dx
        rec = level_record()
        integrate(prob, forward_euler(), 50 * dt, dt, observe=rec)
        growth = np.diff(rec.tv)
        assert growth.max() <= 1e-13

    def test_exact_reads_the_operators_eigenvalues(self):
        grid = GridSpec(64)
        prob = upwind_advection(grid, monotone_staircase(64, seed=3))
        op = prob.operator.explicit
        sym = op.symbol(2 * np.pi * np.arange(64) / 64)
        np.testing.assert_array_equal(op.eigenvalues, sym)
        expected = np.fft.ifft(np.fft.fft(monotone_staircase(64, seed=3)) * np.exp(sym * 0.7))
        np.testing.assert_array_equal(prob.exact(0.7), expected.real)

    def test_tv_grows_beyond_cfl(self, level_record):
        grid = GridSpec(64)
        prob = upwind_advection(grid)
        dt = 1.2 * grid.dx
        rec = level_record()
        integrate(prob, forward_euler(), 20 * dt, dt, observe=rec)
        assert np.diff(rec.tv).max() > 1e-3

    def test_exact_semigroup_attached(self):
        grid = GridSpec(32)
        prob = upwind_advection(grid)
        u = prob.exact(0.0)
        np.testing.assert_allclose(u, step_data(32), atol=1e-12)
        assert total_variation(prob.exact(0.01)) <= total_variation(step_data(32)) + 1e-12

    def test_initial_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            upwind_advection(GridSpec(32), initial=np.ones(8))


class TestTotalVariation:
    def test_constant(self):
        assert total_variation(np.full(16, 3.7)) == 0.0

    def test_single_step(self):
        assert total_variation(step_data(32)) == pytest.approx(2.0)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(-2, 2, 40)
        assert total_variation(u) == pytest.approx(total_variation(u[::-1]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(-2, 2, 40)
        assert total_variation(np.roll(u, 7)) == pytest.approx(total_variation(u))


class TestInitialData:
    def test_step_data_values(self):
        u = step_data(16)
        assert u[:8].max() == u[:8].min() == 1.0
        assert u[8:].max() == u[8:].min() == 0.0

    def test_staircase_deterministic(self):
        np.testing.assert_array_equal(monotone_staircase(128, seed=5),
                                      monotone_staircase(128, seed=5))

    def test_staircase_tv(self):
        u = monotone_staircase(256)
        assert total_variation(u) == pytest.approx(2 * (u.max() - u.min()))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="8"):
            GridSpec(4)
        with pytest.raises(ValueError, match="nonnegative"):
            AdvectionDiffusionConfig(-0.1)


class TestSSPTotalVariation:
    @pytest.mark.parametrize("sid,sigma", [("ssp3", 0.5), ("ssp4", 2.0 / 3.0)])
    def test_tv_non_increasing_at_cfl(self, level_record, sid, sigma):
        grid = GridSpec(128)
        prob = upwind_advection(grid)
        dt = sigma * grid.dx
        rec = level_record()
        integrate(prob, scheme_from_id(sid), 100 * dt, dt, observe=rec)
        assert np.diff(rec.tv).max() <= 1e-12

    def test_tv_on_staircase(self, level_record):
        grid = GridSpec(128)
        prob = upwind_advection(grid, initial=monotone_staircase(128))
        dt = 0.5 * grid.dx
        rec = level_record()
        integrate(prob, scheme_from_id("ssp3"), 100 * dt, dt, observe=rec)
        assert np.diff(rec.tv).max() <= 1e-12
