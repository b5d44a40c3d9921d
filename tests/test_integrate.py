import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imexssp.integrate import (
    BlowUpError,
    CirculantOperator,
    History,
    LinearSplitOperator,
    ScalarOperator,
    StepFailureError,
    ZeroOperator,
    empirical_stability,
    integrate,
    solve_cyclic_tridiagonal,
    start,
    step,
)
from imexssp.problems import AdvectionDiffusionConfig, GridSpec, advection_diffusion_1d, dahlquist
from imexssp.schemes import (
    BUILTIN_IDS,
    char_polys,
    imex_scheme,
    mcnab,
    scheme_from_id,
    ssp_explicit,
)

ZERO_OP = LinearSplitOperator(ZeroOperator(), ZeroOperator())

# the package re-exports the function integrate under the module's name
integrate_module = importlib.import_module("imexssp.integrate")


def ones_history(k, dt=0.1):
    levels = [np.ones(1) for _ in range(k)]
    zeros = [np.zeros(1) for _ in range(k)]
    return History(k, levels, zeros, [z.copy() for z in zeros], t=(k - 1) * dt, dt=dt)


class TestCyclicTridiagonal:
    def build_dense(self, sub, diag, sup):
        n = len(diag)
        m = np.zeros((n, n), dtype=np.result_type(diag, sub))
        for j in range(n):
            m[j, j] += diag[j]
            m[j, (j - 1) % n] += sub[j]
            m[j, (j + 1) % n] += sup[j]
        return m

    @pytest.mark.parametrize("n", [3, 5, 12, 64])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        sub = rng.uniform(-1, 1, n)
        sup = rng.uniform(-1, 1, n)
        diag = 4.0 + rng.uniform(0, 1, n)  # diagonally dominant
        rhs = rng.uniform(-1, 1, n)
        x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
        expected = np.linalg.solve(self.build_dense(sub, diag, sup), rhs)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_complex_system(self):
        rng = np.random.default_rng(9)
        n = 16
        sub = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        sup = rng.uniform(-1, 1, n)
        diag = 5.0 + 1j * rng.uniform(0, 1, n)
        rhs = rng.uniform(-1, 1, n) + 0j
        x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
        np.testing.assert_allclose(
            x, np.linalg.solve(self.build_dense(sub, diag, sup), rhs), atol=1e-12)

    def test_no_corner_reduces_to_thomas(self):
        n = 10
        rng = np.random.default_rng(3)
        sub = rng.uniform(-1, 1, n)
        sup = rng.uniform(-1, 1, n)
        sub[0] = 0.0
        sup[-1] = 0.0
        diag = 4.0 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-1, 1, n)
        x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
        np.testing.assert_allclose(
            x, np.linalg.solve(self.build_dense(sub, diag, sup), rhs), atol=1e-12)


class TestOperators:
    def test_circulant_apply_matches_dense(self):
        n = 12
        op = CirculantOperator((1, 0, -1, -2), (0.3, 0.5, -1.0, 0.2), n)
        m = np.zeros((n, n))
        for j in range(n):
            for o, w in zip(op.offsets, op.weights):
                m[j, (j + o) % n] += w
        v = np.random.default_rng(0).uniform(-1, 1, n)
        np.testing.assert_allclose(op.apply(v), m @ v, atol=1e-14)

    def test_circulant_tridiagonal_solve_path(self):
        n = 16
        op = CirculantOperator((-1, 0, 1), (1.0, -2.0, 1.0), n)
        rhs = np.random.default_rng(1).uniform(-1, 1, n)
        x = op.solve_shifted(1.0, -0.3, rhs)
        m = np.eye(n)
        dense = np.zeros((n, n))
        for j in range(n):
            for o, w in zip(op.offsets, op.weights):
                dense[j, (j + o) % n] += w
        np.testing.assert_allclose(x, np.linalg.solve(m + 0.3 * dense, rhs), atol=1e-12)

    def test_circulant_fft_solve_path(self):
        n = 16
        op = CirculantOperator((1, 0, -1, -2), (0.3, 0.5, -1.0, 0.2), n)
        rhs = np.random.default_rng(2).uniform(-1, 1, n)
        x = op.solve_shifted(2.0, 0.1, rhs)
        dense = np.zeros((n, n))
        for j in range(n):
            for o, w in zip(op.offsets, op.weights):
                dense[j, (j + o) % n] += w
        np.testing.assert_allclose(
            x, np.linalg.solve(2.0 * np.eye(n) - 0.1 * dense, rhs), atol=1e-12)

    def test_circulant_symbol_mode_consistency(self):
        n = 32
        op = CirculantOperator((1, 0, -1, -2), (0.3, 0.5, -1.0, 0.2), n)
        for m in (0, 1, 5, 15):
            phi = 2 * np.pi * m / n
            u = np.exp(1j * phi * np.arange(n))
            np.testing.assert_allclose(op.apply(u), op.symbol(phi) * u, atol=1e-12)

    def test_scalar_singular_solve(self):
        op = ScalarOperator(2.0)
        with pytest.raises(StepFailureError):
            op.solve_shifted(1.0, 0.5, np.ones(1))

    @pytest.mark.parametrize("coef", [-0.75 + 0.5j, np.array([2.0, -1.5, 0.25j])])
    def test_scalar_alternating_shifts_never_stale(self, coef):
        op = ScalarOperator(coef)
        rhs = np.array([1.0, -0.3, 2.5])
        pairs = [(1.5, 0.1), (1.0, -0.4), (1.5, 0.1), (2.0, 0.1), (2.0, 0.1), (1.0, -0.4)]
        for alpha, beta in pairs:
            np.testing.assert_array_equal(op.solve_shifted(alpha, beta, rhs),
                                          rhs / (alpha - beta * coef))

    def test_scalar_singular_shift_raises_every_time(self):
        op = ScalarOperator(np.array([2.0, -1.0]))
        rhs = np.ones(2)
        good = op.solve_shifted(1.0, 0.25, rhs)
        for _ in range(3):
            with pytest.raises(StepFailureError):
                op.solve_shifted(1.0, 0.5, rhs)  # 1 - 0.5 * 2 = 0
        np.testing.assert_array_equal(op.solve_shifted(1.0, 0.25, rhs), good)
        with pytest.raises(StepFailureError):
            op.solve_shifted(1.0, 0.5, rhs)
        np.testing.assert_array_equal(op.solve_shifted(2.0, 0.5, rhs), rhs / np.array([1.0, 2.5]))


STENCILS = {
    "3-point": ((-1, 0, 1), (1.0, -2.0, 1.0)),
    "4-point": ((1, 0, -1, -2), (0.3, 0.5, -1.0, 0.2)),
}


def dense_circulant(op):
    m = np.zeros((op.n, op.n))
    for j in range(op.n):
        for o, w in zip(op.offsets, op.weights):
            m[j, (j + o) % op.n] += w
    return m


class TestCirculantFFTSolve:
    @pytest.mark.parametrize("stencil", sorted(STENCILS))
    @pytest.mark.parametrize("n", [3, 5, 12, 64])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_dense_solve(self, stencil, n, kind):
        op = CirculantOperator(*STENCILS[stencil], n)
        rng = np.random.default_rng(n)
        rhs = rng.uniform(-1, 1, n)
        if kind == "complex":
            rhs = rhs + 1j * rng.uniform(-1, 1, n)
        x = op.solve_shifted(2.0, 0.1, rhs)
        assert np.iscomplexobj(x) == (kind == "complex")
        expected = np.linalg.solve(2.0 * np.eye(n) - 0.1 * dense_circulant(op), rhs)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    @pytest.mark.parametrize("stencil", sorted(STENCILS))
    def test_alternating_shifts_never_stale(self, stencil):
        n = 12
        op = CirculantOperator(*STENCILS[stencil], n)
        dense = dense_circulant(op)
        rng = np.random.default_rng(3)
        pairs = [(1.5, 0.05), (1.0, 0.025)]
        for i in range(6):
            alpha, beta = pairs[i % 2]
            rhs = rng.uniform(-1, 1, n)
            expected = np.linalg.solve(alpha * np.eye(n) - beta * dense, rhs)
            np.testing.assert_allclose(op.solve_shifted(alpha, beta, rhs), expected,
                                       atol=1e-12)

    def test_singular_shift_raises_every_time(self):
        # 1 + 0.25 * symbol vanishes on the phi = pi mode of the 3-point stencil
        op = CirculantOperator(*STENCILS["3-point"], 12)
        rhs = np.ones(12)
        for _ in range(2):
            with pytest.raises(StepFailureError):
                op.solve_shifted(1.0, -0.25, rhs)
        x = op.solve_shifted(2.0, 0.1, rhs)
        np.testing.assert_allclose(x, np.full(12, 0.5), atol=1e-14)
        with pytest.raises(StepFailureError):
            op.solve_shifted(1.0, -0.25, rhs)

    @pytest.mark.parametrize("stencil", sorted(STENCILS))
    @pytest.mark.parametrize("n", [3, 5, 64])
    def test_apply_bit_identical_to_roll(self, stencil, n):
        op = CirculantOperator(*STENCILS[stencil], n)
        v = np.random.default_rng(n).uniform(-1, 1, n)
        expected = np.zeros(n)
        for o, w in zip(op.offsets, op.weights):
            expected += w * np.roll(v, -o)
        np.testing.assert_array_equal(op.apply(v), expected)


@settings(max_examples=150, deadline=None)
@given(
    stencil=st.lists(st.tuples(st.integers(-3, 3), st.floats(-1.0, 1.0)),
                     min_size=1, max_size=5),
    n=st.integers(3, 64),
    alpha=st.floats(0.1, 4.0),
    beta=st.floats(-1.0, 1.0),
    complex_rhs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# LU with partial pivoting grows its pivots by 7.7e5 on this well-conditioned
# (cond 3.5) matrix, so an unrefined dense solve is off by 6.6e-11
@example(stencil=[(0, -0.5), (1, 0.375), (2, -0.4375)], n=46, alpha=0.5, beta=-0.625,
         complex_rhs=False, seed=1)
def test_circulant_solve_matches_dense_property(stencil, n, alpha, beta, complex_rhs, seed):
    offsets, ws = zip(*stencil)
    op = CirculantOperator(offsets, ws, n)
    shifted = alpha * np.eye(n) - beta * dense_circulant(op)
    eig = np.abs(alpha - beta * op.symbol(2 * np.pi * np.arange(n) / n))
    assume(eig.min() >= 1e-2 * max(1.0, eig.max()))
    rng = np.random.default_rng(seed)
    rhs = rng.uniform(-1, 1, n)
    if complex_rhs:
        rhs = rhs + 1j * rng.uniform(-1, 1, n)
    x = op.solve_shifted(alpha, beta, rhs)
    assert np.iscomplexobj(x) == complex_rhs
    # the FFT solve is backward stable: a small normwise residual
    residual = np.abs(rhs - shifted @ x).max()
    scale = np.abs(shifted).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
    assert residual <= 1e3 * np.finfo(float).eps * scale
    # the dense reference needs one step of iterative refinement: pivot growth
    # in LU can cost it far more than cond * eps
    expected = np.linalg.solve(shifted, rhs)
    expected = expected + np.linalg.solve(shifted, rhs - shifted @ expected)
    # error <~ n eps cond |x|, with cond <= 100 here
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-11 * np.abs(expected).max())


class TestStep:
    def test_constant_preserved(self):
        h = ones_history(3)
        y = step(ssp_explicit(3), h, ZERO_OP)
        assert y[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    def test_constants_fixed_points(self, sid):
        s = scheme_from_id(sid)
        h = ones_history(s.k)
        y = step(s, h, ZERO_OP)
        assert y[0] == pytest.approx(1.0, abs=1e-14)

    def test_crank_nicolson_amplification(self):
        mu = -0.7 + 0.3j
        dt = 0.1
        s = mcnab(0)
        prob = dahlquist(0, mu)
        h = start(prob, s, dt)
        y = step(s, h, prob.operator)
        z = dt * mu
        expected = (1 + z / 2) / (1 - z / 2) * np.exp(mu * dt)
        assert y[0] == pytest.approx(expected, rel=1e-13)

    def test_third_order_local_error(self):
        # one step from exact history: local error O(dt^3)
        s = imex_scheme("biased", 3)
        mu = -1.0

        def local_error(dt):
            prob = dahlquist(0, mu)
            h = start(prob, s, dt)
            y = step(s, h, prob.operator)
            return abs(y[0] - np.exp(mu * s.k * dt))

        ratio = local_error(0.02) / local_error(0.01)
        assert 6.0 < ratio < 10.0

    def test_superposition(self):
        rng = np.random.default_rng(11)
        offsets = (1, 0, -1, -2)
        f_op = CirculantOperator(offsets, rng.uniform(-1, 1, 4), 4)
        g_op = CirculantOperator(offsets, rng.uniform(-1, 1, 4), 4)
        op = LinearSplitOperator(f_op, g_op)
        s = imex_scheme("biased", 3)

        def history_from(levels):
            return History(3, [lv.copy() for lv in levels],
                           [f_op.apply(lv) for lv in levels],
                           [g_op.apply(lv) for lv in levels], t=0.3, dt=0.1)

        l1 = [rng.uniform(-1, 1, 4) for _ in range(3)]
        l2 = [rng.uniform(-1, 1, 4) for _ in range(3)]
        rho = 0.37
        y_combined = step(s, history_from([a + rho * b for a, b in zip(l1, l2)]), op)
        y1 = step(s, history_from(l1), op)
        y2 = step(s, history_from(l2), op)
        np.testing.assert_allclose(y_combined, y1 + rho * y2, atol=1e-13)

    def test_wrong_history_depth(self):
        with pytest.raises(ValueError, match="levels"):
            step(ssp_explicit(3), ones_history(2), ZERO_OP)

    def test_singular_implicit_stage(self):
        # a_0 - dt c_0 mu = 0 at mu = a_0/(dt c_0)
        s = imex_scheme("biased", 3)
        dt = 0.1
        mu = float(s.a[0] / (dt * s.c[0]))
        prob = dahlquist(0, mu)
        h = start(prob, s, dt)
        with pytest.raises(StepFailureError):
            step(s, h, prob.operator)


def indexed_step(s, h, op):
    """step() as it was: NumPy-scalar weights indexed from the float arrays."""
    if h.k != s.k:
        raise ValueError(f"history holds {h.k} levels but the scheme needs {s.k}")
    a = s.a_array()
    b = s.b_array()
    c = s.c_array()
    if a[0] == 0:
        raise ValueError("a_0 must be nonzero")
    dt = h.dt
    rhs = np.zeros_like(h.y[0])
    for i in range(1, s.k + 1):
        lvl = i - 1
        if a[i] != 0:
            rhs = rhs - a[i] * h.y[lvl]
        if b[i] != 0:
            rhs = rhs + dt * b[i] * h.f[lvl]
        if c[i] != 0:
            rhs = rhs + dt * c[i] * h.g[lvl]
    y_new = op.implicit.solve_shifted(a[0], dt * c[0], rhs)
    h.push(y_new, op.explicit.apply(y_new), op.implicit.apply(y_new))
    return y_new


def recorded(monkeypatch, stepper, run):
    """run() with every call integrate_module.step makes routed through
    stepper; returns run's result and a copy of every state stepped to."""
    states = []

    def recording(s, h, op):
        y = stepper(s, h, op)
        states.append(y.copy())
        return y

    with monkeypatch.context() as m:
        m.setattr(integrate_module, "step", recording)
        result = run()
    assert states
    return result, states


def advdiff_problem():
    grid = GridSpec(64)
    cfg = AdvectionDiffusionConfig(courant=0.35, diffusion_number=0.4)
    dt = cfg.courant * grid.dx
    return advection_diffusion_1d(grid, cfg, mode=3), 60 * dt, dt


class TestStepWeightsGolden:
    """step() reads Python-float weights built once per scheme; every state
    must be bit-identical to the indexed NumPy-scalar loop."""

    @staticmethod
    def assert_same(monkeypatch, run):
        new, new_states = recorded(monkeypatch, step, run)
        old, old_states = recorded(monkeypatch, indexed_step, run)
        assert len(new_states) == len(old_states)
        for x, y in zip(new_states, old_states):
            np.testing.assert_array_equal(x, y)
            assert x.dtype == y.dtype
        return new, old

    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    @pytest.mark.parametrize("complex_lam", [False, True])
    def test_dahlquist_trajectories(self, monkeypatch, sid, complex_lam):
        s = scheme_from_id(sid)
        lam, mu = (-0.4, -0.6) if s.is_implicit else (-1.0, 0.0)
        if complex_lam:
            lam += 0.3j
        new, old = self.assert_same(
            monkeypatch, lambda: integrate(dahlquist(lam, mu), s, 1.0, 1 / 80))
        np.testing.assert_array_equal(new.times, old.times)
        np.testing.assert_array_equal(new.final, old.final)
        for name in ("max_norm", "total_variation"):
            np.testing.assert_array_equal(new.diagnostics[name], old.diagnostics[name])

    def test_advdiff_circulant_trajectory(self, monkeypatch):
        s = scheme_from_id("imex-biased-k3")

        def run():
            prob, t_end, dt = advdiff_problem()
            return integrate(prob, s, t_end, dt)

        new, old = self.assert_same(monkeypatch, run)
        assert np.iscomplexobj(new.final)
        np.testing.assert_array_equal(new.final, old.final)
        np.testing.assert_array_equal(new.diagnostics["total_variation"],
                                      old.diagnostics["total_variation"])

    @pytest.mark.parametrize("sid", ["imex-biased-k3", "mcnab", "ssp4"])
    def test_empirical_stability_batch(self, monkeypatch, sid):
        s = scheme_from_id(sid)
        rng = np.random.default_rng(5)
        lams = rng.uniform(-2.5, 0.5, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
        mus = rng.uniform(-4.0, 1.0, 40) + 1j * rng.uniform(-3.0, 3.0, 40)
        new, old = self.assert_same(monkeypatch,
                                    lambda: empirical_stability(s, lams, mus, 300))
        np.testing.assert_array_equal(new, old)

    def test_step_weights_are_the_nonzero_python_floats(self):
        for sid in BUILTIN_IDS:
            s = scheme_from_id(sid)
            a0, c0, terms = s.step_weights()
            assert (a0, c0) == (s.a_array()[0], s.c_array()[0])
            assert type(a0) is float and type(c0) is float
            expected = [(i - 1, s.a_array()[i], s.b_array()[i], s.c_array()[i])
                        for i in range(1, s.k + 1)
                        if s.a[i] or s.b[i] or s.c[i]]
            assert list(terms) == expected
            assert all(type(w) is float for term in terms for w in term[1:])


class TestStart:
    def test_exact_levels(self):
        prob = dahlquist(-1.0, 0.0)
        h = start(prob, ssp_explicit(3), 0.1)
        assert h.y[2][0] == pytest.approx(1.0)
        assert h.y[1][0] == pytest.approx(np.exp(-0.1))
        assert h.y[0][0] == pytest.approx(np.exp(-0.2))
        assert h.t == pytest.approx(0.2)

    def test_two_step_schemes_need_two_levels(self):
        h = start(dahlquist(-1.0, 0.0), mcnab(0.125), 0.1)
        assert h.k == 2
        assert len(h.y) == 2

    def test_exact_mode_requires_exact_solution(self):
        prob = dataclasses.replace(dahlquist(-1.0, 0.0), exact=None)
        with pytest.raises(ValueError, match="exact"):
            start(prob, ssp_explicit(3), 0.1)



class TestIntegrate:
    def test_dahlquist_second_order(self):
        s = imex_scheme("biased", 3)

        def err(dt):
            prob = dahlquist(-0.4, -0.6)
            traj = integrate(prob, s, 1.0, dt)
            return abs(traj.final[0] - np.exp(-1.0))

        assert err(1 / 100) / err(1 / 200) == pytest.approx(4.0, abs=0.6)

    def test_zero_operators_constant(self):
        prob = dahlquist(0.0, 0.0)
        s = ssp_explicit(3)
        h = start(prob, s, 0.1)
        levels = list(reversed(h.y))
        while len(levels) < 21:  # t = 0, 0.1, ..., 2.0
            levels.append(step(s, h, prob.operator))
        assert all(abs(u[0] - 1.0) < 1e-13 for u in levels)

    def test_blow_up_outside_region(self):
        with pytest.raises(BlowUpError, match="blow-up detected"):
            integrate(dahlquist(-1.5, 0.0), ssp_explicit(3), 200.0, 1.0)

    def test_blow_up_truncate(self):
        traj = integrate(dahlquist(-1.5, 0.0), ssp_explicit(3), 200.0, 1.0,
                         on_blowup="truncate")
        assert len(traj.times) < 201
        assert traj.diagnostics["max_norm"][-1] > 1e10

    @pytest.mark.parametrize("sid", ["ssp3", "ssp4", "mcnab"])
    def test_interval_holding_only_the_starting_levels_rejected(self, sid):
        s = scheme_from_id(sid)
        with pytest.raises(ValueError, match=f"k={s.k} starting levels"):
            integrate(dahlquist(-1.0, 0.0), s, (s.k - 1) * 0.1, 0.1)
        traj = integrate(dahlquist(-1.0, 0.0), s, s.k * 0.1, 0.1)
        assert len(traj.times) == s.k + 1

    def test_non_integral_interval(self):
        with pytest.raises(ValueError, match="integer"):
            integrate(dahlquist(-1.0, 0.0), ssp_explicit(3), 1.0, 0.3)

    def test_infinite_t_end_rejected(self):
        with pytest.raises(ValueError, match="t_end must be finite"):
            integrate(dahlquist(-1.0, 0.0), ssp_explicit(3), np.inf, 0.1)

    @pytest.mark.parametrize("dt", [np.nan, -0.1, np.inf])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(dahlquist(-1.0, 0.0), ssp_explicit(3), 1.0, dt)

    def test_diagnostics_recorded(self):
        traj = integrate(dahlquist(-1.0, 0.0), ssp_explicit(3), 1.0, 0.1)
        assert len(traj.diagnostics["max_norm"]) == len(traj.times) == 11
        assert traj.diagnostics["max_norm"][0] == pytest.approx(1.0)


class TestGrowthFactor:
    def test_growth_matches_dominant_characteristic_root(self):
        # after transients, the per-step ratio of the scalar recurrence must
        # converge to the dominant root of the characteristic polynomial
        s = imex_scheme("biased", 3)
        lam, mu = -0.3 + 0.4j, -1.2
        polys = char_polys(s)
        roots = np.roots(polys.A.astype(complex) - lam * polys.B - mu * polys.C)
        dominant = roots[np.argmax(np.abs(roots))]

        prob = dahlquist(lam, mu)
        op = prob.operator
        levels = [np.array([1.0 + 0j]) for _ in range(3)]
        h = History(3, levels, [op.explicit.apply(y) for y in levels],
                    [op.implicit.apply(y) for y in levels], t=2.0, dt=1.0)
        prev = h.y[0][0]
        for _ in range(300):
            y = step(s, h, op)
            ratio, prev = y[0] / prev, y[0]
        assert abs(ratio - dominant) < 1e-8


class TestEmpiricalStability:
    def test_inside_real_interval(self):
        assert empirical_stability(ssp_explicit(3), -1.0, 0.0)

    def test_outside_real_interval(self):
        assert not empirical_stability(ssp_explicit(3), -1.5, 0.0)

    def test_stiff_implicit(self):
        assert empirical_stability(imex_scheme("biased", 3), -1.0, -100.0)

    def test_needs_enough_steps(self):
        with pytest.raises(ValueError, match="100"):
            empirical_stability(ssp_explicit(3), -1.0, 0.0, n_steps=10)
