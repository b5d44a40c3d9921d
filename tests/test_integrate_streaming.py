"""integrate() streams: it keeps only the k-level history and computes each
level's diagnostics as the level is produced. These tests pin its results to
the loop it replaced, which kept every state and computed the diagnostics
afterwards, pin the slice-based total_variation to the np.roll form it
replaced, and bound the memory one long run may trace.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imexssp.integrate import BLOWUP_LIMIT, BlowUpError, integrate, start, step
from imexssp.problems import (
    AdvectionDiffusionConfig,
    GridSpec,
    advection_diffusion_1d,
    dahlquist,
    monotone_staircase,
    total_variation,
    upwind_advection,
)
from imexssp.schemes import scheme_from_id, ssp_explicit


def roll_total_variation(u):
    """total_variation as it was computed before it used slices."""
    u = np.asarray(u)
    return float(np.sum(np.abs(np.roll(u, -1) - u)))


values = st.floats(-1e100, 1e100, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(values, values), min_size=1, max_size=80), st.booleans())
@example([(2.5, 0.0)], False)
@example([(1.0, -2.0)], True)
def test_total_variation_bit_identical_to_roll(pairs, complex_data):
    re, im = np.array(pairs).T
    u = re + 1j * im if complex_data else re
    assert total_variation(u) == roll_total_variation(u)


def store_every_state(problem, s, t_end, dt, on_blowup="raise"):
    """The store-every-state integrate() loop: (times, final, max_norm, tv)."""
    n_total = round((t_end - problem.t0) / dt)
    h = start(problem, s, dt)
    times = [problem.t0 + j * dt for j in range(s.k)]
    states = list(reversed([y.copy() for y in h.y]))
    for j in range(s.k - 1, n_total):
        y = step(s, h, problem.operator)
        times.append(problem.t0 + (j + 1) * dt)
        states.append(y.copy())
        norm = float(np.max(np.abs(y)))
        if not np.isfinite(norm) or norm > BLOWUP_LIMIT:
            if on_blowup == "raise":
                raise BlowUpError(j + 1, norm)
            break
    return (np.array(times), states[-1],
            np.array([float(np.max(np.abs(u))) for u in states]),
            np.array([roll_total_variation(u) for u in states]))


def staircase_tvd_run(n_cells, n_steps, seed):
    grid = GridSpec(n_cells)
    sigma = 0.5
    prob = upwind_advection(grid, initial=monotone_staircase(n_cells, seed=seed))
    dt = sigma * grid.dx
    return prob, n_steps * dt, dt


def advdiff_run():
    grid = GridSpec(128)
    cfg = AdvectionDiffusionConfig(courant=0.35, diffusion_number=0.4)
    prob = advection_diffusion_1d(grid, cfg, mode=1)
    dt = cfg.courant * grid.dx
    return prob, 200 * dt, dt


GOLDEN_RUNS = {
    "staircase-tvd-512": (lambda: staircase_tvd_run(512, 300, 3), "ssp3", "truncate"),
    "advdiff-complex": (advdiff_run, "imex-biased-k3", "raise"),
    "blowup-truncate": (lambda: (dahlquist(-1.5, 0.0), 200.0, 1.0), "ssp3", "truncate"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_streaming_matches_store_every_state(name):
    build, sid, on_blowup = GOLDEN_RUNS[name]
    prob, t_end, dt = build()
    s = scheme_from_id(sid)
    traj = integrate(prob, s, t_end, dt, on_blowup=on_blowup)
    times, final, max_norm, tv = store_every_state(prob, s, t_end, dt, on_blowup)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.final, final)
    np.testing.assert_array_equal(traj.diagnostics["max_norm"], max_norm)
    np.testing.assert_array_equal(traj.diagnostics["total_variation"], tv)
    if name == "advdiff-complex":
        assert np.iscomplexobj(traj.final)
    if name == "blowup-truncate":
        assert len(times) < 201
        assert max_norm[-1] > BLOWUP_LIMIT


def test_blowup_step_index_matches_store_every_state():
    prob, s = dahlquist(-1.5, 0.0), ssp_explicit(3)
    with pytest.raises(BlowUpError) as streamed:
        integrate(prob, s, 200.0, 1.0)
    with pytest.raises(BlowUpError) as stored:
        store_every_state(prob, s, 200.0, 1.0)
    assert streamed.value.step_index == stored.value.step_index
    assert streamed.value.norm == stored.value.norm


def test_traced_peak_does_not_grow_with_steps():
    # 2001 states of 4096 points would hold 65 MB; the history holds 3 levels
    prob, t_end, dt = staircase_tvd_run(4096, 2000, 7)
    s = scheme_from_id("ssp3")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        traj = integrate(prob, s, t_end, dt, on_blowup="truncate")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 2001
    assert peak < 2 * 2**20, f"integrate traced a peak of {peak / 2**20:.2f} MB"
