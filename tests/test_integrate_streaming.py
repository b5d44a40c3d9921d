"""levels() streams: it keeps only the k-level history and yields each level
with its max norm as the level is produced; integrate() folds it, and an
observer sees every level on the way. These tests pin what levels() yields,
and what integrate() returns and shows its observer, to the loop they
replaced, which kept every state and computed the diagnostics afterwards,
pin the slice-based total_variation to the np.roll form it replaced, and
bound the memory one long run may trace.
"""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imexssp.integrate import BLOWUP_LIMIT, BlowUpError, integrate, levels, start, step
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


def store_every_state(problem, s, t_end, dt):
    """The store-every-state integrate() loop, ending on a level that passes
    the overflow guard: (times, final, max_norm, tv, states)."""
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
            break
    return (np.array(times), states[-1],
            np.array([float(np.max(np.abs(u))) for u in states]),
            np.array([roll_total_variation(u) for u in states]), states)


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


# name: (build, scheme id, whether the run passes the overflow guard)
GOLDEN_RUNS = {
    "staircase-tvd-512": (lambda: staircase_tvd_run(512, 300, 3), "ssp3", False),
    "advdiff-complex": (advdiff_run, "imex-biased-k3", False),
    "blowup-truncate": (lambda: (dahlquist(-1.5, 0.0), 200.0, 1.0), "ssp3", True),
}


def blows_up(expected):
    return pytest.raises(BlowUpError) if expected else nullcontext()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_streaming_matches_store_every_state(name, level_record):
    build, sid, blown = GOLDEN_RUNS[name]
    prob, t_end, dt = build()
    s = scheme_from_id(sid)
    rec = level_record()
    with blows_up(blown):
        integrate(prob, s, t_end, dt, observe=rec)
    times, final, max_norm, tv, _ = store_every_state(prob, s, t_end, dt)
    assert len(rec.tv) == len(times)
    np.testing.assert_array_equal(rec.last, final)
    np.testing.assert_array_equal(rec.max_norm, max_norm)
    np.testing.assert_array_equal(rec.tv, tv)
    if name == "advdiff-complex":
        assert np.iscomplexobj(rec.last)
    if name == "blowup-truncate":
        assert len(times) < 201
        assert max_norm[-1] > BLOWUP_LIMIT


def test_blowup_step_index_matches_store_every_state():
    prob, s = dahlquist(-1.5, 0.0), ssp_explicit(3)
    with pytest.raises(BlowUpError) as streamed:
        integrate(prob, s, 200.0, 1.0)
    times, _, max_norm, _, _ = store_every_state(prob, s, 200.0, 1.0)
    assert streamed.value.step_index == len(times) - 1
    assert streamed.value.norm == max_norm[-1]


def test_traced_peak_does_not_grow_with_steps(level_record):
    # 2001 states of 4096 points would hold 65 MB; the history holds 3 levels
    prob, t_end, dt = staircase_tvd_run(4096, 2000, 7)
    s = scheme_from_id("ssp3")
    rec = level_record()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        integrate(prob, s, t_end, dt, observe=rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rec.tv) == 2001
    assert peak < 2 * 2**20, f"integrate traced a peak of {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_levels_yield_every_stored_state(name):
    build, sid, blown = GOLDEN_RUNS[name]
    prob, t_end, dt = build()
    s = scheme_from_id(sid)
    yielded = []
    with blows_up(blown):
        for j, y, norm in levels(prob, s, t_end, dt):
            yielded.append((j, y.copy(), norm))
    _, _, max_norm, _, states = store_every_state(prob, s, t_end, dt)
    assert [j for j, _, _ in yielded] == list(range(len(states)))
    for (_, y, norm), state, expected in zip(yielded, states, max_norm):
        np.testing.assert_array_equal(y, state)
        assert y.dtype == state.dtype
        assert norm == expected


@pytest.mark.parametrize("name", ["advdiff-complex", "staircase-tvd-512"])
def test_integrate_returns_the_last_state(name):
    build, sid, _ = GOLDEN_RUNS[name]
    prob, t_end, dt = build()
    s = scheme_from_id(sid)
    final = integrate(prob, s, t_end, dt)
    _, expected, _, _, _ = store_every_state(prob, s, t_end, dt)
    np.testing.assert_array_equal(final, expected)
    assert final.dtype == expected.dtype


# ssp3 on y' = -1.5 y at dt = 1 passes the guard first at level 98; with
# t_end = 98 that level is also the last one
@pytest.mark.parametrize("t_end", [200.0, 98.0])
def test_blown_level_is_yielded_before_blowup_error(t_end):
    prob, s = dahlquist(-1.5, 0.0), ssp_explicit(3)
    yielded = []
    with pytest.raises(BlowUpError) as raised:
        for j, y, norm in levels(prob, s, t_end, 1.0):
            yielded.append((j, norm))
    times, _, max_norm, _, _ = store_every_state(prob, s, 200.0, 1.0)
    assert (raised.value.step_index, raised.value.norm) == (98, 1297487047722.401)
    assert (raised.value.step_index, raised.value.norm) == (len(times) - 1, max_norm[-1])
    assert yielded[-1] == (98, raised.value.norm)
    assert len(yielded) == 99
