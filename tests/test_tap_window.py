"""CirculantOperator.apply is one tap-window reduction. These tests pin it
bit for bit, signed zeros included, to the per-offset slice additions it
replaced on every stencil the library builds, and bound it against a dense
matrix on arbitrary stencils: any order, gaps, repeated offsets, zero
weights, and spans as wide as the grid or wider.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imexssp.integrate import CirculantOperator
from imexssp.problems import (
    AdvectionDiffusionConfig,
    GridSpec,
    advection_diffusion_1d,
    step_data,
    upwind_advection,
)

EPS = np.finfo(float).eps


def slice_add_apply(op, v):
    """CirculantOperator.apply as it was before the tap window: two wrapped
    slice additions per nonzero weight, in stored order."""
    out = np.zeros_like(v)
    n = len(v)
    for o, w in zip(op.offsets, op.weights):
        if w != 0.0:
            s = o % n
            out[:n - s] += w * v[s:]
            if s:
                out[n - s:] += w * v[:s]
    return out


def library_stencils(n):
    """The three stencils the library builds, on n cells."""
    adv = advection_diffusion_1d(GridSpec(n), AdvectionDiffusionConfig(0.35, 0.1), mode=1)
    return {
        "advection": adv.operator.explicit,
        "diffusion": adv.operator.implicit,
        "upwind": upwind_advection(GridSpec(n)).operator.explicit,
    }


# the two stencils of tests/test_integrate.py
TEST_STENCILS = {
    "3-point": ((-1, 0, 1), (1.0, -2.0, 1.0)),
    "4-point": ((1, 0, -1, -2), (0.3, 0.5, -1.0, 0.2)),
}


def data(n, kind):
    """Random data, step data with exact zeros, and data whose zeros carry
    random signs, where a sum that starts from anything but +0.0 shows."""
    rng = np.random.default_rng(n)
    steps = step_data(n)
    signs = rng.choice([-1.0, 1.0], n)
    cases = [rng.uniform(-1, 1, n), steps, -steps, steps * signs, np.copysign(0.0, signs)]
    if kind == "complex":
        cases = [u + 1j * u[::-1] for u in cases] + [steps - 1j * steps,
                                                      np.exp(2j * np.pi * np.arange(n) / n)]
    return cases


def assert_bits_equal(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got.view(float)), np.signbit(expected.view(float)))


@pytest.mark.parametrize("n", [8, 256, 4096])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", ["advection", "diffusion", "upwind"])
def test_library_stencils_bit_identical(name, kind, n):
    op = library_stencils(n)[name]
    for v in data(n, kind):
        assert_bits_equal(op.apply(v), slice_add_apply(op, v))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", sorted(TEST_STENCILS))
def test_test_stencils_bit_identical(name, kind, n):
    op = CirculantOperator(*TEST_STENCILS[name], n)
    for v in data(max(n, 2), kind):
        v = v[:n].copy()
        got, expected = op.apply(v), slice_add_apply(op, v)
        if n == 1:
            # one point: the tap axis is contiguous and NumPy sums it in
            # another order, so only the rounding of the sum is bounded
            scale = sum(abs(w) for w in op.weights) * abs(v[0])
            np.testing.assert_allclose(got, expected, rtol=0, atol=4 * EPS * scale)
        else:
            assert_bits_equal(got, expected)


def test_state_of_wrong_shape_rejected():
    op = CirculantOperator((0, -1), (-1.0, 1.0), 8)
    for v in (np.ones(7), np.ones(9), np.ones((8, 1))):
        with pytest.raises(ValueError, match="8 points"):
            op.apply(v)


def test_bad_stencil_rejected():
    with pytest.raises(ValueError, match="one weight per offset"):
        CirculantOperator((0, 1), (1.0,), 8)
    with pytest.raises(ValueError, match="at least 1 point"):
        CirculantOperator((0,), (1.0,), 0)


def test_empty_stencil_applies_zero():
    op = CirculantOperator((), (), 5)
    assert_bits_equal(op.apply(np.arange(5.0)), np.zeros(5))


def dense(op, weight=lambda w: w):
    m = np.zeros((op.n, op.n))
    for j in range(op.n):
        for o, w in zip(op.offsets, op.weights):
            m[j, (j + o) % op.n] += weight(w)
    return m


@settings(max_examples=200, deadline=None)
@given(
    stencil=st.lists(st.tuples(st.integers(-3, 3),
                               st.one_of(st.just(0.0), st.floats(-4.0, 4.0))),
                     min_size=1, max_size=5),
    n=st.integers(1, 64),
    complex_data=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# subnormal weights: the relative bound alone underflows to 0
@example(stencil=[(0, 2.2250738585e-313), (0, 2.2250738585e-313), (1, 2.2250738585e-313)],
         n=1, complex_data=False, seed=0)
def test_apply_matches_dense_property(stencil, n, complex_data, seed):
    offsets, weights = zip(*stencil)
    op = CirculantOperator(offsets, weights, n)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, n)
    if complex_data:
        v = v + 1j * rng.uniform(-1, 1, n)
    v[rng.uniform(size=n) < 0.2] = 0.0
    got = op.apply(v)
    assert got.shape == (n,) and np.iscomplexobj(got) == complex_data
    # each entry is a sum of at most 7 taps, and the dense reference merges
    # repeated offsets too: a few eps of sum |w| |v| covers both roundings,
    # plus a few units of underflow for subnormal weights
    bound = 8 * EPS * (dense(op, abs) @ np.abs(v)) + 8 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - dense(op) @ v) <= bound)
