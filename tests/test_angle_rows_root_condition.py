"""The root condition on every row of the default angle table.

On each row's lambda family, mu on the two rays at angle alpha - margin from
the negative real axis gives no unstable pair, and mu at alpha + 2 margin
gives some unstable pair at the sweep's witness lambda. Each row's pairs go
through one batched root_verdicts call.
"""

import math

import numpy as np
import pytest

from imexssp import verify as verify_module
from imexssp.stability import imex_alpha_sweep, root_verdicts

MARGIN = 0.005 * math.pi
RADII = np.logspace(-3, 6, 19)


@pytest.fixture(scope="module")
def rows():
    """(row, scheme, lambda curve) of each sweep of the default angle table."""
    calls = []

    def recording(s, curve, n):
        calls.append((s, curve))
        return imex_alpha_sweep(s, curve, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "imex_alpha_sweep", recording)
        table = verify_module.angle_table()
    return [(row, s, curve) for row, (s, curve) in zip(table, calls)]


def ray_mus(psi):
    """mu at every radius on the rays at angle psi from the negative real axis."""
    return np.concatenate([RADII * np.exp(1j * (math.pi - sign * psi)) for sign in (1, -1)])


@pytest.mark.parametrize("index", range(8))
def test_row_is_sharp_by_the_root_condition(rows, index):
    row, s, curve = rows[index]
    alpha = row["alpha_measured"]
    family = curve.finite_values()[::4]
    # the row at alpha = 0 (mcnab c = 0) looks above on its family: its witness
    # lambda = -1 - 9.2e-17i sits where A - lambda B nearly vanishes at the pole
    # of C, and no unstable pair lies above it there; the row at pi/2 has no
    # witness and no above half
    witness = row["witness_lambda"]
    above = family if witness is None or alpha < MARGIN else np.full(len(family), witness)
    lams = np.stack([family, above])[:, :, None]
    mus = np.stack([ray_mus(alpha - MARGIN), ray_mus(alpha + 2 * MARGIN)])[:, None, :]
    stable_below, stable_above = root_verdicts(s, lams, mus).stable
    name = f"{row['scheme']} {row['params']}".strip()
    if alpha >= MARGIN:
        assert stable_below.all(), f"{name}: an unstable pair below alpha"
    if not math.isclose(alpha, math.pi / 2):
        assert not stable_above.all(), f"{name}: no unstable pair above alpha"
