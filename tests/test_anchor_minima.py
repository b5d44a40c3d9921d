"""Stage 1 of the sweep: the anchor directions' exact infima over a locus.

A family that carries its source map (explicit_boundary, restrict_curve)
has its anchor limits taken in closed form over the continuous locus; a
dense (theta*, theta) grid must never beat those rows. A family without a
source map keeps the sampled path, pinned here bit for bit. Golden section
runs only on brackets off the anchors, and SweepResult says which stage
located its minimum.
"""

import json
import math

import numpy as np
import pytest

from imexssp import stability
from imexssp import verify as verify_module
from imexssp.cli import main
from imexssp.schemes import imex_scheme, mcnab, scheme_from_id, ssp_explicit
from imexssp.stability import (
    ORIGIN_TOLERANCE,
    BoundaryCurve,
    explicit_boundary,
    imex_alpha_sweep,
    lambda_at,
    measure_alpha,
    mu_image,
)

GOLDEN_WIDTH = 2 * (2 * math.pi / 4096) * stability._INV_PHI ** stability._GOLDEN_STEPS


@pytest.fixture(scope="module")
def rows():
    """(scheme, lambda curve, result) of each sweep of the default angle table."""
    calls = []

    def recording(s, curve, n):
        calls.append((s, curve, imex_alpha_sweep(s, curve, n)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "imex_alpha_sweep", recording)
        verify_module.angle_table()
    return calls


def dense_family(s, nu, n):
    """n eigenvalues on the explicit locus at theta* = (k + 1/3) 2pi/n - pi,
    clipped to |Im| <= nu with the strip segments sampled as well; their
    ends are found by bisection on lambda_at, independently of the sweep."""
    theta = (np.arange(n) + 1 / 3) * 2 * np.pi / n - np.pi
    lam = lambda_at(s, theta)
    if nu is None:
        return lam
    inside = np.abs(lam.imag) <= nu
    i = np.flatnonzero(inside != np.roll(inside, -1))
    lo, hi = theta[i], theta[i] + 2 * np.pi / n
    for _ in range(60):
        mid = (lo + hi) / 2
        same = (np.abs(lambda_at(s, mid).imag) <= nu) == inside[i]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    ends = lambda_at(s, lo)
    # each excursion leaves the strip at one crossing and comes back at the next
    segments = [np.linspace(ends[k].real, ends[(k + 1) % len(i)].real, n // 4)
                + 1j * np.sign(ends[k].imag) * nu
                for k in range(len(i)) if inside[i[k]]]
    return np.concatenate([lam[inside], *segments])


def dense_alpha(s, lams, n):
    """The least wedge angle of the images of lams over n circle angles,
    offset from every theta* of dense_family by at least 2pi/(3n)."""
    theta = np.arange(n) * 2 * np.pi / n - np.pi
    best = math.inf
    for _, _, mu in stability._image_map(s).blocks(lams, theta):
        neg = -mu.real
        ok = np.isfinite(mu) & (neg > ORIGIN_TOLERANCE)
        if ok.any():
            best = min(best, float((np.abs(mu.imag[ok]) / neg[ok]).min()))
    return math.atan(best)


def test_a_dense_grid_never_beats_a_row(rows):
    for s, curve, result in rows:
        got = dense_alpha(s, dense_family(s, curve._nu, 512), 1024)
        assert got >= result.alpha - 1e-12, (s.name, got, result.alpha)
        # and it comes close: the grid samples near every row's infimum
        assert got <= result.alpha + 0.02, (s.name, got, result.alpha)


def test_rows_do_not_depend_on_the_lambda_sampling(rows):
    coarse = verify_module.angle_table(256, 4096)
    for (_, _, result), row in zip(rows, coarse):
        assert abs(row["alpha_measured"] - result.alpha) <= 1e-13, row["scheme"]


def test_every_row_is_a_closed_form_limit(rows):
    for s, curve, result in rows:
        if result.lam is None:
            assert result.alpha == math.pi / 2
            continue
        assert result.kind == "limit", s.name
        assert -math.pi <= result.theta_star < math.pi


# ---------------------------------------------------------------------------
# A family without a source map keeps the sampled path
# ---------------------------------------------------------------------------

def seeded_family(sid, seed):
    """The scheme's explicit locus at 128 samples without its source map:
    as it is (seed None) or scaled into the region by a seeded smooth factor."""
    s = scheme_from_id(sid)
    c = explicit_boundary(s, 128)
    if seed is None:
        return s, BoundaryCurve(c.theta, c.values, c.is_pole)
    rng = np.random.default_rng(seed)
    a, b, phase = rng.uniform([0.85, 0.0, -np.pi], [0.95, 0.03, np.pi])
    scale = a + b * np.cos(c.theta + phase)
    return s, BoundaryCurve(c.theta, c.values * scale, c.is_pole)


# imex_alpha_sweep(s, family, 512) before the closed form existed: alpha,
# tan_alpha, theta_star, lam, theta, mu, kind, n_evals, resolution
RECORDED = {
    ("imex-biased-k4", None): (
        0.7276032056016949, 0.8906104266198217, -2.724349879284899,
        (-1.3261838384110738+0.3830583338864955j), -2.724349879284899,
        (-0.746770609848003+0.6650816914238744j), "limit", 82264, 8.720831404007896e-13),
    ("imex-biased-k4", 1): (
        1.2715799133035701, 3.24172341352987, 2.086213871524472,
        (-1.0405762859497238-0.6045788518114821j), 1.5634674410082772,
        (-0.15411885439935546+0.4996106987727916j), "sample", 73996, 8.720831404007896e-13),
    ("imex-centred-k3", 2): (
        0.08642946430058777, 0.08664532017825817, -1.1780972450961724,
        (-0.11209132168179033+0.6474970817302368j), -1.5707963267948966,
        (-0.9962672983415438+0.08632189904793132j), "limit", 63734, 8.720831404007896e-13),
    ("imex-centred-k4", 3): (
        0.21415920849074488, 0.21749448767258425, -1.030835089459151,
        (-0.1707876019923013+0.5588157035477553j), -1.5707963267948966,
        (-0.9771554295648465+0.21252591952969027j), "limit", 66570, 8.720831404007896e-13),
    ("imex-bdf2", 4): (
        1.333418686098836, 4.133271960601172, -0.9326603190344698,
        (-0.1755818125634991+0.6364133288317912j), -1.1721573923309774,
        (-0.08437472157751036+0.34874367087985425j), "sample", 63752, 8.720831404007896e-13),
    ("mcnab", 5): (
        0.8763407809136943, 1.200690096121523, -1.3989904785517049,
        (-0.28702175295697624+0.7525705235158354j), -1.8010261853847724,
        (-0.4879094468455769+0.5858280406316149j), "sample", 58327, 8.720831404007896e-13),
    ("mcnab", None): (
        0.43584221019140595, 0.465711122289196, 1.7671458676442588,
        (-0.5114311862248299-0.7709249166517002j), 1.7671458676442588,
        (-0.9065148045768929-0.422174027011276j), "limit", 63760, 8.720831404007896e-13),
}


@pytest.mark.parametrize("sid,seed", sorted(RECORDED, key=str))
def test_a_family_without_source_map_is_swept_as_before(sid, seed):
    result = imex_alpha_sweep(*seeded_family(sid, seed), 512)
    assert tuple(result.__dict__.values()) == RECORDED[sid, seed]


def test_restrict_curve_passes_the_source_on():
    curve = explicit_boundary(ssp_explicit(3), 256)
    assert curve._source is stability._image_map(ssp_explicit(3), "B")
    clipped = stability.restrict_curve(curve, 1 / 3)
    assert (clipped._source, clipped._nu) == (curve._source, 1 / 3)
    # a curve built from the samples alone carries no source
    assert BoundaryCurve(curve.theta, curve.values, curve.is_pole)._source is None


# ---------------------------------------------------------------------------
# Golden section only off the anchors; what the result says was done
# ---------------------------------------------------------------------------

def test_golden_section_runs_only_where_a_bracket_is_off_the_anchors(monkeypatch):
    searched, current = [], []
    golden, sweep = stability._golden_min, verify_module.imex_alpha_sweep

    def counting(f, lo, hi, steps):
        searched.append((current[-1] if current else None, len(lo)))
        return golden(f, lo, hi, steps)

    def naming(s, curve, n):
        current.append(s.name)
        return sweep(s, curve, n)

    monkeypatch.setattr(stability, "_golden_min", counting)
    monkeypatch.setattr(verify_module, "imex_alpha_sweep", naming)
    verify_module.angle_table()
    # 18 of imex-biased-k4's 78 brackets lie off its anchors; every bracket
    # of the other rows lies within two grid steps of one
    assert searched == [("imex-biased-k4", 18)]
    # the same locus without its source map searches all 78, as before
    current.clear()
    searched.clear()
    c = explicit_boundary(ssp_explicit(4), 1024)
    imex_alpha_sweep(imex_scheme("biased", 4), BoundaryCurve(c.theta, c.values, c.is_pole), 4096)
    assert searched == [(None, 78)]


def test_angles_json_says_which_stage_located_each_row(tmp_path):
    out = tmp_path / "angles.json"
    assert main(["angles", "--format", "json", "--out", str(out)]) == 0
    for row in json.loads(out.read_text()):
        assert row["n_evals"] > 0
        if row["scheme"] == "imex-biased-k4":
            # golden section searched brackets there: their final width
            assert row["resolution"] == pytest.approx(GOLDEN_WIDTH, rel=1e-12)
        else:
            # the closed form alone: the Newton step left at its root
            assert 0 < row["resolution"] < 1e-12


# ---------------------------------------------------------------------------
# Pole directions at rounding level
# ---------------------------------------------------------------------------

def test_a_numerator_at_rounding_level_has_no_pole_direction():
    # lambda = -1 makes A - lambda B vanish at mcnab(0)'s pole z = -1: the
    # image is 2 - z, which constrains nothing
    curve = mu_image(mcnab(0), -1.0, 64)
    assert np.isnan(curve.asymptotes).all()
    assert measure_alpha(curve).alpha == math.pi / 2


def test_mcnab_c0_reads_zero_as_a_limit_at_the_pole(rows):
    s, _, result = rows[5]
    assert s == mcnab(0)
    assert result.kind == "limit" and result.theta == result.theta_star == -math.pi
    assert result.alpha <= 1e-15
