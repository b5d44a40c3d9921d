"""The image-map kernel and the coarse-scan-plus-refine sweep.

The kernel is checked against an inline copy of the old per-lambda
evaluation (A - lam B)/C, the sweep against an inline copy of the old dense
lambda x theta sweep, and the witness against the map's own sample. The CLI and input
rejections that ride along are at the end.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imexssp import stability
from imexssp import verify as verify_module
from imexssp.cli import main
from imexssp.schemes import BUILTIN_IDS, char_polys, polyval, scheme_from_id
from imexssp.stability import (
    POLE_TOLERANCE,
    BoundaryCurve,
    SweepResult,
    WedgeAngle,
    explicit_boundary,
    imex_alpha_sweep,
    lambda_at,
    mu_image,
)

IMPLICIT_IDS = [sid for sid in BUILTIN_IDS if any(scheme_from_id(sid).c)]


# ---------------------------------------------------------------------------
# Inline copies of the old evaluation and of the old dense sweep
# ---------------------------------------------------------------------------

def old_eval_den(den, theta, pole_angles):
    den = np.asarray(den, dtype=complex)
    vals = polyval(den, np.exp(1j * theta))
    for theta_p in pole_angles:
        d = theta - theta_p
        d = d - 2 * np.pi * np.round(d / (2 * np.pi))
        mask = np.abs(d) < 0.05
        if not mask.any():
            continue
        dm = d[mask]
        w = 2j * np.sin(dm / 2) * np.exp(1j * (theta_p + dm / 2))
        z_p = np.exp(1j * theta_p)
        deriv = den
        acc = np.zeros(len(dm), dtype=complex)
        wpow = np.ones(len(dm), dtype=complex)
        fact = 1.0
        for m in range(1, len(den)):
            deriv = np.polynomial.polynomial.polyder(deriv)
            wpow = wpow * w
            fact *= m
            acc += polyval(deriv, z_p) / fact * wpow
        vals[mask] = acc
    return vals


def old_image(s, lams, theta):
    """Per-lambda rows (A - lam B)/C_safe over theta, nan at poles; also the
    per-sample scale (|A| + |lam||B|)/|C|, with |A| and |B| the sums of the
    coefficient moduli. Those bound |A(z)| and |B(z)| on the circle and set
    the rounding error of either evaluation; the values themselves do not,
    since A(1) = 0 for every consistent scheme."""
    polys = char_polys(s)
    pole_angles = stability._unit_circle_poles(polys.C)[0]
    z = np.exp(1j * theta)
    A = polyval(polys.A, z)
    B = polyval(polys.B, z)
    C = old_eval_den(polys.C, theta, pole_angles)
    pole = np.abs(C) < POLE_TOLERANCE
    C_safe = np.where(pole, 1.0, C)
    phi = (A[None, :] - lams[:, None] * B[None, :]) / C_safe[None, :]
    phi[:, pole] = np.nan
    scale = (np.abs(polys.A).sum() + np.abs(lams)[:, None] * np.abs(polys.B).sum()) \
        / np.abs(C_safe)[None, :]
    return phi, scale


def old_min_angle(values):
    v = values[np.isfinite(values) & (values.real < -stability.ORIGIN_TOLERANCE)]
    if len(v) == 0:
        return math.pi / 2
    return float(np.arctan2(np.abs(v.imag), -v.real).min())


# the old sweep's zoom samples around each lambda's own curve parameter
ZERO_ZOOM_OFFSETS = np.concatenate([10.0 ** -np.arange(1.5, 6.1, 0.5),
                                    -(10.0 ** -np.arange(1.5, 6.1, 0.5))])


def old_dense_sweep(s, lambda_curve, n_theta, block=64):
    polys = char_polys(s)
    keep = ~lambda_curve.is_pole
    lams = lambda_curve.values[keep]
    lam_thetas = lambda_curve.theta[keep]
    pole_angles = stability._unit_circle_poles(polys.C)[0]
    theta = stability._theta_grid(n_theta, pole_angles)
    z = np.exp(1j * theta)
    A = polyval(polys.A, z)
    B = polyval(polys.B, z)
    C = old_eval_den(polys.C, theta, pole_angles)
    pole = np.abs(C) < POLE_TOLERANCE
    C_safe = np.where(pole, 1.0, C)
    alpha = math.pi / 2
    for start in range(0, len(lams), block):
        lam = lams[start:start + block, None]
        phi = (A[None, :] - lam * B[None, :]) / C_safe[None, :]
        phi[:, pole] = np.nan
        alpha = min(alpha, old_min_angle(phi.ravel()))
        th_extra = np.mod(lam_thetas[start:start + block, None]
                          + ZERO_ZOOM_OFFSETS[None, :] + np.pi, 2 * np.pi) - np.pi
        z_e = np.exp(1j * th_extra)
        C_e = polyval(polys.C, z_e)
        pole_e = np.abs(C_e) < POLE_TOLERANCE
        phi_e = (polyval(polys.A, z_e) - lam * polyval(polys.B, z_e)) \
            / np.where(pole_e, 1.0, C_e)
        phi_e[pole_e] = np.nan
        alpha = min(alpha, old_min_angle(phi_e.ravel()))
    return alpha


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

finite = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(sid=st.sampled_from(IMPLICIT_IDS),
       lam_parts=st.lists(st.tuples(finite, finite), min_size=1, max_size=6),
       thetas=st.lists(st.floats(-math.pi, math.pi, allow_nan=False), min_size=1, max_size=40))
@example(sid="imex-centred-k3", lam_parts=[(-0.5, 0.2), (0.0, 0.0)],
         thetas=[math.pi / 2, -math.pi / 2, math.pi / 2 + 1e-6, -math.pi / 2 - 1e-9, 0.0])
@example(sid="imex-centred-k4", lam_parts=[(-1.0, 0.3)],
         thetas=[math.pi / 2 + 1e-3, math.pi / 2 - 3e-6, math.pi, -math.pi])
def test_kernel_matches_the_old_per_lambda_evaluation(sid, lam_parts, thetas):
    s = scheme_from_id(sid)
    lams = np.array([complex(re, im) for re, im in lam_parts])
    theta = np.array(thetas)
    image = stability._image_map(s)
    got = image(lams[:, None], image.on(theta))
    want, scale = old_image(s, lams, theta)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * scale[ok])


@pytest.mark.parametrize("sid", ["ssp3", "ssp4"])
def test_kernel_needs_an_implicit_part(sid):
    with pytest.raises(ValueError, match="implicit"):
        stability._image_map(scheme_from_id(sid))


def test_blocks_cover_every_lambda():
    s = scheme_from_id("mcnab")
    image = stability._image_map(s)
    theta = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    lams = lambda_at(s, np.linspace(-3.0, 3.0, 2 * stability._BLOCK_SAMPLES // 64 + 5))
    want = image(lams[:, None], image.on(theta))
    np.testing.assert_array_equal(
        np.concatenate([mu for *_, mu in image.blocks(lams, theta)]), want)
    # one theta row per lambda
    rows = theta[None, :] + 0.01 * np.arange(len(lams))[:, None]
    got = np.concatenate([mu for *_, mu in image.blocks(lams, rows)])
    np.testing.assert_array_equal(got, image(lams[:, None], image.on(rows)))


def test_sample_and_mu_image_share_the_kernel():
    s = scheme_from_id("imex-centred-k3")
    img = mu_image(s, -0.4 + 0.1j, 256)
    got, pole = stability._image_map(s).sample(-0.4 + 0.1j, img.theta[::9])
    assert np.array_equal(pole, img.is_pole[::9])
    assert np.array_equal(got[~pole], img.values[::9][~pole])


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def recorded_angle_table(monkeypatch, n_lambda, n_theta):
    """angle_table rows with the (scheme, lambda curve, result) of each sweep."""
    calls = []

    def recording(s, curve, n):
        result = imex_alpha_sweep(s, curve, n)
        calls.append((s, curve, n, result))
        return result

    monkeypatch.setattr(verify_module, "imex_alpha_sweep", recording)
    return verify_module.angle_table(n_lambda, n_theta), calls


@pytest.fixture(scope="module")
def table():
    with pytest.MonkeyPatch.context() as mp:
        return recorded_angle_table(mp, 256, 1024)


def test_refined_rows_at_least_as_tight_as_the_dense_sweep(table):
    rows, calls = table
    assert len(calls) == len(rows) == 8
    for row, (s, curve, n, result) in zip(rows, calls):
        assert row["alpha_measured"] == result.alpha
        assert result.alpha <= old_dense_sweep(s, curve, n) + 1e-9, row


def test_doubling_the_coarse_grid_moves_no_row(table, monkeypatch):
    rows, _ = table
    monkeypatch.setattr(stability, "_COARSE_THETA", 2 * stability._COARSE_THETA)
    monkeypatch.setattr(stability, "_LAMBDA_STRIDE", stability._LAMBDA_STRIDE // 2)
    doubled = verify_module.angle_table(256, 1024)
    for a, b in zip(rows, doubled):
        assert abs(a["alpha_measured"] - b["alpha_measured"]) < 1e-10, a


def test_witness_reproduces_the_angle(table):
    _, calls = table
    for s, curve, _, result in calls:
        if result.lam is None:
            assert result.alpha == math.pi / 2
            assert result.theta_star is result.theta is result.mu is result.kind is None
            continue
        mu = result.mu
        if result.kind == "sample":
            got = stability._image_map(s).sample(result.lam, np.array([result.theta]))[0]
            assert got[0] == mu
        else:
            # a limit's mu is the unit direction at its anchor: a pole of the
            # map, or the eigenvalue's own curve parameter
            assert result.kind == "limit"
            assert abs(mu) == pytest.approx(1.0, abs=1e-15)
            poles = stability._wrap_angle(stability._image_map(s).den.pole_angles)
            assert result.theta == result.theta_star or result.theta in poles
        assert math.atan(abs(mu.imag) / -mu.real) == pytest.approx(result.alpha, abs=1e-12)
        # the witness eigenvalue lies on the family at theta_star: on the
        # locus there, or on a strip segment of a clipped locus
        on_locus = abs(result.lam - lambda_at(s, result.theta_star)) <= 1e-14 * abs(result.lam)
        assert on_locus or abs(abs(result.lam.imag) - curve._nu) <= 1e-15
        assert -math.pi <= result.theta_star < math.pi and -math.pi <= result.theta < math.pi


def test_sweep_result_parity_with_wedge_angle(table):
    _, calls = table
    for *_, result in calls:
        assert isinstance(result, SweepResult)
        w = WedgeAngle.from_tan(result.tan_alpha)
        assert (result.alpha, result.tan_alpha) == (w.alpha, w.tan_alpha)
        assert result.n_evals > 0
        assert 0 < result.resolution < 1e-9
    biased_k3 = calls[0][3]
    assert (biased_k3.alpha, biased_k3.tan_alpha) == (math.pi / 2, math.inf)


def test_golden_section_ends_below_the_best_grid_sample(monkeypatch):
    # imex-biased-k4's locus has 18 brackets off its anchors, each around an
    # interior minimum, which golden section takes below the grid; a finer
    # coarse scan finds the same least interior minimum
    golden, found = stability._golden_min, []

    def tracking(f, lo, hi, steps):
        grid = f((lo + hi) / 2)  # the bracket's centre: its best grid sample
        least = np.full(len(lo), np.inf)

        def recording(x):
            nonlocal least
            r = f(x)
            least = np.minimum(least, r)
            return r

        golden(recording, lo, hi, steps)
        found.append((grid, least))

    monkeypatch.setattr(stability, "_golden_min", tracking)
    s = scheme_from_id("imex-biased-k4")
    imex_alpha_sweep(s, explicit_boundary(s, 1024), 4096)
    [(grid, least)] = found
    assert len(grid) == 18
    assert (least < grid).all()
    monkeypatch.setattr(stability, "_COARSE_THETA", 2 * stability._COARSE_THETA)
    monkeypatch.setattr(stability, "_LAMBDA_STRIDE", stability._LAMBDA_STRIDE // 2)
    imex_alpha_sweep(s, explicit_boundary(s, 1024), 4096)
    assert abs(found[-1][1].min() - least.min()) < 1e-12


def test_sweep_maps_far_fewer_samples_than_the_grid():
    s = scheme_from_id("mcnab")
    curve = explicit_boundary(s, 1024)
    result = imex_alpha_sweep(s, curve, 4096)
    assert result.n_evals < 0.05 * int((~curve.is_pole).sum()) * 4096


# ---------------------------------------------------------------------------
# Input and option rejection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf), [-0.1, -0.2]])
def test_non_finite_lambda_rejected(bad):
    s = scheme_from_id("imex-biased-k3")
    rule = "lambda must be finite" if np.ndim(bad) == 0 else "lambda must be a scalar"
    with pytest.raises(ValueError, match=rule):
        mu_image(s, bad, 64)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, [0.0, math.nan], [0.0, math.nan, 1.0]])
def test_non_finite_theta_rejected(bad):
    s = scheme_from_id("imex-biased-k3")
    with pytest.raises(ValueError, match="theta must be finite"):
        lambda_at(s, bad)
    if np.ndim(bad):
        with pytest.raises(ValueError, match="theta must be finite"):
            BoundaryCurve(bad, np.zeros(len(bad)), np.zeros(len(bad), dtype=bool))


@pytest.mark.parametrize("command", [
    ["regions", "--n-theta", "64"],
    ["regions", "--phi-family", "--scheme", "mcnab", "--family-size", "2"],
    ["converge"],
    ["tvd", "--steps", "5"],
])
def test_json_format_rejected(capsys, command, tmp_path):
    out = tmp_path / "out.json"
    assert main(command + ["--format", "json", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: json output is not available for the {command[0]} command" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv,option,words", [
    (["converge", "--problem", "advdiff", "--sigma", "nan"], "--sigma", "finite"),
    (["converge", "--sigma", "0"], "--sigma", "positive"),
    (["tvd", "--sigma", "-0.5"], "--sigma", "positive"),
    (["converge", "--dt", "0"], "--dt", "positive"),
    (["converge", "--dt", "inf"], "--dt", "finite"),
    (["converge", "--t-end", "-1"], "--t-end", "positive"),
    (["converge", "--problem", "advdiff", "--dnum", "-0.1"], "--dnum", "negative"),
    (["converge", "--dnum", "nan"], "--dnum", "finite"),
    (["regions", "--nu", "0"], "--nu", "positive"),
    (["regions", "--nu", "nan"], "--nu", "finite"),
])
def test_bad_numeric_option_names_the_option(capsys, argv, option, words):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and words in err
    assert "t_end must exceed t0" not in err


@pytest.mark.parametrize("argv,message", [
    (["tvd", "--steps", "0"], "--steps must be at least k = 3 for ssp3"),
    (["tvd", "--steps", "-4"], "--steps must be at least k = 3 for ssp3"),
    (["tvd", "--cells", "4"], "--cells must be at least 8"),
    (["converge", "--problem", "advdiff", "--cells", "0"], "--cells must be at least 8"),
    (["angles", "--n-theta", "15"], "--n-theta needs at least 16 samples"),
    (["angles", "--n-lambda", "8"], "--n-lambda needs at least 16 samples"),
    (["regions", "--phi-family", "--scheme", "mcnab", "--n-lambda", "4"],
     "--n-lambda needs at least 16 samples"),
])
def test_small_integer_option_names_the_option(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_dnum_zero_is_accepted(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["converge", "--problem", "advdiff", "--scheme", "imex-biased-k3",
                 "--cells", "32", "--levels", "2", "--dnum", "0", "--out", str(out)]) == 0


def test_angles_json_carries_the_witness(tmp_path):
    out = tmp_path / "angles.json"
    assert main(["angles", "--n-lambda", "128", "--n-theta", "512",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    fields = {"witness_theta_star", "witness_lambda", "witness_theta", "witness_mu",
              "n_evals", "resolution"}
    for row in payload:
        assert fields <= set(row)
        assert row["n_evals"] > 0 and row["resolution"] > 0
    assert payload[0]["witness_lambda"] is None  # imex-biased-k3 is A-stable
    for row in payload[1:]:
        lam_re, lam_im = row["witness_lambda"]
        mu_re, mu_im = row["witness_mu"]
        assert mu_re < 0
        assert math.atan(abs(mu_im) / -mu_re) == pytest.approx(row["alpha_measured"], abs=1e-12)


def test_angles_json_names_the_witness_kind(tmp_path):
    out = tmp_path / "angles.json"
    assert main(["angles", "--n-lambda", "128", "--n-theta", "512",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["witness_kind"] is None  # imex-biased-k3 is A-stable
    for row in payload[1:]:
        assert row["witness_kind"] in ("sample", "limit")
        if row["witness_kind"] == "limit":
            assert abs(complex(*row["witness_mu"])) == pytest.approx(1.0, abs=1e-15)


def test_angles_csv_header_unchanged(capsys):
    assert main(["angles", "--n-lambda", "128", "--n-theta", "512"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "scheme,params,alpha_measured,alpha_closed_form,alpha_reference"


def test_image_map_is_built_once_per_scheme():
    s = scheme_from_id("imex-biased-k4")
    image = stability._image_map(s)
    # an equal scheme built again shares the map, and sample reads it
    assert stability._image_map(scheme_from_id("imex-biased-k4")) is image
    z = image(np.array([-0.5 + 0.1j])[:, None], image.on(np.array([0.3])))
    assert image.sample(-0.5 + 0.1j, np.array([0.3]))[0][0] == z[0, 0]
