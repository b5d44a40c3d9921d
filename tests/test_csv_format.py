"""The bulk CSV formatter against the per-cell f-string writers it replaced.

Every reference writer below is an inline copy of the old per-cell code
(one ``f"{x:.12g}"`` per cell); the CLI output must match it byte for byte.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexssp import problems
from imexssp.cli import _curves_csv, main
from imexssp.csvfmt import fill, fmt, format_rows
from imexssp.integrate import BlowUpError, integrate
from imexssp.schemes import scheme_from_id
from imexssp.stability import explicit_boundary, implicit_boundary, mu_image, restrict_curve
from imexssp.verify import angle_table


def _fmt(x) -> str:
    return f"{x:.12g}"


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5,
           123456789012.5, 0.1 + 0.2]

floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


class TestFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(floats, max_size=50))
    def test_column_matches_fstring(self, xs):
        xs = xs + SPECIAL
        assert format_rows("%.12g\n", np.array(xs)) == "".join(f"{_fmt(x)}\n" for x in xs)

    @settings(max_examples=200, deadline=None)
    @given(floats)
    def test_scalar_matches_fstring(self, x):
        assert fmt(x) == _fmt(x)
        assert fmt(np.float64(x)) == _fmt(np.float64(x))

    @pytest.mark.parametrize("x", SPECIAL)
    def test_special_values(self, x):
        assert fmt(x) == _fmt(x)
        assert fmt(np.float64(x)) == _fmt(np.float64(x))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(floats, floats, st.booleans()), max_size=30))
    def test_rows_read_row_by_row(self, rows):
        a = np.array([r[0] for r in rows])
        b = np.array([r[1] for r in rows])
        flag = np.array([r[2] for r in rows], dtype=bool)
        expected = "".join(f"{_fmt(x)},{_fmt(y)},{int(p)}\n" for x, y, p in rows)
        assert format_rows("%.12g,%.12g,%d\n", a, b, flag) == expected

    def test_empty_columns(self):
        assert format_rows("%.12g,%.12g\n", np.array([]), np.array([])) == ""

    def test_fill_escaped_percent(self):
        assert fill("%.12g%%,%.12g%%\n", [0.5], [1.0 / 3.0]) == "0.5%,0.333333333333%\n"


# ---------------------------------------------------------------------------
# Inline copies of the old per-cell writers
# ---------------------------------------------------------------------------

def old_curve_csv(curve) -> str:
    fh = io.StringIO()
    fh.write("theta,re,im,is_pole\n")
    for th, v, p in zip(curve.theta, curve.values, curve.is_pole):
        if p:
            fh.write(f"{_fmt(th)},nan,nan,1\n")
        else:
            fh.write(f"{_fmt(th)},{_fmt(v.real)},{_fmt(v.imag)},0\n")
    return fh.getvalue()


def old_family_csv(family) -> str:
    buf = io.StringIO()
    buf.write("lambda_re,lambda_im,theta,re,im,is_pole\n")
    for lam, img in family:
        for th, v, p in zip(img.theta, img.values, img.is_pole):
            if p:
                buf.write(f"{_fmt(lam.real)},{_fmt(lam.imag)},{_fmt(th)},nan,nan,1\n")
            else:
                buf.write(f"{_fmt(lam.real)},{_fmt(lam.imag)},{_fmt(th)},"
                          f"{_fmt(v.real)},{_fmt(v.imag)},0\n")
    return buf.getvalue()


def old_phi_family(scheme, n_lambda, n_theta, family_size, nu=None) -> str:
    s = scheme_from_id(scheme)
    lam_curve = explicit_boundary(s, n_lambda)
    if nu is not None:
        lam_curve = restrict_curve(lam_curve, nu)
    idx = np.linspace(0, len(lam_curve.theta) - 1, family_size).astype(int)
    return old_family_csv([(lam_curve.values[i], mu_image(s, lam_curve.values[i], n_theta))
                           for i in idx if not lam_curve.is_pole[i]])


def old_angles(n_lambda, n_theta) -> str:
    buf = io.StringIO()
    buf.write("scheme,params,alpha_measured,alpha_closed_form,alpha_reference\n")
    for row in angle_table(n_lambda=n_lambda, n_theta=n_theta):
        closed = "" if row["alpha_closed_form"] is None else _fmt(row["alpha_closed_form"])
        buf.write(f"{row['scheme']},{row['params']},{_fmt(row['alpha_measured'])},"
                  f"{closed},{_fmt(row['alpha_reference'])}\n")
    return buf.getvalue()


def old_converge_dahlquist(sid, levels) -> str:
    s = scheme_from_id(sid)
    lam, mu = (-0.4, -0.6) if s.is_implicit else (-1.0, 0.0)
    prob = problems.dahlquist(lam, mu)
    dts = [(1.0 / 40.0) / 2**j for j in range(levels)]
    errs = []
    for dt in dts:
        final = integrate(prob, s, 1.0, dt)
        errs.append(float(np.max(np.abs(final - prob.exact(1.0)))))
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    buf = io.StringIO()
    buf.write("scheme,problem,dt,error,fitted_order\n")
    for dt, err in zip(dts, errs):
        buf.write(f"{sid},dahlquist,{_fmt(dt)},{_fmt(err)},{_fmt(order)}\n")
    return buf.getvalue()


def old_tvd(sid, cells, steps, sigma, seed, rec) -> str:
    grid = problems.GridSpec(cells)
    prob = problems.upwind_advection(grid,
                                     initial=problems.monotone_staircase(cells, seed=seed))
    dt = sigma * grid.dx
    try:
        integrate(prob, scheme_from_id(sid), steps * dt, dt, observe=rec)
    except BlowUpError:
        pass  # the series ends on the level that passed the guard
    max_norm, tv = rec.max_norm, rec.tv
    growth = np.diff(tv)
    buf = io.StringIO()
    buf.write("t,max_norm,total_variation,tv_growth\n")
    for i, t in enumerate(prob.t0 + dt * np.arange(len(tv))):
        g = "" if i == 0 else _fmt(growth[i - 1])
        buf.write(f"{_fmt(t)},{_fmt(max_norm[i])},{_fmt(tv[i])},{g}\n")
    return buf.getvalue()


def cli_text(tmp_path, argv) -> str:
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


class TestGolden:
    @pytest.mark.parametrize("scheme,nu", [
        ("imex-biased-k3", None),
        ("mcnab", None),
        ("imex-bdf2", None),
        # centred with beta = 0: C vanishes at theta = +-pi/2, so every image
        # has pole rows
        ("imex-centred-k3", 0.3),
    ])
    def test_phi_family(self, tmp_path, scheme, nu):
        argv = ["regions", "--phi-family", "--scheme", scheme, "--n-lambda", "64",
                "--n-theta", "128", "--family-size", "6"]
        if nu is not None:
            argv += ["--nu", str(nu)]
        expected = old_phi_family(scheme, 64, 128, 6, nu)
        assert cli_text(tmp_path, argv) == expected
        if scheme == "imex-centred-k3":
            assert ",nan,nan,1\n" in expected

    def test_phi_family_images_on_different_grids(self):
        # the theta cells and pole rows are re-formatted when a grid changes
        s = scheme_from_id("imex-centred-k3")
        family = [(-0.5 + 0.25j, mu_image(s, -0.5 + 0.25j, 64)),
                  (-1.0 + 0j, mu_image(s, -1.0 + 0j, 100)),
                  (-0.25 - 0.5j, mu_image(s, -0.25 - 0.5j, 100)),
                  (-0.5 + 0.25j, mu_image(s, -0.5 + 0.25j, 64))]
        buf = io.StringIO()
        _curves_csv("lambda_re,lambda_im,",
                    [(f"{fmt(lam.real)},{fmt(lam.imag)},", img) for lam, img in family], buf)
        assert buf.getvalue() == old_family_csv(family)

    @pytest.mark.parametrize("argv,curve", [
        (["regions", "--n-theta", "256"],
         lambda: explicit_boundary(scheme_from_id("ssp3"), 256)),
        (["regions", "--scheme", "ssp3", "--nu", "0.5", "--n-theta", "256"],
         lambda: restrict_curve(explicit_boundary(scheme_from_id("ssp3"), 256), 0.5)),
        (["regions", "--scheme", "implicit-centred-k3", "--kind", "implicit",
          "--n-theta", "256"],
         lambda: implicit_boundary(scheme_from_id("implicit-centred-k3"), 256)),
    ])
    def test_regions(self, tmp_path, argv, curve):
        expected = old_curve_csv(curve())
        assert cli_text(tmp_path, argv) == expected
        buf = io.StringIO()
        _curves_csv("", [("", curve())], buf)
        assert buf.getvalue() == expected

    def test_implicit_locus_has_pole_rows(self):
        text = old_curve_csv(implicit_boundary(scheme_from_id("implicit-centred-k3"), 256))
        assert text.count(",nan,nan,1\n") == 2

    def test_angles(self, tmp_path):
        assert cli_text(tmp_path, ["angles", "--n-lambda", "64", "--n-theta", "256"]) \
            == old_angles(64, 256)

    @pytest.mark.parametrize("sid", ["mcnab", "ssp3"])
    def test_converge(self, tmp_path, sid):
        assert cli_text(tmp_path, ["converge", "--scheme", sid, "--levels", "3"]) \
            == old_converge_dahlquist(sid, 3)

    @pytest.mark.parametrize("sigma", [0.5, 0.95])
    def test_tvd(self, tmp_path, level_record, sigma):
        argv = ["tvd", "--scheme", "ssp3", "--cells", "64", "--steps", "40",
                "--sigma", str(sigma), "--data", "staircase", "--seed", "7"]
        assert cli_text(tmp_path, argv) == old_tvd("ssp3", 64, 40, sigma, 7, level_record())
