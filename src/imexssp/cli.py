"""Command-line front end: stability-region data, the angle comparison table,
the acceptance suite, convergence tables, and total-variation experiments.

Every artifact is CSV first (fixed 12-significant-digit formatting, fixed
seeds, byte-identical across runs); regions can also be rendered as a
minimal standalone SVG.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys

import numpy as np

from . import problems
from .csvfmt import FLOAT, fill, fmt, format_rows
from .integrate import BlowUpError, StepFailureError, integrate
from .schemes import BUILTIN_IDS, REGISTRY_IDS, scheme_from_id
from .stability import (
    curve_to_csv,
    explicit_boundary,
    implicit_boundary,
    mu_image,
    restrict_curve,
)
from .verify import CRITERIA, angle_table, run_criteria
from . import __version__

__all__ = ["main"]


@contextlib.contextmanager
def _output(out: str | None):
    """The file handle an artifact goes to: stdout, or the --out path."""
    if out is None or out == "-":
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write_output(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# SVG rendering (polyline + axes, no dependencies)
# ---------------------------------------------------------------------------

def _svg_render(curves) -> str:
    """Render labelled curves as polylines with real/imaginary axes, on a
    640 x 640 canvas; points beyond modulus 8 are left out."""
    width = height = 640
    clip = 8.0
    pts_all = [v for _, c in curves for v in c.finite_values()
               if abs(v) <= clip and np.isfinite(v)]
    if not pts_all:
        raise ValueError("nothing to render")
    re = np.array([p.real for p in pts_all])
    im = np.array([p.imag for p in pts_all])
    lo_x, hi_x = re.min(), re.max()
    lo_y, hi_y = im.min(), im.max()
    pad_x = 0.1 * max(hi_x - lo_x, 1e-3)
    pad_y = 0.1 * max(hi_y - lo_y, 1e-3)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y

    def to_px(v):
        x = (v.real - lo_x) / (hi_x - lo_x) * width
        y = height - (v.imag - lo_y) / (hi_y - lo_y) * height
        return f"{x:.2f},{y:.2f}"

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if lo_x < 0 < hi_x:
        x0 = (0 - lo_x) / (hi_x - lo_x) * width
        parts.append(f'<line x1="{x0:.2f}" y1="0" x2="{x0:.2f}" y2="{height}" '
                     'stroke="#999" stroke-width="1"/>')
    if lo_y < 0 < hi_y:
        y0 = height - (0 - lo_y) / (hi_y - lo_y) * height
        parts.append(f'<line x1="0" y1="{y0:.2f}" x2="{width}" y2="{y0:.2f}" '
                     'stroke="#999" stroke-width="1"/>')
    for i, (label, curve) in enumerate(curves):
        color = colors[i % len(colors)]
        # split the polyline at poles and clipped points
        segment = []
        segments = []
        for v, p in zip(curve.values, curve.is_pole):
            if p or not np.isfinite(v) or abs(v) > clip:
                if len(segment) > 1:
                    segments.append(segment)
                segment = []
            else:
                segment.append(v)
        if len(segment) > 1:
            segments.append(segment)
        for seg in segments:
            pts = " ".join(to_px(v) for v in seg)
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"><title>{label}</title></polyline>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _phi_family_csv(family, fh) -> None:
    """Write (lambda, image) pairs as rows lambda_re,lambda_im,theta,re,im,is_pole,
    one chunk per lambda.

    An image's theta grid and pole pattern depend on C and n_theta only, not
    on lambda, so the theta cells and pole rows are formatted once into a
    template whose re/im cells stay %-slots; an image on another grid gets a
    template of its own.
    """
    fh.write("lambda_re,lambda_im,theta,re,im,is_pole\n")
    grid = None
    for lam, img in family:
        if grid is None or not (np.array_equal(img.theta, grid.theta)
                                and np.array_equal(img.is_pole, grid.is_pole)):
            grid = img
            thetas = format_rows(f"{FLOAT}\n", img.theta).splitlines()
            rows = ["", *(f"{th},nan,nan,1\n" if p else f"{th},{FLOAT},{FLOAT},0\n"
                          for th, p in zip(thetas, img.is_pole))]
        finite = img.values[~img.is_pole]
        # joining on the prefix puts it in front of every row
        template = f"{fmt(lam.real)},{fmt(lam.imag)},".join(rows)
        fh.write(fill(template, finite.real, finite.imag))


def _check_format(args, command: str, *accepted: str) -> None:
    """ValueError unless the command writes args.format."""
    if args.format not in accepted:
        raise ValueError(f"{args.format} output is not available for the {command} command")


def _check_cells(args) -> None:
    if args.cells < 8:
        raise ValueError(f"--cells must be at least 8, got {args.cells}")


def _check_samples(args) -> None:
    for option, value in (("--n-theta", args.n_theta), ("--n-lambda", args.n_lambda)):
        if value < 16:
            raise ValueError(f"{option} needs at least 16 samples, got {value}")


def cmd_regions(args) -> int:
    _check_format(args, "regions", "csv", "svg")
    _check_samples(args)
    s = scheme_from_id(args.scheme, beta=args.beta, mcnab_c=args.mcnab_c)
    has_explicit = any(s.b)
    has_implicit = any(s.c)
    if args.phi_family:
        if not (has_explicit and has_implicit):
            raise ValueError("the image family needs a scheme with both parts")
        if args.family_size < 1:
            raise ValueError("--family-size must be at least 1")
        lam_curve = explicit_boundary(s, args.n_lambda)
        if args.nu is not None:
            lam_curve = restrict_curve(lam_curve, args.nu)
        idx = np.linspace(0, len(lam_curve.theta) - 1, args.family_size).astype(int)
        family = [(lam_curve.values[i], mu_image(s, lam_curve.values[i], args.n_theta))
                  for i in idx if not lam_curve.is_pole[i]]
        if args.format == "svg":
            _write_output(_svg_render([(f"lam={lam:.3g}", img) for lam, img in family]),
                          args.out)
        else:
            with _output(args.out) as fh:
                _phi_family_csv(family, fh)
        return 0

    kind = args.kind
    if kind == "auto":
        kind = "explicit" if has_explicit else "implicit"
    if kind == "explicit":
        curve = explicit_boundary(s, args.n_theta)
        if args.nu is not None:
            curve = restrict_curve(curve, args.nu)
    else:
        curve = implicit_boundary(s, args.n_theta)
    if args.format == "svg":
        _write_output(_svg_render([(f"{args.scheme} {kind}", curve)]), args.out)
    else:
        buf = io.StringIO()
        curve_to_csv(curve, buf)
        _write_output(buf.getvalue(), args.out)
    return 0


def _json_value(v):
    """A table cell as JSON: complex numbers become [re, im]."""
    return [v.real, v.imag] if isinstance(v, complex) else v


def cmd_angles(args) -> int:
    _check_format(args, "angles", "csv", "json")
    _check_samples(args)
    rows = angle_table(n_lambda=args.n_lambda, n_theta=args.n_theta)
    if args.format == "json":
        payload = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    buf = io.StringIO()
    buf.write("scheme,params,alpha_measured,alpha_closed_form,alpha_reference\n")
    for row in rows:
        closed = "" if row["alpha_closed_form"] is None else fmt(row["alpha_closed_form"])
        buf.write(f"{row['scheme']},{row['params']},{fmt(row['alpha_measured'])},"
                  f"{closed},{fmt(row['alpha_reference'])}\n")
    _write_output(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    _check_format(args, "verify", "csv")
    results = run_criteria(only=args.only)
    failed = [r for r in results if not r.passed]
    _write_output("".join(f"{r.line}\n" for r in results)
                  + f"{len(results) - len(failed)}/{len(results)} criteria passed\n",
                  args.out)
    return 1 if failed else 0


def cmd_converge(args) -> int:
    _check_format(args, "converge", "csv")
    if args.levels < 2:
        raise ValueError("--levels must be at least 2 to fit an order")
    scheme_ids = [args.scheme] if args.scheme else list(BUILTIN_IDS)
    # advdiff defaults tie dt to the grid's Courant step so the finest
    # explicit eigenvalues stay inside the stability region
    if args.problem == "advdiff":
        _check_cells(args)
        base_dt = args.dt if args.dt is not None else args.sigma / args.cells
        t_end = args.t_end if args.t_end is not None else 128 * base_dt
    else:
        base_dt = args.dt if args.dt is not None else 1.0 / 40.0
        t_end = args.t_end if args.t_end is not None else 1.0
    dts = [base_dt / 2**j for j in range(args.levels)]
    buf = io.StringIO()
    buf.write("scheme,problem,dt,error,fitted_order\n")
    for sid in scheme_ids:
        s = scheme_from_id(sid, beta=args.beta, mcnab_c=args.mcnab_c)
        if args.problem == "dahlquist":
            lam, mu = (-0.4, -0.6) if s.is_implicit else (-1.0, 0.0)
            prob = problems.dahlquist(lam, mu)
        else:
            grid = problems.GridSpec(args.cells)
            cfg = problems.AdvectionDiffusionConfig(
                courant=args.sigma,
                diffusion_number=args.dnum if s.is_implicit else 0.0)
            prob = problems.advection_diffusion_1d(grid, cfg, mode=1)
        errs = []
        for dt in dts:
            traj = integrate(prob, s, t_end, dt)
            errs.append(float(np.max(np.abs(traj.final - prob.exact(t_end)))))
        order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        buf.write(format_rows(f"{sid},{args.problem},{FLOAT},{FLOAT},{FLOAT}\n",
                              dts, errs, [order] * len(dts)))
    _write_output(buf.getvalue(), args.out)
    return 0


def cmd_tvd(args) -> int:
    _check_format(args, "tvd", "csv")
    s = scheme_from_id(args.scheme, beta=args.beta, mcnab_c=args.mcnab_c)
    # the first k levels are exact starting values; the scheme takes the rest
    if args.steps < s.k:
        raise ValueError(f"--steps must be at least k = {s.k} for {args.scheme}, "
                         f"got {args.steps}")
    _check_cells(args)
    grid = problems.GridSpec(args.cells)
    if args.data == "step":
        initial = None
    else:
        if args.cells < problems.STAIRCASE_MIN_CELLS:
            raise ValueError(f"--cells must be at least {problems.STAIRCASE_MIN_CELLS} "
                             f"for staircase data, got {args.cells}")
        initial = problems.monotone_staircase(args.cells, seed=args.seed)
    prob = problems.upwind_advection(grid, args.sigma, initial=initial)
    dt = args.sigma * grid.dx
    traj = integrate(prob, s, args.steps * dt, dt, on_blowup="truncate")
    tv = traj.diagnostics["total_variation"]
    growth = np.diff(tv)
    t, max_norm = traj.times, traj.diagnostics["max_norm"]
    _write_output("t,max_norm,total_variation,tv_growth\n"
                  + format_rows(f"{FLOAT},{FLOAT},{FLOAT},\n", t[:1], max_norm[:1], tv[:1])
                  + format_rows(f"{FLOAT},{FLOAT},{FLOAT},{FLOAT}\n",
                                t[1:], max_norm[1:], tv[1:], growth),
                  args.out)
    # differences between the exact starting levels are not the scheme's steps
    own = growth[s.k - 1:]
    print(f"max per-step TV growth: {own.max():.6g} over {len(own)} steps of the scheme "
          f"after {s.k} exact starting levels", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imexssp",
        description="Stability analysis and experiments for SSP-based IMEX multistep schemes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=("csv", "svg", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def common(p, scheme_default=None):
        p.add_argument("--scheme", default=scheme_default,
                       help=f"scheme id; one of: {', '.join(REGISTRY_IDS)}")
        p.add_argument("--beta", type=_finite_float, default=0.0,
                       help="centred-integrator parameter in [0, 1/2]")
        p.add_argument("--mcnab-c", type=_finite_float, default=0.125, dest="mcnab_c")
        output(p)

    p = sub.add_parser("regions", help="boundary-locus curves as CSV or SVG")
    common(p, scheme_default="ssp3")
    p.add_argument("--kind", choices=("auto", "explicit", "implicit"), default="auto")
    p.add_argument("--phi-family", action="store_true", dest="phi_family",
                   help="image family over explicit boundary eigenvalues")
    p.add_argument("--nu", type=_positive_float, default=None,
                   help="clip the explicit boundary to |Im| <= nu")
    p.add_argument("--n-theta", type=int, default=4096, dest="n_theta")
    p.add_argument("--n-lambda", type=int, default=1024, dest="n_lambda")
    p.add_argument("--family-size", type=int, default=32, dest="family_size")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("angles", help="the eight-row wedge-angle comparison table")
    output(p)
    p.add_argument("--n-theta", type=int, default=4096, dest="n_theta")
    p.add_argument("--n-lambda", type=int, default=1024, dest="n_lambda")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("verify", help="run the acceptance suite (exit 0 iff all pass)")
    output(p)
    p.add_argument("--only", default=None,
                   help=f"substring filter; criteria: {', '.join(CRITERIA)}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="error-vs-dt table with fitted order")
    common(p)
    p.add_argument("--problem", choices=("dahlquist", "advdiff"), default="dahlquist")
    p.add_argument("--dt", type=_positive_float, default=None,
                   help="coarsest step (default 1/40, or sigma/cells for advdiff)")
    p.add_argument("--t-end", type=_positive_float, default=None, dest="t_end")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--sigma", type=_positive_float, default=0.35)
    p.add_argument("--dnum", type=_nonnegative_float, default=0.1)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("tvd", help="total-variation series for upwind advection")
    common(p, scheme_default="ssp3")
    p.add_argument("--sigma", type=_positive_float, default=0.5)
    p.add_argument("--cells", type=int, default=256)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--data", choices=("step", "staircase"), default="step")
    p.add_argument("--seed", type=_nonnegative_int, default=1234)
    p.set_defaults(func=cmd_tvd)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, BlowUpError, StepFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
