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
from .integrate import BlowUpError, StepFailureError, integrate  # noqa: F401 (bench tests read it)
from .schemes import BUILTIN_IDS, REGISTRY_IDS, scheme_from_id, scheme_parameters
from .stability import _image_map, explicit_boundary, implicit_boundary, restrict_curve
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
    640 x 640 canvas; points beyond modulus 8 are left out. Every coordinate
    is written by fill, with two decimals."""
    width = height = 640
    px = "%.2f"
    # the points drawn, per curve: no pole, finite, modulus at most 8
    shown = [~c.is_pole & np.isfinite(c.values) & (np.abs(c.values) <= 8.0)
             for _, c in curves]
    if not any(m.any() for m in shown):
        raise ValueError("nothing to render")
    pts = np.concatenate([c.values[m] for (_, c), m in zip(curves, shown)])
    # the box of the drawn points, padded by a tenth of its sides: (re, im)
    xy = np.stack([pts.real, pts.imag])
    lo, hi = xy.min(axis=1), xy.max(axis=1)
    pad = 0.1 * np.maximum(hi - lo, 1e-3)
    lo, hi = lo - pad, hi + pad

    def to_px(v):
        return ((v.real - lo[0]) / (hi[0] - lo[0]) * width,
                height - (v.imag - lo[1]) / (hi[1] - lo[1]) * height)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    x0, y0 = to_px(0j)
    axis = 'stroke="#999" stroke-width="1"/>'
    if lo[0] < 0 < hi[0]:
        parts.append(fill(f'<line x1="{px}" y1="0" x2="{px}" y2="{height}" {axis}', [x0], [x0]))
    if lo[1] < 0 < hi[1]:
        parts.append(fill(f'<line x1="0" y1="{px}" x2="{width}" y2="{px}" {axis}', [y0], [y0]))
    for i, ((label, curve), m) in enumerate(zip(curves, shown)):
        color = colors[i % len(colors)]
        x, y = to_px(curve.values)
        # one polyline per run of drawn points, split at poles and clipped points
        edges = np.flatnonzero(np.diff(m, prepend=False, append=False))
        for a, b in zip(edges[::2], edges[1::2]):
            if b - a > 1:
                points = fill(" ".join([f"{px},{px}"] * (b - a)), x[a:b], y[a:b])
                parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                             f'stroke-width="1.5"><title>{label}</title></polyline>')
    return "\n".join([*parts, "</svg>\n"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _curves_csv(columns: str, curves, fh) -> None:
    """Write (prefix, curve) pairs as CSV: the header is columns and then
    theta,re,im,is_pole, each row the curve's prefix cells (comma-ended, or
    "") and then its theta,re,im,is_pole; pole rows read nan,nan,1. A locus
    has no prefix, an image of the family its lambda. Curves with one theta
    grid and pole pattern (a family's images) share one template: the theta
    cells and pole rows formatted once, the re/im cells left as %-slots."""
    fh.write(f"{columns}theta,re,im,is_pole\n")
    grid = None
    for prefix, curve in curves:
        if grid is None or not (np.array_equal(curve.theta, grid.theta)
                                and np.array_equal(curve.is_pole, grid.is_pole)):
            grid = curve
            thetas = format_rows(f"{FLOAT}\n", curve.theta).splitlines()
            rows = ["", *(f"{th},nan,nan,1\n" if p else f"{th},{FLOAT},{FLOAT},0\n"
                          for th, p in zip(thetas, curve.is_pole))]
        finite = curve.finite_values()
        # joining on the prefix puts it in front of every row
        fh.write(fill(prefix.join(rows), finite.real, finite.imag))


def _check_format(args, command: str, *accepted: str) -> None:
    """ValueError unless the command writes args.format."""
    if args.format not in accepted:
        raise ValueError(f"{args.format} output is not available for the {command} command")


def _check_cells(args) -> None:
    if args.cells < 8:
        raise ValueError(f"--cells must be at least 8, got {args.cells}")


def _check_samples(args) -> None:
    for option, value in (("--n-theta", args.n_theta), ("--n-lambda", args.n_lambda)):
        if value is not None and value < 16:
            raise ValueError(f"{option} needs at least 16 samples, got {value}")


def _reject_unused(args, where: str, *options: str) -> None:
    """ValueError naming the first of the options that was given, for an
    option that has no effect in the mode where it was given."""
    for option in options:
        if getattr(args, option.lstrip("-").replace("-", "_")) is not None:
            raise ValueError(f"{option} applies {where} only")


def _schemes(args, ids) -> list:
    """(id, scheme) for each scheme id of a run, each built with the --beta
    and --mcnab-c it reads; ValueError naming an option that no scheme of the
    run reads."""
    given = {name: value for name, value in (("beta", args.beta), ("mcnab_c", args.mcnab_c))
             if value is not None}
    for name in given:
        if not any(name in scheme_parameters(sid) for sid in ids):
            raise ValueError(f"--{name.replace('_', '-')} is read by none of the schemes "
                             f"of this run: {', '.join(ids)}")
    return [(sid, scheme_from_id(sid, **{n: v for n, v in given.items()
                                          if n in scheme_parameters(sid)}))
            for sid in ids]


def _default(args, **defaults) -> None:
    """Fill each option left at None with its default, where it acts."""
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def cmd_regions(args) -> int:
    _check_format(args, "regions", "csv", "svg")
    _check_samples(args)
    [(_, s)] = _schemes(args, [args.scheme])
    has_explicit = any(s.b)
    has_implicit = any(s.c)
    if args.phi_family:
        if args.kind != "auto":
            raise ValueError(f"--kind {args.kind} does not apply to --phi-family, which "
                             "always maps the explicit boundary")
        if not (has_explicit and has_implicit):
            raise ValueError("the image family needs a scheme with both parts")
        _default(args, n_lambda=1024, family_size=32)
        if args.family_size < 1:
            raise ValueError("--family-size must be at least 1")
        lam_curve = explicit_boundary(s, args.n_lambda)
        if args.nu is not None:
            lam_curve = restrict_curve(lam_curve, args.nu)
        idx = np.linspace(0, len(lam_curve.theta) - 1, args.family_size).astype(int)
        lams = [lam_curve.values[i] for i in idx if not lam_curve.is_pole[i]]
        # every image on one circle grid, as mu_image maps each
        family = list(zip(lams, _image_map(s).family(lams, args.n_theta)))
        if args.format == "svg":
            _write_output(_svg_render([(f"lam={lam:.3g}", img) for lam, img in family]),
                          args.out)
        else:
            with _output(args.out) as fh:
                _curves_csv("lambda_re,lambda_im,",
                            ((f"{fmt(lam.real)},{fmt(lam.imag)},", img) for lam, img in family),
                            fh)
        return 0

    _reject_unused(args, "to --phi-family", "--n-lambda", "--family-size")
    kind = args.kind
    if kind == "auto":
        kind = "explicit" if has_explicit else "implicit"
    if kind == "explicit":
        curve = explicit_boundary(s, args.n_theta)
        if args.nu is not None:
            curve = restrict_curve(curve, args.nu)
    else:
        if args.nu is not None:
            raise ValueError(f"--nu clips the explicit boundary and does not apply to "
                             f"the implicit locus of {args.scheme}")
        curve = implicit_boundary(s, args.n_theta)
    if args.format == "svg":
        _write_output(_svg_render([(f"{args.scheme} {kind}", curve)]), args.out)
    else:
        with _output(args.out) as fh:
            _curves_csv("", [("", curve)], fh)
    return 0


def cmd_angles(args) -> int:
    _check_format(args, "angles", "csv", "json")
    _check_samples(args)
    rows = angle_table(n_lambda=args.n_lambda, n_theta=args.n_theta)
    if args.format == "json":
        # complex cells become [re, im]
        payload = [{k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in row.items()}
                   for row in rows]
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
    schemes = _schemes(args, [args.scheme] if args.scheme else BUILTIN_IDS)
    # advdiff defaults tie dt to the grid's Courant step so the finest
    # explicit eigenvalues stay inside the stability region
    if args.problem == "advdiff":
        for sid, s in schemes:
            if not any(s.b):
                raise ValueError(f"{sid} has no explicit part to step the advection of "
                                 "--problem advdiff")
        if args.dnum is not None and not any(s.is_implicit for _, s in schemes):
            raise ValueError(f"--dnum applies to implicit schemes only, not to {args.scheme}")
        _default(args, cells=64, sigma=0.35, dnum=0.1)
        _check_cells(args)
        base_dt = args.dt if args.dt is not None else args.sigma / args.cells
        t_end = args.t_end if args.t_end is not None else 128 * base_dt
    else:
        _reject_unused(args, "to --problem advdiff", "--cells", "--sigma", "--dnum")
        base_dt = args.dt if args.dt is not None else 1.0 / 40.0
        t_end = args.t_end if args.t_end is not None else 1.0
    dts = [base_dt / 2**j for j in range(args.levels)]
    buf = io.StringIO()
    buf.write("scheme,problem,dt,error,fitted_order\n")
    for sid, s in schemes:
        if args.problem == "dahlquist":
            prob = problems.dahlquist_for(s)
        else:
            grid = problems.GridSpec(args.cells)
            cfg = problems.AdvectionDiffusionConfig(
                courant=args.sigma,
                diffusion_number=args.dnum if s.is_implicit else 0.0)
            prob = problems.advection_diffusion_1d(grid, cfg, mode=1)
        errs, order = problems.convergence(prob, s, t_end, dts)
        buf.write(format_rows(f"{sid},{args.problem},{FLOAT},{FLOAT},{FLOAT}\n",
                              dts, errs, [order] * len(dts)))
        # errors this small are rounding noise, and so is an order fitted to them
        floor = 64 * np.finfo(float).eps * np.max(np.abs(prob.exact(prob.t0)))
        if max(errs) <= floor:
            print(f"note: every error of {sid} is at the rounding level of its initial state "
                  f"(at most {max(errs):.3g} <= 64 eps max|u(t0)| = {floor:.3g}), so its "
                  "fitted_order is no order of convergence", file=sys.stderr)
    _write_output(buf.getvalue(), args.out)
    return 0


def cmd_tvd(args) -> int:
    _check_format(args, "tvd", "csv")
    [(_, s)] = _schemes(args, [args.scheme])
    if not any(s.b):
        raise ValueError(f"{args.scheme} has no explicit part to step the upwind advection "
                         "of tvd")
    # the first k levels are exact starting values; the scheme takes the rest
    if args.steps < s.k:
        raise ValueError(f"--steps must be at least k = {s.k} for {args.scheme}, "
                         f"got {args.steps}")
    _check_cells(args)
    grid = problems.GridSpec(args.cells)
    if args.data == "step":
        _reject_unused(args, "to --data staircase", "--seed")
        initial = None
    else:
        if args.cells < problems.STAIRCASE_MIN_CELLS:
            raise ValueError(f"--cells must be at least {problems.STAIRCASE_MIN_CELLS} "
                             f"for staircase data, got {args.cells}")
        _default(args, seed=1234)
        initial = problems.monotone_staircase(args.cells, seed=args.seed)
    prob = problems.upwind_advection(grid, initial=initial)
    dt = args.sigma * grid.dx
    t, max_norm, tv, own = problems.tv_series(prob, s, args.steps * dt, dt)
    growth = np.diff(tv)
    _write_output("t,max_norm,total_variation,tv_growth\n"
                  + format_rows(f"{FLOAT},{FLOAT},{FLOAT},\n", t[:1], max_norm[:1], tv[:1])
                  + format_rows(f"{FLOAT},{FLOAT},{FLOAT},{FLOAT}\n",
                                t[1:], max_norm[1:], tv[1:], growth),
                  args.out)
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
        p.add_argument("--beta", type=_finite_float, default=None,
                       help="centred-integrator parameter in [0, 1/2] (default 0); "
                            "centred schemes only")
        p.add_argument("--mcnab-c", type=_finite_float, default=None, dest="mcnab_c",
                       help="mcnab parameter (default 1/8); mcnab only")
        output(p)

    p = sub.add_parser("regions", help="boundary-locus curves as CSV or SVG")
    common(p, scheme_default="ssp3")
    p.add_argument("--kind", choices=("auto", "explicit", "implicit"), default="auto",
                   help="which locus to draw; not with --phi-family")
    p.add_argument("--phi-family", action="store_true", dest="phi_family",
                   help="image family over explicit boundary eigenvalues")
    p.add_argument("--nu", type=_positive_float, default=None,
                   help="clip the explicit boundary to |Im| <= nu; "
                        "not with the implicit locus")
    p.add_argument("--n-theta", type=int, default=4096, dest="n_theta")
    p.add_argument("--n-lambda", type=int, default=None, dest="n_lambda",
                   help="explicit boundary samples (default 1024); --phi-family only")
    p.add_argument("--family-size", type=int, default=None, dest="family_size",
                   help="images in the family (default 32); --phi-family only")
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
    p.add_argument("--cells", type=int, default=None,
                   help="grid cells (default 64); --problem advdiff only")
    p.add_argument("--sigma", type=_positive_float, default=None,
                   help="Courant number (default 0.35); --problem advdiff only")
    p.add_argument("--dnum", type=_nonnegative_float, default=None,
                   help="diffusion number of the implicit schemes (default 0.1); "
                        "--problem advdiff only")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("tvd", help="total-variation series for upwind advection")
    common(p, scheme_default="ssp3")
    p.add_argument("--sigma", type=_positive_float, default=0.5)
    p.add_argument("--cells", type=int, default=256)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--data", choices=("step", "staircase"), default="step")
    p.add_argument("--seed", type=_nonnegative_int, default=None,
                   help="staircase seed (default 1234); --data staircase only")
    p.set_defaults(func=cmd_tvd)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, MemoryError, BlowUpError, StepFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
