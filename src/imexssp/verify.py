"""Acceptance suite: every documented stability, accuracy, and monotonicity
property checked at fixed tolerances, one pass/fail line per criterion.

The environment variable IMEXSSP_TOL_SCALE (default 1) scales tolerances and
interval half-widths for debugging; the shipped defaults are the contract.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import problems
from .integrate import empirical_stability, integrate
from .schemes import (
    BUILTIN_IDS,
    imex_bdf2,
    imex_scheme,
    implicit_biased,
    implicit_centred,
    mcnab,
    scheme_from_id,
    ssp_explicit,
)
from .stability import (
    alpha_closed_form,
    explicit_boundary,
    image_winding_number,
    imex_alpha_sweep,
    implicit_boundary,
    interval_pairs,
    lambda_at,
    measure_alpha,
    min_image_real_part,
    mu_image,
    mu_map,
    restrict_curve,
    root_verdicts,
    zero_expansion_coefficients,
)

__all__ = ["CheckResult", "CRITERIA", "run_criteria", "tol_scale", "angle_table"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def tol_scale() -> float:
    return float(os.environ.get("IMEXSSP_TOL_SCALE", "1.0"))


# ---------------------------------------------------------------------------
# 1. A-stability of the biased implicit integrator
# ---------------------------------------------------------------------------

def check_biased_implicit_a_stability(scale: float = 1.0) -> CheckResult:
    tol = 1e-12 * scale
    worst = math.inf
    for k in (3, 4):
        curve = implicit_boundary(implicit_biased(k), 4096)
        worst = min(worst, float(np.nanmin(curve.finite_values().real)))
    x = np.linspace(-1.0, 1.0, 2001)
    # numerators of the boundary's real part, with their factorizations
    f3 = 4 * x**3 - 3 * x**2 - 6 * x + 5
    f3_factored = (4 * x + 5) * (x - 1) ** 2
    f4 = -(4 * x**2 - x - 6) * (x - 1) ** 2
    factor_ok = (np.max(np.abs(f3 - f3_factored)) < 1e-12
                 and f3.min() >= -tol and f4.min() >= -tol)
    passed = worst >= -tol and factor_ok
    return CheckResult(
        "biased-implicit-a-stability", passed,
        f"min Re over both loci = {worst:.3e} (tol -{tol:.0e}); "
        f"numerator polynomials nonnegative on [-1,1]: {factor_ok}",
    )


# ---------------------------------------------------------------------------
# 2. Centred integrator: measured angle matches the closed form
# ---------------------------------------------------------------------------

def check_centred_angle_closed_form(scale: float = 1.0) -> CheckResult:
    tol = 1e-6 * scale
    worst = 0.0
    for k in (3, 4):
        for beta in (0.0, 0.1, 0.25, 0.4, 0.5):
            measured = measure_alpha(implicit_boundary(implicit_centred(k, beta)))
            closed = alpha_closed_form("implicit_centred", k, beta)
            worst = max(worst, abs(measured.alpha - closed.alpha))
    exact0 = (alpha_closed_form("implicit_centred", 3, 0).tan_alpha == 2.0
              and alpha_closed_form("implicit_centred", 4, 0).tan_alpha == 1.0)
    passed = worst <= tol and exact0
    return CheckResult(
        "centred-angle-closed-form", passed,
        f"worst |measured - closed| = {worst:.3e} (tol {tol:.0e}); "
        f"beta=0 gives tan = 2 and 1: {exact0}",
    )


# ---------------------------------------------------------------------------
# 3. Three-step biased IMEX: image stays in the right half-plane
# ---------------------------------------------------------------------------

def check_imex_k3_left_half_plane(scale: float = 1.0) -> CheckResult:
    tol = 1e-10 * scale
    worst = min_image_real_part(imex_scheme("biased", 3))
    passed = worst >= -tol
    return CheckResult(
        "imex-k3-left-half-plane", passed,
        f"min Re over 512x512 grid = {worst:.3e} (tol -{tol:.0e})",
    )


# ---------------------------------------------------------------------------
# 4. Four-step biased IMEX: wedge angle
# ---------------------------------------------------------------------------

def check_imex_k4_wedge(scale: float = 1.0) -> CheckResult:
    w = imex_alpha_sweep(imex_scheme("biased", 4),
                         explicit_boundary(ssp_explicit(4), 1024), 4096)
    tan_lo, tan_hi = 0.89 - 0.02 * scale, 0.89 + 0.02 * scale
    a_lo, a_hi = (0.23 - 0.01 * scale) * math.pi, (0.23 + 0.01 * scale) * math.pi
    passed = tan_lo <= w.tan_alpha <= tan_hi and a_lo <= w.alpha <= a_hi
    return CheckResult(
        "imex-k4-wedge", passed,
        f"tan = {w.tan_alpha:.4f} (in [{tan_lo:.2f},{tan_hi:.2f}]), "
        f"alpha = {w.alpha / math.pi:.4f} pi (in [{a_lo / math.pi:.2f},{a_hi / math.pi:.2f}] pi)",
    )


# ---------------------------------------------------------------------------
# 5. Local expansion coefficients against finite differences
# ---------------------------------------------------------------------------

def check_zero_slope_expansion(scale: float = 1.0) -> CheckResult:
    tol = 1e-5 * scale
    n_samples = 32
    rng = np.random.default_rng(42)
    thetas = rng.uniform(-math.pi, math.pi, n_samples)
    h = 1e-3
    worst = 0.0
    for theta_star in thetas:
        for k in (3, 4):
            s = imex_scheme("biased", k)
            # the quoted coefficients follow the clockwise circle z = e^{-i theta}
            lam = lambda_at(s, -theta_star)

            def phi(t):
                return mu_map(s, lam, -t)

            if k == 3:
                def second(hh):
                    return (phi(theta_star + hh).real - 2 * phi(theta_star).real
                            + phi(theta_star - hh).real) / (2 * hh * hh)

                fd = (4 * second(h / 2) - second(h)) / 3
                ref = zero_expansion_coefficients(3, theta_star)
                worst = max(worst, abs(fd - ref) / max(abs(ref), 1e-8))
            else:
                def first(hh):
                    return (phi(theta_star + hh) - phi(theta_star - hh)) / (2 * hh)

                fd = (4 * first(h / 2) - first(h)) / 3
                re_ref, im_ref = zero_expansion_coefficients(4, theta_star)
                worst = max(worst, abs(fd.real - re_ref) / max(abs(re_ref), 1e-8))
                worst = max(worst, abs(fd.imag - im_ref) / max(abs(im_ref), 1e-8))
    passed = worst <= tol
    return CheckResult(
        "zero-slope-expansion", passed,
        f"worst relative mismatch over {n_samples} angles = {worst:.2e} (tol {tol:.0e})",
    )


# ---------------------------------------------------------------------------
# 6. Angle table
# ---------------------------------------------------------------------------

def angle_table(n_lambda: int = 1024, n_theta: int = 4096):
    """The eight comparison rows: honest sweep measurement with the sample
    that attains it, closed form where a closed form exists, and the
    reference value each row is compared to."""
    nu = 1.0 / 3.0
    rows = []

    def row(scheme, params, s, lam_curve, closed, reference):
        w = imex_alpha_sweep(s, lam_curve, n_theta)
        rows.append({
            "scheme": scheme, "params": params, "alpha_measured": w.alpha,
            "alpha_closed_form": closed, "alpha_reference": reference,
            "witness_theta_star": w.theta_star, "witness_lambda": w.lam,
            "witness_theta": w.theta, "witness_mu": w.mu,
            "n_evals": w.n_evals, "resolution": w.resolution,
        })

    row("imex-biased-k3", "", imex_scheme("biased", 3),
        explicit_boundary(ssp_explicit(3), n_lambda), None, math.pi / 2)
    row("imex-biased-k4", "", imex_scheme("biased", 4),
        explicit_boundary(ssp_explicit(4), n_lambda), None, 0.23 * math.pi)
    for k, ref in ((3, 0.25 * math.pi), (4, 0.15 * math.pi)):
        row(f"imex-centred-k{k}", "beta=0 nu=1/3", imex_scheme("centred", k, 0.0),
            restrict_curve(explicit_boundary(ssp_explicit(k), 2 * n_lambda), nu),
            alpha_closed_form("imex_centred", k, 0.0, nu).alpha, ref)
    s = imex_bdf2()
    row("imex-bdf2", "", s, explicit_boundary(s, n_lambda), None, 0.31 * math.pi)
    for c, ref in ((0.0, 0.0), (0.125, 0.12 * math.pi), (0.5, 0.23 * math.pi)):
        s = mcnab(c)
        row("mcnab", f"c={c}", s, explicit_boundary(s, n_lambda), None, ref)
    return rows


def check_angle_table(scale: float = 1.0) -> CheckResult:
    tol = 0.01 * math.pi * scale
    rows = angle_table()
    failures = []
    for row in rows:
        diff = abs(row["alpha_measured"] - row["alpha_reference"])
        if diff > tol:
            failures.append(
                f"{row['scheme']} {row['params']}".strip()
                + f": measured {row['alpha_measured'] / math.pi:.4f} pi"
                  f" vs reference {row['alpha_reference'] / math.pi:.2f} pi"
            )
    closed_ok = (
        math.isclose(math.tan(rows[2]["alpha_closed_form"]), 1.0, rel_tol=1e-12)
        and math.isclose(math.tan(rows[3]["alpha_closed_form"]), 0.5, rel_tol=1e-12)
    )
    passed = not failures and closed_ok
    if failures:
        detail = (f"{8 - len(failures)}/8 rows within {tol / math.pi:.2f} pi; out of band: "
                  + "; ".join(failures)
                  + " [measured values confirmed by root-condition and recurrence"
                    " oracles; see README.md 'Angle table caveat' for the"
                    " per-row analysis of the reference values]")
    else:
        detail = f"all 8 rows within {tol / math.pi:.2f} pi of the reference column"
    detail += f"; centred closed forms equal atan(1), atan(1/2): {closed_ok}"
    return CheckResult("angle-table", passed, detail)


# ---------------------------------------------------------------------------
# 7. Root condition against the winding-number exterior test
# ---------------------------------------------------------------------------

def _near_curve(curve_pts: np.ndarray, mus: np.ndarray, band: float) -> np.ndarray:
    """Mask of the mus that lie within band of some curve sample.

    A sorted sweep over the samples' real parts gives each mu the samples
    whose real part differs from its own by less than 2 band, a margin that
    no rounding of abs() can cross; the distance test decides among those.
    """
    near = np.zeros(len(mus), dtype=bool)
    x = mus.real
    # at most 16 pairs per sample at a time, so a dense case (every sample
    # near every mu) stays within about 1 kB per sample
    for i, j in interval_pairs(curve_pts.real, x - 2 * band, x + 2 * band,
                               16 * len(curve_pts)):
        near[i[np.abs(curve_pts[j] - mus[i]) < band]] = True
    return near


def check_root_vs_winding(scale: float = 1.0) -> CheckResult:
    band = 1e-3
    s = imex_scheme("biased", 3)
    mu_re = np.linspace(-2.0, 6.0, 50)
    mu_im = np.linspace(-4.0, 4.0, 50)
    grid = np.array([complex(re, im) for re in mu_re for im in mu_im])
    worst_rate = 1.0
    details = []
    for lam in (0.0, -0.5, -1.0 + 0.2j):
        image = mu_image(s, lam, 4096)
        mus = grid[~_near_curve(image.finite_values(), grid, band)]
        by_roots = root_verdicts(s, lam, mus).stable
        by_winding = image_winding_number(image.values, mus) == 0
        total = len(mus)
        agree = int(np.sum(by_roots == by_winding))
        rate = agree / total
        worst_rate = min(worst_rate, rate)
        details.append(f"lam={lam}: {agree}/{total}")
    threshold = max(0.0, 1.0 - 0.01 * scale)
    passed = worst_rate >= threshold
    return CheckResult(
        "root-vs-winding", passed,
        f"agreement {'; '.join(details)} (worst rate {worst_rate:.4f}, need >= {threshold:.2f})",
    )


# ---------------------------------------------------------------------------
# 8. Global convergence order on the scalar split problem
# ---------------------------------------------------------------------------

def check_convergence_order(scale: float = 1.0) -> CheckResult:
    lo, hi = 2.0 - 0.1 * scale, 2.0 + 0.1 * scale
    dts = [1 / 40, 1 / 80, 1 / 160, 1 / 320]
    orders = {}
    for sid in BUILTIN_IDS:
        s = scheme_from_id(sid)
        lam, mu = (-0.4, -0.6) if s.is_implicit else (-1.0, 0.0)
        errs = []
        for dt in dts:
            prob = problems.dahlquist(lam, mu)
            traj = integrate(prob, s, 1.0, dt)
            errs.append(abs(traj.final[0] - prob.exact(1.0)[0]))
        orders[sid] = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    bad = {k: v for k, v in orders.items() if not lo <= v <= hi}
    passed = not bad
    summary = ", ".join(f"{k}={v:.2f}" for k, v in orders.items())
    return CheckResult(
        "convergence-order", passed,
        f"fitted orders in [{lo:.1f},{hi:.1f}]: {summary}" + (f"; out of range: {bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 9. SSP/TVD on first-order upwind advection
# ---------------------------------------------------------------------------

def check_tvd_ssp(scale: float = 1.0) -> CheckResult:
    tol = 1e-12 * scale
    n_steps = 200
    grid = problems.GridSpec(256)
    worst = -math.inf
    details = []
    for sid, sigma in (("ssp3", 0.5), ("ssp4", 2.0 / 3.0), ("euler", 1.0)):
        s = scheme_from_id(sid)
        dt = sigma * grid.dx
        prob = problems.upwind_advection(grid, sigma)
        traj = integrate(prob, s, n_steps * dt, dt)
        # the scheme's own steps follow its k exact starting levels
        own = np.diff(traj.diagnostics["total_variation"])[s.k - 1:]
        growth = float(own.max())
        worst = max(worst, growth)
        details.append(f"{sid}@{sigma:.3g}: {growth:.2e} over {len(own)} steps")
    passed = worst <= tol
    return CheckResult(
        "tvd-ssp", passed,
        f"max per-step TV growth of each scheme's own steps: {'; '.join(details)}"
        f" (tol {tol:.0e})",
    )


# ---------------------------------------------------------------------------
# 10. Root condition against empirical integration
# ---------------------------------------------------------------------------

# draws per root_verdicts call while root-vs-empirical selects its pairs
_VERDICT_CHUNK = 1000


def _root_vs_empirical_pairs(s, n_pairs: int, margin: float):
    """The seeded (lambda, mu) draws whose root modulus is outside the margin.

    Up to 100 * n_pairs draws are made from seed 2024, four uniforms each in
    the order Re lambda, Im lambda, Re mu, Im mu: the same stream as scalar
    Generator.uniform calls. The first n_pairs draws outside the margin are
    kept; returns their lambdas, mus and root-condition stability.
    """
    rng = np.random.default_rng(2024)
    low = np.array([-2.5, -2.0, -4.0, -3.0])
    high = np.array([0.5, 2.0, 1.0, 3.0])
    lams, mus, stable = [], [], []
    n_draws = 100 * n_pairs
    n_kept = 0
    for start in range(0, n_draws, _VERDICT_CHUNK):
        u = low + (high - low) * rng.random((min(_VERDICT_CHUNK, n_draws - start), 4))
        lam = u[:, 0] + 1j * u[:, 1]
        mu = u[:, 2] + 1j * u[:, 3]
        v = root_verdicts(s, lam, mu)
        outside = np.abs(v.max_root_modulus - 1.0) > margin
        lams.append(lam[outside])
        mus.append(mu[outside])
        stable.append(v.stable[outside])
        n_kept += int(outside.sum())
        if n_kept >= n_pairs:
            break
    return tuple(np.concatenate(x)[:n_pairs] for x in (lams, mus, stable))


def check_root_vs_empirical(scale: float = 1.0) -> CheckResult:
    n_pairs = 200
    margin = 0.05
    s = imex_scheme("biased", 3)
    lams, mus, stable = _root_vs_empirical_pairs(s, n_pairs, margin)
    checked = len(lams)
    agree = int(np.sum(empirical_stability(s, lams, mus, 800) == stable))
    passed = checked == n_pairs and agree == n_pairs
    return CheckResult(
        "root-vs-empirical", passed,
        f"{agree}/{checked} seeded pairs agree (need {n_pairs}/{n_pairs}; "
        f"pairs at root-modulus margin > {margin})",
    )


# ---------------------------------------------------------------------------
# 11. Advection symbol inside the explicit stability region
# ---------------------------------------------------------------------------

def check_advection_symbol(scale: float = 1.0) -> CheckResult:
    cfg = problems.AdvectionDiffusionConfig(courant=0.35)
    s3 = ssp_explicit(3)
    phis = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    lams = problems.fourier_symbol_kappa(cfg, phis)
    unstable = int(np.sum(~root_verdicts(s3, lams, 0.0).stable))
    small = 10.0 ** np.linspace(-3, -0.5, 20)
    sym = problems.fourier_symbol_kappa(cfg, small)
    expansion_err = np.abs(sym + 1j * cfg.courant * small)
    third_order = bool(np.all(expansion_err <= cfg.courant * small**4 * (1 + scale)))
    max_im = float(np.max(np.abs(lams.imag)))
    passed = unstable == 0 and third_order
    return CheckResult(
        "advection-symbol", passed,
        f"{len(phis) - unstable}/{len(phis)} symbol points inside the region; "
        f"small-angle expansion third order: {third_order}; max |Im| = {max_im:.3f}",
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CRITERIA = {
    "biased-implicit-a-stability": check_biased_implicit_a_stability,
    "centred-angle-closed-form": check_centred_angle_closed_form,
    "imex-k3-left-half-plane": check_imex_k3_left_half_plane,
    "imex-k4-wedge": check_imex_k4_wedge,
    "zero-slope-expansion": check_zero_slope_expansion,
    "angle-table": check_angle_table,
    "root-vs-winding": check_root_vs_winding,
    "convergence-order": check_convergence_order,
    "tvd-ssp": check_tvd_ssp,
    "root-vs-empirical": check_root_vs_empirical,
    "advection-symbol": check_advection_symbol,
}


def run_criteria(only: str | None = None, scale: float | None = None):
    """Run all (or name-matching) criteria, returning CheckResults in order."""
    if scale is None:
        scale = tol_scale()
    selected = {name: fn for name, fn in CRITERIA.items()
                if only is None or only in name}
    if not selected:
        raise ValueError(f"no criterion matches {only!r}; "
                         f"available: {', '.join(CRITERIA)}")
    return [fn(scale) for name, fn in selected.items()]
