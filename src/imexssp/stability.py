"""Linear stability analysis for IMEX multistep schemes.

Provides the explicit/implicit boundary loci, the map from unit-circle points
to implicit eigenvalues for a fixed explicit eigenvalue, a batched
characteristic-root stability oracle (root_verdicts, with root_condition as
its one-pair form), an array winding-number count, wedge-angle measurement
with closed-form counterparts, and the sweep machinery that measures the
worst-case implicit wedge over a family of explicit eigenvalues.

All stability statements use the transformed variable z = 1/zeta: a (lambda,
mu) pair is stable when every root of A(z) - lambda*B(z) - mu*C(z) lies on or
outside the unit circle, equivalently every zeta-root lies inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvfmt import FLOAT, format_rows
from .schemes import CoefficientSet, char_polys, finite_array, polyval

__all__ = [
    "BoundaryCurve",
    "WedgeAngle",
    "StabilityVerdict",
    "RootVerdicts",
    "ROOT_TOLERANCE",
    "ROOT_CLUSTER_TOLERANCE",
    "POLE_TOLERANCE",
    "ORIGIN_TOLERANCE",
    "DEFAULT_N_THETA",
    "explicit_boundary",
    "implicit_boundary",
    "lambda_at",
    "mu_map",
    "mu_image",
    "root_verdicts",
    "root_condition",
    "measure_alpha",
    "alpha_closed_form",
    "imex_alpha_sweep",
    "restrict_curve",
    "zero_expansion_coefficients",
    "min_zero_slope_ratio",
    "min_image_real_part",
    "image_winding_number",
    "image_exterior_stable",
    "curve_to_csv",
]

# Numeric policy. The root condition allows |zeta| up to 1 + ROOT_TOLERANCE;
# near-coincident roots at the circle are classified unstable (conservative
# stand-in for the strict-inequality rule on multiple roots).
ROOT_TOLERANCE = 1e-9
ROOT_CLUSTER_TOLERANCE = 1e-7
POLE_TOLERANCE = 1e-12
ORIGIN_TOLERANCE = 1e-9
DEFAULT_N_THETA = 4096

# Geometric offsets inserted on both sides of every pole of a locus: they let
# angle measurements follow the curve's asymptote without adaptive recursion.
# Depth is capped at 1e-6; closer samples would be dominated by the rounding
# noise of locating the pole, and measure_alpha extrapolates the remaining
# approach error away instead.
_POLE_ZOOM_OFFSETS = np.concatenate([10.0 ** -np.arange(2.0, 6.1, 0.5),
                                     -(10.0 ** -np.arange(2.0, 6.1, 0.5))])

# Offsets used around a known zero crossing of an image curve; the linear
# behaviour there fixes the wedge angle, so moderate depth is enough.
_ZERO_ZOOM_OFFSETS = np.concatenate([10.0 ** -np.arange(1.5, 6.1, 0.5),
                                     -(10.0 ** -np.arange(1.5, 6.1, 0.5))])

# Half-width of the window around a pole inside which the locus denominator
# is evaluated by its Taylor form anchored at the pole (cancellation-free).
_POLE_WINDOW = 0.05


@dataclass(frozen=True)
class BoundaryCurve:
    """A sampled parametric curve theta -> complex value, theta in [-pi, pi).

    Pole samples (where the defining denominator vanishes) keep their theta
    but carry is_pole=True; their value entries are not meaningful.
    pole_angles lists the angles at which the underlying map is singular,
    when the constructor knows them; measure_alpha uses them to extrapolate
    the asymptote angle from the neighbouring samples.
    """

    theta: np.ndarray
    values: np.ndarray
    is_pole: np.ndarray
    pole_angles: tuple = ()

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        is_pole = np.asarray(self.is_pole, dtype=bool)
        if not (len(theta) == len(values) == len(is_pole)):
            raise ValueError("curve arrays must have equal length")
        if len(theta) < 3:
            raise ValueError("a curve needs at least 3 samples")
        if np.any(np.diff(theta) <= 0):
            raise ValueError("theta samples must be strictly increasing")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "is_pole", is_pole)
        object.__setattr__(self, "pole_angles", tuple(float(t) for t in self.pole_angles))

    def __len__(self) -> int:
        return len(self.theta)

    def finite_values(self) -> np.ndarray:
        return self.values[~self.is_pole]


@dataclass(frozen=True)
class WedgeAngle:
    """Half-angle of a stability wedge about the negative real axis, in radians."""

    alpha: float
    tan_alpha: float

    @classmethod
    def from_alpha(cls, alpha: float) -> "WedgeAngle":
        if alpha >= math.pi / 2 - 1e-15:
            return cls(math.pi / 2, math.inf)
        return cls(alpha, math.tan(alpha))

    @classmethod
    def from_tan(cls, t: float) -> "WedgeAngle":
        if math.isinf(t):
            return cls(math.pi / 2, math.inf)
        return cls(math.atan(t), t)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the characteristic root condition for one (lambda, mu) pair."""

    stable: bool
    max_root_modulus: float
    multiple_root_on_boundary: bool
    degenerate_leading: bool = False


# ---------------------------------------------------------------------------
# Boundary loci
# ---------------------------------------------------------------------------

def _unit_circle_pole_angles(den_coeffs: np.ndarray) -> np.ndarray:
    """Angles at which the denominator vanishes on the unit circle.

    Roots are clustered (a multiple root splits under rounding) and each
    cluster is represented by its mean, which is accurate to rounding even
    for defective pairs.
    """
    coeffs = np.trim_zeros(np.asarray(den_coeffs, dtype=complex), "b")
    if len(coeffs) < 2:
        return np.array([])
    roots = np.roots(coeffs[::-1])
    roots = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
    clusters = []
    for r in roots:
        for cl in clusters:
            if abs(r - cl[0]) < 1e-5:
                cl.append(r)
                break
        else:
            clusters.append([r])
    return np.array([np.angle(np.mean(cl)) for cl in clusters])


def _wrap_angle(theta: np.ndarray) -> np.ndarray:
    return np.mod(theta + np.pi, 2 * np.pi) - np.pi


def _wrap_diff(theta, theta0):
    """Signed angular distance theta - theta0, wrapped to (-pi, pi]."""
    d = np.asarray(theta) - theta0
    return d - 2 * np.pi * np.round(d / (2 * np.pi))


def _theta_grid(n: int, pole_angles: np.ndarray) -> np.ndarray:
    """Uniform grid on [-pi, pi) plus geometric zoom samples around each pole."""
    theta = np.linspace(-np.pi, np.pi, n, endpoint=False)
    if len(pole_angles):
        zoom = _wrap_angle(pole_angles[:, None] + _POLE_ZOOM_OFFSETS[None, :]).ravel()
        theta = np.concatenate([theta, zoom])
    theta = np.sort(theta)
    keep = np.concatenate([[True], np.diff(theta) > 1e-15])
    return theta[keep]


def _eval_den(den: np.ndarray, theta: np.ndarray, pole_angles) -> np.ndarray:
    """Evaluate the denominator at e^(i theta), switching to a Taylor form
    anchored at each pole inside a small window around it.

    Direct evaluation loses all relative accuracy near a circle root through
    cancellation; the anchored form sum_m D_m/m! * w^m with
    w = e^(i theta) - e^(i theta_p) = 2i sin(d/2) e^(i(theta_p + d/2)) keeps
    full relative accuracy down to the smallest zoom offsets (the m=0 term is
    dropped: it is zero at the pole up to rounding junk).
    """
    den = np.asarray(den, dtype=complex)
    vals = polyval(den, np.exp(1j * theta))
    for theta_p in pole_angles:
        d = _wrap_diff(theta, theta_p)
        mask = np.abs(d) < _POLE_WINDOW
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


def _eval_locus(num, den, theta, pole_angles):
    den_vals = _eval_den(den, theta, pole_angles)
    pole = np.abs(den_vals) < POLE_TOLERANCE
    safe = np.where(pole, 1.0, den_vals)
    values = polyval(num, np.exp(1j * theta)) / safe
    values[pole] = np.nan + 1j * np.nan
    return values, pole


def _refine_locus(num, den, pole_angles, theta, values, pole, max_passes=8):
    """Insert midpoints where adjacent finite samples differ too much.

    The thresholds (0.02 in modulus, relative to the local scale, and 0.05 in
    argument) keep the sampled polyline faithful near sharp features; passes
    are capped so poles cannot trigger unbounded refinement.
    """
    for _ in range(max_passes):
        v0, v1 = values[:-1], values[1:]
        both = ~(pole[:-1] | pole[1:])
        dv = np.abs(v1 - v0)
        scale = np.maximum(1.0, np.minimum(np.abs(v0), np.abs(v1)))
        with np.errstate(invalid="ignore", divide="ignore"):
            darg = np.abs(np.angle(np.where(both, v1, 1.0) / np.where(both, v0, 1.0)))
        bad = both & (dv > 1e-6) & ((dv > 0.02 * scale) | (darg > 0.05))
        if not bad.any():
            break
        mid = 0.5 * (theta[:-1][bad] + theta[1:][bad])
        mv, mp = _eval_locus(num, den, mid, pole_angles)
        theta = np.concatenate([theta, mid])
        values = np.concatenate([values, mv])
        pole = np.concatenate([pole, mp])
        order = np.argsort(theta)
        theta, values, pole = theta[order], values[order], pole[order]
    return theta, values, pole


def _locus(num, den, n: int, refine: bool = True) -> BoundaryCurve:
    pole_angles = _unit_circle_pole_angles(den)
    theta = _theta_grid(n, pole_angles)
    values, pole = _eval_locus(num, den, theta, pole_angles)
    if refine:
        theta, values, pole = _refine_locus(num, den, pole_angles, theta, values, pole)
    return BoundaryCurve(theta, values, pole, pole_angles=tuple(pole_angles))


def explicit_boundary(s: CoefficientSet, n: int = DEFAULT_N_THETA) -> BoundaryCurve:
    """Boundary locus of the explicit stability region: A(e^(i theta)) / B(e^(i theta))."""
    if n < 16:
        raise ValueError("need at least 16 samples")
    polys = char_polys(s)
    if not polys.B.any():
        raise ValueError("scheme has no explicit part")
    return _locus(polys.A, polys.B, n)


def implicit_boundary(s: CoefficientSet, n: int = DEFAULT_N_THETA) -> BoundaryCurve:
    """Boundary locus of the implicit stability region: A(e^(i theta)) / C(e^(i theta))."""
    if n < 16:
        raise ValueError("need at least 16 samples")
    polys = char_polys(s)
    if not polys.C.any():
        raise ValueError("scheme has no implicit part")
    return _locus(polys.A, polys.C, n)


def lambda_at(s: CoefficientSet, theta) -> complex:
    """Explicit boundary point at a single angle."""
    polys = char_polys(s)
    z = np.exp(1j * np.asarray(theta))
    return polyval(polys.A, z) / polyval(polys.B, z)


# ---------------------------------------------------------------------------
# Implicit-eigenvalue map for fixed lambda
# ---------------------------------------------------------------------------

def mu_map(s: CoefficientSet, lam: complex, theta: float):
    """Implicit eigenvalue that places a characteristic root at e^(i theta).

    Returns None where the implicit polynomial C vanishes (a pole of the map).
    With lam=0 this is the implicit boundary locus pointwise.
    """
    polys = char_polys(s)
    if not polys.C.any():
        raise ValueError("scheme has no implicit part")
    pole_angles = _unit_circle_pole_angles(polys.C)
    den = complex(_eval_den(polys.C, np.atleast_1d(float(theta)), pole_angles)[0])
    if abs(den) < POLE_TOLERANCE:
        return None
    z = complex(np.exp(1j * theta))
    num = complex(polyval(polys.A, z)) - lam * complex(polyval(polys.B, z))
    return num / den


def mu_image(s: CoefficientSet, lam: complex, n: int = DEFAULT_N_THETA) -> BoundaryCurve:
    """Image of the unit circle under the implicit-eigenvalue map for fixed lambda."""
    if n < 16:
        raise ValueError("need at least 16 samples")
    polys = char_polys(s)
    if not polys.C.any():
        raise ValueError("scheme has no implicit part")
    num = polys.A.astype(complex)
    num[: len(polys.B)] = num[: len(polys.B)] - lam * polys.B
    pole_angles = _unit_circle_pole_angles(polys.C)
    theta = _theta_grid(n, pole_angles)
    values, pole = _eval_locus(num, polys.C, theta, pole_angles)
    return BoundaryCurve(theta, values, pole, pole_angles=tuple(pole_angles))


# ---------------------------------------------------------------------------
# Root condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootVerdicts:
    """Root-condition outcomes for a batch of (lambda, mu) pairs, one array
    per StabilityVerdict field, all of the broadcast shape of the inputs."""

    stable: np.ndarray
    max_root_modulus: np.ndarray
    multiple_root_on_boundary: np.ndarray
    degenerate_leading: np.ndarray


def root_verdicts(s: CoefficientSet, lams, mus) -> RootVerdicts:
    """Apply the root condition to every pair of the broadcast lams x mus.

    A pair is stable iff all zeta-roots lie in the closed unit disk, strictly
    inside for (numerically) multiple roots. The roots come from one stacked
    eigenvalue call on companion matrices built exactly as np.roots builds
    them; a leading coefficient below 1e-12 of the coefficient scale is
    flagged degenerate (unstable, infinite modulus) and gets no roots.
    """
    lams = finite_array(lams, "lambda")
    mus = finite_array(mus, "mu")
    polys = char_polys(s)
    d = polys.A.astype(complex) - lams[..., None] * polys.B - mus[..., None] * polys.C
    shape = d.shape[:-1]
    d = d.reshape(-1, d.shape[-1])
    scale = np.maximum(1.0, np.abs(d).max(axis=1))
    degenerate = np.abs(d[:, 0]) < 1e-12 * scale
    max_mod = np.full(len(d), math.inf)
    multiple = np.zeros(len(d), dtype=bool)
    rows = d[~degenerate]
    k = d.shape[1] - 1
    # companion matrices: first row -p[1:]/p[0], ones on the subdiagonal
    companion = np.zeros((len(rows), k, k), dtype=complex)
    companion[:, 0, :] = -rows[:, 1:] / rows[:, :1]
    companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    moduli = np.abs(roots)
    max_mod[~degenerate] = moduli.max(axis=1)
    close = np.abs(roots[:, :, None] - roots[:, None, :]) <= ROOT_CLUSTER_TOLERANCE
    on_circle = np.maximum(moduli[:, :, None], moduli[:, None, :]) \
        >= 1.0 - ROOT_CLUSTER_TOLERANCE
    multiple[~degenerate] = np.triu(close & on_circle, 1).any(axis=(1, 2))
    stable = (max_mod <= 1.0 + ROOT_TOLERANCE) & ~multiple
    return RootVerdicts(stable.reshape(shape), max_mod.reshape(shape),
                        multiple.reshape(shape), degenerate.reshape(shape))


def root_condition(s: CoefficientSet, lam: complex, mu: complex) -> StabilityVerdict:
    """The root condition for one (lambda, mu) pair: a one-row root_verdicts."""
    v = root_verdicts(s, lam, mu)
    return StabilityVerdict(bool(v.stable), float(v.max_root_modulus),
                            bool(v.multiple_root_on_boundary),
                            degenerate_leading=bool(v.degenerate_leading))


# ---------------------------------------------------------------------------
# Wedge angles
# ---------------------------------------------------------------------------

def _min_angle(values: np.ndarray) -> float:
    """Smallest angle from the negative real axis over constraining samples.

    Samples with real part >= -ORIGIN_TOLERANCE impose no constraint; pi/2
    (A-stability) is reported when nothing constrains.
    """
    v = values[np.isfinite(values) & (values.real < -ORIGIN_TOLERANCE)]
    if len(v) == 0:
        return math.pi / 2
    return float(np.arctan2(np.abs(v.imag), -v.real).min())


def _sample_angles(values: np.ndarray) -> np.ndarray:
    """Angle from the negative real axis per sample; nan where unconstraining."""
    out = np.full(len(values), np.nan)
    mask = np.isfinite(values) & (values.real < -ORIGIN_TOLERANCE)
    out[mask] = np.arctan2(np.abs(values[mask].imag), -values[mask].real)
    return out


def _asymptote_angle(curve: BoundaryCurve, theta_p: float) -> float:
    """Wedge angle of the asymptote at a pole, extrapolated from the
    neighbouring samples on each side (the approach error is linear in the
    offset, so two samples per side suffice)."""
    d = _wrap_diff(curve.theta, theta_p)
    angles = _sample_angles(curve.values)
    best = math.pi / 2
    for side in (1, -1):
        sel = np.nonzero((np.sign(d) == side) & (np.abs(d) < _POLE_WINDOW)
                         & ~np.isnan(angles))[0]
        if len(sel) == 0:
            continue
        order = sel[np.argsort(np.abs(d[sel]))]
        a1 = angles[order[0]]
        if len(order) == 1:
            best = min(best, a1)
            continue
        d1, d2 = abs(d[order[0]]), abs(d[order[1]])
        a2 = angles[order[1]]
        extrapolated = a1 - d1 * (a2 - a1) / (d2 - d1)
        best = min(best, max(0.0, extrapolated))
    return best


def measure_alpha(curve: BoundaryCurve) -> WedgeAngle:
    """Measured wedge half-angle admitted by a sampled boundary curve.

    The base measure is the smallest sample angle from the negative real
    axis; where the curve's pole angles are known, the asymptote angle at
    each pole is extrapolated from the neighbouring samples and included.
    """
    alpha = _min_angle(curve.finite_values())
    for theta_p in curve.pole_angles:
        alpha = min(alpha, _asymptote_angle(curve, theta_p))
    return WedgeAngle.from_alpha(alpha)


def alpha_closed_form(variant: str, k: int, beta, nu=None) -> WedgeAngle:
    """Closed-form wedge angle of the centred integrators.

    variant "implicit_centred": the pure implicit integrator's angle.
    variant "imex_centred": the IMEX angle when the explicit eigenvalues are
    confined to |Im| <= nu; nu must not exceed the variant's admissible bound.
    """
    if k not in (3, 4):
        raise ValueError(f"unsupported step count: k={k}")
    beta = float(beta)
    if beta >= 1.0:
        raise ValueError("beta must be < 1")
    gamma = beta / (beta - 1.0)
    root = math.sqrt(max(0.0, 1.0 - gamma * gamma))
    if k == 3:
        numer = (2.0 + gamma) * root
        denom = (gamma - 1.0) ** 2
    else:
        numer = (2.0 + gamma * gamma) * root
        denom = 2.0 - 3.0 * gamma + gamma ** 3
    if variant == "implicit_centred":
        if nu is not None:
            raise ValueError("implicit_centred takes no nu bound")
        return WedgeAngle.from_tan(numer / denom)
    if variant == "imex_centred":
        if nu is None:
            raise ValueError("imex_centred requires the imaginary bound nu")
        bound = numer / 3.0
        if nu > bound + 1e-15:
            raise ValueError(
                f"explicit imaginary bound violated: nu={nu} exceeds {bound}")
        return WedgeAngle.from_tan((numer - 3.0 * nu) / denom)
    raise ValueError(f"unknown variant: {variant!r}")


def imex_alpha_sweep(s: CoefficientSet, lambda_curve: BoundaryCurve,
                     n_theta: int = DEFAULT_N_THETA, block: int = 64,
                     min_modulus: float = 0.0) -> WedgeAngle:
    """Worst-case implicit wedge angle over a family of explicit eigenvalues.

    For every finite lambda sample the unit circle is mapped to the implicit
    eigenvalue plane and the admissible wedge is measured; the infimum over
    the family is returned. The theta grid carries zoom samples around the
    poles of the map, and each lambda adds zoom samples around its own curve
    parameter, where the image crosses zero when lambda lies on the locus.

    min_modulus > 0 restricts the measurement to image samples with at least
    that modulus. With a large value (say 1e3) only the pole asymptotes
    constrain, which is the quantity the centred-scheme angle bounds describe.

    The lambdas are mapped ``block`` at a time; the result does not depend on
    the block size. At the default 64, one block (64 x ~4.1k complex samples,
    4 MB) and its masked copies stay far below the memory a CLI run holds for
    its output.
    """
    if n_theta < 16:
        raise ValueError("need at least 16 samples")
    polys = char_polys(s)
    if not polys.C.any():
        raise ValueError("scheme has no implicit part")
    keep = ~lambda_curve.is_pole
    lams = lambda_curve.values[keep]
    lam_thetas = lambda_curve.theta[keep]
    if len(lams) == 0:
        raise ValueError("lambda set is empty")

    pole_angles = _unit_circle_pole_angles(polys.C)
    theta = _theta_grid(n_theta, pole_angles)
    z = np.exp(1j * theta)
    A = polyval(polys.A, z)
    B = polyval(polys.B, z)
    C = _eval_den(polys.C, theta, pole_angles)
    pole = np.abs(C) < POLE_TOLERANCE
    C_safe = np.where(pole, 1.0, C)

    def min_angle(values):
        if min_modulus > 0.0:
            values = np.where(np.abs(values) >= min_modulus, values, np.nan)
        return _min_angle(values)

    alpha = math.pi / 2
    for start in range(0, len(lams), block):
        lam = lams[start:start + block, None]
        phi = (A[None, :] - lam * B[None, :]) / C_safe[None, :]
        phi[:, pole] = np.nan
        alpha = min(alpha, min_angle(phi.ravel()))

        # local zoom around each lambda's own parameter angle
        th_extra = _wrap_angle(lam_thetas[start:start + block, None]
                               + _ZERO_ZOOM_OFFSETS[None, :])
        z_e = np.exp(1j * th_extra)
        C_e = polyval(polys.C, z_e)
        pole_e = np.abs(C_e) < POLE_TOLERANCE
        phi_e = (polyval(polys.A, z_e) - lam * polyval(polys.B, z_e)) \
            / np.where(pole_e, 1.0, C_e)
        phi_e[pole_e] = np.nan
        alpha = min(alpha, min_angle(phi_e.ravel()))
    return WedgeAngle.from_alpha(alpha)


def restrict_curve(curve: BoundaryCurve, nu: float) -> BoundaryCurve:
    """Clip an explicit boundary locus against the strip |Im| <= nu.

    Excursions beyond the strip are replaced by straight segments along
    Im = +/-nu between the interpolated crossing points, so the result is the
    closed boundary of the restricted stability region.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    keep = ~curve.is_pole
    theta = curve.theta[keep]
    values = curve.values[keep]
    inside = np.abs(values.imag) <= nu
    if inside.all():
        return BoundaryCurve(theta, values, np.zeros(len(theta), dtype=bool))
    if not (inside[0] and inside[-1]):
        raise ValueError("curve must start and end inside the strip")

    def crossing(i, j, edge):
        t = (edge - values[i].imag) / (values[j].imag - values[i].imag)
        th = theta[i] + t * (theta[j] - theta[i])
        return th, values[i].real + t * (values[j].real - values[i].real)

    new_theta = [theta[0]]
    new_vals = [values[0]]
    i = 1
    n = len(theta)
    while i < n:
        if inside[i]:
            new_theta.append(theta[i])
            new_vals.append(values[i])
            i += 1
            continue
        j = i
        while j < n and not inside[j]:
            j += 1
        edge = nu if values[i].imag > 0 else -nu
        th_in, x_in = crossing(i - 1, i, edge)
        th_out, x_out = crossing(j, j - 1, edge)
        m = max(j - i + 2, 8)
        seg_theta = np.linspace(th_in, th_out, m)
        seg_x = np.linspace(x_in, x_out, m)
        for th, x in zip(seg_theta, seg_x):
            new_theta.append(th)
            new_vals.append(complex(x, edge))
        i = j
    new_theta = np.asarray(new_theta)
    new_vals = np.asarray(new_vals)
    keep = np.concatenate([[True], np.diff(new_theta) > 1e-15])
    return BoundaryCurve(new_theta[keep], new_vals[keep],
                         np.zeros(int(keep.sum()), dtype=bool))


# ---------------------------------------------------------------------------
# Local expansions of the biased IMEX image at its zero crossing
# ---------------------------------------------------------------------------

def zero_expansion_coefficients(k: int, theta_star: float):
    """Leading Taylor data of the image curve near its zero crossing.

    For the biased IMEX schemes with lambda on the explicit boundary at
    parameter theta_star, the image of the circle point at theta_star is zero.
    k=3 returns the quadratic coefficient of the real part (the linear one
    vanishes); k=4 returns the (real, imag) linear coefficient pair. The
    circle is traversed clockwise, z = exp(-i theta), matching the
    orientation in which the coefficients are quoted.
    """
    if k == 3:
        c3 = math.cos(3 * theta_star)
        den = 5.0 + 4.0 * c3
        if abs(den) < 1e-12:
            raise ValueError("expansion denominator vanishes at this angle")
        return (1.0 - c3) / den
    if k == 4:
        s1 = math.sin(theta_star)
        s3 = math.sin(3 * theta_star)
        s4 = math.sin(4 * theta_star)
        c1 = math.cos(theta_star)
        c3 = math.cos(3 * theta_star)
        c4 = math.cos(4 * theta_star)
        den = s3 * s3 + (c3 + 2.0) ** 2
        if abs(den) < 1e-12:
            raise ValueError("expansion denominator vanishes at this angle")
        re = 0.75 * (s1 - 3.0 * s3 + 2.0 * s4) / den
        im = 0.75 * (6.0 + c1 + 3.0 * c3 + 2.0 * c4) / den
        return re, im
    raise ValueError(f"unsupported step count: k={k}")


def min_zero_slope_ratio(n: int = 4096) -> float:
    """Infimum over crossing angles of |imag slope / real slope| for the 4-step
    biased IMEX scheme; its arctangent estimates the scheme's wedge angle."""
    theta = np.linspace(-np.pi, np.pi, n, endpoint=False)
    s1, s3, s4 = np.sin(theta), np.sin(3 * theta), np.sin(4 * theta)
    c1, c3, c4 = np.cos(theta), np.cos(3 * theta), np.cos(4 * theta)
    re = s1 - 3.0 * s3 + 2.0 * s4
    im = 6.0 + c1 + 3.0 * c3 + 2.0 * c4
    mask = np.abs(re) > 1e-12
    return float(np.min(np.abs(im[mask] / re[mask])))


def min_image_real_part(s: CoefficientSet, n_lambda: int = 512,
                        n_theta: int = 512) -> float:
    """Minimum real part of the implicit-eigenvalue image over a full
    (lambda on the explicit boundary) x (circle point) grid."""
    polys = char_polys(s)
    th_star = np.linspace(-np.pi, np.pi, n_lambda, endpoint=False)
    z_star = np.exp(1j * th_star)
    lam = polyval(polys.A, z_star) / polyval(polys.B, z_star)
    theta = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    z = np.exp(1j * theta)
    A = polyval(polys.A, z)
    B = polyval(polys.B, z)
    C = polyval(polys.C, z)
    pole = np.abs(C) < POLE_TOLERANCE
    phi = (A[None, :] - lam[:, None] * B[None, :]) / np.where(pole, 1.0, C)[None, :]
    phi[:, pole] = np.nan
    return float(np.nanmin(phi.real))


# ---------------------------------------------------------------------------
# Image-exterior classification (winding-number test)
# ---------------------------------------------------------------------------

_WINDING_BLOCK = 64


def image_winding_number(values: np.ndarray, mu):
    """Winding number of a sampled closed curve around mu (scalar or array).

    The finite samples, in order and closed up, form a polyline; each of its
    edges that crosses the ray from mu towards +Re counts +1 upwards and -1
    downwards (the signed-crossing rule of Hormann & Agathos, 2001). An array
    of mu is processed in blocks of 64 so memory stays bounded; a scalar mu
    gives an int.
    """
    v = values[np.isfinite(values)]
    x0, y0 = v.real, v.imag
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    mu = np.asarray(mu, dtype=complex)
    flat = mu.ravel()
    out = np.empty(len(flat), dtype=int)
    for start in range(0, len(flat), _WINDING_BLOCK):
        m = flat[start:start + _WINDING_BLOCK]
        below0 = y0 <= m.imag[:, None]
        below1 = y1 <= m.imag[:, None]
        # the few (mu, edge) pairs whose edge straddles the line Im = Im mu
        rows, e = np.nonzero(below0 != below1)
        mx, my = m.real[rows], m.imag[rows]
        # > 0 where mu lies left of the edge (x0, y0) -> (x1, y1)
        side = (x1[e] - x0[e]) * (my - y0[e]) - (mx - x0[e]) * (y1[e] - y0[e])
        upward = below0[rows, e]
        crossing = (upward & (side > 0)).astype(int) - (~upward & (side < 0))
        out[start:start + _WINDING_BLOCK] = np.bincount(rows, weights=crossing,
                                                         minlength=len(m))
    return int(out[0]) if mu.ndim == 0 else out.reshape(mu.shape)


def _poles_inside_disk(s: CoefficientSet) -> int:
    coeffs = np.trim_zeros(char_polys(s).C.astype(complex), "b")
    if len(coeffs) < 2:
        return 0
    roots = np.roots(coeffs[::-1])
    return int(np.sum(np.abs(roots) < 1.0 - 1e-9))


def image_exterior_stable(s: CoefficientSet, lam: complex, mu: complex,
                          image: BoundaryCurve | None = None,
                          n_theta: int = DEFAULT_N_THETA) -> bool:
    """Classify (lam, mu) as stable when mu lies outside the image of the unit
    disk, decided by the winding number of the sampled image curve.

    By the argument principle the winding number around mu equals the count of
    characteristic roots inside the disk minus the count of implicit-polynomial
    roots inside, so "outside" means winding == -(poles inside).
    """
    if image is None:
        image = mu_image(s, lam, n_theta)
    return image_winding_number(image.values, mu) == -_poles_inside_disk(s)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def curve_to_csv(curve: BoundaryCurve, fh) -> None:
    """Write a curve as CSV rows theta,re,im,is_pole (pole rows read nan,nan,1)."""
    fh.write("theta,re,im,is_pole\n")
    re = np.where(curve.is_pole, np.nan, curve.values.real)
    im = np.where(curve.is_pole, np.nan, curve.values.imag)
    fh.write(format_rows(f"{FLOAT},{FLOAT},{FLOAT},%d\n", curve.theta, re, im,
                         curve.is_pole))
