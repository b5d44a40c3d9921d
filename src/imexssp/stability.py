"""Linear stability analysis for IMEX multistep schemes.

Provides the explicit/implicit boundary loci, the map from unit-circle points
to implicit eigenvalues for a fixed explicit eigenvalue (one kernel serves
every image evaluation), a batched characteristic-root stability oracle
(root_verdicts, with root_condition as its one-pair form), an array
winding-number count, wedge-angle measurement with closed-form counterparts,
and the sweep that finds the worst-case implicit wedge over a family of
explicit eigenvalues, with the sample that attains it.

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
    "SweepResult",
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
    "min_image_real_part",
    "image_winding_number",
    "interval_pairs",
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


class _Denominator:
    """A locus denominator on the unit circle, with its circle roots found
    and its pole-anchored Taylor coefficients computed once.

    Direct evaluation loses all relative accuracy near a circle root through
    cancellation. Within _POLE_WINDOW of each root the anchored form
    sum_m D_m/m! * w^m with w = e^(i theta) - e^(i theta_p)
    = 2i sin(d/2) e^(i(theta_p + d/2)) is used instead; it keeps full relative
    accuracy down to the smallest zoom offsets (the m=0 term is dropped: it
    is zero at the pole up to rounding junk).
    """

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.pole_angles = _unit_circle_pole_angles(self.coeffs)
        self._taylor = []
        for theta_p in self.pole_angles:
            z_p = np.exp(1j * theta_p)
            deriv, fact, terms = self.coeffs, 1.0, []
            for m in range(1, len(self.coeffs)):
                deriv = np.polynomial.polynomial.polyder(deriv)
                fact *= m
                terms.append(polyval(deriv, z_p) / fact)
            self._taylor.append((theta_p, terms))

    def __call__(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The denominator at z = e^(i theta)."""
        vals = polyval(self.coeffs, z)
        for theta_p, terms in self._taylor:
            d = _wrap_diff(theta, theta_p)
            mask = np.abs(d) < _POLE_WINDOW
            if not mask.any():
                continue
            dm = d[mask]
            w = 2j * np.sin(dm / 2) * np.exp(1j * (theta_p + dm / 2))
            acc = np.zeros(len(dm), dtype=complex)
            wpow = np.ones(len(dm), dtype=complex)
            for term in terms:
                wpow = wpow * w
                acc += term * wpow
            vals[mask] = acc
        return vals


class _CircleGrid:
    """Circle angles theta (any shape) with a denominator evaluated on them.

    This is where a map's poles are decided: a sample whose denominator is
    below POLE_TOLERANCE in modulus is a pole, and every quotient on the grid
    reads nan there.
    """

    def __init__(self, den: _Denominator, theta):
        self.theta = np.asarray(theta, dtype=float)
        self.z = np.exp(1j * self.theta)
        den_vals = den(self.theta, self.z)
        self.pole = np.abs(den_vals) < POLE_TOLERANCE
        self._safe = np.where(self.pole, 1.0, den_vals)

    def quotient(self, num_vals: np.ndarray) -> np.ndarray:
        values = num_vals / self._safe
        values[np.broadcast_to(self.pole, values.shape)] = np.nan + 1j * np.nan
        return values


def _eval_locus(num, den: _Denominator, theta):
    grid = _CircleGrid(den, theta)
    return grid.quotient(polyval(num, grid.z)), grid.pole


def _refine_locus(num, den: _Denominator, theta, values, pole):
    """Insert midpoints where adjacent finite samples differ too much.

    The thresholds (0.02 in modulus, relative to the local scale, and 0.05 in
    argument) keep the sampled polyline faithful near sharp features; passes
    are capped at 8 so poles cannot trigger unbounded refinement.
    """
    for _ in range(8):
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
        mv, mp = _eval_locus(num, den, mid)
        theta = np.concatenate([theta, mid])
        values = np.concatenate([values, mv])
        pole = np.concatenate([pole, mp])
        order = np.argsort(theta)
        theta, values, pole = theta[order], values[order], pole[order]
    return theta, values, pole


def _locus(num, den, n: int) -> BoundaryCurve:
    den = _Denominator(den)
    theta = _theta_grid(n, den.pole_angles)
    values, pole = _eval_locus(num, den, theta)
    theta, values, pole = _refine_locus(num, den, theta, values, pole)
    return BoundaryCurve(theta, values, pole, pole_angles=tuple(den.pole_angles))


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
    """Explicit boundary point at a single angle (or an array of them)."""
    theta = finite_array(theta, "theta")
    polys = char_polys(s)
    z = np.exp(1j * theta)
    return polyval(polys.A, z) / polyval(polys.B, z)


# ---------------------------------------------------------------------------
# Implicit-eigenvalue map for fixed lambda: the one image-map kernel
# ---------------------------------------------------------------------------

# image samples per block when many lambdas are mapped (128 kB of complex)
_BLOCK_SAMPLES = 8192


class _ImageMap:
    """The implicit-eigenvalue map mu = (A - lam B)/C of one scheme.

    Built once per scheme: the polynomials, and C as a _Denominator with its
    circle poles and their Taylor coefficients. Every image evaluation in
    this module goes through __call__ (mu_map, mu_image, min_image_real_part,
    imex_alpha_sweep), so the numerator is always evaluated the same way: by
    Horner's rule on the coefficients of A - lam B, exactly as
    numpy.polynomial.polynomial.polyval does.
    """

    def __init__(self, s: CoefficientSet):
        polys = char_polys(s)
        if not polys.C.any():
            raise ValueError("scheme has no implicit part")
        self.A = polys.A.astype(complex)
        self.B = polys.B
        self.C = _Denominator(polys.C)

    def on(self, theta) -> _CircleGrid:
        """A theta set with C evaluated on it, reusable for many lambdas."""
        return _CircleGrid(self.C, theta)

    def __call__(self, lams, grid: _CircleGrid) -> np.ndarray:
        """mu for lams and grid.theta broadcast against each other; nan at poles."""
        num = self.A - np.asarray(lams)[..., None] * self.B
        z = grid.z
        acc = num[..., -1] + z * 0
        for i in range(2, num.shape[-1] + 1):
            acc = num[..., -i] + acc * z
        return grid.quotient(acc)

    def blocks(self, lams: np.ndarray, theta: np.ndarray):
        """(rows, theta, mu) per block of about _BLOCK_SAMPLES samples; theta
        is one 1-D set for every lambda, or one row per lambda."""
        shared = self.on(theta) if theta.ndim == 1 else None
        step = max(1, _BLOCK_SAMPLES // theta.shape[-1])
        for start in range(0, len(lams), step):
            rows = slice(start, start + step)
            grid = shared or self.on(theta[rows])
            yield rows, grid.theta, self(lams[rows, None], grid)


def mu_map(s: CoefficientSet, lam: complex, theta: float):
    """Implicit eigenvalue that places a characteristic root at e^(i theta).

    Returns None where the implicit polynomial C vanishes (a pole of the map).
    With lam=0 this is the implicit boundary locus pointwise.
    """
    lam = finite_array(lam, "lambda")
    theta = finite_array(theta, "theta")
    image = _ImageMap(s)
    grid = image.on(np.atleast_1d(theta.astype(float)))
    if grid.pole[0]:
        return None
    return complex(image(lam, grid)[0])


def mu_image(s: CoefficientSet, lam: complex, n: int = DEFAULT_N_THETA) -> BoundaryCurve:
    """Image of the unit circle under the implicit-eigenvalue map for fixed lambda."""
    if n < 16:
        raise ValueError("need at least 16 samples")
    lam = finite_array(lam, "lambda")
    image = _ImageMap(s)
    grid = image.on(_theta_grid(n, image.C.pole_angles))
    return BoundaryCurve(grid.theta, image(lam, grid), grid.pole,
                         pole_angles=tuple(image.C.pole_angles))


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


# The sweep's coarse scan maps every _LAMBDA_STRIDE-th lambda over
# _COARSE_THETA circle angles; its _REFINE_CELLS best local minima are refined
# by _GOLDEN_STEPS golden-section steps. The refinement keeps _ANCHOR_HOLE away
# from the poles and from each lambda's own curve parameter: there the minimum
# is a limit (asymptote or zero-crossing slope) that the zoom samples carry,
# and rounding noise in mu, growing towards the anchor, would decide.
_COARSE_THETA = 512
_LAMBDA_STRIDE = 8
_REFINE_CELLS = 8
_GOLDEN_STEPS = 50
_ANCHOR_HOLE = 2e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepResult:
    """Worst-case wedge of imex_alpha_sweep and the sample attaining it.

    alpha and tan_alpha are WedgeAngle.from_tan of the least |Im mu| / -Re mu.
    The witness (theta_star, lam, theta, mu) is the explicit eigenvalue, its
    curve parameter, the circle angle and the image there; None when nothing
    constrains (alpha = pi/2). n_evals counts image samples; resolution is
    the theta width of the final golden-section brackets.
    """

    alpha: float
    tan_alpha: float
    theta_star: float | None
    lam: complex | None
    theta: float | None
    mu: complex | None
    n_evals: int
    resolution: float


class _Worst:
    """The least ratio |Im mu| / -Re mu offered so far, and its sample."""

    def __init__(self):
        self.ratio = math.inf
        self.at = None  # (lambda index, theta, mu)
        self.n_evals = 0

    def offer(self, at, theta, mu: np.ndarray) -> np.ndarray:
        """Ratios of mu at (lambda indices at, theta), broadcast to mu's shape;
        inf where a sample does not constrain (pole, Re mu >= -ORIGIN_TOLERANCE)."""
        neg = -mu.real
        constrains = neg > ORIGIN_TOLERANCE
        r = np.where(constrains, np.abs(mu.imag) / np.where(constrains, neg, 1.0), np.inf)
        self.n_evals += r.size
        i = np.unravel_index(np.argmin(r), r.shape)
        if r[i] < self.ratio:
            self.ratio = float(r[i])
            self.at = (int(np.broadcast_to(at, r.shape)[i]),
                       float(np.broadcast_to(theta, r.shape)[i]), complex(mu[i]))
        return r


def _golden_min(f, lo: np.ndarray, hi: np.ndarray, steps: int) -> None:
    """Golden-section search (Brent 1973, ch. 5) on every bracket at once:
    f maps one abscissa per bracket to values, and records what it sees."""
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        left = fc < fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        x = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)


def imex_alpha_sweep(s: CoefficientSet, lambda_curve: BoundaryCurve,
                     n_theta: int = DEFAULT_N_THETA) -> SweepResult:
    """Worst-case implicit wedge angle over a family of explicit eigenvalues.

    For every finite lambda sample the unit circle is mapped to the implicit
    eigenvalue plane and the admissible wedge is measured; the infimum over
    the family is returned with its witness. Samples are ranked by
    |Im mu| / -Re mu, and atan is taken once, of the winner. The result is
    as tight as mapping every lambda over the uniform n_theta grid (up to
    rounding) without doing so:

    1. every lambda is mapped at the zoom samples around the poles of the map
       and around its own curve parameter (where the image crosses zero when
       lambda lies on the locus);
    2. every _LAMBDA_STRIDE-th lambda is mapped over a coarse subset of the
       n_theta grid;
    3. each lambda near the best local minima of that scan is mapped over
       the coarse grid, then at the n_theta grid angles of its best coarse
       cell, and the best of those is refined by golden section between its
       grid neighbours.
    """
    if n_theta < 16:
        raise ValueError("need at least 16 samples")
    image = _ImageMap(s)
    keep = ~lambda_curve.is_pole
    lams = lambda_curve.values[keep]
    lam_thetas = lambda_curve.theta[keep]
    if len(lams) == 0:
        raise ValueError("lambda set is empty")
    worst = _Worst()

    def ratios(at, theta):
        r = np.empty((len(at), theta.shape[-1]))
        for rows, th, mu in image.blocks(lams[at], theta):
            r[rows] = worst.offer(at[rows, None], th, mu)
        return r

    # 1. zoom samples
    index = np.arange(len(lams))
    poles = image.C.pole_angles
    if len(poles):
        ratios(index, _wrap_angle(poles[:, None] + _POLE_ZOOM_OFFSETS).ravel())
    ratios(index, _wrap_angle(lam_thetas[:, None] + _ZERO_ZOOM_OFFSETS))

    # 2. coarse scan
    dense = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    n_coarse = min(_COARSE_THETA, n_theta)
    coarse_at = np.arange(n_coarse) * n_theta // n_coarse
    rows = index[::_LAMBDA_STRIDE]
    scan = ratios(rows, dense[coarse_at])

    # 3. local minima: no larger than any of the eight neighbours (theta wraps)
    lo = np.minimum(scan, np.minimum(np.roll(scan, 1, 1), np.roll(scan, -1, 1)))
    padded = np.pad(lo, ((1, 1), (0, 0)), constant_values=np.inf)
    lo = np.minimum(lo, np.minimum(padded[:-2], padded[2:]))
    cells = np.flatnonzero(np.isfinite(scan) & (scan <= lo))
    cells = cells[np.argsort(scan.flat[cells], kind="stable")[:_REFINE_CELLS]]
    #    and the lambdas between their row's neighbours (np.unique would
    #    import numpy.ma, about 1 MB, so a mask takes their union)
    window = np.zeros(len(lams), dtype=bool)
    window[np.clip(rows[cells // n_coarse, None] + np.arange(1 - _LAMBDA_STRIDE, _LAMBDA_STRIDE),
                   0, len(lams) - 1)] = True
    at = np.flatnonzero(window)

    # 4. each of those lambdas: its best coarse cell, the n_theta grid angles
    #    from the cell's left to right neighbour, and golden section between
    #    the best grid angle's neighbours
    r = ratios(at, dense[coarse_at])
    live = np.isfinite(r).any(axis=1)
    at, best = at[live], np.argmin(r[live], axis=1)
    theta = dense[(coarse_at[best - 1, None] + np.arange(2 * -(-n_theta // n_coarse) + 1))
                  % n_theta]
    centre = theta[np.arange(len(at)), np.argmin(ratios(at, theta), axis=1)]

    def ratio_at(x):
        x = _wrap_angle(x)
        mu = image(lams[at], image.on(x))
        near = np.abs(_wrap_diff(x, lam_thetas[at])) < _ANCHOR_HOLE
        for theta_p in poles:
            near |= np.abs(_wrap_diff(x, theta_p)) < _ANCHOR_HOLE
        mu[near] = np.nan
        return worst.offer(at, x, mu)

    h = 2 * np.pi / n_theta
    if len(at):
        _golden_min(ratio_at, centre - h, centre + h, _GOLDEN_STEPS)
    w = WedgeAngle.from_tan(worst.ratio)
    i, theta, mu = worst.at or (None, None, None)
    return SweepResult(w.alpha, w.tan_alpha,
                       None if i is None else float(lam_thetas[i]),
                       None if i is None else complex(lams[i]), theta, mu,
                       worst.n_evals, 2 * h * _INV_PHI ** _GOLDEN_STEPS)


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


def min_image_real_part(s: CoefficientSet) -> float:
    """Minimum real part of the implicit-eigenvalue image over a full 512 x 512
    (lambda on the explicit boundary) x (circle point) grid."""
    image = _ImageMap(s)
    theta = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    lams = lambda_at(s, theta)
    return float(min(np.nanmin(mu.real) for *_, mu in image.blocks(lams, theta)))


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------

def interval_pairs(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, budget: int):
    """Every pair (i, j) with lo[i] <= keys[j] < hi[i], by a sorted sweep.

    keys are sorted once; two searchsorted calls give each interval the run
    of sorted keys it holds. Yields (i, j) index arrays, interval index and
    key index, with at most budget pairs at a time, so that a dense case
    (every key in every interval) runs in bounded memory.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.searchsorted(sorted_keys, lo, side="left")
    count = np.maximum(np.searchsorted(sorted_keys, hi, side="left") - first, 0)
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    shift = first - (ends - count)  # sorted position of pair p in interval i: p + shift[i]
    budget = max(1, budget)
    for p0 in range(0, total, budget):
        pair = np.arange(p0, min(p0 + budget, total))
        i = np.searchsorted(ends, pair, side="right")
        pair += shift[i]
        yield i, order[pair]


def image_winding_number(values: np.ndarray, mu):
    """Winding number of a sampled closed curve around mu (scalar or array).

    The finite samples, in order and closed up, form a polyline (non-finite
    samples, the poles, are dropped); each of its edges that crosses the ray
    from mu towards +Re counts +1 upwards and -1 downwards (the signed-crossing
    rule of Hormann & Agathos, 2001). An edge from y0 to y1 meets the line
    Im = Im mu exactly when Im mu lies in [min(y0, y1), max(y0, y1)), so a
    sorted sweep over Im mu finds the few (edge, mu) pairs to test. mu must be
    finite; a scalar mu gives an int.
    """
    v = values[np.isfinite(values)]
    x0, y0 = v.real, v.imag
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    mu = np.asarray(finite_array(mu, "mu"), dtype=complex)
    flat = mu.ravel()
    mx, my = flat.real, flat.imag
    winding = np.zeros(len(flat))
    # at most 64 pairs per edge at a time, so a dense case (every edge
    # straddling every mu) stays within about 5 kB per edge
    for e, j in interval_pairs(my, np.minimum(y0, y1), np.maximum(y0, y1), 64 * len(v)):
        # > 0 where mu lies left of the edge (x0, y0) -> (x1, y1)
        side = (x1[e] - x0[e]) * (my[j] - y0[e]) - (mx[j] - x0[e]) * (y1[e] - y0[e])
        upward = y0[e] <= my[j]
        crossing = (upward & (side > 0)).astype(int) - (~upward & (side < 0))
        winding += np.bincount(j, weights=crossing, minlength=len(flat))
    out = winding.astype(int)
    return int(out[0]) if mu.ndim == 0 else out.reshape(mu.shape)


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
