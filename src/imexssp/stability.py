"""Linear stability analysis for IMEX multistep schemes.

Provides the explicit/implicit boundary loci, the map from unit-circle points
to implicit eigenvalues for a fixed explicit eigenvalue (one kernel serves
every quotient on the circle, the loci included), a batched
characteristic-root stability oracle
(root_verdicts, with root_condition as its one-pair form), an array
winding-number count, wedge-angle measurement with closed-form counterparts,
and the sweep that finds the worst-case implicit wedge over a family of
explicit eigenvalues, with the sample that attains it. The polynomial work
on the unit circle (circle roots, pole-anchored Taylor forms, the limit
kernel, the sweep's closed-form anchor minima and the strip crossings)
lives in _circle.

All stability statements use the transformed variable z = 1/zeta: a (lambda,
mu) pair is stable when every root of A(z) - lambda*B(z) - mu*C(z) lies on or
outside the unit circle, equivalently every zeta-root lies inside it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._circle import (
    _anchor_directions,  # noqa: F401 (tests read it here)
    _Denominator,
    _strip_parts,
    _theta_grid,
    _unit_circle_poles,  # noqa: F401 (tests read it here)
    _wrap_angle,
    _wrap_diff,
    anchor_minima,
)
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
]

# Numeric policy. The root condition allows |zeta| up to 1 + ROOT_TOLERANCE;
# near-coincident roots at the circle are classified unstable (conservative
# stand-in for the strict-inequality rule on multiple roots).
ROOT_TOLERANCE = 1e-9
ROOT_CLUSTER_TOLERANCE = 1e-7
POLE_TOLERANCE = 1e-12
ORIGIN_TOLERANCE = 1e-9
DEFAULT_N_THETA = 4096


@dataclass(frozen=True)
class BoundaryCurve:
    """A sampled parametric curve theta -> complex value, theta in [-pi, pi).

    Pole samples (where the defining denominator vanishes) keep their theta
    but carry is_pole=True; their value entries are not meaningful.
    asymptotes holds the unit directions in which the curve leaves towards
    infinity, one per side of each pole of the underlying map, when the
    constructor knows them; measure_alpha reads them as limits of the curve.
    A locus also carries the map whose lam = 0 curve it samples, and a
    clipped locus the strip half-width nu (restrict_curve): imex_alpha_sweep
    requires them, to take its anchor minima over the whole curve in closed
    form.
    """

    theta: np.ndarray
    values: np.ndarray
    is_pole: np.ndarray
    asymptotes: np.ndarray = ()
    _source: "_ImageMap | None" = field(default=None, repr=False, compare=False)
    _nu: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        theta = np.asarray(finite_array(self.theta, "theta"), dtype=float)
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
        object.__setattr__(self, "asymptotes", np.asarray(self.asymptotes, dtype=complex).ravel())

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
# Quotient maps on the unit circle: the one kernel
# ---------------------------------------------------------------------------

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


# image samples per block when many lambdas are mapped (128 kB of complex)
_BLOCK_SAMPLES = 8192

# A numerator at a pole below this share of its coefficient scale is rounding
# noise: the image has no pole there (pole_directions).
_ROUNDING = 64 * np.finfo(float).eps


class _ImageMap:
    """A quotient map mu = (A - lam P)/Q of one scheme on the unit circle.

    With Q = C and P = B it is the implicit-eigenvalue map for a fixed
    explicit eigenvalue lam (the C-map), whose lam = 0 curve is the implicit
    locus A/C; with Q = B and P = C (the B-map) its lam = 0 curve is the
    explicit locus A/B. Built once per scheme and denominator (_image_map):
    the polynomials, and Q as a _Denominator with its circle poles and their
    Taylor coefficients. Every quotient on the circle in this module goes
    through __call__ (the loci, mu_image, min_image_real_part,
    imex_alpha_sweep), so the numerator is always evaluated the same way: by
    Horner's rule on the coefficients of A - lam P, exactly as
    numpy.polynomial.polynomial.polyval does.
    """

    def __init__(self, A, P, Q):
        self.A = A.astype(complex)
        self.P = P
        self.den = _Denominator(Q)
        der = np.polynomial.polynomial.polyder
        self.dA, self.dP, self.dQ = der(self.A), der(P), der(Q)
        self.d2A, self.d2P = der(self.dA), der(self.dP)

    def numerator(self, lams, z) -> np.ndarray:
        """A(z) - lam P(z) for lams and z broadcast against each other."""
        return polyval(self.A, z) - np.asarray(lams) * polyval(self.P, z)

    def on(self, theta) -> _CircleGrid:
        """A theta set with Q evaluated on it, reusable for many lambdas."""
        return _CircleGrid(self.den, theta)

    def __call__(self, lams, grid: _CircleGrid) -> np.ndarray:
        """mu for lams and grid.theta broadcast against each other; nan at poles."""
        num = self.A - np.asarray(lams)[..., None] * self.P
        z = grid.z
        acc = num[..., -1] + z * 0
        for i in range(2, num.shape[-1] + 1):
            acc = num[..., -i] + acc * z
        return grid.quotient(acc)

    def sample(self, lam, theta):
        """mu and the pole flags at the angles theta, for one lam."""
        grid = self.on(theta)
        return self(lam, grid), grid.pole

    def pole_directions(self, lams) -> np.ndarray:
        """The image's directions on both sides of each pole (_Denominator.
        asymptotes) for lams of any shape, the poles on a new axis before the
        last; nan where A - lam P vanishes at the pole up to rounding, since
        the image then has no pole there and its direction is noise."""
        num = self.numerator(lams, self.den.pole_z)
        scale = np.abs(self.A).sum() + np.abs(lams) * np.abs(self.P).sum()
        return self.den.asymptotes(np.where(np.abs(num) <= _ROUNDING * scale, np.nan, num))

    def family(self, lams, n: int) -> list:
        """The image of the circle for each of lams, unrefined, every image
        read off one circle grid: n >= 16 uniform angles plus the zoom
        samples around the poles, and the asymptotes."""
        if n < 16:
            raise ValueError("need at least 16 samples")
        grid = self.on(_theta_grid(n, self.den.pole_angles))
        return [BoundaryCurve(grid.theta, self(lam, grid), grid.pole, self.pole_directions(lam))
                for lam in lams]

    def crossing_terms(self, lams, grid: _CircleGrid):
        """dmu/dtheta and d2mu/dtheta2 (lams and grid.theta broadcast) where
        N = A - lam P vanishes: mu' = N' z'/Q, the leading Taylor term, and
        mu'' = (N'' z'^2 + N' z'' - 2 mu' Q' z')/Q, with z' = iz, z'' = -z."""
        z = grid.z
        n1 = polyval(self.dA, z) - lams * polyval(self.dP, z)
        n2 = polyval(self.d2A, z) - lams * polyval(self.d2P, z)
        z1, z2 = 1j * z, -z
        mu1 = grid.quotient(n1 * z1)
        mu2 = grid.quotient(n2 * z1 * z1 + n1 * z2 - 2 * mu1 * polyval(self.dQ, z) * z1)
        return mu1, mu2

    def blocks(self, lams: np.ndarray, theta: np.ndarray):
        """(rows, theta, mu) per block of about _BLOCK_SAMPLES samples; theta
        is one 1-D set for every lambda, or one row per lambda."""
        shared = self.on(theta) if theta.ndim == 1 else None
        step = max(1, _BLOCK_SAMPLES // theta.shape[-1])
        for start in range(0, len(lams), step):
            rows = slice(start, start + step)
            grid = shared or self.on(theta[rows])
            yield rows, grid.theta, self(lams[rows, None], grid)


@functools.lru_cache(maxsize=64)
def _image_map(s: CoefficientSet, den: str = "C") -> _ImageMap:
    """The scheme's C-map (A - lam B)/C, or with den "B" its B-map
    (A - lam C)/B, built once: a build costs a root finding for the
    denominator's poles, hashing the frozen scheme about a tenth of that.
    Nothing changes an _ImageMap after construction, so callers share it.
    The cache keys on the arguments as passed, so the C-map is always asked
    for as _image_map(s)."""
    polys = char_polys(s)
    if not getattr(polys, den).any():
        raise ValueError(f"scheme has no {'explicit' if den == 'B' else 'implicit'} part")
    return _ImageMap(polys.A, polys.C if den == "B" else polys.B, getattr(polys, den))


def _finite_scalar(x, name: str) -> np.ndarray:
    value = finite_array(x, name)
    if value.ndim:
        raise ValueError(f"{name} must be a scalar, got shape {value.shape}")
    return value


def mu_image(s: CoefficientSet, lam: complex, n: int = DEFAULT_N_THETA) -> BoundaryCurve:
    """Image of the unit circle under the implicit-eigenvalue map for one
    lambda: the implicit eigenvalues that place a characteristic root on it."""
    return _image_map(s).family([_finite_scalar(lam, "lambda")], n)[0]


# ---------------------------------------------------------------------------
# Boundary loci: the lam = 0 curves of the B-map and the C-map, refined
# ---------------------------------------------------------------------------

def _too_coarse(v0, pole0, v1, pole1):
    """Which intervals to split: both ends finite, and the values differ by
    more than 1e-6 and by 0.02 of the local scale or 0.05 in argument."""
    both = ~(pole0 | pole1)
    dv = np.abs(v1 - v0)
    scale = np.maximum(1.0, np.minimum(np.abs(v0), np.abs(v1)))
    with np.errstate(invalid="ignore", divide="ignore"):
        darg = np.abs(np.angle(np.where(both, v1, 1.0) / np.where(both, v0, 1.0)))
    return both & (dv > 1e-6) & ((dv > 0.02 * scale) | (darg > 0.05))


def _refine_locus(image: _ImageMap, curve: BoundaryCurve) -> BoundaryCurve:
    """A locus, the lam = 0 curve of image, with midpoints inserted where
    adjacent finite samples differ too much.

    The thresholds (_too_coarse) keep the sampled polyline faithful near
    sharp features; passes are capped at 8 so poles cannot trigger unbounded
    refinement.

    An interval that a pass leaves whole keeps both endpoints, so its verdict
    cannot change: the first pass tests every interval, each later pass only
    the two halves of every interval the pass before split. Midpoints are
    sorted in once, at the end; none ties with a sample, since 8 halvings of
    the closest samples (the 1e-6 pole zoom) still leave about 4e-9. The
    locus carries image as its source.
    """
    theta, values, pole = curve.theta, curve.values, curve.is_pole
    parts = [(theta, values, pole)]
    # each interval as its (theta, value, pole) at the left and right end
    left, right = (theta[:-1], values[:-1], pole[:-1]), (theta[1:], values[1:], pole[1:])
    for _ in range(8):
        bad = _too_coarse(left[1], left[2], right[1], right[2])
        if not bad.any():
            break
        left = tuple(x[bad] for x in left)
        right = tuple(x[bad] for x in right)
        mid = 0.5 * (left[0] + right[0])
        split = (mid, *image.sample(0.0, mid))
        parts.append(split)
        left, right = (tuple(map(np.concatenate, zip(left, split))),
                       tuple(map(np.concatenate, zip(split, right))))
    theta, values, pole = map(np.concatenate, zip(*parts))
    order = np.argsort(theta)
    return BoundaryCurve(theta[order], values[order], pole[order], curve.asymptotes, image)


def explicit_boundary(s: CoefficientSet, n: int = DEFAULT_N_THETA) -> BoundaryCurve:
    """Boundary locus of the explicit stability region: A(e^(i theta)) / B(e^(i theta)),
    the lam = 0 curve of the B-map, refined."""
    image = _image_map(s, "B")
    return _refine_locus(image, image.family([0.0], n)[0])


def implicit_boundary(s: CoefficientSet, n: int = DEFAULT_N_THETA) -> BoundaryCurve:
    """Boundary locus of the implicit stability region: A(e^(i theta)) / C(e^(i theta)),
    the lam = 0 curve of the C-map, refined."""
    image = _image_map(s)
    return _refine_locus(image, image.family([0.0], n)[0])


def lambda_at(s: CoefficientSet, theta) -> complex:
    """Explicit boundary point at a single angle (or an array of them): the
    B-map at lam = 0, so nan at a pole, as on explicit_boundary."""
    theta = finite_array(theta, "theta")
    values = _image_map(s, "B").sample(0.0, np.atleast_1d(theta))[0]
    return values.reshape(theta.shape)[()]


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

def _ratios(mu: np.ndarray) -> np.ndarray:
    """|Im mu| / -Re mu, the tangent of mu's angle from the negative real
    axis; inf where mu does not constrain (nan, Re mu >= -ORIGIN_TOLERANCE)."""
    neg = -mu.real
    constrains = neg > ORIGIN_TOLERANCE
    return np.where(constrains, np.abs(mu.imag) / np.where(constrains, neg, 1.0), np.inf)


def measure_alpha(curve: BoundaryCurve) -> WedgeAngle:
    """Measured wedge half-angle admitted by a sampled boundary curve: the
    smallest angle from the negative real axis over its finite samples and
    its asymptote directions (the limits at the poles of the map), ranked
    by _ratios, pi/2 (A-stability) when nothing constrains."""
    values = np.concatenate([curve.finite_values(), curve.asymptotes])
    return WedgeAngle.from_tan(float(_ratios(values[np.isfinite(values)]).min(initial=np.inf)))


def alpha_closed_form(variant: str, k: int, beta, nu=None) -> WedgeAngle:
    """Closed-form wedge angle of the centred integrators.

    variant "implicit_centred": the pure implicit integrator's angle.
    variant "imex_centred": the IMEX angle when the explicit eigenvalues are
    confined to |Im| <= nu; nu must be finite and positive and must not
    exceed the variant's admissible bound. beta must lie in [0, 1/2], the
    range implicit_centred accepts.
    """
    if k not in (3, 4):
        raise ValueError(f"unsupported step count: k={k}")
    beta = float(beta)
    if not 0.0 <= beta <= 0.5:
        raise ValueError(f"beta must lie in [0, 1/2], got {beta}")
    gamma = beta / (beta - 1.0)
    root = math.sqrt(1.0 - gamma * gamma)
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
        if not (math.isfinite(nu) and nu > 0):
            raise ValueError(f"nu must be finite and positive, got {nu}")
        bound = numer / 3.0
        if nu > bound + 1e-15:
            raise ValueError(
                f"explicit imaginary bound violated: nu={nu} exceeds {bound}")
        return WedgeAngle.from_tan((numer - 3.0 * nu) / denom)
    raise ValueError(f"unknown variant: {variant!r}")


# The sweep's coarse scan maps every _LAMBDA_STRIDE-th lambda over
# _COARSE_THETA circle angles; its _REFINE_CELLS best local minima are refined
# by _GOLDEN_STEPS golden-section steps.
_COARSE_THETA = 512
_LAMBDA_STRIDE = 8
_REFINE_CELLS = 8
_GOLDEN_STEPS = 50
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepResult:
    """Worst-case wedge of imex_alpha_sweep and the sample attaining it.

    alpha and tan_alpha are WedgeAngle.from_tan of the least |Im mu| / -Re mu.
    The witness (theta_star, lam, theta, mu, kind) is the explicit
    eigenvalue, its curve parameter, the circle angle and, for kind "sample",
    the image there or, for kind "limit", the unit direction in which the
    image approaches the anchor theta (a pole, or theta_star); None when
    nothing constrains (alpha = pi/2). n_evals counts the image samples and
    limit directions ranked, closed-form candidates included. resolution is
    the theta width to which the minimum was located: the Newton step left
    at the root of the best closed-form candidate (at least the spacing of
    doubles near pi), widened to the width of the final golden-section
    brackets where any were searched.
    """

    alpha: float
    tan_alpha: float
    theta_star: float | None
    lam: complex | None
    theta: float | None
    mu: complex | None
    kind: str | None
    n_evals: int
    resolution: float


class _Worst:
    """The least ratio |Im mu| / -Re mu offered so far, and its sample."""

    def __init__(self):
        self.ratio = math.inf
        self.at = None  # (theta_star, lambda, theta, mu, kind)
        self.n_evals = 0

    def offer(self, theta_star, lam, theta, mu: np.ndarray, kind: str) -> np.ndarray:
        """Ratios of mu at (theta_star, lam, theta), broadcast to mu's shape;
        inf where mu does not constrain (pole, Re mu >= -ORIGIN_TOLERANCE).
        kind says whether mu holds image samples or limit directions."""
        r = _ratios(mu)
        self.n_evals += r.size
        i = np.unravel_index(np.argmin(r), r.shape)
        if r[i] < self.ratio:
            self.ratio = float(r[i])
            self.at = (float(np.broadcast_to(theta_star, r.shape)[i]),
                       complex(np.broadcast_to(lam, r.shape)[i]),
                       float(np.broadcast_to(theta, r.shape)[i]), complex(mu[i]), kind)
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
    """Worst-case implicit wedge angle over the scheme's explicit locus.

    lambda_curve must be explicit_boundary of a scheme with this A and B
    and no root of B on the unit circle, clipped or not by restrict_curve;
    any other family raises ValueError. For every lambda of the family the
    unit circle is mapped to the implicit eigenvalue plane and the
    admissible wedge is measured; the infimum over the family is returned
    with its witness. Samples are ranked by |Im mu| / -Re mu, and atan is
    taken once, of the winner. The result is as tight as mapping every
    lambda over the uniform n_theta grid (up to rounding) without doing so:

    1. the limits of the images at the anchors (the poles of the map, and
       each lambda's own curve parameter, where its image passes through
       zero), in the direction of the leading Taylor term on each side
       (_anchor_directions), at their exact infimum over the continuous
       family (_circle.anchor_minima), so the witness names theta* exactly;
    2. every _LAMBDA_STRIDE-th lambda is mapped over a coarse subset of the
       n_theta grid;
    3. each lambda near the best local minima of that scan is mapped over
       the coarse grid, then at the n_theta grid angles of its best coarse
       cell, and the best of those is refined by golden section between its
       grid neighbours. Stage 1 already covers a bracket whose centre lies
       within two grid steps of one of its lambda's anchors, so only the
       others are searched.
    """
    if n_theta < 16:
        raise ValueError("need at least 16 samples")
    image = _image_map(s)
    locus = lambda_curve._source
    if locus is None or len(locus.den.pole_angles) or not (
            np.array_equal(locus.A, image.A) and np.array_equal(locus.den.coeffs, image.P)):
        raise ValueError("lambda_curve must be an explicit_boundary locus, clipped or not by "
                         "restrict_curve, of a scheme with this A and B and no pole on the circle")
    lams, lam_thetas = lambda_curve.values, lambda_curve.theta
    worst = _Worst()

    def ratios(at, theta):
        r = np.empty((len(at), theta.shape[-1]))
        for rows, th, mu in image.blocks(lams[at], theta):
            r[rows] = worst.offer(lam_thetas[at[rows], None], lams[at[rows], None], th, mu,
                                  "sample")
        return r

    # 1. limits at the anchors, in closed form
    resolution = max(anchor_minima(image, locus, lambda_curve._nu, worst), np.spacing(np.pi))

    # 2. coarse scan
    dense = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    n_coarse = min(_COARSE_THETA, n_theta)
    coarse_at = np.arange(n_coarse) * n_theta // n_coarse
    rows = np.arange(0, len(lams), _LAMBDA_STRIDE)
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
    #    the best grid angle's neighbours, unless the centre lies near an
    #    anchor: a pole, or the lambda's own theta* where its image passes
    #    through zero (a strip-segment lambda's image does not)
    r = ratios(at, dense[coarse_at])
    live = np.isfinite(r).any(axis=1)
    at, best = at[live], np.argmin(r[live], axis=1)
    theta = dense[(coarse_at[best - 1, None] + np.arange(2 * -(-n_theta // n_coarse) + 1))
                  % n_theta]
    centre = theta[np.arange(len(at)), np.argmin(ratios(at, theta), axis=1)]
    h = 2 * np.pi / n_theta
    zero = np.abs(image(lams[at], image.on(lam_thetas[at]))) <= ORIGIN_TOLERANCE
    near = zero & (np.abs(_wrap_diff(centre, lam_thetas[at])) <= 2 * h)
    for theta_p in image.den.pole_angles:
        near |= np.abs(_wrap_diff(centre, theta_p)) <= 2 * h
    at, centre = at[~near], centre[~near]

    def ratio_at(x):
        x = _wrap_angle(x)
        return worst.offer(lam_thetas[at], lams[at], x, image(lams[at], image.on(x)), "sample")

    if len(at):
        _golden_min(ratio_at, centre - h, centre + h, _GOLDEN_STEPS)
        resolution = max(resolution, 2 * h * _INV_PHI ** _GOLDEN_STEPS)
    w = WedgeAngle.from_tan(worst.ratio)
    return SweepResult(w.alpha, w.tan_alpha, *(worst.at or (None,) * 5),
                       worst.n_evals, resolution)


def restrict_curve(curve: BoundaryCurve, nu: float) -> BoundaryCurve:
    """Clip a locus against the strip |Im| <= nu.

    curve must be explicit_boundary or implicit_boundary of a scheme whose
    denominator has no root on the unit circle; any other curve, one built
    from samples included, raises ValueError. The crossings with the strip's
    edges are found in closed form (_circle._strip_parts). The result keeps
    the curve's samples inside the strip, takes the locus points at the
    crossings as corners, and joins the two corners of each excursion by a
    straight segment along Im = +/-nu, with as many points as the excursion
    had samples plus its corners, and at least 8. It carries the locus's
    source map and nu.
    """
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and positive, got {nu}")
    locus = curve._source
    if locus is None or len(locus.den.pole_angles):
        raise ValueError("curve must be an explicit_boundary or implicit_boundary locus "
                         "with no pole on the circle")
    (lo, hi), segments, _ = _strip_parts(locus, nu)
    if segments is None:
        return BoundaryCurve(curve.theta, curve.values, curve.is_pole, _source=locus, _nu=nu)

    def samples_in(a, b):
        """Which samples lie strictly inside each arc (a, b): a column per arc."""
        d = (curve.theta[:, None] - a) % (2 * np.pi)
        return (d > 0) & (d < b - a)

    a, b, x_a, x_b, edge = segments
    kept = samples_in(lo, hi).any(axis=1)
    # every crossing starts one arc or one excursion: these are the corners
    new_theta = [np.concatenate([lo, a])]
    new_values = [locus.sample(0.0, new_theta[0])[0]]
    for i, n in enumerate(samples_in(a, b).sum(axis=0)):
        m = max(n + 2, 8)
        new_theta.append(np.linspace(a[i], b[i], m)[1:-1])
        new_values.append(np.linspace(x_a[i], x_b[i], m)[1:-1] + 1j * edge[i])
    theta = np.concatenate([curve.theta[kept], _wrap_angle(np.concatenate(new_theta))])
    values = np.concatenate([curve.values[kept], *new_values])
    # at nu <= 1e-16 a corner wraps onto a kept sample's theta: the sample stays
    order = np.argsort(theta, kind="stable")
    order = order[np.diff(theta[order], prepend=-np.inf) > 0]
    return BoundaryCurve(theta[order], values[order], np.zeros(len(order), dtype=bool),
                         _source=locus, _nu=nu)


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
    image = _image_map(s)
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
