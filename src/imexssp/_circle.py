"""Polynomials on the unit circle z = e^(i theta): a denominator's roots on
the circle and its pole-anchored Taylor form, the unit directions of a
leading Taylor term at an anchor, and the sampling grid that zooms in on
poles."""

from __future__ import annotations

import numpy as np

from .schemes import polyval

__all__: list = []

# Geometric offsets inserted on both sides of every pole of a locus, so that
# the sampled curve follows its asymptote (measure_alpha takes the asymptote
# itself in closed form). Depth is capped at 1e-6; closer samples would be
# dominated by the rounding noise of locating the pole.
_POLE_ZOOM_OFFSETS = np.concatenate([10.0 ** -np.arange(2.0, 6.1, 0.5),
                                     -(10.0 ** -np.arange(2.0, 6.1, 0.5))])

# Half-width of the window around a pole inside which the locus denominator
# is evaluated by its Taylor form anchored at the pole (cancellation-free).
_POLE_WINDOW = 0.05


def _unit_circle_poles(den_coeffs: np.ndarray):
    """Angles at which the denominator vanishes on the unit circle, and the
    order of each zero.

    Roots are clustered (a multiple root splits under rounding) and each
    cluster is represented by its mean, which is accurate to rounding even
    for defective pairs; its size is the order.
    """
    coeffs = np.trim_zeros(np.asarray(den_coeffs, dtype=complex), "b")
    if len(coeffs) < 2:
        return np.array([]), np.array([], dtype=int)
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
    return (np.array([np.angle(np.mean(cl)) for cl in clusters]),
            np.array([len(cl) for cl in clusters], dtype=int))


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


def _anchor_directions(lead, order) -> np.ndarray:
    """The limit kernel: mu ~ lead * d**order near an anchor, d = theta -
    theta_a (order 1 at a zero crossing, -m at a pole of order m), has unit
    directions lead/|lead| * (1, (-1)**order) as d -> +0, -0 (last axis)."""
    with np.errstate(invalid="ignore"):
        u = lead / np.abs(lead)
    return np.stack([u, u * (-1.0) ** order], axis=-1)


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
        self.pole_angles, self.pole_orders = _unit_circle_poles(self.coeffs)
        self.pole_z = np.exp(1j * self.pole_angles)
        self._taylor = []
        for theta_p, z_p in zip(self.pole_angles, self.pole_z):
            deriv, fact, terms = self.coeffs, 1.0, []
            for m in range(1, len(self.coeffs)):
                deriv = np.polynomial.polynomial.polyder(deriv)
                fact *= m
                terms.append(polyval(deriv, z_p) / fact)
            self._taylor.append((theta_p, terms))
        t_m = [terms[m - 1] for (_, terms), m in zip(self._taylor, self.pole_orders)]
        self.pole_lead = np.array(t_m, dtype=complex) * (1j * self.pole_z) ** self.pole_orders

    def asymptotes(self, num_at_poles) -> np.ndarray:
        """num/den's directions on both sides of each pole (_anchor_directions),
        from num's values at the poles: with w ~ i z_p d, the leading Taylor
        term makes num/den ~ (num(z_p) / pole_lead) / d**m."""
        return _anchor_directions(num_at_poles / self.pole_lead, -self.pole_orders)

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
