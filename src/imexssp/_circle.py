"""Polynomials on the unit circle z = e^(i theta): their roots near the
circle, a denominator's pole-anchored Taylor form, the unit directions of a
leading Taylor term at an anchor, and the sampling grid that zooms in on
poles.

Also the closed-form anchor minima of the wedge-angle sweep along an
explicit locus. Trigonometric polynomials, held as centred Laurent
coefficients, give by their circle roots the angles where a rational
direction P(z)/Q(z) turns or meets an axis, and where a locus A/B crosses a
horizontal line. From them, anchor_minima takes stage 1 of
stability.imex_alpha_sweep and _strip_parts clips a locus to a strip.
"""

from __future__ import annotations

import math

import numpy as np

from .schemes import polyval

__all__ = ["anchor_minima"]

# Geometric offsets inserted on both sides of every pole of a locus, so that
# the sampled curve follows its asymptote (measure_alpha takes the asymptote
# itself in closed form). Depth is capped at 1e-6; closer samples would be
# dominated by the rounding noise of locating the pole.
_POLE_ZOOM_OFFSETS = np.concatenate([10.0 ** -np.arange(2.0, 6.1, 0.5),
                                     -(10.0 ** -np.arange(2.0, 6.1, 0.5))])

# Half-width of the window around a pole inside which the locus denominator
# is evaluated by its Taylor form anchored at the pole (cancellation-free).
_POLE_WINDOW = 0.05


def _near_circle_roots(c: np.ndarray, tol: float):
    """c (ascending powers) with its zero ends trimmed, and the roots of that
    polynomial within tol of the unit circle (none for a constant)."""
    nonzero = np.flatnonzero(c)
    c = c[nonzero[0]:nonzero[-1] + 1] if len(nonzero) else c[:0]
    r = np.roots(c[::-1])
    return c, r[np.abs(np.abs(r) - 1.0) < tol]


def _unit_circle_poles(den_coeffs: np.ndarray):
    """Angles at which the denominator vanishes on the unit circle, and the
    order of each zero.

    Roots are clustered (a multiple root splits under rounding) and each
    cluster is represented by its mean, which is accurate to rounding even
    for defective pairs; its size is the order.
    """
    roots = _near_circle_roots(np.asarray(den_coeffs, dtype=complex), 1e-6)[1]
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


# A trigonometric polynomial is held as centred Laurent coefficients: c of
# odd length 2n + 1 stands for sum_k c[k] z^(k - n) at z = e^(i theta), so
# products are convolutions and conj on the circle reverses c.

def _centred(p) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    return np.concatenate([np.zeros(len(p) - 1, dtype=complex), p])


def _bar(c: np.ndarray) -> np.ndarray:
    return c[::-1].conj()


def _circle_roots(c: np.ndarray, tol: float = 1e-4):
    """Angles of the roots of c within tol of the unit circle, after one
    Newton step each, and the size of that step."""
    c, r = _near_circle_roots(c, tol)
    if len(c) < 2:
        return np.array([]), np.array([])
    step = polyval(c, r) / polyval(np.arange(1, len(c)) * c[1:], r)
    return np.angle(r - step), np.abs(step)


def _turns(P, Q):
    """Where d = P/Q on the circle turns, arg d stationary (the roots of
    Re(z P' conj P) |Q|^2 - Re(z Q' conj Q) |P|^2), or lies on an axis
    (Im (P conj Q)^2 = 0): (angles, Newton steps)."""
    p, q = _centred(P), _centred(Q)
    x, y = (np.convolve(_centred(np.arange(len(f)) * np.asarray(f)), _bar(c))
            for f, c in ((P, p), (Q, q)))
    turn = (np.convolve(x + _bar(x), np.convolve(q, _bar(q)))
            - np.convolve(y + _bar(y), np.convolve(p, _bar(p))))
    sq = np.convolve(np.convolve(p, p), _bar(np.convolve(q, q)))
    return map(np.concatenate, zip(_circle_roots(turn), _circle_roots(sq - _bar(sq))))


def _strip_parts(locus, nu):
    """The clip of the locus lam = A/B, the lam = 0 curve of the _ImageMap
    locus, to |Im| <= nu in closed form, for stability.restrict_curve and
    the sweep: the theta arcs (a, b) inside the strip, and the segments
    (a, b, x_a, x_b, edge) that replace the excursions, running from
    Re lam(a) to Re lam(b) along Im = edge; their ends are the roots of
    Im(A conj B) -/+ nu |B|^2. One whole turn when nu is None or nothing is
    clipped. Also the largest Newton step at the ends."""
    whole = (np.array([-np.pi]), np.array([np.pi])), None, 0.0
    if nu is None:
        return whole
    ca, cb = _centred(locus.A), _centred(locus.den.coeffs)
    ab, bb = np.convolve(ca, _bar(cb)), np.convolve(cb, _bar(cb))
    ends, steps = map(np.concatenate, zip(*(_circle_roots((ab - _bar(ab)) / 2j - e * bb, 1e-6)
                                            for e in (nu, -nu))))
    if not len(ends):
        return whole
    a = np.sort(ends)
    b = np.append(a[1:], a[0] + 2 * np.pi)
    lam_a, lam_b, lam_mid = (locus.sample(0.0, x)[0] for x in (a, b, (a + b) / 2))
    out = np.abs(lam_mid.imag) > nu
    return ((a[~out], b[~out]),
            (a[out], b[out], lam_a.real[out], lam_b.real[out], np.sign(lam_mid.imag[out]) * nu),
            steps.max())


def anchor_minima(image, locus, nu, worst) -> float:
    """Stage 1 of stability.imex_alpha_sweep on the explicit locus lam = A/B
    (the lam = 0 curve of the _ImageMap locus, for the _ImageMap image's own
    A and B) clipped to |Im| <= nu: the exact infimum of each anchor
    direction over the family, offered to worst (a stability._Worst) as a
    limit. Returns the theta accuracy of the best, the Newton step left at
    its root (0 at an exact angle).

    Along the locus both directions are rational in z* = e^(i theta*): the
    zero-crossing slope v = i z* W / (B C), with W = A'B - AB', and for each
    pole z_p the pole direction u = (A(z_p) B - A B(z_p)) / (pole_lead B).
    Their least angle on an arc lies where they turn or meet an axis
    (_turns), at an end of the arc, or at a pole theta_p on it, where both
    tend to the line of i z_p W(z_p) / (B(z_p) pole_lead). On a strip
    segment lam = x + i edge, u is affine in x: its least angle lies at an
    end or where Im u = 0.
    """
    best = [math.inf, 0.0]

    def offer(star, lam, theta, mu, step):
        if not mu.size:
            return
        r = worst.offer(star, lam, theta, mu, "limit")
        i = np.unravel_index(np.argmin(r), r.shape)
        if r[i] < best[0]:
            best[:] = r[i], np.broadcast_to(step, r.shape)[i]

    def on_arcs(theta):
        return ((theta[:, None] - lo) % (2 * np.pi) <= hi - lo).any(axis=1)

    Pn = np.polynomial.polynomial
    A, B, den = image.A, image.P, image.den
    (lo, hi), segments, end_step = _strip_parts(locus, nu)
    W = Pn.polysub(Pn.polymul(image.dA, B), Pn.polymul(A, image.dP))
    roots, steps = map(np.concatenate, zip(
        _turns(Pn.polymulx(W), Pn.polymul(B, den.coeffs)),
        *(_turns((polyval(A, z_p) * B - polyval(B, z_p) * A) / lead, B)
          for z_p, lead in zip(den.pole_z, den.pole_lead))))
    theta = np.concatenate([roots, lo, hi])
    steps = np.concatenate([steps, np.full(2 * len(lo), end_step)])
    keep = on_arcs(theta)
    theta, steps = theta[keep], steps[keep, None]
    star, lam = _wrap_angle(theta)[:, None], locus.sample(0.0, theta)[0]
    offer(star, lam[:, None], star,
          _anchor_directions(image.crossing_terms(lam, image.on(theta))[0], 1), steps)
    if not len(den.pole_z):
        return best[1]
    offer(star[..., None], lam[:, None, None], _wrap_angle(den.pole_angles)[:, None],
          image.pole_directions(lam[:, None]), steps[..., None])
    on = on_arcs(den.pole_angles)
    z_p, star = den.pole_z[on, None], _wrap_angle(den.pole_angles[on])[:, None, None]
    lam = locus.sample(0.0, den.pole_angles[on])[0]
    offer(star, lam[:, None, None], star, _anchor_directions(
        1j * z_p * polyval(W, z_p) / (polyval(B, z_p) * den.pole_lead[on, None]), 1), 0.0)
    if segments is not None:
        a, b, x_a, x_b, edge = (x[:, None] for x in segments)
        b_p = polyval(B, den.pole_z)
        with np.errstate(divide="ignore", invalid="ignore"):
            # where u = (A(z_p) - (x + i edge) B(z_p)) / pole_lead is real
            x_real = ((polyval(A, den.pole_z) - 1j * edge * b_p) / den.pole_lead).imag \
                / (b_p / den.pole_lead).imag
            x = np.concatenate([x_a, x_b, np.clip(x_real, np.minimum(x_a, x_b),
                                                  np.maximum(x_a, x_b))], axis=1)
            star = _wrap_angle(a + (x - x_a) / (x_b - x_a) * (b - a)).ravel()[:, None, None]
        lam = (x + 1j * edge).ravel()[:, None]
        offer(star, lam[..., None], _wrap_angle(den.pole_angles)[:, None],
              image.pole_directions(lam), end_step)
    return best[1]
