"""Closed-form anchor minima of the wedge-angle sweep along an explicit locus.

Trigonometric polynomials, held as centred Laurent coefficients, and their
unit-circle roots: the angles where a rational direction P(z)/Q(z) turns or
meets an axis, and where a locus A/B crosses a horizontal line. From them,
anchor_minima takes stage 1 of stability.imex_alpha_sweep and _strip_parts
clips a locus to a strip. stability imports this module on its first sweep
or clip, so that a run that does neither does not load it.
"""

from __future__ import annotations

import math

import numpy as np

from ._circle import _anchor_directions, _wrap_angle
from .schemes import polyval

__all__ = ["anchor_minima"]

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
    nonzero = np.flatnonzero(c)
    c = c[nonzero[0]:nonzero[-1] + 1] if len(nonzero) else c[:0]
    if len(c) < 2:
        return np.array([]), np.array([])
    r = np.roots(c[::-1])
    r = r[np.abs(np.abs(r) - 1.0) < tol]
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
    lam_a, lam_b, lam_mid = (locus(0.0, locus.on(x)) for x in (a, b, (a + b) / 2))
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
    def lam_of(theta):
        return locus(0.0, locus.on(theta))

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
    star, lam = _wrap_angle(theta)[:, None], lam_of(theta)
    offer(star, lam[:, None], star,
          _anchor_directions(image.crossing_terms(lam, image.on(theta))[0], 1), steps)
    if not len(den.pole_z):
        return best[1]
    offer(star[..., None], lam[:, None, None], _wrap_angle(den.pole_angles)[:, None],
          image.pole_directions(lam[:, None]), steps[..., None])
    on = on_arcs(den.pole_angles)
    z_p, star = den.pole_z[on, None], _wrap_angle(den.pole_angles[on])[:, None, None]
    offer(star, lam_of(den.pole_angles[on])[:, None, None], star, _anchor_directions(
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
