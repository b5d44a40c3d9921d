"""IMEX multistep scheme definitions in a common coefficient form.

Every scheme is stored as three weight vectors (a, b, c) of length k+1 for
the step equation

    sum_i a_i y_{n+1-i} = dt * (sum_{i>=1} b_i f_{n+1-i} + sum_i c_i g_{n+1-i}),

where f is the explicitly treated operator and g the implicitly treated one.
Coefficients are kept as exact rationals so the consistency identities hold
without rounding; float views are provided for numerical work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "CoefficientSet",
    "CharPolys",
    "ssp_explicit",
    "implicit_biased",
    "implicit_centred",
    "imex_scheme",
    "mcnab",
    "imex_bdf2",
    "forward_euler",
    "char_polys",
    "order_residual",
    "scheme_from_id",
    "polyval",
    "BUILTIN_IDS",
    "REGISTRY_IDS",
]


def _as_fraction(x) -> Fraction:
    """Coerce ints/floats/Fractions to an exact Fraction (floats keep their binary value)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        return Fraction(float(x))
    raise TypeError(f"cannot convert {type(x).__name__} to an exact coefficient")


@dataclass(frozen=True)
class CoefficientSet:
    """Weights (a, b, c) of a k-step IMEX scheme.

    a multiplies the solution levels, b the explicit right-hand sides
    (b[0] is always 0: the newest f value is never used), c the implicit
    right-hand sides. Index i refers to time level n+1-i.
    """

    k: int
    a: tuple
    b: tuple
    c: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(_as_fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(_as_fraction(x) for x in self.b))
        object.__setattr__(self, "c", tuple(_as_fraction(x) for x in self.c))
        n = self.k + 1
        if self.k < 1:
            raise ValueError("step count k must be at least 1")
        if not (len(self.a) == len(self.b) == len(self.c) == n):
            raise ValueError(f"coefficient vectors must have length k+1 = {n}")
        if self.b[0] != 0:
            raise ValueError("b_0 must be zero: the scheme is explicit in f")
        # the float view, built once; the *_array methods hand it out read-only
        for name in ("a", "b", "c"):
            arr = np.array([float(x) for x in getattr(self, name)])
            arr.flags.writeable = False
            object.__setattr__(self, f"_{name}_float", arr)
        # step()'s weights as Python floats: level n+1-i sits at history index i-1
        terms = tuple((i - 1, float(self.a[i]), float(self.b[i]), float(self.c[i]))
                      for i in range(1, n) if self.a[i] or self.b[i] or self.c[i])
        object.__setattr__(self, "_step_weights", (float(self.a[0]), float(self.c[0]), terms))

    @property
    def is_implicit(self) -> bool:
        return self.c[0] != 0

    def validate(self) -> "CoefficientSet":
        """Check the consistency sums that every constructed scheme must satisfy."""
        if sum(self.a) != 0:
            raise ValueError(f"{self.name or 'scheme'}: sum of a-weights must be 0")
        if any(self.b) and sum(self.b) != 1:
            raise ValueError(f"{self.name or 'scheme'}: explicit weights must sum to 1")
        if any(self.c) and sum(self.c) != 1:
            raise ValueError(f"{self.name or 'scheme'}: implicit weights must sum to 1")
        return self

    def a_array(self) -> np.ndarray:
        return self._a_float

    def b_array(self) -> np.ndarray:
        return self._b_float

    def c_array(self) -> np.ndarray:
        return self._c_float

    def step_weights(self) -> tuple:
        """(a_0, c_0, terms) as Python floats, built once; terms holds
        (history index, a_i, b_i, c_i) for every level i >= 1 with a nonzero
        weight, in the order step() applies them."""
        return self._step_weights


@dataclass(frozen=True)
class CharPolys:
    """Characteristic polynomials of a scheme in the transformed variable z = 1/zeta.

    Coefficient arrays are in increasing-power order: A[i] is the coefficient
    of z**i and equals the scheme weight a_i (same for B/b and C/c).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float))


def polyval(coeffs, z):
    """Evaluate a polynomial with increasing-power coefficients at z (scalar or array)."""
    return np.polynomial.polynomial.polyval(z, np.asarray(coeffs))


def finite_array(x, name: str) -> np.ndarray:
    """x as an array; ValueError naming it if any entry is nan or infinite."""
    arr = np.asarray(x)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def char_polys(s: CoefficientSet) -> CharPolys:
    """Characteristic polynomials (A, B, C) of a coefficient set."""
    return CharPolys(s.a_array(), s.b_array(), s.c_array())


# ---------------------------------------------------------------------------
# Built-in schemes
# ---------------------------------------------------------------------------

def _check_k(k: int) -> None:
    if k not in (3, 4):
        raise ValueError(f"unsupported step count: k={k} (must be 3 or 4)")


def ssp_explicit(k: int) -> CoefficientSet:
    """Second-order explicit SSP multistep scheme with positive weights.

    k=3: (4 y_{n+1} - 3 y_n - y_{n-2}) / (6 dt) = f_n
    k=4: (9 y_{n+1} - 8 y_n - y_{n-3}) / (12 dt) = f_n
    """
    _check_k(k)
    if k == 3:
        a = (Fraction(4, 6), Fraction(-3, 6), 0, Fraction(-1, 6))
        b = (0, 1, 0, 0)
    else:
        a = (Fraction(9, 12), Fraction(-8, 12), 0, 0, Fraction(-1, 12))
        b = (0, 1, 0, 0, 0)
    c = (0,) * (k + 1)
    return CoefficientSet(k, a, b, c, name=f"ssp{k}").validate()


def implicit_biased(k: int) -> CoefficientSet:
    """Implicit companion of ssp_explicit using levels n+1 and n-2 with weights 2/3, 1/3."""
    _check_k(k)
    base = ssp_explicit(k)
    c = [Fraction(0)] * (k + 1)
    c[0] = Fraction(2, 3)
    c[3] = Fraction(1, 3)
    b = (0,) * (k + 1)
    return CoefficientSet(k, base.a, b, tuple(c), name=f"implicit-biased-k{k}").validate()


def implicit_centred(k: int, beta=0) -> CoefficientSet:
    """Implicit companion of ssp_explicit with a centred three-level average.

    The implicit weights are ((1-beta)/2, beta, (1-beta)/2, 0, ...); beta is
    restricted to [0, 1/2] because larger values behave like an explicit method.
    """
    _check_k(k)
    beta_f = _as_fraction(beta)
    if not (0 <= beta_f <= Fraction(1, 2)):
        raise ValueError(f"beta must lie in [0, 1/2], got {beta}")
    base = ssp_explicit(k)
    c = [Fraction(0)] * (k + 1)
    c[0] = (1 - beta_f) / 2
    c[1] = beta_f
    c[2] = (1 - beta_f) / 2
    b = (0,) * (k + 1)
    return CoefficientSet(k, base.a, b, tuple(c), name=f"implicit-centred-k{k}").validate()


def imex_scheme(variant: str, k: int, beta=None) -> CoefficientSet:
    """Combine the explicit SSP scheme with one of the implicit integrators."""
    if variant == "biased":
        if beta is not None:
            raise ValueError("the biased variant takes no beta parameter")
        imp = implicit_biased(k)
    elif variant == "centred":
        imp = implicit_centred(k, 0 if beta is None else beta)
    else:
        raise ValueError(f"unknown IMEX variant: {variant!r}")
    exp = ssp_explicit(k)
    return CoefficientSet(k, exp.a, exp.b, imp.c, name=f"imex-{variant}-k{k}").validate()


def mcnab(c_param=Fraction(1, 8)) -> CoefficientSet:
    """Modified Crank-Nicolson/Adams-Bashforth two-step scheme.

    y_{n+1} - y_n = dt/2 * (3 f_n - f_{n-1}
                            + (1+c) g_{n+1} + (1-2c) g_n + c g_{n-1})

    c=0 recovers the plain Crank-Nicolson implicit part.
    """
    cp = _as_fraction(c_param)
    a = (1, -1, 0)
    b = (0, Fraction(3, 2), Fraction(-1, 2))
    c = ((1 + cp) / 2, (1 - 2 * cp) / 2, cp / 2)
    return CoefficientSet(2, a, b, c, name="mcnab").validate()


def imex_bdf2() -> CoefficientSet:
    """Extrapolated two-step BDF scheme: 3y_{n+1} - 4y_n + y_{n-1} = 2dt(2f_n - f_{n-1} + g_{n+1})."""
    a = (Fraction(3, 2), -2, Fraction(1, 2))
    b = (0, 2, -1)
    c = (1, 0, 0)
    return CoefficientSet(2, a, b, c, name="imex-bdf2").validate()


def forward_euler() -> CoefficientSet:
    """One-step forward Euler, the first-order baseline for convergence and TV tests."""
    return CoefficientSet(1, (1, -1), (0, 1), (0, 0), name="euler").validate()


# ---------------------------------------------------------------------------
# Order verification
# ---------------------------------------------------------------------------

def order_residual(s: CoefficientSet, degree: int) -> float:
    """Worst defect of the step equation on polynomial data up to the given degree.

    Applies the scheme to p(t) = t**q on the unit-step grid t_{n+1-i} = 1 - i,
    requiring the explicit weights and the implicit weights each to reproduce
    the derivative on their own (f and g are independent operators, so both
    sets of order conditions must hold separately). Exact rational arithmetic;
    returns 0.0 for every q <= order of the scheme.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    times = [Fraction(1 - i) for i in range(s.k + 1)]
    parts = [w for w in (s.b, s.c) if any(w)]
    worst = Fraction(0)
    for q in range(degree + 1):
        lhs = sum(ai * t**q for ai, t in zip(s.a, times))
        if q == 0 or not parts:
            worst = max(worst, abs(lhs))
            continue
        for weights in parts:
            rhs = sum(wi * q * t ** (q - 1) for wi, t in zip(weights, times))
            worst = max(worst, abs(lhs - rhs))
    return float(worst)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

BUILTIN_IDS = (
    "ssp3",
    "ssp4",
    "imex-biased-k3",
    "imex-biased-k4",
    "imex-centred-k3",
    "imex-centred-k4",
    "mcnab",
    "imex-bdf2",
)

# Pure implicit integrators and the Euler baseline are addressable too (used
# by the region plots and as the first-order control in convergence tables).
REGISTRY_IDS = BUILTIN_IDS + (
    "implicit-biased-k3",
    "implicit-biased-k4",
    "implicit-centred-k3",
    "implicit-centred-k4",
    "euler",
)


def scheme_from_id(scheme_id: str, beta=0, mcnab_c=Fraction(1, 8)) -> CoefficientSet:
    """Look up a scheme by its registry id, applying numeric parameters where used."""
    builders = {
        "ssp3": lambda: ssp_explicit(3),
        "ssp4": lambda: ssp_explicit(4),
        "imex-biased-k3": lambda: imex_scheme("biased", 3),
        "imex-biased-k4": lambda: imex_scheme("biased", 4),
        "imex-centred-k3": lambda: imex_scheme("centred", 3, beta),
        "imex-centred-k4": lambda: imex_scheme("centred", 4, beta),
        "mcnab": lambda: mcnab(mcnab_c),
        "imex-bdf2": imex_bdf2,
        "implicit-biased-k3": lambda: implicit_biased(3),
        "implicit-biased-k4": lambda: implicit_biased(4),
        "implicit-centred-k3": lambda: implicit_centred(3, beta),
        "implicit-centred-k4": lambda: implicit_centred(4, beta),
        "euler": forward_euler,
    }
    try:
        build = builders[scheme_id]
    except KeyError:
        raise ValueError(f"unknown scheme id: {scheme_id!r}") from None
    return build()
