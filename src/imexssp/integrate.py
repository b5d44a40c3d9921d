"""Time stepping for linear split problems with any multistep coefficient set.

The implicit stage of every step solves the shifted linear system
(a_0 I - dt c_0 G) y_new = rhs. Implicit operators are restricted to linear
ones, so the solve is direct: scalar or diagonal division, or an FFT
diagonalization for periodic stencils (circulant operators) stepped on grid
values. A diagonal scalar operator lets empirical_stability advance many
scalar test problems as one system, and carries a circulant problem mapped
onto its DFT coefficients (problems.fourier_modes), where both halves are
diagonal and a step makes no FFT; `imexssp converge --problem advdiff`
steps that way. A circulant solve on grid values is an FFT around that same
diagonal solve (CirculantOperator.modes), so one rule calls a shifted
coefficient singular, one coefficient or eigenvalue at a time.

A circulant operator applies its stencil as one tap-window reduction: it
extends the state periodically once, views the extension as a (taps x n)
window with one row per offset, weights the rows and sums them down the tap
axis. The window and its weights are built once per operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .schemes import CoefficientSet, finite_array

__all__ = [
    "StepFailureError",
    "BlowUpError",
    "ZeroOperator",
    "ScalarOperator",
    "CirculantOperator",
    "LinearSplitOperator",
    "SplitProblem",
    "History",
    "solve_cyclic_tridiagonal",
    "step",
    "start",
    "levels",
    "integrate",
    "empirical_stability",
]

BLOWUP_LIMIT = 1e12


class StepFailureError(RuntimeError):
    """The implicit stage system is singular (or numerically so)."""


class BlowUpError(RuntimeError):
    """The solution norm exceeded the overflow guard during integration."""

    def __init__(self, step_index: int, norm: float):
        super().__init__(f"blow-up detected at step {step_index}: max norm {norm:.3e}")
        self.step_index = step_index
        self.norm = norm


# ---------------------------------------------------------------------------
# Linear operators
# ---------------------------------------------------------------------------

def _shifted(alpha, beta, coef):
    """The shifted coefficients alpha - beta * coef of an implicit solve, and
    where each is singular: smaller than 1e-14 times the larger of its terms
    (and of 1). coef is a scalar or an array of eigenvalues; the flag is a
    NumPy bool or a boolean array to match."""
    # builtin abs keeps the one-component case as cheap as plain floats
    shifted = beta * coef
    den = alpha - shifted
    return den, abs(den) < 1e-14 * np.maximum(max(1.0, abs(alpha)), abs(shifted))


class ZeroOperator:
    """The absent half of a split problem."""

    def apply(self, v):
        return np.zeros_like(v)

    def solve_shifted(self, alpha, beta, rhs):
        return rhs / alpha


class ScalarOperator:
    """Multiplication by a (possibly complex) scalar, or elementwise by an
    array of them: a diagonal operator acting on a state of that length.

    Shifted solves keep the denominator alpha - beta * coef for the most
    recent (alpha, beta) only, so coef must not change after construction; a
    singular pair is checked on every call and never kept.
    """

    def __init__(self, coef):
        self.coef = coef
        self._den = (None, None)  # ((alpha, beta), alpha - beta * coef)

    def apply(self, v):
        return self.coef * v

    def singular(self, alpha, beta):
        """Where the shifted coefficient alpha - beta * coef vanishes relative
        to its terms: a NumPy bool, or a boolean array for an array coefficient."""
        return _shifted(alpha, beta, self.coef)[1]

    def solve_shifted(self, alpha, beta, rhs):
        key = (alpha, beta)
        if self._den[0] != key:
            den, singular = _shifted(alpha, beta, self.coef)
            if singular.any():
                raise StepFailureError("singular implicit system: a_0 - dt c_0 mu ~ 0")
            self._den = (key, den)
        return rhs / self._den[1]


class CirculantOperator:
    """A periodic stencil operator: (T u)_j = sum_k w_k u_{j + o_k}.

    apply() is one reduction over a tap window built at construction: one
    row per offset from the first tap to the last, stride +1 or -1, and a
    weight column that gives 0.0 to an offset in that span the stencil
    lacks. A call takes the periodic extension v_lo, ..., v_{n-1+hi} of the
    state once (lo and hi the least and greatest offset; it wraps as often
    as a span >= n needs), views it as the (taps x n) window whose row for
    offset o is v_{j+o}, multiplies by the weight column and adds the rows
    with np.add.reduce from an initial 0.0. The tap axis is strided, so for
    n >= 2 NumPy adds the rows one at a time in window order: entry j is
    0.0 + w_1 v_{j+o_1} + w_2 v_{j+o_2} + ... in the stored order of a
    strictly monotone stencil. Any other stencil (unsorted, or with
    repeated offsets) is put in ascending order, the weights of a repeated
    offset summed. A gap in the offsets adds 0.0 * v, which changes nothing
    unless v is infinite or nan there.

    Shifted solves diagonalize the operator by FFT: its eigenvalues are the
    symbol on the grid 2 pi m / n, computed once (eigenvalues), and modes is
    the diagonal ScalarOperator of them, which acts on DFT coefficients. A
    solve is fft, modes.solve_shifted, ifft, so the denominators and the
    singular rule are ScalarOperator's.
    """

    def __init__(self, offsets, weights, n):
        self.offsets = tuple(int(o) for o in offsets)
        self.weights = tuple(float(w) for w in weights)
        self.n = int(n)
        if len(self.offsets) != len(self.weights):
            raise ValueError("a stencil needs one weight per offset")
        if self.n < 1:
            raise ValueError(f"a circulant operator needs at least 1 point, got {self.n}")
        first, last, taps = _tap_window(self.offsets, self.weights)
        lo, hi = min(first, last), max(first, last)
        self._stride = 1 if last >= first else -1
        # extension entry i holds v_{(lo + i) mod n}
        self._index = np.arange(lo, self.n + hi) % self.n
        self._first = first - lo  # the extension entry where window row 0 starts
        self._taps = len(taps)
        self._weights = np.array(taps)[:, None]
        # a complex state multiplies by w + 0j, as it does by a Python float;
        # a complex column saves a buffered cast of the real one on every call
        self._complex_weights = self._weights.astype(complex)

    def apply(self, v):
        if v.shape != (self.n,):
            raise ValueError(f"state of shape {v.shape} for a circulant operator on "
                             f"{self.n} points")
        ext = v.take(self._index)
        size = ext.itemsize
        window = np.ndarray((self._taps, self.n), ext.dtype, ext,
                            self._first * size, (self._stride * size, size))
        weights = self._complex_weights if ext.dtype.kind == "c" else self._weights
        return np.add.reduce(window * weights, axis=0, initial=0.0)

    def symbol(self, phi):
        """Eigenvalue on the Fourier mode u_j = exp(i phi j)."""
        phi = np.asarray(phi, dtype=float)
        acc = np.zeros(np.shape(phi), dtype=complex)
        for o, w in zip(self.offsets, self.weights):
            acc = acc + w * np.exp(1j * phi * o)
        return acc if acc.shape else complex(acc)

    @cached_property
    def eigenvalues(self):
        """The symbol on the DFT grid, symbol(2 pi m / n) for m = 0, ..., n-1:
        the eigenvalue of the m-th DFT coefficient. Built on first use."""
        return self.symbol(2 * np.pi * np.arange(self.n) / self.n)

    @cached_property
    def modes(self) -> ScalarOperator:
        """The operator on the DFT coefficients of the state: the diagonal
        ScalarOperator of its eigenvalues. Built on first use."""
        return ScalarOperator(self.eigenvalues)

    def solve_shifted(self, alpha, beta, rhs):
        x = np.fft.ifft(self.modes.solve_shifted(alpha, beta, np.fft.fft(rhs)))
        return x if np.iscomplexobj(rhs) else x.real


def _tap_window(offsets, weights):
    """A stencil as a tap window: the first and last tap's offsets, and the
    weight of every offset from the first to the last, in window order, with
    0.0 for an offset the stencil lacks. A strictly monotone stencil keeps
    its stored direction; any other is put in ascending order, the weights
    of a repeated offset summed in stored order. An empty stencil is one
    zero tap."""
    pairs = list(zip(offsets, weights)) or [(0, 0.0)]
    ascending = sorted({o for o, _ in pairs})
    if [o for o, _ in pairs] not in (ascending, ascending[::-1]):
        merged = dict.fromkeys(ascending, 0.0)
        for o, w in pairs:
            merged[o] += w
        pairs = list(merged.items())
    stored = dict(pairs)
    first, last = pairs[0][0], pairs[-1][0]
    stride = 1 if last >= first else -1
    return first, last, [stored.get(o, 0.0) for o in range(first, last + stride, stride)]


def _thomas(sub, diag, sup, rhs):
    """Standard tridiagonal elimination; sub[0] and sup[-1] are ignored."""
    n = len(diag)
    cp = np.empty(n, dtype=np.result_type(diag, rhs))
    dp = np.empty(n, dtype=np.result_type(diag, rhs))
    cp[0] = sup[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for j in range(1, n):
        den = diag[j] - sub[j] * cp[j - 1]
        if den == 0:
            raise StepFailureError("singular tridiagonal system")
        cp[j] = sup[j] / den
        dp[j] = (rhs[j] - sub[j] * dp[j - 1]) / den
    x = np.empty_like(dp)
    x[-1] = dp[-1]
    for j in range(n - 2, -1, -1):
        x[j] = dp[j] - cp[j] * x[j + 1]
    return x


def solve_cyclic_tridiagonal(sub, diag, sup, rhs):
    """Solve the periodic tridiagonal system
    sub[j] x_{j-1} + diag[j] x_j + sup[j] x_{j+1} = rhs[j] (indices mod n).

    sub[0] and sup[-1] are the corner entries. Thomas elimination plus a
    Sherman-Morrison rank-one correction for the corners. This is a general
    variable-coefficient solver; CirculantOperator no longer uses it (its
    constant-coefficient solves go through FFT).
    """
    sub = np.asarray(sub)
    diag = np.asarray(diag)
    sup = np.asarray(sup)
    rhs = np.asarray(rhs)
    n = len(diag)
    if n < 3:
        m = np.zeros((n, n), dtype=np.result_type(diag, rhs))
        for j in range(n):
            m[j, j] += diag[j]
            m[j, (j - 1) % n] += sub[j]
            m[j, (j + 1) % n] += sup[j]
        return np.linalg.solve(m, rhs)
    corner_top = sub[0]
    corner_bot = sup[-1]
    if corner_top == 0 and corner_bot == 0:
        return _thomas(sub, diag, sup, rhs)
    gamma = -diag[0] if diag[0] != 0 else 1.0
    d = diag.astype(np.result_type(diag, rhs), copy=True)
    d[0] -= gamma
    d[-1] -= corner_top * corner_bot / gamma
    u = np.zeros(n, dtype=d.dtype)
    u[0] = gamma
    u[-1] = corner_bot
    y = _thomas(sub, d, sup, rhs)
    q = _thomas(sub, d, sup, u)
    # v = (1, 0, ..., 0, corner_top / gamma)
    fac = (y[0] + corner_top * y[-1] / gamma) / (1.0 + q[0] + corner_top * q[-1] / gamma)
    return y - fac * q


# ---------------------------------------------------------------------------
# Problems and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSplitOperator:
    """The two halves F (explicit) and G (implicit) of y' = F y + G y."""

    explicit: object
    implicit: object


@dataclass(frozen=True)
class SplitProblem:
    """A linear split initial-value problem with its exact solution.

    exact maps a time t to the state vector at t; start() samples it for the
    k starting levels.
    """

    operator: LinearSplitOperator
    exact: object
    t0: float = 0.0


@dataclass
class History:
    """Lists of the newest k levels; index 0 is the newest level n."""

    k: int
    y: list
    f: list
    g: list
    t: float
    dt: float

    def __post_init__(self):
        if not (len(self.y) == len(self.f) == len(self.g) == self.k):
            raise ValueError(f"history must hold exactly k={self.k} levels")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    def push(self, y_new, f_new, g_new):
        self.y.insert(0, y_new)
        self.f.insert(0, f_new)
        self.g.insert(0, g_new)
        self.y.pop()
        self.f.pop()
        self.g.pop()
        self.t += self.dt


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def step(s: CoefficientSet, h: History, op: LinearSplitOperator):
    """Advance one step: solve (a_0 I - dt c_0 G) y_new = rhs and push.

    rhs collects the k stored levels with their a, b, c weights, read from
    the scheme's step_weights() (Python floats built once per scheme); zero
    weights are skipped. b_0 = 0 by construction so no new explicit
    evaluation enters the solve. rhs starts from the float 0.0, which gives
    elementwise what a zero array gives (0.0 - x and 0.0 + x, signed zeros
    included) without building one; a scheme with no nonzero history weight
    starts from a zero array, so that y_new is still an array.
    """
    if h.k != s.k:
        raise ValueError(f"history holds {h.k} levels but the scheme needs {s.k}")
    a0, c0, terms = s.step_weights()
    if a0 == 0:
        raise ValueError("a_0 must be nonzero")
    dt = h.dt
    rhs = 0.0 if terms else np.zeros_like(h.y[0])
    for lvl, a, b, c in terms:
        if a:
            rhs = rhs - a * h.y[lvl]
        if b:
            rhs = rhs + dt * b * h.f[lvl]
        if c:
            rhs = rhs + dt * c * h.g[lvl]
    y_new = op.implicit.solve_shifted(a0, dt * c0, rhs)
    h.push(y_new, op.explicit.apply(y_new), op.implicit.apply(y_new))
    return y_new


def start(problem: SplitProblem, s: CoefficientSet, dt: float) -> History:
    """Fill the k starting levels at t0, t0+dt, ..., t0+(k-1)dt by sampling
    the problem's exact solution."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if problem.exact is None:
        raise ValueError("the problem has no exact solution to start from")
    op = problem.operator
    ys = [np.atleast_1d(np.asarray(problem.exact(problem.t0 + j * dt)))
          for j in range(s.k)][::-1]  # newest first
    return History(
        k=s.k,
        y=ys,
        f=[op.explicit.apply(y) for y in ys],
        g=[op.implicit.apply(y) for y in ys],
        t=problem.t0 + (s.k - 1) * dt,
        dt=dt,
    )


def levels(problem: SplitProblem, s: CoefficientSet, t_end: float, dt: float):
    """Repeated stepping from t0 to t_end: yields (index, state, max_norm)
    for every level, the k starting levels first.

    The interval must hold more than the k starting levels, so that the
    scheme takes at least one step of its own. Memory does not grow with
    the number of steps: only the k-level history is kept, and a yielded
    state is the history's own array. A stepped level whose max norm passes
    the overflow guard is yielded, and then BlowUpError is raised with its
    step index; a beyond-CFL probe catches it to end on that level.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not t_end > problem.t0:
        raise ValueError("t_end must exceed t0")
    n_total = (t_end - problem.t0) / dt
    if abs(n_total - round(n_total)) > 1e-8 * max(1.0, abs(n_total)):
        raise ValueError(f"(t_end - t0)/dt = {n_total} is not close to an integer")
    n_levels = round(n_total) + 1
    if n_levels <= s.k:
        raise ValueError(f"interval too short: its {n_levels} levels leave no step "
                         f"after the k={s.k} starting levels")

    h = start(problem, s, dt)
    for j, y in enumerate(reversed(h.y)):
        yield j, y, float(np.abs(y).max())
    for j in range(s.k, n_levels):
        y = step(s, h, problem.operator)
        norm = float(np.abs(y).max())
        yield j, y, norm
        if not math.isfinite(norm) or norm > BLOWUP_LIMIT:
            raise BlowUpError(j, norm)


def integrate(problem: SplitProblem, s: CoefficientSet, t_end: float, dt: float,
              observe=None) -> np.ndarray:
    """levels() folded into its last state; observe(index, state, max_norm),
    when given, sees every level first. BlowUpError propagates as levels()
    raises it, after observe has seen the level that passed the guard."""
    for j, y, norm in levels(problem, s, t_end, dt):
        if observe is not None:
            observe(j, y, norm)
    return y


def empirical_stability(s: CoefficientSet, lam, mu, n_steps: int = 800):
    """Probe the scalar test problem y' = lam*y + mu*y with unit step size.

    lam and mu broadcast against each other; every pair is one component of
    a diagonal system that step() advances as a whole. Starting data is the
    exact solution plus a small alternating perturbation so every
    characteristic mode is excited at a known level; a pair is called stable
    when its modulus never passes 1e3 times its starting scale. A pair whose
    implicit stage a_0 - c_0 mu is singular is unstable from the start. A
    pair that passes its threshold is retired (zeroed in the history) and
    stepping stops once no pair is left. Away from the stability boundary
    this agrees with root_condition. Scalar inputs give a bool, arrays a
    boolean array of the broadcast shape.
    """
    if n_steps < 100:
        raise ValueError("need at least 100 steps")
    lam, mu = np.broadcast_arrays(finite_array(lam, "lambda"), finite_array(mu, "mu"))
    shape = lam.shape
    lam = lam.astype(complex).ravel()
    mu = mu.astype(complex).ravel()
    a0, c0 = s.a_array()[0], s.c_array()[0]
    singular = ScalarOperator(mu).singular(a0, c0)  # dt = 1
    op = LinearSplitOperator(ScalarOperator(lam), ScalarOperator(np.where(singular, 0.0, mu)))
    rate = lam + mu

    def perturbed(t):  # a singular pair's levels stay 0, so its threshold is never read
        return np.where(singular, 0.0, np.exp(rate * t) + 1e-6 * (-1) ** t)

    h = start(SplitProblem(op, perturbed), s, 1.0)
    threshold = 1e3 * np.maximum(1.0, np.abs(h.y).max(axis=0))
    live = ~singular
    for _ in range(n_steps):
        if not live.any():
            break
        m = np.abs(step(s, h, op))
        out = ~np.isfinite(m) | (m > BLOWUP_LIMIT) | (m > threshold)
        if out.any():
            live &= ~out
            for level in (*h.y, *h.f, *h.g):
                level[out] = 0.0
    return bool(live[0]) if shape == () else live.reshape(shape)
