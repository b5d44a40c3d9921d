"""Time stepping for linear split problems with any multistep coefficient set.

The implicit stage of every step solves the shifted linear system
(a_0 I - dt c_0 G) y_new = rhs. Implicit operators are restricted to linear
ones, so the solve is direct: scalar or diagonal division, or an FFT
diagonalization for periodic stencils (circulant operators). A
diagonal scalar operator lets empirical_stability advance many scalar test
problems as one system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "Trajectory",
    "solve_cyclic_tridiagonal",
    "step",
    "start",
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

class ZeroOperator:
    """The absent half of a split problem."""

    def apply(self, v):
        return np.zeros_like(v)

    def solve_shifted(self, alpha, beta, rhs):
        return rhs / alpha

    def __bool__(self):
        return False


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

    def _shift(self, alpha, beta):
        # builtin abs keeps the one-component case as cheap as plain floats
        shifted = beta * self.coef
        den = alpha - shifted
        return den, abs(den) < 1e-14 * np.maximum(max(1.0, abs(alpha)), abs(shifted))

    def singular(self, alpha, beta):
        """Where the shifted coefficient alpha - beta * coef vanishes relative
        to its terms: a NumPy bool, or a boolean array for an array coefficient."""
        return self._shift(alpha, beta)[1]

    def solve_shifted(self, alpha, beta, rhs):
        key = (alpha, beta)
        if self._den[0] != key:
            den, singular = self._shift(alpha, beta)
            if singular.any():
                raise StepFailureError("singular implicit system: a_0 - dt c_0 mu ~ 0")
            self._den = (key, den)
        return rhs / self._den[1]

    def __bool__(self):
        return bool(np.any(self.coef != 0))


class CirculantOperator:
    """A periodic stencil operator: (T u)_j = sum_k w_k u_{j + o_k}.

    Shifted solves diagonalize the operator by FFT: its eigenvalues are the
    symbol on the grid 2 pi m / n, computed once. The shifted denominators
    alpha - beta * symbol are kept for the most recent (alpha, beta) only.
    """

    def __init__(self, offsets, weights, n):
        self.offsets = tuple(int(o) for o in offsets)
        self.weights = tuple(float(w) for w in weights)
        self.n = int(n)
        self._grid_symbol = None
        self._shift = (None, None)  # ((alpha, beta), alpha - beta * grid symbol)

    def apply(self, v):
        out = np.zeros_like(v)
        n = len(v)
        for o, w in zip(self.offsets, self.weights):
            if w != 0.0:
                # out_j += w v_{(j + o) mod n}, as two slices around the wrap
                s = o % n
                out[:n - s] += w * v[s:]
                if s:
                    out[n - s:] += w * v[:s]
        return out

    def symbol(self, phi):
        """Eigenvalue on the Fourier mode u_j = exp(i phi j)."""
        phi = np.asarray(phi, dtype=float)
        acc = np.zeros(np.shape(phi), dtype=complex)
        for o, w in zip(self.offsets, self.weights):
            acc = acc + w * np.exp(1j * phi * o)
        return acc if acc.shape else complex(acc)

    def solve_shifted(self, alpha, beta, rhs):
        key = (alpha, beta)
        if self._shift[0] != key:
            if self._grid_symbol is None:
                self._grid_symbol = self.symbol(2 * np.pi * np.arange(self.n) / self.n)
            eig = alpha - beta * self._grid_symbol
            if np.abs(eig).min() < 1e-14 * max(1.0, np.abs(eig).max()):
                raise StepFailureError("singular implicit system: circulant eigenvalue ~ 0")
            self._shift = (key, eig)
        x = np.fft.ifft(np.fft.fft(rhs) / self._shift[1])
        if not np.iscomplexobj(rhs):
            x = x.real
        return x

    def __bool__(self):
        return any(w != 0.0 for w in self.weights)


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


@dataclass(frozen=True)
class Trajectory:
    """The outcome of integrate(): every level's time, the last state, and
    per-level diagnostics.

    times[j] is the time of level j, starting levels included. final is the
    state at times[-1]. diagnostics maps "max_norm" and "total_variation" to
    arrays aligned with times.
    """

    times: np.ndarray
    final: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def step(s: CoefficientSet, h: History, op: LinearSplitOperator):
    """Advance one step: solve (a_0 I - dt c_0 G) y_new = rhs and push.

    rhs collects the k stored levels with their a, b, c weights, read from
    the scheme's step_weights() (Python floats built once per scheme); zero
    weights are skipped. b_0 = 0 by construction so no new explicit
    evaluation enters the solve.
    """
    if h.k != s.k:
        raise ValueError(f"history holds {h.k} levels but the scheme needs {s.k}")
    a0, c0, terms = s.step_weights()
    if a0 == 0:
        raise ValueError("a_0 must be nonzero")
    dt = h.dt
    rhs = np.zeros_like(h.y[0])
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


def integrate(problem: SplitProblem, s: CoefficientSet, t_end: float, dt: float,
              on_blowup: str = "raise") -> Trajectory:
    """Repeated stepping from t0 to t_end, recording per-level diagnostics.

    The interval must hold more than the k starting levels, so that the
    scheme takes at least one step of its own. Memory does not grow with
    the number of steps: only the k-level history is kept, and each level's
    max norm and total variation are computed as the level is produced.
    When the max norm passes the overflow guard, raises BlowUpError with the
    step index (empirical stability probing relies on that), or truncates
    the trajectory there with on_blowup="truncate" (used by beyond-CFL
    probes); a truncated trajectory ends on the level that passed the guard.
    """
    from .problems import total_variation

    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not t_end > problem.t0:
        raise ValueError("t_end must exceed t0")
    if on_blowup not in ("raise", "truncate"):
        raise ValueError(f"unknown blow-up policy: {on_blowup!r}")
    n_total = (t_end - problem.t0) / dt
    if abs(n_total - round(n_total)) > 1e-8 * max(1.0, abs(n_total)):
        raise ValueError(f"(t_end - t0)/dt = {n_total} is not close to an integer")
    n_levels = round(n_total) + 1
    if n_levels <= s.k:
        raise ValueError(f"interval too short: its {n_levels} levels leave no step "
                         f"after the k={s.k} starting levels")

    h = start(problem, s, dt)
    max_norm = np.empty(n_levels)
    tv = np.empty(n_levels)
    for j, y in enumerate(reversed(h.y)):
        max_norm[j] = np.abs(y).max()
        tv[j] = total_variation(y)
    y = h.y[0]
    for j in range(s.k, n_levels):
        y = step(s, h, problem.operator)
        norm = float(np.abs(y).max())
        blown = not np.isfinite(norm) or norm > BLOWUP_LIMIT
        if blown and on_blowup == "raise":
            raise BlowUpError(j, norm)
        max_norm[j] = norm
        tv[j] = total_variation(y)
        if blown:
            n_levels = j + 1
            break
    diagnostics = {"max_norm": max_norm[:n_levels], "total_variation": tv[:n_levels]}
    return Trajectory(problem.t0 + dt * np.arange(n_levels), y, diagnostics)


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
    ys = [np.exp(rate * j) + 1e-6 * (-1) ** j for j in range(s.k)][::-1]
    threshold = 1e3 * np.maximum(1.0, np.abs(ys).max(axis=0))
    live = ~singular
    for y in ys:
        y[singular] = 0.0
    h = History(
        k=s.k,
        y=ys,
        f=[op.explicit.apply(y) for y in ys],
        g=[op.implicit.apply(y) for y in ys],
        t=float(s.k - 1),
        dt=1.0,
    )
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
