"""Reference test problems, and the convergence and total-variation runs on
them: the scalar split test equation, 1D periodic advection-diffusion with the
third-order upwind-biased advection stencil, and first-order upwind advection."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .integrate import (
    BlowUpError,
    CirculantOperator,
    LinearSplitOperator,
    ScalarOperator,
    SplitProblem,
    ZeroOperator,
    integrate,
)
from .schemes import CoefficientSet

__all__ = [
    "GridSpec",
    "AdvectionDiffusionConfig",
    "dahlquist",
    "advection_diffusion_1d",
    "fourier_symbol_kappa",
    "upwind_advection",
    "fourier_modes",
    "total_variation",
    "convergence", "dahlquist_for", "tv_series",
    "step_data",
    "monotone_staircase",
]

# Stencil weights for the third-order upwind-biased (kappa = 1/3) first
# derivative: du/dx at j ~ (2u_{j+1} + 3u_j - 6u_{j-1} + u_{j-2}) / (6 dx).
_KAPPA_THIRD_OFFSETS = (1, 0, -1, -2)
_KAPPA_THIRD_WEIGHTS = (2.0 / 6.0, 3.0 / 6.0, -1.0, 1.0 / 6.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the unit interval."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("need at least 8 cells")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells


@dataclass(frozen=True)
class AdvectionDiffusionConfig:
    """Nondimensional numbers fixing dt and the diffusivity on a given grid.

    courant is the advective Courant number a*dt/dx; diffusion_number is
    D*dt/dx^2. The advection speed is 1, so dt = courant * dx.
    """

    courant: float
    diffusion_number: float = 0.0

    def __post_init__(self):
        if self.courant < 0 or self.diffusion_number < 0:
            raise ValueError("courant and diffusion numbers must be nonnegative")


def dahlquist(lam: complex, mu: complex) -> SplitProblem:
    """Scalar split test equation y' = lam*y + mu*y, y(0) = 1, with exact solution."""
    lam = complex(lam)
    mu = complex(mu)

    def exact(t):
        return np.array([np.exp((lam + mu) * t)])

    return SplitProblem(LinearSplitOperator(ScalarOperator(lam), ScalarOperator(mu)), exact)


def dahlquist_for(s: CoefficientSet) -> SplitProblem:
    """The split test equation a convergence run steps s on: rate -1, split over its parts.
    A scheme with one part gets all of it: euler lam = -1, a pure implicit scheme mu = -1."""
    if not any(s.b):
        return dahlquist(0.0, -1.0)
    return dahlquist(*((-0.4, -0.6) if s.is_implicit else (-1.0, 0.0)))


def advection_diffusion_1d(grid: GridSpec, cfg: AdvectionDiffusionConfig,
                           mode: int) -> SplitProblem:
    """Periodic advection-diffusion semi-discretization.

    The explicit operator is -a * (third-order kappa=1/3 upwind-biased first
    derivative); the implicit operator is D times the central second
    difference. a = 1; dt implied by the Courant number is cfg.courant*dx.
    The initial data is the Fourier mode with the given index, and the exact
    semi-discrete solution is attached.
    """
    dx = grid.dx
    dt = cfg.courant * dx
    a = 1.0
    adv_weights = tuple(-a * w / dx for w in _KAPPA_THIRD_WEIGHTS)
    explicit = CirculantOperator(_KAPPA_THIRD_OFFSETS, adv_weights, grid.n_cells)
    if cfg.diffusion_number > 0:
        if dt == 0:
            raise ValueError("diffusion number needs a positive courant number to fix dt")
        diffusivity = cfg.diffusion_number * dx * dx / dt
        implicit = CirculantOperator(
            (-1, 0, 1),
            (diffusivity / dx**2, -2 * diffusivity / dx**2, diffusivity / dx**2),
            grid.n_cells,
        )
    else:
        implicit = ZeroOperator()
    phi = 2 * np.pi * mode / grid.n_cells
    u0 = np.exp(1j * phi * np.arange(grid.n_cells))
    rate = explicit.symbol(phi)
    if cfg.diffusion_number > 0:
        rate = rate + implicit.symbol(phi)

    def exact(t, u0=u0, rate=rate):
        return u0 * np.exp(rate * t)

    return SplitProblem(LinearSplitOperator(explicit, implicit), exact)


def fourier_symbol_kappa(cfg: AdvectionDiffusionConfig, phi):
    """Per-step explicit eigenvalue lambda(phi)*dt of the kappa=1/3 advection
    scheme at Courant number sigma: -sigma*(2e^{i phi} + 3 - 6e^{-i phi} + e^{-2i phi})/6."""
    phi = np.asarray(phi, dtype=float)
    val = -cfg.courant * (
        2.0 * np.exp(1j * phi) + 3.0 - 6.0 * np.exp(-1j * phi) + np.exp(-2j * phi)
    ) / 6.0
    return val if val.shape else complex(val)


def _circulant_semigroup_exact(operator: CirculantOperator, y0: np.ndarray):
    """Exact semi-discrete solution t -> exp(t F) y0 via Fourier diagonalization."""
    sym = operator.eigenvalues
    y0_hat = np.fft.fft(y0)
    real_data = not np.iscomplexobj(y0)

    def exact(t):
        u = np.fft.ifft(y0_hat * np.exp(sym * t))
        return u.real if real_data else u

    return exact


def upwind_advection(grid: GridSpec, initial=None) -> SplitProblem:
    """First-order upwind advection at unit speed, explicit only; TVD under
    forward Euler for dt <= dx, which fixes the reference step dt_0. The
    caller chooses dt.

    The exact semi-discrete solution, which start() samples, is attached for
    whatever initial data is supplied; default is step data.
    """
    dx = grid.dx
    explicit = CirculantOperator((0, -1), (-1.0 / dx, 1.0 / dx), grid.n_cells)
    u0 = step_data(grid.n_cells) if initial is None else np.asarray(initial)
    if len(u0) != grid.n_cells:
        raise ValueError("initial data length must match the grid")
    return SplitProblem(LinearSplitOperator(explicit, ZeroOperator()),
                        _circulant_semigroup_exact(explicit, u0))


def fourier_modes(problem: SplitProblem) -> SplitProblem:
    """The problem on the DFT coefficients y_hat = fft(y, norm="forward") of
    its state, where a circulant operator is diagonal.

    Each half must be a CirculantOperator, all on one grid, or a
    ZeroOperator. A circulant half becomes its modes, the ScalarOperator of
    its eigenvalues, a zero half stays as it is, and the exact solution becomes
    the DFT of the physical one. np.fft.ifft(y_hat, norm="forward") maps a
    state back. The forward normalisation keeps max|y_hat| <= max|y|, with
    equality for a single Fourier mode, so the blow-up guard of levels()
    reads the same scale as on grid values.
    """
    halves = (problem.operator.explicit, problem.operator.implicit)
    grids = {h.n for h in halves if isinstance(h, CirculantOperator)}
    if len(grids) != 1 or not all(isinstance(h, (CirculantOperator, ZeroOperator))
                                  for h in halves):
        raise ValueError("fourier_modes needs circulant halves on one grid, "
                         "or a zero half beside a circulant one")
    explicit, implicit = (h.modes if isinstance(h, CirculantOperator) else h for h in halves)

    def exact(t, physical=problem.exact):
        return np.fft.fft(physical(t), norm="forward")

    return SplitProblem(LinearSplitOperator(explicit, implicit),
                        None if problem.exact is None else exact, problem.t0)


def total_variation(u) -> float:
    """Periodic total variation sum_j |u_{j+1} - u_j|."""
    u = np.asarray(u).ravel()
    if not u.size:
        return 0.0
    # the differences np.roll(u, -1) - u, in the same order: the sum is unchanged
    d = np.empty_like(u)
    np.subtract(u[1:], u[:-1], out=d[:-1])
    d[-1] = u[0] - u[-1]
    return float(np.abs(d).sum())


def convergence(problem: SplitProblem, s: CoefficientSet, t_end: float, dts) -> tuple:
    """(errors, order): max|y(t_end) - exact(t_end)| of s at each dt, and the slope of log error
    over log dt. A circulant problem is stepped on its DFT coefficients (fourier_modes)."""
    modes = isinstance(problem.operator.explicit, CirculantOperator)
    stepped = fourier_modes(problem) if modes else problem
    errs = []
    for dt in dts:
        final = integrate(stepped, s, t_end, dt)
        final = np.fft.ifft(final, norm="forward") if modes else final
        errs.append(float(np.max(np.abs(final - problem.exact(t_end)))))
    return errs, float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


def tv_series(problem: SplitProblem, s: CoefficientSet, t_end: float, dt: float) -> tuple:
    """(t, max_norm, tv, own): each level's time, max norm and total variation, up to the one
    that passed the overflow guard, and the TV growth of the steps after the k exact levels."""
    rows = []
    with contextlib.suppress(BlowUpError):
        integrate(problem, s, t_end, dt,
                  observe=lambda _, y, norm: rows.append((norm, total_variation(y))))
    max_norm, tv = zip(*rows)
    return problem.t0 + dt * np.arange(len(tv)), max_norm, tv, np.diff(tv)[s.k - 1:]


# ---------------------------------------------------------------------------
# Initial data for TV experiments
# ---------------------------------------------------------------------------

def step_data(n: int) -> np.ndarray:
    """Half-domain step: 1 on the first half, 0 on the second."""
    u = np.zeros(n)
    u[: n // 2] = 1.0
    return u


# The staircase rises through _PLATEAUS plateaus over the first half of the
# grid and mirrors them on the second; each is at least _MIN_PLATEAU_WIDTH
# cells wide, so the grid needs STAIRCASE_MIN_CELLS cells.
_PLATEAUS = 6
_MIN_PLATEAU_WIDTH = 4
STAIRCASE_MIN_CELLS = 2 * _PLATEAUS * _MIN_PLATEAU_WIDTH


def monotone_staircase(n: int, seed: int = 1234) -> np.ndarray:
    """Monotone-up-then-down staircase of random plateau heights and widths.

    Plateaus are kept wide so that plateau extrema survive many advection
    steps; total variation is exactly 2*(max - min).
    """
    if n < STAIRCASE_MIN_CELLS:
        raise ValueError(f"staircase data needs at least {STAIRCASE_MIN_CELLS} cells, got {n}")
    rng = np.random.default_rng(seed)
    half = n // 2
    min_width = max(_MIN_PLATEAU_WIDTH, half // (2 * _PLATEAUS))
    heights = np.sort(rng.uniform(0.0, 1.0, _PLATEAUS))
    widths = rng.multinomial(half - _PLATEAUS * min_width,
                             np.full(_PLATEAUS, 1.0 / _PLATEAUS)) + min_width
    up = np.repeat(heights, widths)
    u = np.empty(n)
    u[:half] = up[:half]
    u[half:] = up[::-1][: n - half]
    return u
