"""Reference test problems: the scalar split test equation, 1D periodic
advection-diffusion with the third-order upwind-biased advection stencil,
and first-order upwind advection for total-variation experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import (
    CirculantOperator,
    LinearSplitOperator,
    ScalarOperator,
    SplitProblem,
    ZeroOperator,
)

__all__ = [
    "GridSpec",
    "AdvectionDiffusionConfig",
    "dahlquist",
    "advection_diffusion_1d",
    "fourier_symbol_kappa",
    "upwind_advection",
    "total_variation",
    "step_data",
    "monotone_staircase",
]

# Stencil weights for the third-order upwind-biased (kappa = 1/3) first
# derivative: du/dx at j ~ (2u_{j+1} + 3u_j - 6u_{j-1} + u_{j-2}) / (6 dx).
_KAPPA_THIRD_OFFSETS = (1, 0, -1, -2)
_KAPPA_THIRD_WEIGHTS = (2.0 / 6.0, 3.0 / 6.0, -1.0, 1.0 / 6.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic 1D grid."""

    n_cells: int
    domain_length: float = 1.0

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("need at least 8 cells")
        if not self.domain_length > 0:
            raise ValueError("domain length must be positive")

    @property
    def dx(self) -> float:
        return self.domain_length / self.n_cells


@dataclass(frozen=True)
class AdvectionDiffusionConfig:
    """Nondimensional numbers fixing dt and the diffusivity on a given grid.

    courant is the advective Courant number a*dt/dx; diffusion_number is
    D*dt/dx^2. The advection speed is 1, so dt = courant * dx.
    """

    courant: float
    diffusion_number: float = 0.0
    kappa: float = 1.0 / 3.0

    def __post_init__(self):
        if self.courant < 0 or self.diffusion_number < 0:
            raise ValueError("courant and diffusion numbers must be nonnegative")
        if abs(self.kappa - 1.0 / 3.0) > 1e-14:
            raise ValueError("only the third-order kappa = 1/3 stencil is provided")


def dahlquist(lam: complex, mu: complex, y0: complex = 1.0) -> SplitProblem:
    """Scalar split test equation y' = lam*y + mu*y with exact solution."""
    lam = complex(lam)
    mu = complex(mu)
    y0c = complex(y0)

    def exact(t):
        return np.array([y0c * np.exp((lam + mu) * t)])

    return SplitProblem(
        operator=LinearSplitOperator(ScalarOperator(lam), ScalarOperator(mu), 1),
        y0=np.array([y0c]),
        exact=exact,
        name="dahlquist",
    )


def advection_diffusion_1d(grid: GridSpec, cfg: AdvectionDiffusionConfig,
                           mode: int | None = None) -> SplitProblem:
    """Periodic advection-diffusion semi-discretization.

    The explicit operator is -a * (third-order kappa=1/3 upwind-biased first
    derivative); the implicit operator is D times the central second
    difference. a = 1; dt implied by the Courant number is cfg.courant*dx.
    With a Fourier mode index the initial data is that mode and the exact
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
    op = LinearSplitOperator(explicit, implicit, grid.n_cells)

    j = np.arange(grid.n_cells)
    if mode is None:
        u0 = np.sin(2 * np.pi * j / grid.n_cells)
        return SplitProblem(op, u0, name="advdiff")

    phi = 2 * np.pi * mode / grid.n_cells
    u0 = np.exp(1j * phi * j)
    rate = explicit.symbol(phi)
    if cfg.diffusion_number > 0:
        rate = rate + implicit.symbol(phi)

    def exact(t, u0=u0, rate=rate):
        return u0 * np.exp(rate * t)

    return SplitProblem(op, u0, exact=exact, name=f"advdiff-mode{mode}")


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
    n = len(y0)
    sym = operator.symbol(2 * np.pi * np.arange(n) / n)
    y0_hat = np.fft.fft(y0)
    real_data = not np.iscomplexobj(y0)

    def exact(t):
        u = np.fft.ifft(y0_hat * np.exp(sym * t))
        return u.real if real_data else u

    return exact


def upwind_advection(grid: GridSpec, courant: float, initial=None) -> SplitProblem:
    """First-order upwind advection, explicit only; TVD under forward Euler
    for courant <= 1, which fixes the reference step dt_0.

    The exact semi-discrete solution (needed for exact-start TV experiments)
    is attached for whatever initial data is supplied; default is step data.
    """
    if not courant > 0:
        raise ValueError("courant number must be positive")
    dx = grid.dx
    explicit = CirculantOperator((0, -1), (-1.0 / dx, 1.0 / dx), grid.n_cells)
    y0 = step_data(grid.n_cells) if initial is None else np.asarray(initial)
    if len(y0) != grid.n_cells:
        raise ValueError("initial data length must match the grid")
    return SplitProblem(
        LinearSplitOperator(explicit, ZeroOperator(), grid.n_cells),
        y0,
        exact=_circulant_semigroup_exact(explicit, y0),
        name="upwind",
    )


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


# ---------------------------------------------------------------------------
# Initial data for TV experiments
# ---------------------------------------------------------------------------

def step_data(n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Half-domain step: high on the first half, low on the second."""
    u = np.full(n, low)
    u[: n // 2] = high
    return u


def monotone_staircase(n: int, n_plateaus: int = 6, min_width: int | None = None,
                       seed: int = 1234) -> np.ndarray:
    """Monotone-up-then-down staircase of random plateau heights and widths.

    Plateaus are kept wide so that plateau extrema survive many advection
    steps; total variation is exactly 2*(max - min).
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    if min_width is None:
        min_width = max(4, half // (2 * n_plateaus))
    if n_plateaus * min_width > half:
        raise ValueError("plateaus do not fit in half the domain")
    heights = np.sort(rng.uniform(0.0, 1.0, n_plateaus))
    widths = rng.multinomial(half - n_plateaus * min_width,
                             np.full(n_plateaus, 1.0 / n_plateaus)) + min_width
    up = np.repeat(heights, widths)
    u = np.empty(n)
    u[:half] = up[:half]
    u[half:] = up[::-1][: n - half]
    return u
