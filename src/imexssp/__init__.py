"""IMEX multistep schemes built on SSP time discretizations, with a linear
stability toolkit, a time stepper, and reference test problems."""

from .schemes import (
    CoefficientSet,
    CharPolys,
    ssp_explicit,
    implicit_biased,
    implicit_centred,
    imex_scheme,
    mcnab,
    imex_bdf2,
    forward_euler,
    char_polys,
    order_residual,
    scheme_from_id,
    BUILTIN_IDS,
    REGISTRY_IDS,
)
from .stability import (
    BoundaryCurve,
    WedgeAngle,
    StabilityVerdict,
    explicit_boundary,
    implicit_boundary,
    mu_image,
    root_condition,
    measure_alpha,
    alpha_closed_form,
    imex_alpha_sweep,
    restrict_curve,
    zero_expansion_coefficients,
)
from .integrate import (
    BlowUpError,
    StepFailureError,
    History,
    LinearSplitOperator,
    SplitProblem,
    step,
    start,
    integrate,
    empirical_stability,
)
from .problems import (
    GridSpec,
    AdvectionDiffusionConfig,
    dahlquist,
    advection_diffusion_1d,
    fourier_symbol_kappa,
    upwind_advection,
    fourier_modes,
    total_variation,
)

__version__ = "0.1.0"
