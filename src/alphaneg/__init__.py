"""Entanglement measures interpolating between the logarithmic negativity and
its semidefinite max endpoint, for finite-dimensional states and channels."""

from .divergence import (
    binegativity_psd,
    classical_relative_entropy,
    d_max,
    log_negativity,
    mu_alpha,
    nu_alpha,
    sandwiched_renyi,
)
from .errors import (
    AlphanegError,
    AlphaOutOfRangeError,
    CommutationFailedError,
    InvalidStateError,
    NegativeSpectrumError,
    NonHermitianError,
    NotConvergedError,
    NotPositiveDefiniteError,
    OutOfDomainError,
    UnsupportedMapError,
    ZeroOperatorError,
)
from .linalg import (
    BipartitionDims,
    hermitian_eig,
    matrix_power_support,
    partial_trace,
    partial_transpose,
    psd_project,
    schatten_norm,
    support_leq,
    tensor,
)
from .pptgeom import DykstraConfig, interior_point, project_ppt, regularize
from .solver import (
    MeasureResult,
    SolverConfig,
    alpha_sweep,
    bracket,
    e_alpha,
    e_kappa,
)
from .states import (
    BipartiteState,
    PureState,
    cq_assemble,
    load_state,
    max_entangled,
    no_convexity_fixture,
    no_monogamy_fixture,
    ppt_membership,
    random_state,
    save_state,
    werner_state,
)
from .channels import (
    Instrument,
    KrausChannel,
    SuperOperator,
    channel_e_alpha,
    choi_of,
    instrument_outcomes,
    is_cpptp,
    load_channel,
    werner_holevo_channel,
    werner_holevo_value,
)
from .resource import (
    PositiveMapSpec,
    builtin_map,
    free_instrument_monotonicity_check,
    r_alpha,
    r_alpha_channel,
)

__version__ = "0.1.0"
