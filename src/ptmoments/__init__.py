"""Entanglement detection for small multi-qubit density matrices via
partial-transpose moments, Hankel-matrix criteria, and principal minors."""

from .channels import (
    KrausChannel,
    amplitude_damping,
    apply_channel,
    concurrence,
    ebc_gamma_threshold,
)
from .errors import NumericsError, ValidationError
from .linalg import (
    hermitian_eigenvalues,
    is_psd,
)
from .minors import (
    MinorReport,
    all_principal_minors,
    is_x_pattern,
    principal_minor,
    three_qubit_x_minors,
    x_state_key_minors,
)
from .moments import (
    CriterionVerdict,
    MomentVector,
    hankel,
    oppt_threshold,
    p3_oppt_test,
    p3_ppt_test,
    pn_ppt_test,
    pt_moments,
    tripartite_moments,
    x_state_moments_closed_form,
)
from .ptranspose import negativity, partial_transpose, transpose_subsystem
from .states import (
    DensityMatrix,
    XStateParams,
    bell_phi_plus,
    ghz_white_noise,
    knoll_state,
    w_white_noise,
    x_state,
)

__version__ = "0.1.0"

__all__ = [
    "CriterionVerdict",
    "DensityMatrix",
    "KrausChannel",
    "MinorReport",
    "MomentVector",
    "NumericsError",
    "ValidationError",
    "XStateParams",
    "all_principal_minors",
    "amplitude_damping",
    "apply_channel",
    "bell_phi_plus",
    "concurrence",
    "ebc_gamma_threshold",
    "ghz_white_noise",
    "hankel",
    "hermitian_eigenvalues",
    "is_psd",
    "is_x_pattern",
    "knoll_state",
    "negativity",
    "oppt_threshold",
    "p3_oppt_test",
    "p3_ppt_test",
    "partial_transpose",
    "pn_ppt_test",
    "principal_minor",
    "pt_moments",
    "three_qubit_x_minors",
    "transpose_subsystem",
    "tripartite_moments",
    "w_white_noise",
    "x_state",
    "x_state_key_minors",
    "x_state_moments_closed_form",
]
