"""Reference checks the tests hold the package against.

Nothing in `ptmoments` calls these: each recomputes a quantity the package
derives another way (a power trace by repeated multiplication, positivity by
Sylvester's criterion, the X-state minor identities by full enumeration, a
channel's action by Kronecker-padded Kraus operators), so the tests can
compare the two.  The seeded random states and the composite damping channel,
whose concurrence must die at `ebc_gamma_threshold`, are test inputs of the
same kind.
"""

from __future__ import annotations

import math

import numpy as np

from ptmoments import linalg
from ptmoments.channels import KrausChannel, ebc_gamma_threshold
from ptmoments.errors import NumericsError, ValidationError
from ptmoments.linalg import (
    HERMITIAN_ATOL,
    as_square_matrix,
    assert_hermitian,
    hermiticity_defect,
    relative_tolerance,
)
from ptmoments.minors import (
    all_principal_minors,
    principal_minor,
    three_qubit_x_minors,
    x_state_key_minors,
)
from ptmoments.ptranspose import partial_transpose
from ptmoments.states import DensityMatrix, XStateParams, _check_unit_interval, x_state


def is_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> bool:
    defect, _ = hermiticity_defect(matrix)
    return defect <= atol


def determinant(matrix) -> complex:
    """Determinant via LU; for Hermitian input the imaginary part is float noise."""
    m = as_square_matrix(matrix)
    return complex(np.linalg.det(m))


def matrix_power_trace(matrix, k: int) -> float:
    """Tr[m^k] for Hermitian m, computed from the spectrum and cross-checked
    against repeated multiplication."""
    m = assert_hermitian(matrix)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"power k must be a positive integer, got {k!r}")
    eigs = np.linalg.eigvalsh(m)
    via_spectrum = float(np.sum(eigs ** k))
    via_product = float(np.trace(np.linalg.matrix_power(m, int(k))).real)
    if abs(via_spectrum - via_product) > relative_tolerance(m.shape[0] * eigs ** k, 1e-11):
        raise NumericsError(
            f"power-trace cross-check failed for k={k}: "
            f"spectrum {via_spectrum:.15g} vs product {via_product:.15g}"
        )
    return via_spectrum


def psd_via_minors(matrix, tol: float = linalg.DEFAULT_PSD_TOL) -> bool:
    """Sylvester test: true iff every principal minor is >= -tol."""
    linalg.check_tolerance(tol)
    return all_principal_minors(matrix).min_value >= -tol


def x_state_minor_relations_check(params: XStateParams, atol: float = 1e-11) -> bool:
    """Verify the five reduction identities for an X-state's partial transpose:
    every order-3 and order-4 minor factors through the two key minors."""
    minor_14, minor_23 = x_state_key_minors(params)
    report = all_principal_minors(partial_transpose(x_state(params), 0))
    expected = {
        (1, 2, 3): params.rho11 * minor_23,
        (1, 2, 4): params.rho22 * minor_14,
        (1, 3, 4): params.rho33 * minor_14,
        (2, 3, 4): params.rho44 * minor_23,
        (1, 2, 3, 4): minor_14 * minor_23,
    }
    return all(abs(report.minors[k] - v) <= atol for k, v in expected.items())


def three_qubit_full_minor_identity_check(state: DensityMatrix, rtol: float = 1e-10) -> bool:
    """Check that the full 8x8 minor of the partial transpose equals the
    product of the four 2x2 minors."""
    minors = three_qubit_x_minors(state)
    pt = partial_transpose(state, 0)
    full = principal_minor(pt, range(1, 9))
    product = float(np.prod(minors))
    bound = max(rtol * max(abs(full), abs(product)), 1e-14)
    return bool(abs(full - product) <= bound)


def kron_apply_channel(state: DensityMatrix, channel: KrausChannel, subsystem: int) -> np.ndarray:
    """sum_i (I x K_i x I) rho (I x K_i x I)^dag, with each Kraus operator
    padded to the full space by Kronecker products with identities."""
    before = int(np.prod(state.dims[:subsystem], initial=1))
    after = int(np.prod(state.dims[subsystem + 1 :], initial=1))
    out = np.zeros_like(state.matrix)
    for op in channel.operators:
        full = np.kron(np.kron(np.eye(before), op), np.eye(after))
        out = out + full @ state.matrix @ full.conj().T
    return out


def composite_damping_kraus(omega: float, eta: float, gamma: float) -> KrausChannel:
    """Four-operator channel combining the mixture-preparation map of the
    damped-pure-state family with a subsequent amplitude damping of strength
    gamma; omega and eta are the preparation parameters.

    The operators are

        K1 = diag( sqrt((omega + gamma*eta*(1-omega)) / (omega + eta*(1-omega))),
                   sqrt(omega*(1-gamma) / (omega + gamma*eta*(1-omega))) )
        K2 = sqrt(eta*(1-gamma)*(1-omega) / (omega + eta*(1-omega)))   at (2,1)
        K3 = sqrt(gamma)                                               at (1,2)
        K4 = sqrt(eta*gamma*(1-gamma)*(1-omega) / (omega + gamma*eta*(1-omega)))
                                                                       at (2,2)

    Completeness holds algebraically for all admissible parameters and is
    re-verified at construction.  Operators that vanish identically (K3 and
    K4 at gamma = 0) are dropped.
    """
    omega = _check_unit_interval("omega", omega)
    eta = _check_unit_interval("eta", eta)
    gamma = _check_unit_interval("gamma", gamma)
    denom_prep = omega + eta * (1.0 - omega)
    denom_damped = omega + gamma * eta * (1.0 - omega)
    if denom_prep == 0.0 or denom_damped == 0.0:
        raise ValidationError(
            "degenerate denominator: omega + eta*(1-omega) and "
            "omega + gamma*eta*(1-omega) must both be nonzero "
            f"(omega={omega}, eta={eta}, gamma={gamma})"
        )
    k1 = np.diag(
        [
            np.sqrt(denom_damped / denom_prep),
            np.sqrt(omega * (1.0 - gamma) / denom_damped),
        ]
    ).astype(complex)
    k2 = np.zeros((2, 2), dtype=complex)
    k2[1, 0] = np.sqrt(eta * (1.0 - gamma) * (1.0 - omega) / denom_prep)
    k3 = np.zeros((2, 2), dtype=complex)
    k3[0, 1] = np.sqrt(gamma)
    k4 = np.zeros((2, 2), dtype=complex)
    k4[1, 1] = np.sqrt(eta * gamma * (1.0 - gamma) * (1.0 - omega) / denom_damped)
    operators = tuple(op for op in (k1, k2, k3, k4) if np.count_nonzero(op))
    return KrausChannel(operators)


def random_density_matrix(dim: int, seed, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """Full-rank random state G G^dag / Tr[G G^dag] with complex Gaussian G.

    `dims` defaults to the all-qubit factorization when dim is a power of two,
    else a single factor.  Fixed seeds give bit-identical output.
    """
    dim = int(dim)
    if not 1 <= dim <= 8:
        raise ValidationError(f"dim must lie in 1..8, got {dim}")
    if dims is None:
        dims = {2: (2,), 4: (2, 2), 8: (2, 2, 2)}.get(dim, (dim,))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, dims)


def random_x_state(seed) -> XStateParams:
    """Random X-state parameters: diagonals uniform on the simplex, coherences
    uniform on the discs allowed by the positivity conditions."""
    rng = np.random.default_rng(seed)
    d = rng.dirichlet(np.ones(4))
    rho14 = _random_in_disc(rng, np.sqrt(d[0] * d[3]))
    rho23 = _random_in_disc(rng, np.sqrt(d[1] * d[2]))
    return XStateParams(d[0], d[1], d[2], d[3], rho14, rho23)


def random_three_qubit_x_state(seed) -> DensityMatrix:
    """Random 8x8 X-state: nonzero entries on the diagonal and anti-diagonal only."""
    rng = np.random.default_rng(seed)
    d = rng.dirichlet(np.ones(8))
    m = np.diag(d.astype(complex))
    for i in range(4):
        j = 7 - i
        c = _random_in_disc(rng, np.sqrt(d[i] * d[j]))
        m[i, j] = c
        m[j, i] = np.conj(c)
    return DensityMatrix(m, (2, 2, 2))


def _random_in_disc(rng: np.random.Generator, radius: float) -> complex:
    r = radius * np.sqrt(rng.uniform())
    phase = np.exp(2j * np.pi * rng.uniform())
    return complex(r * phase)


# The exact NPT threshold of each sweepable family in its swept parameter, given the fixed
# ones.  GHZ: the smallest PT eigenvalue (5 alpha - 4)/8 vanishes at 4/5.  W: the pure state's
# smallest PT eigenvalue is -sqrt(2)/3 and the family's PT is linear in beta, so it vanishes
# at 8 sqrt(2) / (3 + 8 sqrt(2)).  Knoll: the entanglement-breaking damping strength.
NPT_THRESHOLDS = {
    "ghz-noise": lambda fixed: 4.0 / 5.0,
    "w-noise": lambda fixed: 8.0 * math.sqrt(2.0) / (3.0 + 8.0 * math.sqrt(2.0)),
    "knoll": lambda fixed: ebc_gamma_threshold(fixed["omega"], fixed["eta"]),
}


# Margins, thresholds, negativity and concurrence of one state at a time, in Python floats
# where the formulas allow: the references the stacked code must reproduce bit for bit.


def one_state_p3_ppt_margin(values) -> float:
    return values[2] - values[1] ** 2


def one_state_oppt_threshold(p2: float) -> float:
    p2 = float(p2)
    if 1.0 < p2 <= 1.0 + 1e-12:
        p2 = 1.0
    if not 0.0 < p2 <= 1.0:
        raise ValidationError(f"p_2 must lie in (0, 1], got {p2:.15g}")
    inverse = 1.0 / p2
    nearest = round(inverse)
    a = int(nearest) if abs(inverse - nearest) <= 1e-12 else int(np.floor(inverse))
    x = (a + np.sqrt(a * (p2 * (a + 1) - 1.0))) / (a * (a + 1))
    return float(a * x ** 3 + (1.0 - a * x) ** 3)


def one_state_pn_ppt(values, n: int, tol: float) -> tuple[float, float]:
    """(margin, tolerance) of the order-n Hankel criterion."""
    k = (n - 1) // 2
    eigs = np.linalg.eigvalsh(np.array([[values[i + j] for j in range(k + 1)] for i in range(k + 1)]))
    return float(eigs[0]), relative_tolerance(eigs, tol)


_SPIN_FLIP = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def one_state_concurrence(m: np.ndarray) -> float:
    eigs, vecs = np.linalg.eigh(m)
    noise = len(eigs) * np.finfo(float).eps * np.abs(eigs).max()
    sqrt_rho = (vecs * np.sqrt(np.where(eigs > noise, eigs, 0.0))) @ vecs.conj().T
    roots = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ np.conj(sqrt_rho), compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def one_state_negativity(eigs: np.ndarray, tol: float) -> float:
    negative = eigs[eigs < -relative_tolerance(eigs, tol)]
    if negative.size == 0:
        return 0.0
    return float(-negative.sum())
