"""Constructors and validators for the density-matrix families under study.

Basis convention: product basis |i_1 ... i_n> is flattened row-major, so for
two qubits |i_A i_B> sits at index 2*i_A + i_B and for three qubits at
4*i_A + 2*i_B + i_C.  One-based labels 1..4 (1..8) used elsewhere for
principal minors are these indices plus one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ValidationError

TRACE_ATOL = 1e-12


def density_matrix_spectra(matrices: np.ndarray) -> np.ndarray:
    """The density-matrix invariant over a stack (n, d, d), checked on each matrix alone: finite
    entries, a finite unit trace (1e-12), Hermiticity (1e-12), an eigenvalue sum matching the
    trace, and positive semidefiniteness (relative 1e-10).  Returns the ascending spectra, shape
    (n, d); the first failing matrix raises what it would raise alone."""
    linalg.check_finite(matrices)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range fails below
        traces = matrices.trace(0, -2, -1)
    unit = np.abs(traces - 1.0) <= TRACE_ATOL  # false for a NaN or infinite trace
    if not unit.all():
        raise ValidationError(f"trace must be 1, got {complex(traces[unit.argmin()]):.15g}")
    eigs = linalg.hermitian_eigenvalues(matrices)
    psd = linalg.spectrum_is_psd(eigs, linalg.DEFAULT_PSD_TOL)
    if not psd.all():
        raise ValidationError(
            f"matrix is not positive semidefinite: min eigenvalue {eigs[psd.argmin(), 0]:.3e}"
        )
    return eigs


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix with its tensor-factor dimensions.

    Invariants enforced at construction: those of `density_matrix_spectra`, and the product of
    `dims` matching the matrix dimension.  The ascending spectrum that validation computes is
    kept as `spectrum`.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = linalg.as_square_matrix(self.matrix).copy()
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValidationError(f"subsystem dimensions must be positive, got {dims}")
        if math.prod(dims) != m.shape[0]:
            raise ValidationError(
                f"product of dims {dims} does not match matrix dimension {m.shape[0]}"
            )
        spectrum = density_matrix_spectra(m[None])[0]
        for array in (m, spectrum):
            array.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_factors(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class XStateParams:
    """Parameters of a two-qubit X-state: four diagonals and two coherences.

    Nonzero entries sit on the diagonal and the anti-diagonal only; validity
    requires unit trace and the two positivity conditions
    rho22*rho33 >= |rho23|^2 and rho11*rho44 >= |rho14|^2.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex = 0.0
    rho23: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho14", complex(self.rho14))
        object.__setattr__(self, "rho23", complex(self.rho23))
        # Each test is written so that NaN fails it.
        for name in ("rho11", "rho22", "rho33", "rho44"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not value >= -TRACE_ATOL:
                raise ValidationError(f"diagonal {name} must be non-negative, got {value}")
        total = sum(self.diagonals)
        if not abs(total - 1.0) <= TRACE_ATOL:
            raise ValidationError(
                f"unit trace violated: rho11+rho22+rho33+rho44 = {total:.15g}"
            )
        for product, coherence, condition in (
            (self.rho22 * self.rho33, self.rho23, "rho22*rho33 >= |rho23|^2"),
            (self.rho11 * self.rho44, self.rho14, "rho11*rho44 >= |rho14|^2"),
        ):
            # hypot and a product overflow to inf, where abs() and ** raise OverflowError
            modulus = math.hypot(coherence.real, coherence.imag)
            square = modulus * modulus
            if not product + TRACE_ATOL >= square:
                raise ValidationError(
                    f"positivity violated: {condition} fails ({product:.6g} < {square:.6g})"
                )

    @property
    def diagonals(self) -> tuple[float, float, float, float]:
        return (self.rho11, self.rho22, self.rho33, self.rho44)


def _check_unit_interval(name: str, value):
    """`value` as a float, or an array of values as a float array, once each lies in [0, 1]."""
    values = np.asarray(value, dtype=float)
    outside = ~((0.0 <= values) & (values <= 1.0))
    if outside.any():
        raise ValidationError(f"{name} must lie in [0, 1], got {float(values[outside][0])}")
    return values if values.ndim else float(values)


def bell_phi_plus_matrix() -> np.ndarray:
    """Unvalidated matrix of bell_phi_plus()."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


def bell_phi_plus() -> DensityMatrix:
    """Projector onto (|00> + |11>)/sqrt(2)."""
    return DensityMatrix(bell_phi_plus_matrix(), (2, 2))


def x_state_matrix(params: XStateParams) -> np.ndarray:
    """Unvalidated 4x4 matrix of x_state(params), with the X sparsity pattern."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = params.diagonals
    m[0, 3] = params.rho14
    m[3, 0] = np.conj(params.rho14)
    m[1, 2] = params.rho23
    m[2, 1] = np.conj(params.rho23)
    return m


def x_state(params: XStateParams) -> DensityMatrix:
    """The 4x4 density matrix with the X sparsity pattern: x_state_matrix(params), validated."""
    return DensityMatrix(x_state_matrix(params), (2, 2))


def _white_noise_mixtures(name: str, ket: np.ndarray, values) -> np.ndarray:
    """Unvalidated v*I/8 + (1-v)|ket><ket|: (8, 8) for a float v, or a stack (n, 8, 8) for an
    array of n values, one matrix per value."""
    v = np.asarray(_check_unit_interval(name, values))[..., None, None]
    return v * np.eye(8, dtype=complex) / 8.0 + (1.0 - v) * np.outer(ket, ket.conj())


def _ket(amplitude: float, *indices: int) -> np.ndarray:
    ket = np.zeros(8, dtype=complex)
    ket[list(indices)] = amplitude
    return ket


_GHZ = _ket(1.0 / np.sqrt(2.0), 0, 7)
_W = _ket(1.0 / np.sqrt(3.0), 1, 2, 4)


def ghz_noise_matrices(alpha) -> np.ndarray:
    """Unvalidated matrix of ghz_white_noise(alpha), or stack (n, 8, 8) for an array of alphas."""
    return _white_noise_mixtures("alpha", _GHZ, alpha)


def w_noise_matrices(beta) -> np.ndarray:
    """Unvalidated matrix of w_white_noise(beta), or stack (n, 8, 8) for an array of betas."""
    return _white_noise_mixtures("beta", _W, beta)


def ghz_white_noise(alpha: float) -> DensityMatrix:
    """Mixture alpha*I/8 + (1-alpha) |GHZ><GHZ| with |GHZ> = (|000>+|111>)/sqrt(2)."""
    return DensityMatrix(ghz_noise_matrices(alpha), (2, 2, 2))


def w_white_noise(beta: float) -> DensityMatrix:
    """Mixture beta*I/8 + (1-beta) |W><W| with |W> = (|001>+|010>+|100>)/sqrt(3)."""
    return DensityMatrix(w_noise_matrices(beta), (2, 2, 2))


def knoll_matrix(omega: float, eta: float) -> np.ndarray:
    """Unvalidated matrix of knoll_state(omega, eta), once omega, eta and the X-state
    parameters they give are checked."""
    omega = _check_unit_interval("omega", omega)
    eta = _check_unit_interval("eta", eta)
    return x_state_matrix(XStateParams(
        rho11=omega, rho22=eta * (1.0 - omega), rho33=0.0, rho44=(1.0 - omega) * (1.0 - eta),
        rho14=np.sqrt(omega * (1.0 - omega) * (1.0 - eta)),
    ))


def knoll_state(omega: float, eta: float) -> DensityMatrix:
    """Two-qubit X-state from amplitude-damping the first qubit of
    sqrt(omega)|00> + sqrt(1-omega)|11> with damping parameter eta: knoll_matrix(omega, eta),
    validated.

    Equivalently the mixture (1-a)|b><b| + a|01><01| with a = eta*(1-omega)
    and |b> = sqrt(omega/(1-a))|00> + sqrt(1 - omega/(1-a))|11>.
    """
    return DensityMatrix(knoll_matrix(omega, eta), (2, 2))
