"""Quantum channels and entanglement measures for the noisy-evolution analysis:
amplitude damping, Wootters concurrence, and the entanglement-breaking threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NumericsError, ValidationError
from .minors import is_x_pattern
from .states import DensityMatrix, _check_unit_interval

COMPLETENESS_ATOL = 1e-11

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    Trace preservation (sum of K_i^dag K_i equal to the identity) is enforced
    at construction within 1e-11.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(linalg.as_square_matrix(op).copy() for op in self.operators)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(op.shape[0] != dim for op in ops):
            raise ValidationError("all Kraus operators must share one dimension")
        _check_trace_preserving(ops)
        for op in ops:
            op.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def _check_trace_preserving(ops: tuple[np.ndarray, ...]) -> None:
    """Reject Kraus operators, or stacks (..., d, d) of them, one channel per stack entry,
    unless sum K^dag K equals the identity within 1e-11 for each channel."""
    total = sum(op.conj().swapaxes(-1, -2) @ op for op in ops)
    defects = np.abs(total - np.eye(ops[0].shape[-1])).max(axis=(-2, -1))
    failing = ~(defects <= COMPLETENESS_ATOL)  # a NaN defect fails too
    if failing.any():
        raise ValidationError(
            f"Kraus operators are not trace preserving: "
            f"|sum K^dag K - I| = {defects.flat[failing.argmax()]:.3e}"
        )


def _amplitude_damping_operators(gamma) -> tuple[np.ndarray, np.ndarray]:
    """K0 and K1 of amplitude damping, each (2, 2), or stacks (n, 2, 2) for an array of gammas."""
    gamma = _check_unit_interval("gamma", gamma)
    k0 = np.zeros(np.shape(gamma) + (2, 2), dtype=complex)
    k1 = np.zeros_like(k0)
    k0[..., 0, 0] = 1.0
    k0[..., 1, 1] = np.sqrt(1.0 - gamma)
    k1[..., 0, 1] = np.sqrt(gamma)
    return k0, k1


def amplitude_damping(gamma: float) -> KrausChannel:
    """Single-qubit amplitude damping: |1> decays to |0> with probability gamma.

    Kraus operators:

        K0 = [[1, 0], [0, sqrt(1-gamma)]]
        K1 = [[0, sqrt(gamma)], [0, 0]]
    """
    return KrausChannel(_amplitude_damping_operators(gamma))


def _kraus_sum(matrix: np.ndarray, dims: tuple[int, ...], operators, subsystem: int) -> np.ndarray:
    """sum_i (I x K_i x I) rho (...)^dag of the matrix rho (dim, dim) with factors `dims`,
    unvalidated, for Kraus operators (d, d) or stacks (n, d, d) of them, giving (dim, dim) or
    one output per stack entry, (n, dim, dim)."""
    if not 0 <= subsystem < len(dims):
        raise ValidationError(
            f"subsystem index {subsystem} out of range for {len(dims)} factors"
        )
    d = operators[0].shape[-1]
    if d != dims[subsystem]:
        raise ValidationError(
            f"channel dimension {d} does not match factor dimension "
            f"{dims[subsystem]}"
        )
    # Row and column indices split as (before, d, after) around the factor: K acts on the
    # middle axis of the rows, then conj(K) on the middle axis of the columns.
    dim = matrix.shape[-1]
    before = math.prod(dims[:subsystem])
    after = dim // (before * d)
    batch = operators[0].shape[:-2]
    out = np.zeros(batch + (dim, dim), dtype=complex)
    for op in operators:
        op = op[..., None, :, :]
        left = op @ matrix.reshape(before, d, after * dim)
        out = out + (op.conj() @ left.reshape(*batch, dim * before, d, after)).reshape(out.shape)
    return out


def apply_channel(state: DensityMatrix, channel: KrausChannel, subsystem: int) -> DensityMatrix:
    """Apply a channel to one tensor factor: sum_i (I x K_i x I) rho (...)^dag."""
    return DensityMatrix(_kraus_sum(state.matrix, state.dims, channel.operators, subsystem), state.dims)


def amplitude_damped_matrices(matrix: np.ndarray, dims: tuple[int, ...], gammas, subsystem: int) -> np.ndarray:
    """Unvalidated `matrix`, with factors `dims`, after amplitude damping of one factor:
    (dim, dim) for a float gamma, or a stack (n, dim, dim) for an array of n gammas,
    `apply_channel`'s arithmetic on a stack of Kraus pairs."""
    operators = _amplitude_damping_operators(gammas)
    _check_trace_preserving(operators)
    return _kraus_sum(matrix, dims, operators, subsystem)


def _x_closed_form_concurrence(m: np.ndarray) -> np.ndarray:
    """2*max(0, |rho14| - sqrt(rho22*rho33), |rho23| - sqrt(rho11*rho44)) of each matrix (n, 4, 4)."""
    first = np.abs(m[..., 0, 3]) - np.sqrt(np.maximum(m[..., 1, 1].real * m[..., 2, 2].real, 0.0))
    second = np.abs(m[..., 1, 2]) - np.sqrt(np.maximum(m[..., 0, 0].real * m[..., 3, 3].real, 0.0))
    return 2.0 * np.maximum(np.maximum(first, second), 0.0)


def concurrence(state: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    Computed from the spin-flipped spectrum: with rho~ = (Y x Y) rho* (Y x Y),
    the concurrence is max(0, l1 - l2 - l3 - l4) where l_i are the square roots
    of the eigenvalues of rho rho~ in decreasing order.  Those roots equal the
    singular values of sqrt(rho) (Y x Y) conj(sqrt(rho)), which is how they are
    evaluated; the SVD keeps the near-zero roots accurate where a non-symmetric
    eigensolver on rho rho~ loses half the digits.  For X-patterned input the
    closed form 2*max(0, |rho14| - sqrt(rho22*rho33), |rho23| -
    sqrt(rho11*rho44)) is evaluated as well and must agree within 1e-10.
    """
    if state.dims != (2, 2):
        raise ValidationError(f"concurrence needs a two-qubit state, got dims {state.dims}")
    return float(matrix_concurrence(state.matrix[None])[0])


def matrix_concurrence(m: np.ndarray) -> np.ndarray:
    """`concurrence` of each matrix of a stack (n, 4, 4) that passed the `DensityMatrix`
    invariant, shape (n,); the first X-patterned matrix that fails the cross-check raises what it
    raises alone.

    Eigenvalues of rho at or below the eigensolver's noise floor, 4 * eps * max |eig|, count
    as zero: the square root would lift a 1e-16 residue of a rank-deficient state to 1e-8."""
    eigs, vecs = np.linalg.eigh(m)
    noise = eigs.shape[-1] * np.finfo(float).eps * np.abs(eigs).max(axis=-1, keepdims=True)
    roots_rho = np.sqrt(np.where(eigs > noise, eigs, 0.0))
    sqrt_rho = (vecs * roots_rho[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    roots = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ np.conj(sqrt_rho), compute_uv=False)
    spin_flip = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    values = np.where(spin_flip > 0.0, spin_flip, 0.0)  # max(0.0, x), which keeps 0.0 for x = -0.0
    x_form = is_x_pattern(m)
    if not x_form.any():
        return values
    closed = _x_closed_form_concurrence(m)
    failing = x_form & ~(np.abs(values - closed) <= 1e-10)
    if failing.any():
        k = failing.argmax()
        raise NumericsError(
            f"concurrence cross-check failed: spin-flip {values[k]:.15g} vs "
            f"X closed form {closed[k]:.15g}"
        )
    return values


def ebc_gamma_threshold(omega: float, eta: float) -> float:
    """Damping strength above which the evolved mixture family becomes
    separable (entanglement breaking), clamped to [0, 1].

    threshold = omega*(eta + omega*(1-eta)) /
                (eta^2*(1-omega)^2 + omega*(1-omega)*eta)
    """
    omega = float(omega)
    eta = float(eta)
    for name, value in (("omega", omega), ("eta", eta)):
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must lie in (0, 1), got {value}")
    denominator = eta ** 2 * (1.0 - omega) ** 2 + omega * (1.0 - omega) * eta
    if denominator == 0.0:
        raise ValidationError(
            f"threshold denominator vanishes at omega={omega}, eta={eta}"
        )
    value = omega * (eta + omega * (1.0 - eta)) / denominator
    return min(1.0, max(0.0, value))
