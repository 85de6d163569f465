"""Dense complex linear algebra for small Hermitian matrices (dim <= 8 in practice).

Everything here is the ground-truth engine the closed-form identities are
checked against, so each operation carries its own internal consistency
assertions.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError, ValidationError

# Hermiticity of inputs is exact up to float noise; positivity decisions use a
# relative tolerance scaled by the spectral radius.
HERMITIAN_ATOL = 1e-12
DEFAULT_PSD_TOL = 1e-10


def as_square_matrix(matrix, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex ndarray, or with `stack` to a stack (..., d, d) of them."""
    m = np.asarray(matrix, dtype=complex)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(matrix) -> tuple[float, tuple[int, int]]:
    """Largest |m[i,j] - conj(m[j,i])| and the (i, j) achieving it."""
    m = as_square_matrix(matrix)
    dev = np.abs(m - m.conj().T)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return float(dev[i, j]), (int(i), int(j))


def assert_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Return the matrix or stack (..., d, d), or raise naming the worst-violating entry
    pair of the first matrix that fails.

    A NaN defect passes, as it compares false, on purpose: every caller checks finiteness right
    after it, `hermitian_eigenvalues` of the entries and the minor functions of the minors."""
    m = as_square_matrix(matrix, stack=True)
    dev = np.abs(m - m.conj().swapaxes(-1, -2))
    if dev.max() <= atol:
        return m
    failing = dev.reshape(-1, *dev.shape[-2:]).max(axis=(-2, -1)) > atol
    if failing.any():
        defect, (i, j) = hermiticity_defect(m.reshape(failing.shape + m.shape[-2:])[failing.argmax()])
        raise ValidationError(
            f"matrix is not Hermitian: |m[{i},{j}] - conj(m[{j},{i}])| = "
            f"{defect:.3e} exceeds {atol:.1e}"
        )
    return m


def check_finite(m: np.ndarray) -> None:
    """Reject a matrix or stack with a NaN or infinite entry, naming the first one of the
    first failing matrix in row-major order."""
    if not np.isfinite(m).all():
        *k, i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValidationError(f"matrix entry m[{i},{j}] = {m[(*k, i, j)]} is not finite")


def check_tolerance(tol: float) -> None:
    """Reject a negative, NaN or infinite tolerance, which no decision can use."""
    if not 0.0 <= tol < float("inf"):
        raise ValidationError(f"tolerance must be finite and non-negative, got {tol}")


def relative_tolerance(eigs: np.ndarray, tol: float) -> np.ndarray:
    """`tol` scaled by max(1, max |eig|) for each spectrum of a stack (..., d), shape (...): the
    one scale of every positivity decision and of the eigenvalue-sum check.  The order-3 moment
    criteria use `tol` as is, which is the same: a partial transpose has unit trace and
    Tr[(rho^T)^2] = Tr[rho^2] <= 1, so |p_k| <= 1 for k >= 2 and max(1, |p|) is 1."""
    check_tolerance(tol)
    return tol * np.maximum(1.0, np.abs(eigs).max(axis=-1))


def spectrum_is_psd(eigs: np.ndarray, tol: float) -> np.ndarray:
    """The one PSD rule: whether each ascending spectrum of a stack (..., d) has its smallest
    eigenvalue >= -relative_tolerance(eigs, tol), shape (...)."""
    return eigs[..., 0] >= -relative_tolerance(eigs, tol)


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; of a stack (..., d, d), shape (..., d).

    `eigvalsh` reads one triangle only, so a non-finite entry in the other would go unseen;
    every entry must be finite.  Each matrix's eigenvalue sum must match its trace within
    `relative_tolerance(eigs, 1e-10)`: `eigvalsh` is backward stable, so each eigenvalue is off
    by at most about d * eps * max |eig|, and the sum of d of them by d^2 * eps * max |eig|,
    under 1.5e-14 * max |eig| for d <= 8.  Both sums are taken over values divided by that scale,
    `relative_tolerance(eigs, 1.0)`, which leaves the bound 1e-10 and keeps a huge matrix's sums
    from overflowing; the divisor is 1 for every state and partial transpose.
    An eigenvalue past the float range of these finite entries is invalid input, and a NaN
    eigenvalue fails the sum check."""
    m = assert_hermitian(matrix)
    check_finite(m)
    eigs = np.linalg.eigvalsh(m)
    if np.isinf(eigs).any():
        raise ValidationError(f"matrix has an eigenvalue past the float range: {eigs[np.isinf(eigs)][0]}")
    scale = relative_tolerance(eigs, 1.0)[..., None]
    sums = (eigs / scale).sum(-1)
    traces = (m.diagonal(0, -2, -1).real / scale).sum(-1)
    agree = np.abs(sums - traces) <= 1e-10
    if not agree.all():
        k = agree.argmin()
        c = float(scale.flat[k])  # Python floats: a product past the float range is inf, no warning
        raise NumericsError(
            f"eigenvalue sum {float(sums.flat[k]) * c:.15g} disagrees with trace {float(traces.flat[k]) * c:.15g}"
        )
    return eigs


def is_psd(matrix, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol * max(1, spectral radius)."""
    return bool(spectrum_is_psd(hermitian_eigenvalues(matrix), tol))
