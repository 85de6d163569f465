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


def as_square_matrix(matrix) -> np.ndarray:
    """Coerce to a square complex ndarray."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(matrix) -> tuple[float, tuple[int, int]]:
    """Largest |m[i,j] - conj(m[j,i])| and the (i, j) achieving it."""
    m = as_square_matrix(matrix)
    dev = np.abs(m - m.conj().T)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return float(dev[i, j]), (int(i), int(j))


def assert_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Return the matrix, or raise naming the worst-violating entry pair.

    A NaN defect passes, as it compares false; `hermitian_eigenvalues` rejects it."""
    m = as_square_matrix(matrix)
    if np.abs(m - m.conj().T).max() <= atol:
        return m
    defect, (i, j) = hermiticity_defect(m)
    if defect > atol:
        raise ValidationError(
            f"matrix is not Hermitian: |m[{i},{j}] - conj(m[{j},{i}])| = "
            f"{defect:.3e} exceeds {atol:.1e}"
        )
    return m


def check_finite(m: np.ndarray) -> None:
    """Reject a matrix with a NaN or infinite entry, naming the first one in row-major order."""
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValidationError(f"matrix entry m[{i},{j}] = {m[i, j]} is not finite")


def check_tolerance(tol: float) -> None:
    """Reject a negative, NaN or infinite tolerance, which no decision can use."""
    if not 0.0 <= tol < float("inf"):
        raise ValidationError(f"tolerance must be finite and non-negative, got {tol}")


def relative_tolerance(eigs, tol: float) -> float:
    """`tol` scaled by max(1, max |eig|), the rule of every positivity decision.

    The order-3 moment criteria use `tol` as is, which is the same: a partial transpose has unit
    trace and Tr[(rho^T)^2] = Tr[rho^2] <= 1, so |p_k| <= 1 for k >= 2 and max(1, |p|) is 1.
    """
    check_tolerance(tol)
    return tol * max(1.0, float(np.abs(eigs).max()))


def spectrum_is_psd(eigs: np.ndarray, tol: float) -> bool:
    """True iff the smallest of the ascending `eigs` is >= -tol * max(1, max |eig|)."""
    return bool(eigs[0] >= -relative_tolerance(eigs, tol))


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    `eigvalsh` reads one triangle only, so a non-finite entry in the other would go unseen;
    every entry must be finite."""
    m = assert_hermitian(matrix)
    check_finite(m)
    eigs = np.linalg.eigvalsh(m)
    trace = float(m.trace().real)
    if abs(float(eigs.sum()) - trace) > 1e-10 * max(1.0, abs(trace)):
        raise NumericsError(
            f"eigenvalue sum {eigs.sum():.15g} disagrees with trace {trace:.15g}"
        )
    return eigs


def is_psd(matrix, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol * max(1, spectral radius)."""
    return spectrum_is_psd(hermitian_eigenvalues(matrix), tol)
