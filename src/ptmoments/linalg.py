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

    A NaN defect passes, as it compares false; `hermitian_eigenvalues` rejects it."""
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


def relative_tolerance(eigs, tol: float):
    """`tol` scaled by max(1, max |eig|), the rule of every positivity decision: a float, or for
    a stack (..., d) of spectra an array of one tolerance per spectrum.

    The order-3 moment criteria use `tol` as is, which is the same: a partial transpose has unit
    trace and Tr[(rho^T)^2] = Tr[rho^2] <= 1, so |p_k| <= 1 for k >= 2 and max(1, |p|) is 1.
    """
    check_tolerance(tol)
    scale = np.abs(eigs).max(axis=-1)
    return tol * (np.maximum(1.0, scale) if scale.ndim else max(1.0, float(scale)))


def spectrum_is_psd(eigs: np.ndarray, tol: float) -> bool:
    """True iff the smallest of the ascending `eigs` is >= -tol * max(1, max |eig|)."""
    return bool(eigs[0] >= -relative_tolerance(eigs, tol))


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; of a stack (..., d, d), shape (..., d).

    `eigvalsh` reads one triangle only, so a non-finite entry in the other would go unseen;
    every entry must be finite.  Each matrix's eigenvalue sum must match its trace within
    `relative_tolerance(eigs, 1e-10)`: `eigvalsh` is backward stable, so each eigenvalue is off
    by at most about d * eps * max |eig|, and the sum of d of them by d^2 * eps * max |eig|,
    under 1.5e-14 * max |eig| for d <= 8."""
    m = assert_hermitian(matrix)
    check_finite(m)
    eigs = np.linalg.eigvalsh(m)
    sums, traces = eigs.sum(-1), m.trace(0, -2, -1).real
    residuals = np.abs(sums - traces)
    if residuals.max() <= 1e-10:  # within every bound, as each is at least 1e-10
        return eigs
    failing = residuals > relative_tolerance(eigs, 1e-10)
    if failing.any():
        k = failing.argmax()
        raise NumericsError(
            f"eigenvalue sum {sums.flat[k]:.15g} disagrees with trace {traces.flat[k]:.15g}"
        )
    return eigs


def is_psd(matrix, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol * max(1, spectral radius)."""
    return spectrum_is_psd(hermitian_eigenvalues(matrix), tol)
