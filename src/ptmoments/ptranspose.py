"""Partial transpose over a single tensor factor, and negativity."""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import ValidationError
from .states import DensityMatrix


def transpose_subsystem(matrix, dims, subsystem: int) -> np.ndarray:
    """Transpose the bra/ket indices of one factor of a matrix, or of each matrix in a
    stack (..., d, d), by pure index permutation.

    No arithmetic is performed, so the operation is exact and involutive.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValidationError(f"subsystem dimensions must be positive, got {dims}")
    n = len(dims)
    if not 0 <= subsystem < n:
        raise ValidationError(
            f"subsystem index {subsystem} out of range for {n} factors"
        )
    m = linalg.as_square_matrix(matrix, stack=True)
    d = math.prod(dims)
    if m.shape[-1] != d:
        raise ValidationError(
            f"matrix dimension {m.shape[-1]} does not match product of dims {dims}"
        )
    batch = m.shape[:-2]
    tensor = m.reshape(batch + dims + dims)
    axes = list(range(tensor.ndim))
    row, col = len(batch) + subsystem, len(batch) + n + subsystem
    axes[row], axes[col] = axes[col], axes[row]
    return np.ascontiguousarray(tensor.transpose(axes).reshape(m.shape))


def partial_transpose(state: DensityMatrix, subsystem: int) -> np.ndarray:
    """Partial transpose of a state; returned as a plain matrix since it may
    fail positive semidefiniteness."""
    return transpose_subsystem(state.matrix, state.dims, subsystem)


def negativity(state: DensityMatrix, subsystem: int, tol: float = linalg.DEFAULT_PSD_TOL) -> float:
    """Sum of |negative eigenvalues| of the partial transpose; zero iff PPT
    within tolerance."""
    eigs = linalg.hermitian_eigenvalues(partial_transpose(state, subsystem))
    return negativity_from_spectrum(eigs, tol)


def negativity_from_spectrum(eigs: np.ndarray, tol: float):
    """Summed |eigenvalues| below the relative tolerance of a partial transpose's ascending
    spectrum (d,), a float; or of each spectrum of a stack (n, d), an array (n,).

    The negative eigenvalues lead each spectrum.  The spectra with k of them are summed as
    one (m, k) block, which adds the same numbers in the same order as each spectrum alone."""
    if eigs.ndim == 1:
        return float(negativity_from_spectrum(eigs[None], tol)[0])
    counts = (eigs < -linalg.relative_tolerance(eigs, tol)[:, None]).sum(axis=-1)
    totals = np.zeros(len(eigs))
    for k in set(counts.tolist()) - {0}:
        rows = counts == k
        totals[rows] = -eigs[rows, :k].sum(axis=-1)
    return totals
