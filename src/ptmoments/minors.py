"""Principal minors: enumeration, Sylvester positivity, and the X-state reductions.

Index sets use one-based row/column labels externally (1..4 for two qubits,
1..8 for three); internally they are zero-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .errors import NumericsError, ValidationError
from .ptranspose import partial_transpose
from .states import DensityMatrix, XStateParams, x_state

# Full enumeration of 2^dim - 1 minors is capped here; beyond it the cost is
# exponential and nothing in scope needs it.
MAX_ENUMERATION_DIM = 8

X_PATTERN_ATOL = 1e-12

# Principal minors of a Hermitian matrix are real; a larger imaginary part
# means the determinant itself went wrong.
IMAG_ATOL = 1e-10


@dataclass(frozen=True)
class MinorReport:
    """All principal minors of a Hermitian matrix, keyed by one-based labels."""

    minors: dict[tuple[int, ...], float]
    min_value: float
    min_index_set: tuple[int, ...]


def _normalize_index_set(labels, dim: int) -> tuple[int, ...]:
    try:
        idx = tuple(sorted(int(i) for i in labels))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"index set {labels!r} is not a collection of integers") from exc
    if not idx:
        raise ValidationError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValidationError(f"index set {idx} contains duplicates")
    if idx[0] < 1 or idx[-1] > dim:
        raise ValidationError(f"index set {idx} out of range 1..{dim}")
    return idx


@lru_cache(maxsize=MAX_ENUMERATION_DIM)
def _index_sets(dim: int) -> tuple[tuple[np.ndarray, ...], tuple[tuple[int, ...], ...]]:
    """Zero-based index arrays, one of shape (count, size) per subset size
    1..dim with rows in lexicographic order, and the one-based labels of all
    their rows, size-major."""
    arrays, labels = [], []
    for size in range(1, dim + 1):
        combos = list(combinations(range(dim), size))
        idx = np.array(combos, dtype=np.intp)
        idx.flags.writeable = False
        arrays.append(idx)
        labels.extend(tuple(i + 1 for i in c) for c in combos)
    return tuple(arrays), tuple(labels)


def _real_minors(dets: np.ndarray, labels) -> np.ndarray:
    """Real parts of a stack of principal minors, labelled one-based.

    Principal sub-matrices of Hermitian matrices are Hermitian, so any
    imaginary residue is float noise; a non-finite minor means the input
    was garbage and no verdict may be drawn from it.
    """
    finite = np.isfinite(dets)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NumericsError(f"principal minor {labels[first]} is not finite: {dets[first]}")
    imag = dets.imag
    worst = int(np.argmax(np.abs(imag)))
    if abs(imag[worst]) > IMAG_ATOL:
        raise NumericsError(
            f"principal minor {labels[worst]} has non-negligible imaginary part "
            f"{imag[worst]:.3e}"
        )
    return dets.real


def _principal_dets(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Determinants of matrix restricted to each row of the (count, size)
    zero-based index array idx, as one batched determinant."""
    return np.linalg.det(matrix[idx[:, :, None], idx[:, None, :]])


def principal_minor(matrix, labels) -> float:
    """Determinant of the sub-matrix keeping the given one-based rows/columns."""
    m = linalg.assert_hermitian(matrix)
    labels = _normalize_index_set(labels, m.shape[0])
    idx = np.array([labels], dtype=np.intp) - 1
    return float(_real_minors(_principal_dets(m, idx), (labels,))[0])


def all_principal_minors(matrix) -> MinorReport:
    """All 2^dim - 1 principal minors, plus the minimum and where it occurs.

    Minors are keyed size-major, lexicographically within a size; ties for
    the minimum go to the first such key.
    """
    m = linalg.assert_hermitian(matrix)
    dim = m.shape[0]
    if dim > MAX_ENUMERATION_DIM:
        raise ValidationError(
            f"full minor enumeration is limited to dim <= {MAX_ENUMERATION_DIM}, got {dim}"
        )
    arrays, labels = _index_sets(dim)
    dets = np.concatenate([_principal_dets(m, idx) for idx in arrays])
    values = _real_minors(dets, labels)
    arg = int(np.argmin(values))
    return MinorReport(
        minors=dict(zip(labels, values.tolist())),
        min_value=float(values[arg]),
        min_index_set=labels[arg],
    )


def psd_via_minors(matrix, tol: float = linalg.DEFAULT_PSD_TOL) -> bool:
    """Sylvester test: true iff every principal minor is >= -tol."""
    if tol < 0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    return all_principal_minors(matrix).min_value >= -tol


def _off_x_mask(dim: int) -> np.ndarray:
    """True off the diagonal and anti-diagonal of a dim x dim matrix."""
    mask = np.ones((dim, dim), dtype=bool)
    np.fill_diagonal(mask, False)
    np.fill_diagonal(np.fliplr(mask), False)
    return mask


def is_x_pattern(matrix, atol: float = X_PATTERN_ATOL) -> bool:
    """True iff nonzero entries sit only on the diagonal and anti-diagonal."""
    m = linalg.as_square_matrix(matrix)
    return bool(np.max(np.abs(m[_off_x_mask(m.shape[0])]), initial=0.0) <= atol)


def x_state_key_minors(params: XStateParams) -> tuple[float, float]:
    """The two minors of the partially transposed X-state that decide entanglement.

    minor_14 = rho11*rho44 - |rho23|^2 and minor_23 = rho22*rho33 - |rho14|^2;
    the X-state is entangled iff either is negative.
    """
    minor_14 = params.rho11 * params.rho44 - abs(params.rho23) ** 2
    minor_23 = params.rho22 * params.rho33 - abs(params.rho14) ** 2
    return (minor_14, minor_23)


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


def _require_three_qubit_x(state: DensityMatrix) -> None:
    if state.dims != (2, 2, 2):
        raise ValidationError(f"expected a three-qubit state, got dims {state.dims}")
    m = state.matrix
    off = _off_x_mask(8) & (np.abs(m) > X_PATTERN_ATOL)
    if off.any():
        i, j = np.argwhere(off)[0]
        raise ValidationError(
            f"state is not in three-qubit X form: entry ({i + 1},{j + 1}) "
            f"= {m[i, j]:.3e} is off the diagonal/anti-diagonal"
        )


_X_PAIR_LABELS = ((1, 8), (2, 7), (3, 6), (4, 5))
_X_PAIRS = np.array(_X_PAIR_LABELS, dtype=np.intp) - 1
_X_PAIRS.flags.writeable = False


def three_qubit_x_minors(state: DensityMatrix) -> tuple[float, float, float, float]:
    """The four 2x2 minors of the partial transpose of a three-qubit X-state
    that can go negative: index pairs {1,8}, {2,7}, {3,6}, {4,5}."""
    _require_three_qubit_x(state)
    pt = linalg.assert_hermitian(partial_transpose(state, 0))
    return tuple(_real_minors(_principal_dets(pt, _X_PAIRS), _X_PAIR_LABELS).tolist())


def three_qubit_full_minor_identity_check(state: DensityMatrix, rtol: float = 1e-10) -> bool:
    """Check that the full 8x8 minor of the partial transpose equals the
    product of the four 2x2 minors."""
    minors = three_qubit_x_minors(state)
    pt = partial_transpose(state, 0)
    full = principal_minor(pt, range(1, 9))
    product = float(np.prod(minors))
    bound = max(rtol * max(abs(full), abs(product)), 1e-14)
    return bool(abs(full - product) <= bound)
