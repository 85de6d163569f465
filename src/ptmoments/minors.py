"""Principal minors: enumeration, and the key minors that decide X-states.

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
from .states import DensityMatrix, XStateParams

# Full enumeration of 2^dim - 1 minors is capped here; beyond it the cost is
# exponential and nothing in scope needs it.
MAX_ENUMERATION_DIM = 8

X_PATTERN_ATOL = 1e-12

# Matrices whose minors `min_principal_minors` gathers at once.  The 56 5x5 sub-matrices of
# an 8x8 matrix take 22 kB, so a block takes 0.7 MB where a 10001-point grid would take 224 MB.
MINOR_BLOCK = 32

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
    """`_gather` arrays, one per subset size 1..dim with rows in lexicographic
    order, and the one-based labels of all their rows, size-major."""
    arrays, labels = [], []
    for size in range(1, dim + 1):
        combos = list(combinations(range(dim), size))
        idx = _gather(np.array(combos, dtype=np.intp), dim)
        idx.flags.writeable = False
        arrays.append(idx)
        labels.extend(tuple(i + 1 for i in c) for c in combos)
    return tuple(arrays), tuple(labels)


def _gather(idx: np.ndarray, dim: int) -> np.ndarray:
    """For a (count, size) zero-based index array, the (count, size, size) positions in a
    flattened dim x dim matrix of the principal sub-matrix that each row keeps."""
    return idx[:, :, None] * dim + idx[:, None, :]


def _real_minors(dets: np.ndarray, labels) -> np.ndarray:
    """Real parts of principal minors (n, count), one row per matrix, labelled one-based.

    Principal sub-matrices of Hermitian matrices are Hermitian, so any
    imaginary residue is float noise; a non-finite minor means the input
    was garbage and no verdict may be drawn from it.  The first failing row
    raises what it would raise alone.
    """
    finite = np.isfinite(dets)
    if not finite.all():
        row, first = np.argwhere(~finite)[0]
        raise NumericsError(f"principal minor {labels[first]} is not finite: {dets[row, first]}")
    imag = np.abs(dets.imag)
    if imag.max() > IMAG_ATOL:
        row = (imag.max(axis=1) > IMAG_ATOL).argmax()
        worst = int(imag[row].argmax())
        raise NumericsError(
            f"principal minor {labels[worst]} has non-negligible imaginary part "
            f"{dets.imag[row, worst]:.3e}"
        )
    return dets.real


def _principal_dets(matrices: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Determinants of the principal sub-matrices at the `_gather` positions `gather`
    (count, size, size) of each matrix of a stack (n, d, d), as one batched determinant
    (n, count)."""
    return np.linalg.det(np.take(matrices.reshape(len(matrices), -1), gather, axis=1))


def principal_minor(matrix, labels) -> float:
    """Determinant of the sub-matrix keeping the given one-based rows/columns."""
    m = linalg.assert_hermitian(linalg.as_square_matrix(matrix))
    labels = _normalize_index_set(labels, m.shape[0])
    gather = _gather(np.array([labels], dtype=np.intp) - 1, m.shape[0])
    return float(_real_minors(_principal_dets(m[None], gather), (labels,))[0, 0])


def _enumerable(matrices) -> np.ndarray:
    """A Hermitian stack (n, d, d) whose 2^d - 1 principal minors may be enumerated."""
    m = linalg.assert_hermitian(matrices)
    if m.shape[-1] > MAX_ENUMERATION_DIM:
        raise ValidationError(
            f"full minor enumeration is limited to dim <= {MAX_ENUMERATION_DIM}, got {m.shape[-1]}"
        )
    return m


def _all_minor_values(matrices: np.ndarray) -> np.ndarray:
    """All principal minors of each matrix of a stack (n, d, d), shape (n, 2^d - 1), in the
    order of `_index_sets`; one batched determinant per subset size."""
    arrays, labels = _index_sets(matrices.shape[-1])
    dets = np.concatenate([_principal_dets(matrices, gather) for gather in arrays], axis=1)
    return _real_minors(dets, labels)


def all_principal_minors(matrix) -> MinorReport:
    """All 2^dim - 1 principal minors, plus the minimum and where it occurs.

    Minors are keyed size-major, lexicographically within a size; ties for
    the minimum go to the first such key.
    """
    m = _enumerable(linalg.as_square_matrix(matrix))
    values = _all_minor_values(m[None])[0]
    labels = _index_sets(m.shape[0])[1]
    arg = int(np.argmin(values))
    return MinorReport(
        minors=dict(zip(labels, values.tolist())),
        min_value=float(values[arg]),
        min_index_set=labels[arg],
    )


def min_principal_minors(matrices) -> np.ndarray:
    """The smallest principal minor of each matrix of a Hermitian stack (n, d, d), shape (n,);
    the minors are gathered MINOR_BLOCK matrices at a time, which bounds the memory they take."""
    m = _enumerable(matrices)
    blocks = range(0, m.shape[0], MINOR_BLOCK)
    return np.concatenate([_all_minor_values(m[i:i + MINOR_BLOCK]).min(axis=1) for i in blocks])


@lru_cache(maxsize=MAX_ENUMERATION_DIM)
def _off_x_mask(dim: int) -> np.ndarray:
    """True off the diagonal and anti-diagonal of a dim x dim matrix."""
    mask = np.ones((dim, dim), dtype=bool)
    np.fill_diagonal(mask, False)
    np.fill_diagonal(np.fliplr(mask), False)
    mask.flags.writeable = False
    return mask


def is_x_pattern(matrix, atol: float = X_PATTERN_ATOL):
    """True iff nonzero entries sit only on the diagonal and anti-diagonal; for a stack
    (..., d, d), a boolean array (...) of one such test per matrix."""
    m = linalg.as_square_matrix(matrix, stack=True)
    x_form = np.max(np.abs(m[..., _off_x_mask(m.shape[-1])]), axis=-1, initial=0.0) <= atol
    return bool(x_form) if m.ndim == 2 else x_form


def x_state_key_minors(params: XStateParams) -> tuple[float, float]:
    """The two minors of the partially transposed X-state that decide entanglement.

    minor_14 = rho11*rho44 - |rho23|^2 and minor_23 = rho22*rho33 - |rho14|^2;
    the X-state is entangled iff either is negative.
    """
    minor_14 = params.rho11 * params.rho44 - abs(params.rho23) ** 2
    minor_23 = params.rho22 * params.rho33 - abs(params.rho14) ** 2
    return (minor_14, minor_23)


# The 2x2 minors at the anti-diagonal pairs {i, d+1-i}, one-based, decide whether
# the partial transpose over A of a 2- or 3-qubit X-state is positive.
X_PAIR_LABELS = {d: tuple((i, d + 1 - i) for i in range(1, d // 2 + 1)) for d in (4, 8)}
_X_PAIR_GATHERS = {d: _gather(np.array(pairs) - 1, d) for d, pairs in X_PAIR_LABELS.items()}


def x_pair_minor_stack(pts) -> np.ndarray:
    """The minors at `X_PAIR_LABELS[d]` of each matrix of `pts`, a stack (n, d, d) of partial
    transposes over A of 2- or 3-qubit states, as one batched determinant (n, d / 2)."""
    pts = linalg.assert_hermitian(pts)
    labels = X_PAIR_LABELS[pts.shape[-1]]
    return _real_minors(_principal_dets(pts, _X_PAIR_GATHERS[pts.shape[-1]]), labels)


def three_qubit_x_minors(state: DensityMatrix) -> tuple[float, float, float, float]:
    """The four 2x2 minors of the partial transpose of a three-qubit X-state
    that can go negative: index pairs {1,8}, {2,7}, {3,6}, {4,5}."""
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
    return tuple(x_pair_minor_stack(partial_transpose(state, 0)[None])[0].tolist())
