"""Partial-transpose moments, Hankel matrices, and the moment-based
entanglement criteria.

The k-th PT-moment of a state is Tr[(rho^T_s)^k] for the partial transpose
over subsystem s.  Moment-based detection works through the Hankel matrices
B_k with entries [B_k]_{ij} = p_{i+j+1}: every B_k is positive semidefinite
for separable states.  Newton's identities give the moments from e_j, the
sums of the j x j principal minors of rho^T_s (`moments_from_minor_sums`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .errors import ValidationError
from .minors import x_state_key_minors
from .ptranspose import partial_transpose
from .states import DensityMatrix, XStateParams

# Snap 1/p2 to an integer when within this distance, so the exact boundary
# cases p2 in {1, 1/2, 1/3, 1/4} do not flip under the floor function.
FLOOR_SNAP = 1e-12

# Far above any criterion in use: a mistyped --kmax cannot run the power sums without limit.
MAX_KMAX = 32


def check_moments(p: np.ndarray, dim: int | None) -> np.ndarray:
    """Return the moments p (n, kmax), one row p_1..p_kmax per state, once each row has p_1 = 1
    within 1e-12 and, where `dim` is given, p_2 in [1/dim, 1] within 1e-10; otherwise raise what
    the first failing row raises as a `MomentVector`."""
    p1_bad = np.abs(p[:, 0] - 1.0) > 1e-12
    failing = p1_bad
    if dim is not None and p.shape[1] >= 2:
        failing = p1_bad | ~((1.0 / dim - 1e-10 <= p[:, 1]) & (p[:, 1] <= 1.0 + 1e-10))
    if failing.any():
        k = failing.argmax()
        if p1_bad[k]:
            raise ValidationError(f"p_1 must equal 1 (trace), got {p[k, 0]:.15g}")
        raise ValidationError(f"p_2 = {p[k, 1]:.15g} outside [1/{dim}, 1]")
    return p


@dataclass(frozen=True)
class MomentVector:
    """Moments p_1..p_kmax and the total Hilbert-space dimension, checked by `check_moments`."""

    values: tuple[float, ...]
    dim: int | None = None

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValidationError("moment vector must contain at least p_1")
        check_moments(np.array([values]), self.dim)
        object.__setattr__(self, "values", values)

    @property
    def kmax(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one detection criterion.

    Sign convention: negative margin means the separability condition is
    violated, i.e. evidence of entanglement (NPT).
    """

    criterion: str
    violated: bool
    margin: float
    tolerance: float

    def __post_init__(self):
        linalg.check_tolerance(self.tolerance)
        if self.violated != (self.margin < -self.tolerance):
            raise ValidationError(
                "inconsistent verdict: violated must hold exactly when "
                "margin < -tolerance"
            )

    @classmethod
    def from_margin(cls, criterion: str, margin: float, tolerance: float) -> CriterionVerdict:
        """The verdict whose `violated` follows from the margin and tolerance."""
        return cls(criterion, margin < -tolerance, margin, tolerance)


def resolve_kmax(num_factors: int, kmax: int | None) -> int:
    """`kmax` checked against 1..MAX_KMAX, or by default 6 for a bipartite state and 5 otherwise."""
    if kmax is None:
        return 6 if num_factors == 2 else 5
    if not 1 <= kmax <= MAX_KMAX:
        raise ValidationError(f"kmax must lie in 1..{MAX_KMAX}, got {kmax}")
    return kmax


def power_sums(eigs: np.ndarray, kmax: int) -> np.ndarray:
    """p_1..p_kmax, the power sums of a spectrum (d,), or of each spectrum of a stack (n, d)
    as shape (n, kmax)."""
    return np.array([(eigs ** k).sum(-1) for k in range(1, kmax + 1)]).T


def moments_from_spectrum(eigs: np.ndarray, kmax: int, dim: int) -> MomentVector:
    """Moments p_1..p_kmax as power sums of a partial transpose's spectrum."""
    return MomentVector(values=tuple(power_sums(eigs, kmax).tolist()), dim=dim)


def pt_moments(state: DensityMatrix, subsystem: int, kmax: int | None = None) -> MomentVector:
    """Moments Tr[(rho^T_s)^k] for k = 1..kmax from the transpose's spectrum."""
    kmax = resolve_kmax(state.num_factors, kmax)
    eigs = linalg.hermitian_eigenvalues(partial_transpose(state, subsystem))
    return moments_from_spectrum(eigs, kmax, state.dim)


def _hankel_stack(p: np.ndarray, k: int) -> np.ndarray:
    """The Hankel matrix B_k of each row of moments p (n, kmax), as a stack (n, k+1, k+1)."""
    if k < 1:
        raise ValidationError(f"Hankel order must be >= 1, got {k}")
    needed = 2 * k + 1
    if p.shape[-1] < needed:
        raise ValidationError(
            f"Hankel order {k} needs {needed} moments, have {p.shape[-1]}"
        )
    return p[:, np.add.outer(np.arange(k + 1), np.arange(k + 1))]


def hankel(moments: MomentVector, k: int) -> np.ndarray:
    """The (k+1) x (k+1) Hankel matrix with entries p_{i+j+1}, i, j = 0..k."""
    return _hankel_stack(np.array([moments.values]), k)[0]


def oppt_threshold(p2: float) -> float:
    """The optimal lower bound on p3 over separable states with the given p2.

    With a = floor(1/p2) and x = (a + sqrt(a*(p2*(a+1) - 1))) / (a*(a+1)),
    the bound is a*x^3 + (1 - a*x)^3.  It dominates p2^2, with equality
    exactly when 1/p2 is an integer.  1/p2 must lie below 2^53, where every
    integer and its successor are exact floats.
    """
    p2 = float(p2)
    if not 0.0 < p2 <= 1.0 + FLOOR_SNAP:
        raise ValidationError(f"p_2 must lie in (0, 1], got {p2:.15g}")
    p2 = min(p2, 1.0)
    inverse = 1.0 / p2
    if not inverse < 2.0 ** 53:
        raise ValidationError(f"p_2 = {p2:.15g} is too small: the bound needs 1/p_2 below 2^53")
    nearest = round(inverse)
    a = float(nearest if abs(inverse - nearest) <= FLOOR_SNAP else math.floor(inverse))
    x = (a + math.sqrt(a * (p2 * (a + 1.0) - 1.0))) / (a * (a + 1.0))
    return a * x ** 3 + (1.0 - a * x) ** 3


# The criteria's tests, each over moments p (n, kmax): (margins, tolerances), one of each per row.


def _p3_test(threshold: Callable, p: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The order-3 test p3 >= threshold(p2), state by state in Python floats.  Its absolute
    tolerance equals the relative one (see `linalg.relative_tolerance`)."""
    if p.shape[-1] < 3:
        raise ValidationError(f"moment p_3 not available (kmax={p.shape[-1]})")
    margins = np.array([p3 - threshold(p2) for p2, p3 in p[:, 1:3].tolist()])
    linalg.check_tolerance(tol)
    return margins, np.full(len(p), tol)


def _pn_ppt(p: np.ndarray, tol: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    eigs = np.linalg.eigvalsh(_hankel_stack(p, (n - 1) // 2))
    return eigs[:, 0], linalg.relative_tolerance(eigs, tol)


class Criterion(NamedTuple):
    """A moment criterion: the name its verdicts carry, the highest moment order it reads, and
    its test over moments p (n, kmax), giving per-state margins and tolerances."""

    name: str
    order: int
    test: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]

    def verdict(self, moments, tol: float) -> CriterionVerdict:
        """The verdict on one vector of moments p_1..p_kmax: the test on a stack of one."""
        margins, tolerances = self.test(np.asarray(moments)[None], tol)
        return CriterionVerdict.from_margin(self.name, float(margins[0]), float(tolerances[0]))


def _hankel_criterion(n: int) -> Criterion:
    return Criterion(f"p{n}-ppt", n, lambda p, tol: _pn_ppt(p, tol, n))


def pn_ppt_test(moments: MomentVector, n: int, tol: float = linalg.DEFAULT_PSD_TOL) -> CriterionVerdict:
    """Order-n moment criterion (n odd >= 3): separability requires the Hankel
    matrix B_{(n-1)/2} to be positive semidefinite.  Margin is its smallest
    eigenvalue."""
    if n < 3 or n % 2 == 0:
        raise ValidationError(f"criterion order must be odd and >= 3, got {n}")
    return _hankel_criterion(n).verdict(moments.values, tol)


def p3_ppt_test(moments: MomentVector, tol: float = linalg.DEFAULT_PSD_TOL) -> CriterionVerdict:
    """Order-3 criterion in determinant form: separability requires p3 >= p2^2."""
    return CRITERIA["p3ppt"].verdict(moments.values, tol)


def p3_oppt_test(moments: MomentVector, tol: float = linalg.DEFAULT_PSD_TOL) -> CriterionVerdict:
    """Optimal order-3 criterion, necessary and sufficient given (p1, p2, p3)."""
    return CRITERIA["p3oppt"].verdict(moments.values, tol)


_HANKEL_ORDERS = range(5, MAX_KMAX + 1, 2)  # the orders past 3 that MAX_KMAX moments can feed

CRITERIA = {  # by token
    "p3ppt": Criterion("p3-ppt", 3, partial(_p3_test, lambda p2: p2 ** 2)),
    "p3oppt": Criterion("p3-oppt", 3, partial(_p3_test, oppt_threshold)),
    **{f"p{n}ppt": _hankel_criterion(n) for n in _HANKEL_ORDERS},
}


def resolve_criteria(selection: str | None, kmax: int) -> dict:
    """{token: Criterion} for a comma list such as 'p3ppt,P3-OPPT,p5ppt', or by default p3ppt and
    p3oppt, then p5ppt and p7ppt while kmax reaches them.  Each token, matched in any case with
    hyphens dropped, must be known, given once, and read at most kmax moments."""
    if selection is None:
        tokens = ["p3ppt", "p3oppt", *(t for t in ("p5ppt", "p7ppt") if CRITERIA[t].order <= kmax)]
    else:
        tokens = [t.strip() for t in selection.split(",") if t.strip()]
        if not tokens:
            raise ValidationError("criteria list is empty")
    tests = {}
    for token in tokens:
        name = token.replace("-", "").lower()
        if name not in CRITERIA:
            raise ValidationError(f"unknown criterion {token!r}; expected p3ppt, p3oppt or p<n>ppt "
                                  f"with odd n in {_HANKEL_ORDERS[0]}..{_HANKEL_ORDERS[-1]}")
        if name in tests:
            raise ValidationError(f"criterion {name!r} is given more than once")
        tests[name] = CRITERIA[name]
        if tests[name].order > kmax:
            raise ValidationError(f"criterion {name!r} needs kmax >= {tests[name].order}, got {kmax}")
    return tests


def geometric_mean_moments(moments: np.ndarray) -> np.ndarray:
    """Entrywise geometric mean over the first axis, the three cuts of one state (or of each
    state of a stack), of their moments (3, ..., kmax), using the signed real cube root so odd
    moments stay real."""
    return np.cbrt(np.prod(moments, axis=0))


def tripartite_moments(state: DensityMatrix, kmax: int | None = None) -> MomentVector:
    """Geometric mean of the three single-subsystem PT-moments of a three-qubit
    state, using the signed real cube root so odd moments stay real.

    For permutation-symmetric states all three factors coincide, so the
    aggregate equals each single-subsystem moment vector exactly.
    """
    if state.num_factors != 3:
        raise ValidationError(
            f"tripartite moments need a 3-factor state, got {state.num_factors} factors"
        )
    kmax = resolve_kmax(3, kmax)
    cuts = np.array([pt_moments(state, s, kmax).values for s in range(3)])
    return MomentVector(tuple(geometric_mean_moments(cuts).tolist()), state.dim)


def moments_from_minor_sums(e, kmax: int, dim: int) -> MomentVector:
    """Moments p_1..p_kmax from e_j, the sum of the j x j principal minors of a
    partial transpose (e_j = 0 past len(e)), by Newton's identities
    p_k = sum_{i<k} (-1)^(i-1) e_i p_(k-i) + (-1)^(k-1) k e_k."""
    e = (0.0, *e) + (0.0,) * kmax
    p = [0.0]
    for k in range(1, kmax + 1):
        lower = sum((-1) ** (i - 1) * e[i] * p[k - i] for i in range(1, k))
        p.append(lower + (-1) ** (k - 1) * k * e[k])
    return MomentVector(values=tuple(p[1:]), dim=dim)


def x_state_moments_closed_form(params: XStateParams) -> MomentVector:
    """Moments p_1..p_6 of a two-qubit X-state as closed functions of the two
    key principal minors.

    The partially transposed X-state is block diagonal with 2x2 blocks of
    traces g = rho11+rho44 and h = rho22+rho33 and determinants equal to
    minor_14 and minor_23, so its principal-minor sums are e_1 = 1,
    e_2 = minor_14 + minor_23 + g*h, e_3 = g*minor_23 + h*minor_14 and
    e_4 = minor_14*minor_23, and Newton's identities give every p_k; the
    first two are p_2 = 1 - 2(minor_14 + minor_23) - 2gh and
    p_3 = 1 - 3(g*minor_14 + h*minor_23) - 3gh.
    """
    m14, m23 = x_state_key_minors(params)
    g = params.rho11 + params.rho44
    h = params.rho22 + params.rho33
    return moments_from_minor_sums((1.0, m14 + m23 + g * h, g * m23 + h * m14, m14 * m23), 6, 4)
