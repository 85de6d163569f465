"""Reference values the benchmark checks ptmoments' outputs against.

Everything here is plain numpy and never imports ptmoments, so a defect in
the package cannot make its own check pass.  The partial transpose is built
from explicit index arithmetic rather than the reshape/transpose the package
uses.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

# Bound before any tracing wrapper can replace np.linalg.eigvalsh, so the
# references never show up in the traced work counts.
_eigvalsh = np.linalg.eigvalsh

# The sweep footers must place each boundary within this distance of the
# reference (bisection runs to 1e-6 in the parameter).
ROOT_ATOL = 2e-6
# Moments and PT eigenvalues are sums of at most 8 terms of size <= 1.
VALUE_ATOL = 1e-9

GHZ_NPT_BOUNDARY = 0.8


@lru_cache(maxsize=None)
def _pt_index(dims: tuple[int, ...], subsystem: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sources such that PT[i, j] = m[rows[i, j], cols[i, j]]."""
    basis = list(itertools.product(*(range(d) for d in dims)))
    flat = {digits: n for n, digits in enumerate(basis)}
    dim = len(basis)
    rows = np.empty((dim, dim), dtype=np.intp)
    cols = np.empty((dim, dim), dtype=np.intp)
    for i, ket in enumerate(basis):
        for j, bra in enumerate(basis):
            swapped_ket = list(ket)
            swapped_bra = list(bra)
            swapped_ket[subsystem], swapped_bra[subsystem] = bra[subsystem], ket[subsystem]
            rows[i, j] = flat[tuple(swapped_ket)]
            cols[i, j] = flat[tuple(swapped_bra)]
    return rows, cols


def partial_transpose(matrix: np.ndarray, dims, subsystem: int) -> np.ndarray:
    rows, cols = _pt_index(tuple(dims), subsystem)
    return np.asarray(matrix)[rows, cols]


def pt_spectra(matrix: np.ndarray, dims) -> list[np.ndarray]:
    """Ascending eigenvalues of the partial transpose over each factor."""
    return [_eigvalsh(partial_transpose(matrix, dims, s)) for s in range(len(dims))]


def power_sums(eigs: np.ndarray, kmax: int) -> list[float]:
    return [float(np.sum(eigs ** k)) for k in range(1, kmax + 1)]


def close(got, want, atol: float = VALUE_ATOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= atol))


# ---------------------------------------------------------------------------
# Named families, built from their defining formulas.


def _noisy_pure(ket: np.ndarray, noise: float) -> np.ndarray:
    dim = ket.size
    return noise * np.eye(dim) / dim + (1.0 - noise) * np.outer(ket, ket.conj())


def ghz_noise_matrix(alpha: float) -> np.ndarray:
    ket = np.zeros(8, dtype=complex)
    ket[[0, 7]] = 1.0 / np.sqrt(2.0)
    return _noisy_pure(ket, alpha)


def w_noise_matrix(beta: float) -> np.ndarray:
    ket = np.zeros(8, dtype=complex)
    ket[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return _noisy_pure(ket, beta)


def damped_knoll_matrix(omega: float, eta: float, gamma: float) -> np.ndarray:
    """The damped-pure-state X-state after amplitude damping of strength
    gamma on the second qubit, written out entry by entry."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = omega + gamma * eta * (1.0 - omega)
    m[1, 1] = (1.0 - gamma) * eta * (1.0 - omega)
    m[2, 2] = gamma * (1.0 - omega) * (1.0 - eta)
    m[3, 3] = (1.0 - gamma) * (1.0 - omega) * (1.0 - eta)
    m[0, 3] = m[3, 0] = np.sqrt((1.0 - gamma) * omega * (1.0 - omega) * (1.0 - eta))
    return m


def knoll_npt_boundary(omega: float, eta: float) -> float:
    """Damping strength where minor_23 of the damped state's partial transpose,
    (1-g)(1-w)(1-e) [g e (1-w) - w], changes sign: the entanglement-breaking
    threshold w (e + w (1-e)) / (e^2 (1-w)^2 + w (1-w) e) simplified."""
    return omega / (eta * (1.0 - omega))


def w_noise_npt_boundary(xtol: float = 1e-12) -> float:
    """Largest beta at which the W-noise state is NPT, by bisection on the
    smallest eigenvalue of its partial transpose over the first qubit."""

    def min_eig(beta: float) -> float:
        return float(_eigvalsh(partial_transpose(w_noise_matrix(beta), (2, 2, 2), 0))[0])

    lo, hi = 0.0, 1.0
    if not (min_eig(lo) < 0.0 <= min_eig(hi)):
        raise ArithmeticError("W-noise partial transpose does not change sign on [0, 1]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Random states for the analyze corpus and CLI state files.


def random_dense(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def random_x(rng: np.random.Generator, dim: int) -> np.ndarray:
    """X-patterned state: a random diagonal on the simplex and anti-diagonal
    coherences strictly inside the discs positivity allows."""
    d = rng.dirichlet(np.ones(dim))
    m = np.diag(d).astype(complex)
    for i in range(dim // 2):
        j = dim - 1 - i
        radius = 0.95 * np.sqrt(d[i] * d[j]) * np.sqrt(rng.uniform())
        c = radius * np.exp(2j * np.pi * rng.uniform())
        m[i, j] = c
        m[j, i] = np.conj(c)
    return m


def payload(matrix: np.ndarray, dims) -> dict:
    """The package's state-file format: row-major [re, im] pairs."""
    return {
        "dims": [int(d) for d in dims],
        "matrix": [[float(z.real), float(z.imag)] for z in np.asarray(matrix).ravel()],
    }

