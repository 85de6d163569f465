"""Shared test-corpus generators."""

from __future__ import annotations

import numpy as np

from ptmoments import DensityMatrix, analysis
from ptmoments.moments import resolve_criteria, resolve_kmax

# One valid parameter set per family; a new family must add one here.
SAMPLE_PARAMS = {
    "bell": {},
    "ghz-noise": {"alpha": 0.5},
    "w-noise": {"beta": 0.5},
    "knoll": {"omega": 0.12, "eta": 0.21, "gamma": 0.3},
    "x-state": {"r11": 0.4, "r22": 0.1, "r33": 0.1, "r44": 0.4, "re14": 0.3},
}


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim


def random_product_ket(rng: np.random.Generator, dims) -> np.ndarray:
    ket = np.ones(1, dtype=complex)
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        ket = np.kron(ket, v)
    return ket


def random_separable_state(rng: np.random.Generator, dims=(2, 2), max_terms: int = 8) -> DensityMatrix:
    """Convex mixture of at most `max_terms` random product pure states."""
    n = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(n))
    dim = int(np.prod(dims))
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        ket = random_product_ket(rng, dims)
        m += w * np.outer(ket, ket.conj())
    return DensityMatrix(m, tuple(dims))


def batched_ginibre(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Stack of `count` random density matrices, shape (count, dim, dim)."""
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    rho = g @ np.conj(np.swapaxes(g, -2, -1))
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    return rho / tr[:, None, None]


def sweep_evaluator(
    name: str, fixed: dict | None = None, criteria: str | None = None, kmax: int | None = None, grid=()
):
    """(columns, evaluate, floors) of a fresh sweep of family `name` over `grid`, by default
    none, at its SAMPLE_PARAMS or at `fixed`, with the default or given criteria and kmax and
    tolerance 1e-10."""
    family = analysis.FAMILY_BY_NAME[name]
    if fixed is None:
        fixed = {k: v for k, v in SAMPLE_PARAMS[name].items() if k != family.sweep_param}
    kmax = resolve_kmax(family.factors, kmax)
    return analysis._sweep_evaluator(family, fixed, resolve_criteria(criteria, kmax), kmax, 1e-10, grid)


def fresh_row(name: str, x: float, fixed: dict | None = None, criteria: str | None = None, kmax=None) -> dict:
    """The row at `x` of a fresh sweep whose grid is [x] alone, one state computed as a stack
    of one, keyed by column; the other arguments are those of `sweep_evaluator`."""
    columns, evaluate, _ = sweep_evaluator(name, fixed, criteria, kmax, [x])
    return dict(zip(columns, evaluate(x)))


def record_evaluations(monkeypatch) -> list:
    """Patch `analysis._sweep_evaluator` so that every call of the `evaluate` it
    builds appends (values, names, result) to the list returned here."""
    calls = []
    real_evaluator = analysis._sweep_evaluator

    def recording_evaluator(*args, **kwargs):
        columns, evaluate, floors = real_evaluator(*args, **kwargs)

        def recording_evaluate(values, names=None):
            result = evaluate(values, names)
            calls.append((values, names, result))
            return result

        return columns, recording_evaluate, floors

    monkeypatch.setattr(analysis, "_sweep_evaluator", recording_evaluator)
    return calls
