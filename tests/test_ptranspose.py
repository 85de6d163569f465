import re

import numpy as np
import pytest
from conftest import batched_ginibre
from oracles import random_density_matrix, random_x_state

from ptmoments import (
    ValidationError,
    XStateParams,
    bell_phi_plus,
    ghz_white_noise,
    negativity,
    partial_transpose,
    transpose_subsystem,
    w_white_noise,
    x_state,
)

BELL_PT_EXPECTED = np.array(
    [
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5],
    ]
)


def test_diagonal_state_is_invariant():
    state = random_density_matrix(4, seed=0)
    diag = np.diag(np.diag(state.matrix))
    assert np.array_equal(transpose_subsystem(diag, (2, 2), 0), diag)


def test_bell_partial_transpose_layout():
    pt = partial_transpose(bell_phi_plus(), 0)
    np.testing.assert_allclose(pt, BELL_PT_EXPECTED, atol=1e-15)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
    )


def test_x_state_coherences_swap():
    params = random_x_state(4)
    pt = partial_transpose(x_state(params), 0)
    # anti-diagonal coherences exchange blocks: entry (2,3) takes rho41,
    # entry (1,4) takes rho32
    assert pt[1, 2] == np.conj(params.rho14)
    assert pt[0, 3] == np.conj(params.rho23)


def test_involution_is_exact():
    for seed in range(50):
        for dim, dims in ((4, (2, 2)), (8, (2, 2, 2))):
            state = random_density_matrix(dim, seed=seed, dims=dims)
            for s in range(len(dims)):
                once = transpose_subsystem(state.matrix, dims, s)
                twice = transpose_subsystem(once, dims, s)
                assert np.array_equal(twice, state.matrix)


def test_trace_and_hermiticity_preserved_exactly():
    state = random_density_matrix(8, seed=3)
    pt = partial_transpose(state, 1)
    assert np.array_equal(np.diag(pt), np.diag(state.matrix))
    assert np.array_equal(pt, pt.conj().T)


def test_at_most_one_negative_eigenvalue_two_qubits():
    rng = np.random.default_rng(21)
    stack = batched_ginibre(rng, 2000, 4)
    pts = transpose_subsystem(stack, (2, 2), 0)
    eigs = np.linalg.eigvalsh(pts)
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))
    negatives = (eigs < -1e-12 * scale[:, None]).sum(axis=1)
    assert negatives.max() <= 1


def test_symmetric_three_qubit_spectra_match():
    for state in (ghz_white_noise(0.3), w_white_noise(0.55)):
        spectra = [
            np.linalg.eigvalsh(partial_transpose(state, s)) for s in range(3)
        ]
        np.testing.assert_allclose(spectra[0], spectra[1], atol=1e-11)
        np.testing.assert_allclose(spectra[0], spectra[2], atol=1e-11)


def test_negativity_values():
    assert negativity(bell_phi_plus(), 0) == pytest.approx(0.5, abs=1e-12)
    mixed = x_state(XStateParams(0.25, 0.25, 0.25, 0.25))
    assert negativity(mixed, 0) == 0.0
    assert negativity(ghz_white_noise(0.9), 0) == 0.0


def test_bad_subsystem_rejected():
    with pytest.raises(ValidationError, match="subsystem"):
        partial_transpose(bell_phi_plus(), 2)


@pytest.mark.parametrize(
    "matrix,dims",
    [(np.eye(4) / 4, (-2, -2)), (np.eye(1), (-1, -1))],
    ids=["product-4", "product-1"],
)
def test_non_positive_dims_rejected(matrix, dims):
    # the product matches the matrix, so numpy's reshape used to raise its own ValueError
    with pytest.raises(ValidationError, match=re.escape(f"subsystem dimensions must be positive, got {dims}")):
        transpose_subsystem(matrix, dims, 0)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 2), (2, 2, 2)])
def test_stack_transpose_equals_each_slice_transpose(dims):
    dim = int(np.prod(dims))
    stack = batched_ginibre(np.random.default_rng(dim), 7, dim)
    for s in range(len(dims)):
        pts = transpose_subsystem(stack, dims, s)
        assert pts.shape == stack.shape
        for matrix, pt in zip(stack, pts):
            assert np.array_equal(pt, transpose_subsystem(matrix, dims, s))
        assert np.array_equal(transpose_subsystem(pts, dims, s), stack)
