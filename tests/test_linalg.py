import numpy as np
import pytest
from conftest import random_hermitian, random_psd
from oracles import determinant, is_hermitian, matrix_power_trace, psd_via_minors

from ptmoments import (
    NumericsError,
    ValidationError,
    bell_phi_plus,
    ghz_white_noise,
    hermitian_eigenvalues,
    is_psd,
    partial_transpose,
)
from ptmoments.linalg import relative_tolerance

BELL_PT_EIGS = np.array([-0.5, 0.5, 0.5, 0.5])


def test_relative_tolerance_scales_by_spectral_radius_above_one():
    assert relative_tolerance(np.array([-0.5, 0.25]), 1e-10) == 1e-10
    assert relative_tolerance(np.array([-3.0, 2.0]), 1e-10) == 3e-10


def test_identity_eigenvalues():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4))


def test_bell_partial_transpose_spectrum():
    eigs = hermitian_eigenvalues(partial_transpose(bell_phi_plus(), 0))
    np.testing.assert_allclose(eigs, BELL_PT_EIGS, atol=1e-12)


def test_ghz_noise_boundary_spectrum():
    # at alpha = 0.8 the smallest partial-transpose eigenvalue (5a-4)/8 hits 0
    eigs = hermitian_eigenvalues(partial_transpose(ghz_white_noise(0.8), 0))
    assert abs(eigs[0]) < 1e-12


def test_non_hermitian_rejected_with_entry_pair():
    m = np.eye(3, dtype=complex)
    m[0, 2] = 1.0  # conjugate partner left at 0
    with pytest.raises(ValidationError, match=r"m\[0,2\]"):
        hermitian_eigenvalues(m)


@pytest.mark.parametrize("entry", [(0, 1), (1, 0), (1, 1)], ids=["above", "below", "diagonal"])
@pytest.mark.parametrize("check", [hermitian_eigenvalues, is_psd])
def test_non_finite_entry_rejected(check, entry):
    # eigvalsh reads one triangle, and a NaN Hermiticity defect compares false, so a NaN
    # above the diagonal used to give the spectrum [0.5, 0.5] and is_psd True
    m = np.diag([0.5, 0.5]).astype(complex)
    m[entry] = np.nan
    i, j = entry
    with pytest.raises(ValidationError, match=rf"m\[{i},{j}\] = .* is not finite"):
        check(m)


@pytest.mark.filterwarnings("error")
def test_huge_diagonal_sums_without_overflow():
    # the trace is taken from the diagonal divided by the spectral radius, so 1e308 + 1e308
    # is never formed
    m = np.diag([1e308, 1e308, -1e308, -1e308]).astype(complex)
    assert hermitian_eigenvalues(m).tolist() == [-1e308, -1e308, 1e308, 1e308]


@pytest.mark.filterwarnings("error")
def test_eigenvalues_past_the_float_range_are_invalid_input():
    # eigvalsh gives -inf and inf for these finite entries: the input is at fault, not the
    # numerics, so it is rejected before the sum check, whose residual would be NaN
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = m[1, 0] = m[0, 2] = m[2, 0] = 1.7e308
    with pytest.raises(ValidationError, match="^matrix has an eigenvalue past the float range: -inf$"):
        hermitian_eigenvalues(m)


def test_nan_eigenvalue_fails_the_sum_check(monkeypatch):
    real = np.linalg.eigvalsh

    def poisoned(a, *args, **kwargs):
        eigs = real(a, *args, **kwargs)
        eigs[..., -1] = np.nan
        return eigs

    monkeypatch.setattr(np.linalg, "eigvalsh", poisoned)
    with pytest.raises(NumericsError, match="eigenvalue sum nan"):
        hermitian_eigenvalues(np.eye(2) / 2)


def test_determinant_identity():
    assert determinant(np.eye(3)) == pytest.approx(1.0)


def test_determinant_rank_one_block():
    m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert determinant(m) == pytest.approx(0.0, abs=1e-14)


def test_determinant_bell_sub_block():
    # {2,3} sub-matrix of the transposed Bell projector: [[0, 1/2], [1/2, 0]]
    pt = partial_transpose(bell_phi_plus(), 0)
    sub = pt[np.ix_([1, 2], [1, 2])]
    assert determinant(sub).real == pytest.approx(-0.25, abs=1e-14)


def test_power_trace_examples():
    assert matrix_power_trace(np.eye(4) / 4, 2) == pytest.approx(0.25)
    pt = partial_transpose(bell_phi_plus(), 0)
    assert matrix_power_trace(pt, 2) == pytest.approx(1.0)
    assert matrix_power_trace(pt, 3) == pytest.approx(0.25)


def test_power_trace_rejects_k_zero():
    with pytest.raises(ValidationError):
        matrix_power_trace(np.eye(2), 0)


def test_is_psd_examples():
    assert is_psd(np.eye(2), 1e-10)
    assert not is_psd(partial_transpose(bell_phi_plus(), 0))
    assert is_psd(partial_transpose(ghz_white_noise(0.9), 0))


def test_is_psd_rejects_negative_tol():
    with pytest.raises(ValidationError):
        is_psd(np.eye(2), -1e-3)


@pytest.mark.parametrize("tol", [-1e-3, float("nan"), float("inf"), float("-inf")])
def test_psd_tests_reject_unusable_tolerances(tol):
    with pytest.raises(ValidationError, match="finite and non-negative"):
        is_psd(np.eye(2), tol)
    with pytest.raises(ValidationError, match="finite and non-negative"):
        psd_via_minors(np.eye(2), tol)


def test_power_trace_matches_spectrum_up_to_k8():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.choice([4, 8]))
        m = random_psd(rng, dim)
        m /= np.trace(m).real
        eigs = hermitian_eigenvalues(m)
        for k in range(1, 9):
            assert abs(matrix_power_trace(m, k) - np.sum(eigs ** k)) < 1e-11


def test_determinant_equals_eigenvalue_product():
    rng = np.random.default_rng(12)
    for _ in range(50):
        dim = int(rng.choice([4, 8]))
        m = random_hermitian(rng, dim)
        eigs = hermitian_eigenvalues(m)
        prod = float(np.prod(eigs))
        det = determinant(m).real
        assert abs(det - prod) <= 1e-9 * max(1.0, abs(prod))


def test_sylvester_equivalence_sample():
    rng = np.random.default_rng(13)
    for _ in range(100):
        dim = int(rng.choice([4, 8]))
        m = random_psd(rng, dim) if rng.uniform() < 0.5 else random_hermitian(rng, dim)
        assert is_psd(m) == psd_via_minors(m)


def test_is_hermitian_predicate():
    assert is_hermitian(np.eye(4))
    assert not is_hermitian(np.triu(np.ones((3, 3)), 1) + np.eye(3))
