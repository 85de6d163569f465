import numpy as np
import pytest
from conftest import batched_ginibre
from oracles import random_density_matrix, random_three_qubit_x_state, random_x_state

from ptmoments import (
    DensityMatrix,
    NumericsError,
    ValidationError,
    XStateParams,
    amplitude_damping,
    apply_channel,
    bell_phi_plus,
    ghz_white_noise,
    hermitian_eigenvalues,
    knoll_state,
    w_white_noise,
    x_state,
)
from ptmoments.states import density_matrix_spectra


def _swap_qubits(matrix: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Conjugate by the permutation exchanging qubits i and j of an n-qubit system."""
    dim = 2 ** n
    perm = np.zeros(dim, dtype=int)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        bits[i], bits[j] = bits[j], bits[i]
        perm[idx] = sum(b << (n - 1 - q) for q, b in enumerate(bits))
    p = np.zeros((dim, dim))
    p[perm, np.arange(dim)] = 1.0
    return p @ matrix @ p.T


class TestBell:
    def test_entries(self):
        m = bell_phi_plus().matrix
        np.testing.assert_allclose(np.diag(m).real, [0.5, 0, 0, 0.5], atol=1e-15)
        assert m[0, 3] == pytest.approx(0.5)

    def test_trace_and_purity(self):
        m = bell_phi_plus().matrix
        assert np.trace(m).real == pytest.approx(1.0)
        assert np.trace(m @ m).real == pytest.approx(1.0)


class TestXState:
    def test_maximally_mixed(self):
        state = x_state(XStateParams(0.25, 0.25, 0.25, 0.25))
        np.testing.assert_allclose(state.matrix, np.eye(4) / 4, atol=1e-15)

    def test_bell_as_x_state(self):
        state = x_state(XStateParams(0.5, 0.0, 0.0, 0.5, rho14=0.5))
        np.testing.assert_allclose(state.matrix, bell_phi_plus().matrix, atol=1e-15)

    def test_generic_valid_params(self):
        state = x_state(XStateParams(0.3, 0.2, 0.2, 0.3, rho14=0.25, rho23=0.1))
        assert state.dims == (2, 2)

    def test_trace_violation_named(self):
        with pytest.raises(ValidationError, match="unit trace"):
            XStateParams(0.5, 0.5, 0.5, 0.5)

    def test_positivity_violation_named(self):
        with pytest.raises(ValidationError, match=r"rho22\*rho33"):
            XStateParams(0.5, 0.0, 0.0, 0.5, rho23=0.3)
        with pytest.raises(ValidationError, match=r"rho11\*rho44"):
            XStateParams(0.5, 0.0, 0.0, 0.5, rho14=0.7)

    @pytest.mark.parametrize(
        "coherences,condition",
        [
            ({"rho14": 1e200}, r"rho11\*rho44 >= \|rho14\|\^2 fails \(0.25 < inf\)"),
            ({"rho14": 1e308}, r"rho11\*rho44"),
            ({"rho14": complex(1.7e308, 1.7e308)}, r"rho11\*rho44"),
            ({"rho23": 1e200j}, r"rho22\*rho33 >= \|rho23\|\^2 fails \(0 < inf\)"),
        ],
    )
    def test_overflowing_coherence_is_a_positivity_violation(self, coherences, condition):
        # squaring a coherence above about 1.3e154 used to raise OverflowError
        with pytest.raises(ValidationError, match=condition):
            XStateParams(0.5, 0.0, 0.0, 0.5, **coherences)


class TestWhiteNoiseFamilies:
    def test_ghz_limits(self):
        np.testing.assert_allclose(ghz_white_noise(1.0).matrix, np.eye(8) / 8, atol=1e-15)
        pure = ghz_white_noise(0.0).matrix
        assert np.trace(pure @ pure).real == pytest.approx(1.0)
        assert pure[0, 7] == pytest.approx(0.5)

    def test_w_limits(self):
        np.testing.assert_allclose(w_white_noise(1.0).matrix, np.eye(8) / 8, atol=1e-15)
        pure = w_white_noise(0.0).matrix
        assert np.trace(pure @ pure).real == pytest.approx(1.0)
        for idx in (1, 2, 4):
            assert pure[idx, idx].real == pytest.approx(1 / 3)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            ghz_white_noise(1.5)
        with pytest.raises(ValidationError):
            w_white_noise(-0.1)

    @pytest.mark.parametrize("builder,arg", [(ghz_white_noise, 0.37), (w_white_noise, 0.61)])
    def test_permutation_symmetry(self, builder, arg):
        m = builder(arg).matrix
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert np.array_equal(_swap_qubits(m, i, j, 3), m)


class TestKnoll:
    def test_no_damping_is_pure(self):
        omega = 0.3
        state = knoll_state(omega, 0.0)
        ket = np.zeros(4, dtype=complex)
        ket[0], ket[3] = np.sqrt(omega), np.sqrt(1 - omega)
        np.testing.assert_allclose(state.matrix, np.outer(ket, ket.conj()), atol=1e-14)

    def test_omega_one_is_ground(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(knoll_state(1.0, 0.4).matrix, expected, atol=1e-14)

    def test_equals_first_qubit_damping_of_pure_state(self):
        # the constructor must coincide entrywise with damping the first
        # qubit of sqrt(omega)|00> + sqrt(1-omega)|11>
        for omega in (0.12, 0.4, 0.85):
            for eta in (0.21, 0.5, 0.9):
                pure = x_state(
                    XStateParams(omega, 0.0, 0.0, 1 - omega, rho14=np.sqrt(omega * (1 - omega)))
                )
                damped = apply_channel(pure, amplitude_damping(eta), 0)
                np.testing.assert_allclose(
                    knoll_state(omega, eta).matrix, damped.matrix, atol=1e-12
                )

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            knoll_state(1.2, 0.5)


class TestRandomStates:
    def test_density_matrix_contract(self):
        state = random_density_matrix(4, seed=5)
        assert np.trace(state.matrix).real == pytest.approx(1.0)
        assert np.all(np.linalg.eigvalsh(state.matrix) > -1e-12)

    def test_determinism(self):
        a = random_density_matrix(8, seed=123)
        b = random_density_matrix(8, seed=123)
        assert np.array_equal(a.matrix, b.matrix)
        pa = random_x_state(77)
        pb = random_x_state(77)
        assert pa == pb

    def test_x_state_sampler_is_valid(self):
        for seed in range(20):
            params = random_x_state(seed)
            assert params.rho22 * params.rho33 + 1e-12 >= abs(params.rho23) ** 2
            assert params.rho11 * params.rho44 + 1e-12 >= abs(params.rho14) ** 2

    def test_three_qubit_x_sampler(self):
        state = random_three_qubit_x_state(9)
        assert state.dims == (2, 2, 2)
        m = state.matrix
        for i in range(8):
            for j in range(8):
                if i != j and i + j != 7:
                    assert m[i, j] == 0

    def test_dim_cap(self):
        with pytest.raises(ValidationError):
            random_density_matrix(9, seed=0)


class TestDensityMatrixValidation:
    def test_trace_enforced(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(4), (2, 2))

    def test_psd_enforced(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            DensityMatrix(m, (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_finite_entries_enforced(self, bad):
        # NaN fails every `x > tol` comparison, so without this check it
        # passed the trace, Hermiticity and positivity tests
        m = np.diag([1.0, 0.0]).astype(complex)
        m[1, 1] = bad
        with pytest.raises(ValidationError, match=r"m\[1,1\].*not finite"):
            DensityMatrix(m, (2,))

    def test_dims_product_enforced(self):
        with pytest.raises(ValidationError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_dims_product_is_exact(self):
        # 4 * (2**62 + 1) wraps to 4 in int64, which used to pass this check
        with pytest.raises(ValidationError, match="product of dims"):
            DensityMatrix(np.eye(4) / 4, (4, 2 ** 62 + 1))

    def test_matrix_is_frozen(self):
        state = bell_phi_plus()
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 9.0


def _corrupt(matrix: np.ndarray, flaw: str) -> np.ndarray:
    m = matrix.copy()
    if flaw == "nan":
        m[1, 2] = np.nan
    elif flaw == "hermitian":
        m[0, 3] += 1e-9  # its conjugate partner left as it is
    elif flaw == "trace":
        m *= 1.1
    else:  # unit trace and Hermitian, with a -1e-3 eigenvalue
        m = np.diag([0.4, 0.3, 0.301, -0.001]).astype(complex)
    return m


def _message(call, *args):
    try:
        return call(*args)
    except (ValidationError, NumericsError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("flaw", ["nan", "hermitian", "trace", "negative"])
@pytest.mark.parametrize("position", range(5))
def test_stack_checks_are_as_strict_as_one_matrix_checks(flaw, position):
    # one bad slice in a (5, 4, 4) stack of valid states raises what it raises alone
    stack = batched_ginibre(np.random.default_rng(position), 5, 4)
    stack[position] = _corrupt(stack[position], flaw)
    alone = _message(DensityMatrix, stack[position], (2, 2))
    assert alone.startswith("ValidationError: ")
    assert _message(density_matrix_spectra, stack) == alone
    # hermitian_eigenvalues checks entries and Hermiticity only: it raises on the
    # first two flaws, and otherwise returns each slice's spectrum exactly
    spectra = _message(hermitian_eigenvalues, stack)
    if flaw in ("nan", "hermitian"):
        assert spectra == _message(hermitian_eigenvalues, stack[position])
    else:
        for matrix, eigs in zip(stack, spectra):
            assert np.array_equal(eigs, hermitian_eigenvalues(matrix))
