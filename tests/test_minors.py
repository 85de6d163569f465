from itertools import combinations

import numpy as np
import pytest
from conftest import batched_ginibre, random_hermitian, random_psd
from oracles import (
    psd_via_minors,
    random_density_matrix,
    random_three_qubit_x_state,
    random_x_state,
    three_qubit_full_minor_identity_check,
    x_state_minor_relations_check,
)

from ptmoments import (
    DensityMatrix,
    NumericsError,
    ValidationError,
    XStateParams,
    all_principal_minors,
    bell_phi_plus,
    ghz_white_noise,
    is_psd,
    is_x_pattern,
    partial_transpose,
    principal_minor,
    three_qubit_x_minors,
    transpose_subsystem,
    w_white_noise,
    x_state,
    x_state_key_minors,
)

# the minors of the transposed matrix that coincide with minors of the state
# itself, hence are non-negative for every valid two-qubit state
ALWAYS_NONNEGATIVE = [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 4), (3, 4)]


def scalar_principal_minors(matrix):
    """Loop reference: one np.linalg.det per index set, size-major and
    lexicographic within a size, minimum kept on strict improvement."""
    m = np.asarray(matrix, dtype=complex)
    minors = {}
    min_value, min_index_set = np.inf, ()
    for size in range(1, m.shape[0] + 1):
        for idx in combinations(range(m.shape[0]), size):
            value = complex(np.linalg.det(m[np.ix_(idx, idx)])).real
            labels = tuple(i + 1 for i in idx)
            minors[labels] = value
            if value < min_value:
                min_value, min_index_set = value, labels
    return minors, min_value, min_index_set


def assert_matches_scalar_reference(matrix):
    report = all_principal_minors(matrix)
    minors, min_value, min_index_set = scalar_principal_minors(matrix)
    assert list(report.minors) == list(minors)
    assert list(report.minors.values()) == list(minors.values())
    assert report.min_value == min_value
    assert report.min_index_set == min_index_set


class TestPrincipalMinor:
    def test_single_index_is_diagonal(self):
        state = random_density_matrix(4, seed=1)
        pt = partial_transpose(state, 0)
        assert principal_minor(pt, (4,)) == pytest.approx(pt[3, 3].real)

    def test_x_state_pair_minor(self):
        params = random_x_state(2)
        pt = partial_transpose(x_state(params), 0)
        expected = params.rho22 * params.rho33 - abs(params.rho14) ** 2
        assert principal_minor(pt, (2, 3)) == pytest.approx(expected, abs=1e-13)

    def test_bell_pair_minor(self):
        pt = partial_transpose(bell_phi_plus(), 0)
        assert principal_minor(pt, (2, 3)) == pytest.approx(-0.25, abs=1e-14)

    def test_invalid_labels(self):
        with pytest.raises(ValidationError):
            principal_minor(np.eye(4), (0, 1))
        with pytest.raises(ValidationError):
            principal_minor(np.eye(4), ())
        with pytest.raises(ValidationError):
            principal_minor(np.eye(4), (2, 2))


class TestEnumeration:
    def test_identity_four(self):
        report = all_principal_minors(np.eye(4))
        assert len(report.minors) == 15
        assert all(v == pytest.approx(1.0) for v in report.minors.values())
        assert report.min_value == pytest.approx(1.0)

    def test_bell_minimum(self):
        report = all_principal_minors(partial_transpose(bell_phi_plus(), 0))
        assert report.min_value == pytest.approx(-0.25, abs=1e-14)
        assert report.min_index_set == (2, 3)

    def test_ghz_noise_minimum(self):
        report = all_principal_minors(partial_transpose(ghz_white_noise(0.5), 0))
        expected = (32 * 0.5 - 15 * 0.25 - 16) / 64
        assert report.min_value == pytest.approx(expected, abs=1e-14)
        assert report.min_index_set == (4, 5)

    def test_dim_eight_count(self):
        report = all_principal_minors(np.eye(8))
        assert len(report.minors) == 255

    def test_dim_cap(self):
        with pytest.raises(ValidationError, match="dim <= 8"):
            all_principal_minors(np.eye(9))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
    def test_batched_matches_scalar_reference_on_random_states(self, dims):
        dim = int(np.prod(dims))
        rng = np.random.default_rng(2305 + dim)
        stack = transpose_subsystem(batched_ginibre(rng, 100, dim), dims, 0)
        for pt in stack:
            assert_matches_scalar_reference(pt)

    def test_batched_matches_scalar_reference_on_w_noise_grid(self):
        for beta in np.linspace(0.0, 1.0, 101):
            assert_matches_scalar_reference(partial_transpose(w_white_noise(beta), 0))

    def test_tie_goes_to_first_index_set(self):
        report = all_principal_minors(np.eye(8))
        assert report.min_value == 1.0
        assert report.min_index_set == (1,)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_minor_rejected(self):
        m = np.eye(4, dtype=complex)
        m[1, 1] = np.nan
        with pytest.raises(NumericsError, match=r"principal minor \(2,\) is not finite"):
            all_principal_minors(m)
        with pytest.raises(NumericsError, match="not finite"):
            psd_via_minors(m)
        # off the diagonal, the first non-finite minor is the first pair
        m = np.eye(4, dtype=complex)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(NumericsError, match=r"principal minor \(1, 2\) is not finite"):
            all_principal_minors(m)

    def test_imaginary_residue_names_worst_minor(self):
        # Hermitian within HERMITIAN_ATOL, but the large coherence turns the
        # 5e-13 defect into a 5e-10 imaginary part of every minor holding 2 and 4
        m = np.eye(4, dtype=complex)
        m[1, 3] = 1000.0
        m[3, 1] = 1000.0 + 5e-13j
        imag = {}
        for size in range(1, 5):
            for idx in combinations(range(4), size):
                det = complex(np.linalg.det(m[np.ix_(idx, idx)]))
                imag[tuple(i + 1 for i in idx)] = abs(det.imag)
        worst = max(imag, key=imag.get)
        with pytest.raises(NumericsError) as caught:
            all_principal_minors(m)
        message = str(caught.value)
        assert f"principal minor {worst} " in message
        assert "imaginary part -5.000e-10" in message
        # just under the bound, the same matrix passes
        m[3, 1] = 1000.0 + 5e-14j
        assert all_principal_minors(m).min_index_set == (2, 4)


class TestXStateReduction:
    def test_bell_key_minors(self):
        minors = x_state_key_minors(XStateParams(0.5, 0.0, 0.0, 0.5, rho14=0.5))
        assert minors == pytest.approx((0.25, -0.25))

    def test_maximally_mixed_key_minors(self):
        minors = x_state_key_minors(XStateParams(0.25, 0.25, 0.25, 0.25))
        assert minors == pytest.approx((1 / 16, 1 / 16))

    def test_sign_matches_ppt_oracle(self):
        # vectorized over 10^4 random X-states: NPT iff a key minor is negative
        rng = np.random.default_rng(17)
        count = 10_000
        diag = rng.dirichlet(np.ones(4), size=count)
        r14 = (
            np.sqrt(diag[:, 0] * diag[:, 3] * rng.uniform(size=count))
            * np.exp(2j * np.pi * rng.uniform(size=count))
        )
        r23 = (
            np.sqrt(diag[:, 1] * diag[:, 2] * rng.uniform(size=count))
            * np.exp(2j * np.pi * rng.uniform(size=count))
        )
        minor_14 = diag[:, 0] * diag[:, 3] - np.abs(r23) ** 2
        minor_23 = diag[:, 1] * diag[:, 2] - np.abs(r14) ** 2

        pts = np.zeros((count, 4, 4), dtype=complex)
        pts[:, range(4), range(4)] = diag
        # partial transpose swaps the two coherences between blocks
        pts[:, 0, 3] = np.conj(r23)
        pts[:, 3, 0] = r23
        pts[:, 1, 2] = np.conj(r14)
        pts[:, 2, 1] = r14
        eigs = np.linalg.eigvalsh(pts)
        ppt = eigs[:, 0] >= -1e-12
        minor_sign = np.minimum(minor_14, minor_23) >= -1e-12
        assert np.array_equal(ppt, minor_sign)

    def test_relations_hold(self):
        assert x_state_minor_relations_check(XStateParams(0.5, 0.0, 0.0, 0.5, rho14=0.5))
        assert x_state_minor_relations_check(XStateParams(0.25, 0.25, 0.25, 0.25))
        for seed in range(100):
            assert x_state_minor_relations_check(random_x_state(seed))


class TestThreeQubitX:
    def test_ghz_noise_formula(self):
        for alpha in np.linspace(0.0, 1.0, 21):
            minors = three_qubit_x_minors(ghz_white_noise(alpha))
            expected = (32 * alpha - 15 * alpha ** 2 - 16) / 64
            assert minors[3] == pytest.approx(expected, abs=1e-13)

    def test_ghz_boundary(self):
        assert three_qubit_x_minors(ghz_white_noise(0.8))[3] == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        state = ghz_white_noise(1.0)
        assert three_qubit_x_minors(state) == pytest.approx((1 / 64,) * 4)

    def test_off_pattern_entry_named_in_row_major_order(self):
        m = ghz_white_noise(0.5).matrix.copy()
        m[5, 2] = m[2, 5] = 1e-3
        m[1, 3] = m[3, 1] = 2e-3
        with pytest.raises(ValidationError, match=r"entry \(2,4\) = 2\.000e-03"):
            three_qubit_x_minors(DensityMatrix(m, (2, 2, 2)))

    def test_w_noise_is_not_x_form(self):
        # the W projector carries coherences off the anti-diagonal, so the
        # X fast path must refuse it
        with pytest.raises(ValidationError, match="X form"):
            three_qubit_x_minors(w_white_noise(0.5))

    def test_full_minor_identity(self):
        assert three_qubit_full_minor_identity_check(ghz_white_noise(0.3))
        assert three_qubit_full_minor_identity_check(ghz_white_noise(1.0))
        for seed in range(100):
            assert three_qubit_full_minor_identity_check(random_three_qubit_x_state(seed))

    def test_ghz_single_negative_minor_matches_negativity_boundary(self):
        from ptmoments.analysis import bisect_sign_change

        for alpha in np.linspace(0.0, 0.99, 34):
            m18, m27, m36, m45 = three_qubit_x_minors(ghz_white_noise(alpha))
            assert min(m18, m27, m36) >= -1e-12
            assert (m45 < -1e-12) == (alpha < 0.8 - 1e-9)
        minor_root = bisect_sign_change(
            lambda a: three_qubit_x_minors(ghz_white_noise(a))[3], 0.5, 0.99, xtol=1e-8
        )
        negativity_root = bisect_sign_change(
            lambda a: np.linalg.eigvalsh(partial_transpose(ghz_white_noise(a), 0))[0],
            0.5,
            0.99,
            xtol=1e-8,
        )
        assert abs(minor_root - negativity_root) < 1e-6


class TestSylvester:
    def test_examples(self):
        assert psd_via_minors(np.eye(4))
        assert not psd_via_minors(partial_transpose(bell_phi_plus(), 0))

    def test_agrees_with_eigenvalue_test(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.choice([4, 8]))
            m = random_psd(rng, dim) if rng.uniform() < 0.5 else random_hermitian(rng, dim)
            assert psd_via_minors(m) == is_psd(m)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValidationError):
            psd_via_minors(np.eye(2), -1.0)


def test_eight_minors_always_nonnegative():
    rng = np.random.default_rng(41)
    stack = batched_ginibre(rng, 300, 4)
    for rho in stack:
        pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        for labels in ALWAYS_NONNEGATIVE:
            assert principal_minor(pt, labels) >= -1e-12


def test_x_pattern_predicate():
    assert is_x_pattern(bell_phi_plus().matrix)
    assert is_x_pattern(ghz_white_noise(0.4).matrix)
    assert not is_x_pattern(w_white_noise(0.4).matrix)


def test_imaginary_residue_guard():
    m = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    # hermitian, so fine
    assert principal_minor(m, (1, 2)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValidationError):
        principal_minor(np.array([[1.0, 2.0], [1.0, 1.0]]), (1, 2))


def test_x_pair_minors_equal_the_principal_minors_at_the_pairs():
    from ptmoments.minors import X_PAIR_LABELS, x_pair_minor_stack

    assert X_PAIR_LABELS == {4: ((1, 4), (2, 3)), 8: ((1, 8), (2, 7), (3, 6), (4, 5))}
    for make in (lambda seed: x_state(random_x_state(seed)), random_three_qubit_x_state):
        pts = np.array([partial_transpose(make(seed), 0) for seed in range(50)])
        expected = [[principal_minor(pt, pair) for pair in X_PAIR_LABELS[len(pt)]] for pt in pts]
        assert x_pair_minor_stack(pts).tolist() == expected
        assert [x_pair_minor_stack(pt[None])[0].tolist() for pt in pts] == expected


def test_knoll_sweep_row_builds_the_pt_over_a_once(monkeypatch):
    # the spectrum and both X-form pair minors read one partial transpose, whether
    # the row comes from a one-state record or from the grid's stack
    from ptmoments import analysis
    from ptmoments.moments import resolve_criteria

    subsystems = []
    real = analysis.transpose_subsystem

    def counting(matrix, dims, subsystem):
        subsystems.append(subsystem)
        return real(matrix, dims, subsystem)

    monkeypatch.setattr(analysis, "transpose_subsystem", counting)
    family = analysis.FAMILY_BY_NAME["knoll"]
    for grid in ((), (0.0, 0.4, 1.0)):
        subsystems.clear()
        columns, evaluate, _ = analysis._sweep_evaluator(
            family, {"omega": 0.12, "eta": 0.21}, resolve_criteria(None, 6), 6, 1e-10, grid
        )
        row = evaluate(0.4)
        assert subsystems == [0]
    assert row["minor_14"] > 0 > row["minor_23"]
