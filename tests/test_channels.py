import numpy as np
import pytest
from oracles import (
    bisect_root,
    composite_damping_kraus,
    kron_apply_channel,
    random_density_matrix,
    random_x_state,
)

from ptmoments import (
    KrausChannel,
    ValidationError,
    XStateParams,
    amplitude_damping,
    apply_channel,
    bell_phi_plus,
    concurrence,
    ebc_gamma_threshold,
    is_x_pattern,
    knoll_state,
    partial_transpose,
    principal_minor,
    x_state,
)

KNOLL_POINT = (0.12, 0.21)
# omega / (eta * (1 - omega)) at the published operating point
KNOLL_GAMMA_STAR = 0.6493506493506493


class TestAmplitudeDamping:
    def test_zero_is_identity(self):
        state = x_state(random_x_state(1))
        out = apply_channel(state, amplitude_damping(0.0), 1)
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-15)

    def test_full_damping_resets_qubit(self):
        out = apply_channel(bell_phi_plus(), amplitude_damping(1.0), 1)
        expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-14)
        assert concurrence(out) == 0.0

    def test_range_check(self):
        with pytest.raises(ValidationError):
            amplitude_damping(1.5)

    def test_knoll_concurrence_vanishes_past_threshold(self):
        state = knoll_state(*KNOLL_POINT)
        evolved = apply_channel(state, amplitude_damping(0.65), 1)
        assert concurrence(evolved) == pytest.approx(0.0, abs=1e-10)
        still = apply_channel(state, amplitude_damping(0.60), 1)
        assert concurrence(still) > 1e-3


class TestCompositeChannel:
    def test_gamma_zero_reduces_to_two_operators(self):
        channel = composite_damping_kraus(0.12, 0.21, 0.0)
        assert len(channel.operators) == 2

    def test_completeness_at_reference_point(self):
        channel = composite_damping_kraus(0.12, 0.21, 0.4)
        total = sum(op.conj().T @ op for op in channel.operators)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ValidationError, match="denominator"):
            composite_damping_kraus(0.0, 0.0, 0.5)
        with pytest.raises(ValidationError, match="denominator"):
            composite_damping_kraus(0.0, 0.5, 0.0)

    def test_bell_action_breaks_at_same_gamma_as_evolved_mixture(self):
        # applying the composite channel to one half of the maximally
        # entangled state loses all entanglement exactly at the threshold
        # where the evolved mixture family does
        omega, eta = KNOLL_POINT
        bell = bell_phi_plus()

        def bell_conc(gamma):
            out = apply_channel(bell, composite_damping_kraus(omega, eta, gamma), 1)
            return concurrence(out) - 1e-12

        root = bisect_root(bell_conc, 0.4, 0.9, xtol=1e-8)
        assert root == pytest.approx(KNOLL_GAMMA_STAR, abs=1e-6)


class TestApplyChannel:
    def test_preserves_x_structure(self):
        for seed in range(25):
            state = x_state(random_x_state(seed))
            for qubit in (0, 1):
                out = apply_channel(state, amplitude_damping(0.37), qubit)
                assert is_x_pattern(out.matrix, atol=1e-14)

    def test_trace_preserved(self):
        state = x_state(random_x_state(3))
        out = apply_channel(state, amplitude_damping(0.7), 0)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_matches_kronecker_reference_on_every_subsystem(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            # a complex unitary makes a missing conjugate on the bra side show
            unitary, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            channels = (
                amplitude_damping(0.05 * seed),
                composite_damping_kraus(0.3, 0.4, 0.05 * seed),
                KrausChannel((unitary,)),
            )
            for dim in (4, 8):
                state = random_density_matrix(dim, seed=seed)
                for channel in channels:
                    for s in range(state.num_factors):
                        np.testing.assert_allclose(
                            apply_channel(state, channel, s).matrix,
                            kron_apply_channel(state, channel, s),
                            rtol=0,
                            atol=1e-15,
                        )

    def test_dimension_mismatch(self):
        big = KrausChannel((np.eye(3, dtype=complex),))
        with pytest.raises(ValidationError, match="dimension"):
            apply_channel(bell_phi_plus(), big, 0)

    def test_bad_subsystem(self):
        with pytest.raises(ValidationError, match="subsystem"):
            apply_channel(bell_phi_plus(), amplitude_damping(0.1), 5)


class TestKrausChannelValidation:
    def test_incomplete_set_rejected(self):
        half = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValidationError, match="trace preserving"):
            KrausChannel((half,))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            KrausChannel(())


class TestConcurrence:
    def test_bell_is_maximal(self):
        assert concurrence(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        assert concurrence(x_state(XStateParams(0.25, 0.25, 0.25, 0.25))) == 0.0

    def test_x_state_dual_computation_is_consistent(self):
        # the X closed form is cross-checked internally; any disagreement
        # beyond 1e-10 raises, so a clean pass over many samples is the test
        for seed in range(200):
            value = concurrence(x_state(random_x_state(seed)))
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_rank_deficient_damped_states_match_the_closed_form(self):
        # at eta = 0 the knoll base is pure, and each damped state has rank 2: the
        # eigensolver's noise eigenvalues must not reach the spin-flip value
        for omega in np.linspace(0.0, 1.0, 41):
            base = knoll_state(omega, 0.0)
            for gamma in np.linspace(0.0, 1.0, 41):
                state = apply_channel(base, amplitude_damping(gamma), 1)
                m = state.matrix
                closed = 2.0 * max(
                    0.0,
                    abs(m[0, 3]) - np.sqrt(m[1, 1].real * m[2, 2].real),
                    abs(m[1, 2]) - np.sqrt(m[0, 0].real * m[3, 3].real),
                )
                assert abs(concurrence(state) - closed) <= 1e-10

    def test_rejects_three_qubit_input(self):
        from ptmoments import ghz_white_noise

        with pytest.raises(ValidationError):
            concurrence(ghz_white_noise(0.1))


class TestBreakingThreshold:
    def test_reference_point(self):
        assert ebc_gamma_threshold(*KNOLL_POINT) == pytest.approx(
            KNOLL_GAMMA_STAR, abs=1e-12
        )

    def test_small_eta_clamps_to_one(self):
        assert ebc_gamma_threshold(0.5, 1e-6) == 1.0

    def test_open_interval_enforced(self):
        with pytest.raises(ValidationError):
            ebc_gamma_threshold(0.0, 0.5)
        with pytest.raises(ValidationError):
            ebc_gamma_threshold(0.5, 1.0)

    def test_underflowing_denominator_rejected(self):
        # both terms of the denominator underflow to 0.0 inside the open interval
        with pytest.raises(ValidationError, match="threshold denominator vanishes"):
            ebc_gamma_threshold(1e-200, 1e-200)

    def test_formula_matches_concurrence_bisection_on_grid(self):
        # thresholds on this grid stay inside (0, 1): omega small, eta large
        for omega in np.linspace(0.05, 0.25, 5):
            for eta in np.linspace(0.5, 0.9, 5):
                state = knoll_state(omega, eta)

                def evolved_conc(gamma):
                    out = apply_channel(state, amplitude_damping(gamma), 1)
                    return concurrence(out) - 1e-12

                root = bisect_root(evolved_conc, 0.0, 1.0, xtol=1e-6)
                assert root == pytest.approx(ebc_gamma_threshold(omega, eta), abs=1e-5)

    def test_threshold_matches_minor_sign_change(self):
        omega, eta = KNOLL_POINT
        state = knoll_state(omega, eta)

        def minor_23(gamma):
            out = apply_channel(state, amplitude_damping(gamma), 1)
            return principal_minor(partial_transpose(out, 0), (2, 3))

        # gamma = 1 is itself a root (fully damped), so bracket away from it
        root = bisect_root(minor_23, 0.0, 0.95, xtol=1e-6)
        assert root == pytest.approx(KNOLL_GAMMA_STAR, abs=1e-5)

        # minor {1,4} stays positive along the evolution
        for gamma in np.linspace(0.0, 1.0, 11):
            out = apply_channel(state, amplitude_damping(gamma), 1)
            assert principal_minor(partial_transpose(out, 0), (1, 4)) >= -1e-12
