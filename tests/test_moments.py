import math

import numpy as np
import pytest
from conftest import random_separable_state
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_density_matrix, random_x_state

from ptmoments import (
    MomentVector,
    ValidationError,
    XStateParams,
    all_principal_minors,
    bell_phi_plus,
    ghz_white_noise,
    hankel,
    hermitian_eigenvalues,
    is_psd,
    negativity,
    oppt_threshold,
    p3_oppt_test,
    p3_ppt_test,
    partial_transpose,
    pn_ppt_test,
    pt_moments,
    tripartite_moments,
    w_white_noise,
    x_state,
    x_state_moments_closed_form,
)
from ptmoments.analysis import analyze_state
from ptmoments.moments import (
    CRITERIA,
    MAX_KMAX,
    moments_from_minor_sums,
    moments_from_spectrum,
    resolve_criteria,
)

GHZ_POLYNOMIALS = (
    lambda a: 1.0,
    lambda a: 1 - 7 * a / 4 + 7 * a ** 2 / 8,
    lambda a: (16 - 24 * a + 3 * a ** 2 + 6 * a ** 3) / 64,
    lambda a: (128 - 448 * a + 624 * a ** 2 - 412 * a ** 3 + 109 * a ** 4) / 512,
    lambda a: (256 - 640 * a + 160 * a ** 2 + 880 * a ** 3 - 955 * a ** 4 + 300 * a ** 5)
    / 4096,
)

W_POLYNOMIALS = (
    lambda b: 1.0,
    lambda b: 1 - 7 * b / 4 + 7 * b ** 2 / 8,
    lambda b: (64 - 120 * b + 57 * b ** 2 + 2 * b ** 3) / 192,
    lambda b: (12800 - 44288 * b + 59952 * b ** 2 - 37916 * b ** 3 + 9533 * b ** 4)
    / 41472,
    lambda b: (
        45056 - 161280 * b + 211840 * b ** 2 - 111920 * b ** 3 + 8565 * b ** 4 + 7820 * b ** 5
    )
    / 331776,
)


@st.composite
def x_state_params(draw):
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(4)]
    total = sum(raw)
    d = [r / total for r in raw]
    d[3] = 1.0 - d[0] - d[1] - d[2]
    m14 = draw(st.floats(0.0, 1.0)) * math.sqrt(d[0] * d[3])
    m23 = draw(st.floats(0.0, 1.0)) * math.sqrt(d[1] * d[2])
    ph14 = draw(st.floats(0.0, 2 * math.pi))
    ph23 = draw(st.floats(0.0, 2 * math.pi))
    return XStateParams(
        d[0],
        d[1],
        d[2],
        d[3],
        rho14=m14 * complex(math.cos(ph14), math.sin(ph14)),
        rho23=m23 * complex(math.cos(ph23), math.sin(ph23)),
    )


class TestPtMoments:
    def test_bell(self):
        mv = pt_moments(bell_phi_plus(), 0, 3)
        assert mv.values == pytest.approx((1.0, 1.0, 0.25), abs=1e-12)

    def test_maximally_mixed(self):
        mv = pt_moments(x_state(XStateParams(0.25, 0.25, 0.25, 0.25)), 0, 3)
        assert mv.values == pytest.approx((1.0, 0.25, 0.0625), abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.13, 0.5, 0.8, 1.0])
    def test_ghz_polynomials_spot(self, alpha):
        mv = pt_moments(ghz_white_noise(alpha), 0, 5)
        for k, poly in enumerate(GHZ_POLYNOMIALS):
            assert mv.values[k] == pytest.approx(poly(alpha), abs=1e-10)

    def test_moments_beyond_the_first_are_at_most_one(self):
        # why the order-3 criteria's absolute tolerance equals the relative one
        rng = np.random.default_rng(4)
        for dim, dims in ((4, (2, 2)), (6, (3, 2)), (8, (2, 2, 2))):
            for _ in range(20):
                state = random_density_matrix(dim, rng, dims)
                for s in range(len(dims)):
                    assert all(abs(p) <= 1.0 + 1e-12 for p in pt_moments(state, s, 7).values[1:])

    def test_kmax_cap(self):
        assert pt_moments(bell_phi_plus(), 0, MAX_KMAX).kmax == MAX_KMAX
        with pytest.raises(ValidationError, match=f"1..{MAX_KMAX}"):
            pt_moments(bell_phi_plus(), 0, MAX_KMAX + 1)
        with pytest.raises(ValidationError, match=f"1..{MAX_KMAX}"):
            tripartite_moments(ghz_white_noise(0.5), MAX_KMAX + 1)

    def test_default_kmax(self):
        assert pt_moments(bell_phi_plus(), 0).kmax == 6
        assert pt_moments(ghz_white_noise(0.2), 0).kmax == 5

    def test_moment_vector_contract(self):
        with pytest.raises(ValidationError, match="p_1"):
            MomentVector(values=(0.9, 0.5))
        with pytest.raises(ValidationError, match="p_2"):
            MomentVector(values=(1.0, 0.1), dim=4)


class TestHankel:
    def test_bell_first_order(self):
        mv = pt_moments(bell_phi_plus(), 0, 3)
        np.testing.assert_allclose(hankel(mv, 1), [[1, 1], [1, 0.25]], atol=1e-12)

    def test_maximally_mixed_is_boundary(self):
        mv = pt_moments(x_state(XStateParams(0.25, 0.25, 0.25, 0.25)), 0, 3)
        b1 = hankel(mv, 1)
        np.testing.assert_allclose(b1, [[1, 0.25], [0.25, 0.0625]], atol=1e-14)
        assert np.linalg.det(b1) == pytest.approx(0.0, abs=1e-14)

    def test_pure_ghz_second_order(self):
        mv = pt_moments(ghz_white_noise(0.0), 0, 5)
        expected = np.array(
            [[1, 1, 0.25], [1, 0.25, 0.25], [0.25, 0.25, 0.0625]]
        )
        np.testing.assert_allclose(hankel(mv, 2), expected, atol=1e-12)

    def test_index_rule(self):
        mv = MomentVector(values=(1.0, 0.9, 0.8, 0.7, 0.6))
        b2 = hankel(mv, 2)
        for i in range(3):
            for j in range(3):
                assert b2[i, j] == mv.values[i + j]

    def test_insufficient_moments(self):
        mv = pt_moments(bell_phi_plus(), 0, 3)
        with pytest.raises(ValidationError, match="moments"):
            hankel(mv, 2)


class TestCriteria:
    def test_bell_p3ppt(self):
        verdict = p3_ppt_test(pt_moments(bell_phi_plus(), 0, 3))
        assert verdict.violated
        assert verdict.margin == pytest.approx(-0.75, abs=1e-12)

    def test_maximally_mixed_boundary(self):
        mv = pt_moments(x_state(XStateParams(0.25, 0.25, 0.25, 0.25)), 0, 3)
        assert not p3_ppt_test(mv).violated
        assert p3_ppt_test(mv).margin == pytest.approx(0.0, abs=1e-12)
        verdict = pn_ppt_test(mv, 3)
        assert not verdict.violated
        assert verdict.margin == pytest.approx(0.0, abs=1e-12)

    def test_bell_pn_ppt(self):
        assert pn_ppt_test(pt_moments(bell_phi_plus(), 0, 3), 3).violated

    def test_w_boundary_margin_small(self):
        # the order-3 margin changes sign near beta = 0.629
        mv = pt_moments(w_white_noise(0.629), 0, 3)
        assert abs(p3_ppt_test(mv).margin) < 1e-4

    def test_pn_rejects_even_or_small_order(self):
        mv = pt_moments(bell_phi_plus(), 0, 6)
        with pytest.raises(ValidationError):
            pn_ppt_test(mv, 4)
        with pytest.raises(ValidationError):
            pn_ppt_test(mv, 1)

    def test_oppt_examples(self):
        bell_mv = pt_moments(bell_phi_plus(), 0, 3)
        verdict = p3_oppt_test(bell_mv)
        assert verdict.violated
        assert verdict.margin == pytest.approx(-0.75, abs=1e-12)

        mixed_mv = pt_moments(x_state(XStateParams(0.25, 0.25, 0.25, 0.25)), 0, 3)
        assert p3_oppt_test(mixed_mv).margin == pytest.approx(0.0, abs=1e-12)

    def test_oppt_threshold_values(self):
        assert oppt_threshold(1.0) == pytest.approx(1.0)
        assert oppt_threshold(0.25) == pytest.approx(1 / 16)
        # strictly above p2^2 away from integer 1/p2
        assert oppt_threshold(0.6) == pytest.approx(0.4, abs=1e-12)
        assert oppt_threshold(0.6) > 0.36

    def test_oppt_rejects_bad_p2(self):
        with pytest.raises(ValidationError):
            oppt_threshold(0.0)
        with pytest.raises(ValidationError):
            oppt_threshold(1.1)
        # 1/p2 at or past 2^53 (or overflowing to inf) leaves no exact floor; it used to give nan
        for p2 in (1e-300, 1e-310, 2.0 ** -53):
            with pytest.raises(ValidationError, match=f"p_2 = {p2:.15g} is too small"):
                oppt_threshold(p2)
        assert oppt_threshold(2.0 ** -52) == pytest.approx(2.0 ** -104, rel=1e-12)

    def test_oppt_soundness_direction_on_x_states(self):
        # a violated optimal order-3 criterion must imply NPT, never the reverse
        for seed in range(300):
            params = random_x_state(seed)
            state = x_state(params)
            verdict = p3_oppt_test(pt_moments(state, 0, 3))
            if verdict.violated:
                assert not is_psd(partial_transpose(state, 0))

    def test_verdict_invariant(self):
        from ptmoments import CriterionVerdict

        with pytest.raises(ValidationError):
            CriterionVerdict(criterion="x", violated=True, margin=0.5, tolerance=1e-10)


class TestTripartite:
    def test_symmetric_equals_single_subsystem(self):
        state = ghz_white_noise(0.42)
        agg = tripartite_moments(state, 5)
        single = pt_moments(state, 0, 5)
        np.testing.assert_allclose(agg.values, single.values, atol=1e-12)

    def test_maximally_mixed(self):
        agg = tripartite_moments(ghz_white_noise(1.0), 2)
        assert agg.values[1] == pytest.approx(1 / 8, abs=1e-13)

    def test_first_moment_is_one(self):
        assert tripartite_moments(w_white_noise(0.3), 1).values[0] == pytest.approx(1.0)

    def test_rejects_bipartite(self):
        with pytest.raises(ValidationError, match="3-factor"):
            tripartite_moments(bell_phi_plus())


class TestClosedForms:
    def test_maximally_mixed(self):
        mv = x_state_moments_closed_form(XStateParams(0.25, 0.25, 0.25, 0.25))
        expected = tuple(4 * 0.25 ** k for k in range(1, 7))
        assert mv.values == pytest.approx(expected, abs=1e-14)

    def test_bell(self):
        mv = x_state_moments_closed_form(XStateParams(0.5, 0.0, 0.0, 0.5, rho14=0.5))
        assert mv.values[:3] == pytest.approx((1.0, 1.0, 0.25), abs=1e-14)
        # spectrum {-1/2, 1/2, 1/2, 1/2}: p_k = (3 + (-1)^k) / 2^k
        assert mv.values[3:] == pytest.approx((0.25, 0.0625, 0.0625), abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(x_state_params())
    def test_matches_eigenvalue_oracle(self, params):
        closed = x_state_moments_closed_form(params)
        direct = pt_moments(x_state(params), 0, 6)
        np.testing.assert_allclose(closed.values, direct.values, atol=1e-11)


def enumerated_minor_sums(pt) -> list[float]:
    """e_j, the sum of the j x j principal minors, from the full enumeration."""
    sums = [0.0] * pt.shape[0]
    for labels, value in all_principal_minors(pt).minors.items():
        sums[len(labels) - 1] += value
    return sums


class TestMomentsFromMinorSums:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 2), (2, 2, 2)])
    def test_matches_spectrum_on_every_layout(self, dims):
        dim = math.prod(dims)
        for seed in range(200):
            state = random_density_matrix(dim, seed=seed, dims=dims)
            for s in range(len(dims)):
                pt = partial_transpose(state, s)
                minors = moments_from_minor_sums(enumerated_minor_sums(pt), 7, dim)
                spectrum = moments_from_spectrum(hermitian_eigenvalues(pt), 7, dim)
                np.testing.assert_allclose(minors.values, spectrum.values, rtol=0, atol=1e-12)

    def test_x_state_closed_form_is_the_two_minor_case(self):
        for seed in range(1000):
            params = random_x_state(seed)
            closed = x_state_moments_closed_form(params)
            sums = enumerated_minor_sums(partial_transpose(x_state(params), 0))
            assert len(closed.values) == 6 and closed.values[0] == 1.0
            np.testing.assert_allclose(
                closed.values, moments_from_minor_sums(sums, 6, 4).values, rtol=0, atol=1e-14
            )


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "decide",
    [
        lambda tol: negativity(ghz_white_noise(0.95), 0, tol),
        lambda tol: p3_ppt_test(pt_moments(ghz_white_noise(0.95), 0), tol),
        lambda tol: p3_oppt_test(pt_moments(bell_phi_plus(), 0), tol),
        lambda tol: pn_ppt_test(pt_moments(bell_phi_plus(), 0), 5, tol),
    ],
    ids=["negativity", "p3ppt", "p3oppt", "p5ppt"],
)
def test_unusable_tolerance_rejected(decide, tol):
    # -1 used to give negativity -1.0 and a violated p3-ppt on a PPT state,
    # and NaN a p3-ppt and p5-ppt pass on the Bell state
    with pytest.raises(ValidationError, match="tolerance must be finite and non-negative"):
        decide(tol)


@pytest.mark.parametrize("dims", [(3, 2), (2, 3)])
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_no_criterion_fires_on_separable_qutrit_qubit_states(dims, seed):
    state = random_separable_state(np.random.default_rng(seed), dims)
    report = analyze_state(state, {}, kmax=7, criteria="p3ppt,p3oppt,p5ppt")
    assert [c["violated"] for c in report["criteria"]] == [False, False, False]
    assert report["oracle"]["ppt"] == {"A": True, "B": True}


def test_no_criterion_fires_on_separable_states():
    rng = np.random.default_rng(61)
    for _ in range(100):
        state = random_separable_state(rng)
        mv = pt_moments(state, 0, 6)
        assert not p3_ppt_test(mv).violated
        assert not p3_oppt_test(mv).violated
        assert not pn_ppt_test(mv, 5).violated


def test_criteria_table():
    assert list(CRITERIA) == ["p3ppt", "p3oppt", *(f"p{n}ppt" for n in range(5, MAX_KMAX, 2))]
    mv = pt_moments(ghz_white_noise(0.5), 0, MAX_KMAX)
    for token, criterion in CRITERIA.items():
        name, order, test = criterion
        assert criterion.verdict(mv.values, 1e-10).criterion == name
        assert name.replace("-", "") == token
        # any case, hyphens dropped: P5-PPT, P3O-PPT
        assert resolve_criteria(f" {token[:-3].upper()}-{token[-3:].upper()} ", order) == {token: criterion}
        with pytest.raises(ValidationError, match=f"criterion '{token}' needs kmax >= {order}, got {order - 1}$"):
            resolve_criteria(token.upper(), order - 1)


@pytest.mark.parametrize(
    "kmax,tokens",
    [(3, ["p3ppt", "p3oppt"]), (6, ["p3ppt", "p3oppt", "p5ppt"]), (MAX_KMAX, ["p3ppt", "p3oppt", "p5ppt", "p7ppt"])],
)
def test_default_criteria(kmax, tokens):
    assert list(resolve_criteria(None, kmax)) == tokens
