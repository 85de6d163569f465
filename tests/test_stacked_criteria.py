"""The criteria, the negativity and the concurrence over stacks: each row of a stack gets, bit for bit,
what the one-state references in `oracles` compute for it alone, and the first bad row
raises what it raises alone."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import batched_ginibre
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    one_state_concurrence,
    one_state_negativity,
    one_state_oppt_threshold,
    one_state_p3_ppt_margin,
    one_state_pn_ppt,
)

from ptmoments import DensityMatrix, NumericsError, ValidationError, knoll_state
from ptmoments.analysis import FAMILY_BY_NAME, _Points, build_family_stack
from ptmoments.channels import amplitude_damped_matrices, concurrence, matrix_concurrence
from ptmoments.ptranspose import negativity_from_spectrum
from ptmoments.moments import (
    CRITERIA,
    MomentVector,
    check_moments,
    oppt_threshold,
    p3_oppt_test,
    p3_ppt_test,
    pn_ppt_test,
)

KMAX = 9
TOL = 1e-10
FAMILY_STACKS = {  # a 1001-point stack of each sweepable family: (family, fixed parameters)
    "w-noise": ("w-noise", {}),
    "ghz-noise": ("ghz-noise", {}),
    "knoll": ("knoll", {"omega": 0.12, "eta": 0.21}),
}


def one_state_margins(token: str, rows: list[list[float]]) -> list[tuple[float, float]]:
    """(margin, tolerance) of criterion `token` on each row of moments alone."""
    if token == "p3ppt":
        return [(one_state_p3_ppt_margin(r), TOL) for r in rows]
    if token == "p3oppt":
        return [(r[2] - one_state_oppt_threshold(r[1]), TOL) for r in rows]
    return [one_state_pn_ppt(r, CRITERIA[token].order, TOL) for r in rows]


def assert_each_row_as_alone(points: _Points) -> None:
    p = points.criteria_moments()
    for token, criterion in CRITERIA.items():
        if criterion.order <= p.shape[1]:
            margins, tolerances = criterion.test(p, TOL)
            assert list(zip(margins.tolist(), tolerances.tolist())) == one_state_margins(token, p.tolist()), token
    eigs = points.spectrum(0)
    assert negativity_from_spectrum(eigs, TOL).tolist() == [one_state_negativity(row, TOL) for row in eigs]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    dims=st.sampled_from([(2, 2), (2, 2, 2), (3, 3), (4, 4)]),
    rank=st.integers(1, 4),
    n=st.integers(1, 30),
)
def test_random_stacks_match_each_row_alone(seed, dims, rank, n):
    # low-rank states of (3, 3) and (4, 4) have up to 4 and 6 negative PT eigenvalues, whose
    # sum numpy would add in another order as a masked row of 9 or 16
    dim = int(np.prod(dims))
    real, imag = np.random.default_rng(seed).standard_normal((2, n, dim, rank))
    g = real + 1j * imag
    matrices = g @ g.conj().swapaxes(-1, -2)
    matrices = matrices / matrices.trace(0, -2, -1).real[:, None, None]
    assert_each_row_as_alone(_Points(matrices, dims, KMAX))
    if dims == (2, 2):
        assert matrix_concurrence(matrices).tolist() == [one_state_concurrence(m) for m in matrices]


@pytest.mark.parametrize("name", FAMILY_STACKS)
def test_family_stacks_match_each_row_alone(name):
    family, fixed = FAMILY_STACKS[name]
    record = FAMILY_BY_NAME[family]
    matrices = build_family_stack(family, {**fixed, record.sweep_param: np.linspace(0.0, 1.0, 1001)})
    assert_each_row_as_alone(_Points(matrices, (2,) * record.factors, KMAX))
    if family == "knoll":
        assert matrix_concurrence(matrices).tolist() == [one_state_concurrence(m) for m in matrices]


def _snap_point_p2() -> np.ndarray:
    """p2 at and around the floor's snap points 1/k: 1, 1/2, 1/3 and 1/4 and 2e-12 either side
    of them, and 20 float neighbours either side of 1/2 .. 1/7."""
    values = [v + d for v in (1.0, 1 / 2, 1 / 3, 1 / 4) for d in (0.0, -2e-12, 2e-12, -1e-12, 1e-12)]
    for k in range(2, 8):
        up = down = 1.0 / k
        for _ in range(20):
            up, down = np.nextafter(up, 2.0), np.nextafter(down, 0.0)
            values += [up, down]
    return np.array([v for v in values if v <= 1.0])


def test_order_3_margins_match_each_row_alone_at_the_snap_points():
    rng = np.random.default_rng(17)
    p2 = np.concatenate([_snap_point_p2(), rng.uniform(1 / 8, 1.0, 2000)])
    p = np.column_stack([np.ones(len(p2)), p2, rng.uniform(0.0, 1.0, len(p2))])
    for token in ("p3ppt", "p3oppt"):
        margins, tolerances = CRITERIA[token].test(p, TOL)
        assert list(zip(margins.tolist(), tolerances.tolist())) == one_state_margins(token, p.tolist()), token
        verdicts = [CRITERIA[token].verdict(row, TOL) for row in p[:200]]
        assert [v.margin for v in verdicts] == margins[:200].tolist()


def _raised(call) -> str:
    with pytest.raises((ValidationError, NumericsError)) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize(
    "bad",
    [
        {3: (0, 1.0 + 1e-9)},  # p1 != 1
        {2: (1, 0.2)},  # p2 below 1/4
        {4: (1, 1.0 + 2e-10)},  # p2 above 1
        {4: (0, 0.9), 2: (1, 0.2)},  # the first bad row raises, whichever its check
        {2: (0, 0.9), 4: (1, 0.2)},
    ],
)
def test_bad_moment_row_raises_what_it_raises_alone(bad):
    p = _Points(batched_ginibre(np.random.default_rng(3), 6, 4), (2, 2), 5).moments(0).copy()
    for row, (column, value) in bad.items():
        p[row, column] = value
    first = min(bad)
    assert _raised(lambda: check_moments(p, 4)) == _raised(lambda: MomentVector(tuple(p[first]), 4))


def test_p2_outside_the_oppt_range_raises_what_it_raises_alone():
    # 1 + 5e-11 passes the moment check's 1e-10 but not the threshold's snap of 1e-12
    p = _Points(batched_ginibre(np.random.default_rng(4), 5, 4), (2, 2), 3).moments(0).copy()
    p[1, 1], p[3, 1] = 1.0 + 5e-11, 1.0 + 7e-11
    expected = _raised(lambda: one_state_oppt_threshold(p[1, 1]))
    assert expected == "p_2 must lie in (0, 1], got 1.00000000005"
    assert _raised(lambda: CRITERIA["p3oppt"].test(p, TOL)) == expected
    assert _raised(lambda: oppt_threshold(p[1, 1])) == expected


def test_concurrence_cross_check_failure_raises_the_failing_row_alone():
    # a damped knoll state at eta = 1e-12 fails the 1e-10 cross-check (its small eigenvalues
    # are genuine, and the square root magnifies their error); the message is what the
    # one-state evaluation of that state gives
    base = knoll_state(0.025, 1e-12)
    stack = amplitude_damped_matrices(base.matrix, base.dims, np.array([0.1, 0.65, 0.3]), 1)
    message = "concurrence cross-check failed: spin-flip 0.184728601828281 vs X closed form 0.184728601928298"
    assert _raised(lambda: matrix_concurrence(stack[1:2])) == message
    assert _raised(lambda: matrix_concurrence(stack)) == message
    good = stack[[0, 2]]
    assert matrix_concurrence(good).tolist() == [concurrence(DensityMatrix(m, (2, 2))) for m in good]


def test_scalar_criteria_are_the_stack_of_one():
    p = _Points(batched_ginibre(np.random.default_rng(5), 1, 8), (2, 2, 2), KMAX).criteria_moments()
    mv = MomentVector(tuple(p[0]), 8)
    order_3 = {"p3ppt": p3_ppt_test, "p3oppt": p3_oppt_test}
    for token, criterion in CRITERIA.items():
        if criterion.order <= KMAX:
            verdict = order_3[token](mv, TOL) if token in order_3 else pn_ppt_test(mv, criterion.order, TOL)
            [(margin, tolerance)] = one_state_margins(token, p.tolist())
            assert (verdict.criterion, verdict.margin, verdict.tolerance) == (criterion.name, margin, tolerance)
