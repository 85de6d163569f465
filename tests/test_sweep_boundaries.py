"""Sweep boundaries follow one sign rule, value - floor < 0.0, on the grid and
in the bisection, so they do not depend on the grid."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import bisect_root

from ptmoments import ValidationError, analysis
from ptmoments.analysis import bisect_sign_change, run_sweep

# (family, fixed parameters).  Knoll at omega=0.2, eta=0.25 is left out: its
# two p3oppt_margin roots, near 0.692 and 0.9999997, share one cell of the
# 3-point grid and cancel there, which no sign rule can see.
FAMILIES = [
    ("ghz-noise", {}),
    ("w-noise", {}),
    ("knoll", {"omega": 0.12, "eta": 0.21}),
]


@pytest.mark.parametrize("family,fixed", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_boundaries_do_not_depend_on_the_grid(family, fixed):
    results = {steps: run_sweep(family, fixed, 0.0, 1.0, steps).sign_changes for steps in (3, 5, 11, 101)}
    reference = [column for column, _ in results[101]]
    for steps, changes in results.items():
        assert [column for column, _ in changes] == reference, steps
    for i in range(len(reference)):
        roots = [changes[i][1] for changes in results.values()]
        assert max(roots) - min(roots) <= 2e-6, (reference[i], roots)


def lockstep_roots(functions, lo, hi, xtol):
    """bisect_sign_change of one scalar function per bracket, each end sign read as the grid scan
    reads it, and the calls of f as (midpoints, brackets)."""
    calls = []

    def f(x, brackets):
        calls.append((x.tolist(), brackets.tolist()))
        return np.array([functions[k](v) for v, k in zip(x, brackets)])

    lo_negative = [g(a) < 0.0 for g, a in zip(functions, lo)]
    return bisect_sign_change(f, lo, hi, lo_negative, xtol=xtol), calls


def test_zero_plateau_is_non_negative():
    # f is exactly 0 on [0.3, 1] and on [0, 0.6]: the sign changes are at 0.3 and 0.6
    functions = [lambda x: min(0.0, x - 0.3), lambda x: min(0.0, 0.6 - x)]
    roots, _ = lockstep_roots(functions, [0.0, 0.0], [1.0, 1.0], xtol=1e-8)
    assert roots.tolist() == pytest.approx([0.3, 0.6], abs=1e-8)


def test_exact_zero_at_a_midpoint_does_not_stop_the_search():
    # the first midpoint 0.5 is an exact zero on the non-negative side
    (root,), _ = lockstep_roots([lambda x: -1.0 if x < 0.5 else 0.0], [0.0], [1.0], xtol=1e-9)
    assert root == pytest.approx(0.5, abs=1e-9)
    assert root < 0.5


def test_plateau_at_zero_puts_no_root_on_the_grid_end():
    # p3ppt_margin of ghz-noise is exactly 0 at alpha = 1; its root used to be reported there
    roots = dict(run_sweep("ghz-noise", {}, 0.0, 1.0, 3).sign_changes)
    assert roots["p3ppt_margin"] == pytest.approx(0.678333759308, abs=1e-9)
    assert roots["p3oppt_margin"] == pytest.approx(0.695058345795, abs=1e-9)


def test_array_bisection_halves_each_bracket_until_its_own_width_is_within_xtol():
    # the first bracket starts 0.8e-6 wide, below xtol, and is never halved; the second
    # halves 20 times, each midpoint alone, as the scalar loop halves it; f is never read
    # at a bracket end
    functions = [lambda x: x - 0.3, lambda x: x - 0.7]
    lo, hi = [0.3 - 0.4e-6, 0.0], [0.3 + 0.4e-6, 1.0]
    roots, calls = lockstep_roots(functions, lo, hi, xtol=1e-6)
    assert roots[0] == 0.5 * (lo[0] + hi[0])
    assert roots[1] == bisect_root(functions[1], 0.0, 1.0, xtol=1e-6)
    assert len(calls) == 20 and all(brackets == [1] for _, brackets in calls)
    assert all(x not in (lo[1], hi[1]) for (x,), _ in calls)


def test_array_bisection_equals_scalar_bisection_per_bracket():
    # brackets of different widths and signs, halved in lockstep, find what each finds alone
    functions = [lambda x: x - 0.3, lambda x: 0.61 - x, lambda x: min(0.0, x - 0.45), lambda x: x * x - 0.5]
    lo, hi = [0.0, 0.5, 0.4, 0.7], [1.0, 0.7, 0.5, 0.71]
    roots, _ = lockstep_roots(functions, lo, hi, xtol=1e-9)
    assert roots.tolist() == [bisect_root(g, a, b, xtol=1e-9) for g, a, b in zip(functions, lo, hi)]


@pytest.mark.parametrize("family,fixed", [("w-noise", {"beta": 0.3}), ("knoll", {"omega": 0.12, "eta": 0.21, "gamma": 0.5})])
def test_a_fixed_swept_parameter_is_rejected(family, fixed):
    param = analysis.FAMILY_BY_NAME[family].sweep_param
    with pytest.raises(ValidationError, match=f"^swept parameter '{param}' must not also be fixed$"):
        run_sweep(family, fixed, 0.0, 1.0, 3)


@pytest.mark.parametrize("family,fixed", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_sweep_without_a_crossing_bisects_nothing(monkeypatch, family, fixed):
    # no column changes sign over [0.9, 1], so there is no bracket to halve
    def unexpected(*args, **kwargs):
        raise AssertionError("bisect_sign_change called without a sign change")

    monkeypatch.setattr(analysis, "bisect_sign_change", unexpected)
    assert analysis.run_sweep(family, fixed, 0.9, 1.0, 11).sign_changes == []
