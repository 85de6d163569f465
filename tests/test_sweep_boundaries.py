"""Sweep boundaries follow one sign rule, value - floor < 0.0, on the grid and
in the bisection, so they do not depend on the grid."""

from __future__ import annotations

import numpy as np
import pytest

from ptmoments import ValidationError
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


def test_zero_plateau_is_non_negative():
    # f is exactly 0 on [0.3, 1]: the sign change is at 0.3, not at the end
    assert bisect_sign_change(lambda x: min(0.0, x - 0.3), 0.0, 1.0, xtol=1e-8) == pytest.approx(0.3, abs=1e-8)
    assert bisect_sign_change(lambda x: min(0.0, 0.6 - x), 0.0, 1.0, xtol=1e-8) == pytest.approx(0.6, abs=1e-8)


def test_exact_zero_at_a_midpoint_does_not_stop_the_search():
    # the first midpoint 0.5 is an exact zero on the non-negative side
    root = bisect_sign_change(lambda x: -1.0 if x < 0.5 else 0.0, 0.0, 1.0, xtol=1e-9)
    assert root == pytest.approx(0.5, abs=1e-9)
    assert root < 0.5


def test_no_sign_change_is_rejected():
    # zero at both ends counts as non-negative at both ends
    with pytest.raises(ValidationError, match="no sign change"):
        bisect_sign_change(lambda x: 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError, match="no sign change"):
        bisect_sign_change(lambda x: x, 0.0, 1.0)


def test_plateau_at_zero_puts_no_root_on_the_grid_end():
    # p3ppt_margin of ghz-noise is exactly 0 at alpha = 1; its root used to be reported there
    roots = dict(run_sweep("ghz-noise", {}, 0.0, 1.0, 3).sign_changes)
    assert roots["p3ppt_margin"] == pytest.approx(0.678333759308, abs=1e-9)
    assert roots["p3oppt_margin"] == pytest.approx(0.695058345795, abs=1e-9)


def test_array_bisection_names_the_bracket_without_a_sign_change():
    # the second bracket, [0.5, 1.0], is non-negative at both ends
    with pytest.raises(ValidationError, match=r"no sign change of .* in \[0\.5, 1\.0\]$"):
        bisect_sign_change(lambda x, brackets: x - 0.25, np.array([0.0, 0.5]), np.array([0.5, 1.0]))


def test_array_bisection_halves_each_bracket_until_its_own_width_is_within_xtol():
    # the first bracket starts 0.8e-6 wide, below xtol, and is never halved; the second
    # halves 20 times, each midpoint alone, as the scalar loop halves it
    calls = []

    def f(x, brackets):
        calls.append((x.tolist(), brackets.tolist()))
        return np.where(brackets == 0, x - 0.3, x - 0.7)

    lo, hi = np.array([0.3 - 0.4e-6, 0.0]), np.array([0.3 + 0.4e-6, 1.0])
    roots = bisect_sign_change(f, lo, hi, xtol=1e-6)
    assert roots[0] == 0.5 * (lo[0] + hi[0])
    assert roots[1] == bisect_sign_change(lambda x: x - 0.7, 0.0, 1.0, xtol=1e-6)
    ends, halvings = calls[:2], calls[2:]
    assert ends == [(lo.tolist(), [0, 1]), (hi.tolist(), [0, 1])]
    assert len(halvings) == 20 and all(brackets == [1] for _, brackets in halvings)


def test_array_bisection_equals_scalar_bisection_per_bracket():
    # brackets of different widths and signs, halved in lockstep, find what each finds alone
    functions = [lambda x: x - 0.3, lambda x: 0.61 - x, lambda x: min(0.0, x - 0.45), lambda x: x * x - 0.5]
    lo, hi = np.array([0.0, 0.5, 0.4, 0.7]), np.array([1.0, 0.7, 0.5, 0.71])
    roots = bisect_sign_change(
        lambda x, brackets: np.array([functions[k](v) for v, k in zip(x, brackets)]), lo, hi, xtol=1e-9
    )
    assert roots.tolist() == [bisect_sign_change(g, a, b, xtol=1e-9) for g, a, b in zip(functions, lo, hi)]
