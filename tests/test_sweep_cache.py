"""The sweep grid's stack and the lockstep bisection: the grid is built as one
stack, each halving's distinct midpoints as one more, and what either returns
equals what a fresh one-state evaluation computes, exactly.  Deterministic
counts only; no wall-clock assertions."""

from __future__ import annotations

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import SAMPLE_PARAMS, fresh_row, record_evaluations, sweep_evaluator
from oracles import bisect_root

from ptmoments import NumericsError, analysis, states
from ptmoments.analysis import FAMILY_BY_NAME, sweepable_families

# The 101-step sweeps of the golden files: family and fixed parameters.
GOLDEN_SWEEPS = {
    "w-noise": ("w-noise", {}),
    "ghz-noise": ("ghz-noise", {}),
    "knoll-o0.12-e0.21": ("knoll", {"omega": 0.12, "eta": 0.21}),
    "knoll-o0.2-e0.25": ("knoll", {"omega": 0.2, "eta": 0.25}),
}


@pytest.mark.parametrize("name", sweepable_families())
def test_fresh_column_evaluation_matches_fresh_full_row(name):
    # each side starts from an empty cache, so neither reads the other's values back
    columns, _, floors = sweep_evaluator(name)
    assert set(floors) <= set(columns)
    for x in (0.05, 0.4, 0.77, 0.95):
        row = fresh_row(name, x)
        assert list(row) == columns
        for column in floors:
            _, single, _ = sweep_evaluator(name)
            assert single(np.array([x]), [column]).tolist() == [row[column]]


@pytest.mark.parametrize("name", sweepable_families())
def test_each_group_computes_any_sorted_rows_as_the_full_stack_does(name):
    # the groups and the record builder are those of the evaluator's own closure
    _, evaluate, _ = sweep_evaluator(name, kmax=7)
    cells = dict(zip(evaluate.__code__.co_freevars, evaluate.__closure__))
    points = cells["record"].cell_contents(np.linspace(0.0, 1.0, 6))
    for group in cells["groups"].cell_contents:
        full = group.compute(points, slice(None))
        assert full.shape == (6, len(group.names)), group.names
        for size in range(1, 7):
            for rows in map(list, itertools.combinations(range(6), size)):
                part = group.compute(points, rows)
                assert part.dtype == full.dtype and part.tobytes() == full[rows].tobytes(), (group.names, rows)


@pytest.fixture
def traced_sweep(monkeypatch):
    """run_sweep, recording every (values, names) passed to `evaluate`, every
    `build_family_state` call and every `build_family_stack` call."""
    evaluations = record_evaluations(monkeypatch)
    builds, stacks = [], []
    for name, calls in (("build_family_state", builds), ("build_family_stack", stacks)):
        real = getattr(analysis, name)

        def counting(*args, calls=calls, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, name, counting)

    def sweep(family, fixed):
        evaluations.clear()
        builds.clear()
        stacks.clear()
        result = analysis.run_sweep(family, fixed, 0.0, 1.0, 101)
        return result, [(value, names) for value, names, _ in evaluations], builds, stacks

    return sweep


@pytest.mark.parametrize("label", GOLDEN_SWEEPS)
def test_each_distinct_value_is_built_once(traced_sweep, label):
    family, fixed = GOLDEN_SWEEPS[label]
    result, evaluations, builds, stacks = traced_sweep(family, fixed)
    grid = [row[0] for row in result.rows]
    param = FAMILY_BY_NAME[family].sweep_param
    # one stack build for the whole grid; bisection takes each bracket's end signs from the
    # grid scan, then builds one stack per halving (14 halve a 0.01 cell below xtol 1e-6)
    # holding that halving's distinct midpoints in bracket order; no state is built
    # any other way, and no midpoint recurs across halvings
    halvings = [list(value) for value, _ in evaluations if np.ndim(value)]
    assert len(halvings) == 14
    distinct = [list(dict.fromkeys(values)) for values in halvings]
    assert [list(params[param]) for _, params in stacks] == [grid, *distinct]
    assert builds == []
    built = [x for values in distinct for x in values]
    assert len(set(built)) == len(built)
    # brackets of two columns in one grid cell halve in step, so their midpoints are built once
    assert len(built) < sum(map(len, halvings))


@pytest.fixture
def validations(monkeypatch):
    """The size of every stack `density_matrix_spectra` validates, at both its bindings."""
    sizes = []
    real = states.density_matrix_spectra

    def counting(matrices):
        sizes.append(len(matrices))
        return real(matrices)

    for module in (states, analysis):
        monkeypatch.setattr(module, "density_matrix_spectra", counting)
    return sizes


@pytest.mark.parametrize("name", SAMPLE_PARAMS)
def test_each_family_state_is_validated_once(validations, name):
    # every builder is unvalidated, so building the state validates it once
    analysis.build_family_state(name, SAMPLE_PARAMS[name])
    assert validations == [1]


def test_knoll_sweep_validates_its_stacks_only(validations):
    # the grid and the 14 halvings, each one stack, and no separate base state; a second
    # sweep at the same (omega, eta) does the same work
    for _ in range(2):
        validations.clear()
        analysis.run_sweep("knoll", {"omega": 0.17, "eta": 0.23}, 0.0, 1.0, 101)
        assert len(validations) == 15
        assert validations[0] == 101


@pytest.mark.parametrize("label", GOLDEN_SWEEPS)
def test_sweep_rows_equal_fresh_evaluations(label):
    family, fixed = GOLDEN_SWEEPS[label]
    result = analysis.run_sweep(family, fixed, 0.0, 1.0, 101)
    for row in result.rows:
        assert list(fresh_row(family, row[0], fixed).values()) == row


FIXED_PARAMS = {  # a strategy for the fixed parameters of each sweepable family
    "ghz-noise": st.just({}),
    "w-noise": st.just({}),
    "knoll": st.fixed_dictionaries({"omega": st.floats(0.0, 1.0), "eta": st.floats(0.0, 1.0)}),
}
HIGH_ORDER_CRITERIA = "p3ppt,p3oppt,p5ppt,p7ppt,p9ppt"


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sweepable_families()),
    data=st.data(),
    ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted),
    steps=st.integers(2, 40),
)
def test_stacked_grid_rows_equal_one_state_evaluations(family, data, ends, steps):
    # the grid's stack and a fresh one-state record compute every column bit for bit
    # alike, and a failing cross-check (concurrence's, on some knoll states) fails alike
    fixed = data.draw(FIXED_PARAMS[family])
    grid = np.linspace(*ends, steps)

    def one_state(x):
        try:
            return list(fresh_row(family, x, fixed, HIGH_ORDER_CRITERIA, 9).values())
        except NumericsError as exc:
            return str(exc)

    expected = [one_state(float(x)) for x in grid]
    try:
        _, stacked, _ = sweep_evaluator(family, fixed, HIGH_ORDER_CRITERIA, 9, grid)
    except NumericsError as exc:
        assert str(exc) in expected
        return
    assert [stacked(float(x)) for x in grid] == expected


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sweepable_families()),
    data=st.data(),
    ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted),
    steps=st.integers(2, 40),
)
def test_lockstep_bisection_equals_scalar_bisection_per_bracket(family, data, ends, steps):
    # every root, in order, is where a scalar bisection of its bracket, reading that column
    # alone on a fresh evaluator without a grid, one state per value, puts it; a failing
    # cross-check (concurrence's, on some knoll states) fails both, though each may meet a
    # different failing state first
    fixed = data.draw(FIXED_PARAMS[family])

    def lockstep():
        return analysis.run_sweep(family, fixed, *ends, steps, criteria=HIGH_ORDER_CRITERIA, kmax=9).sign_changes

    def scalar():
        grid = np.linspace(*ends, steps).tolist()
        rows = [fresh_row(family, x, fixed, HIGH_ORDER_CRITERIA, 9) for x in grid]
        _, fresh, floors = sweep_evaluator(family, fixed, HIGH_ORDER_CRITERIA, 9)
        roots = []
        for column, floor in floors.items():
            values = [row[column] - floor for row in rows]
            for i in range(steps - 1):
                if (values[i] < 0.0) != (values[i + 1] < 0.0):

                    def f(x, column=column, floor=floor):
                        return fresh(np.array([x]), [column])[0] - floor

                    roots.append((column, bisect_root(f, grid[i], grid[i + 1])))
        return roots

    outcomes = []
    for sweep in (lockstep, scalar):
        try:
            outcomes.append(sweep())
        except NumericsError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sweepable_families())
def test_sweep_leaves_no_cyclic_garbage(name):
    # a point record whose caches closed over the record itself would keep every
    # point of the sweep alive in a reference cycle until the cyclic collector ran
    family = FAMILY_BY_NAME[name]
    fixed = {k: v for k, v in SAMPLE_PARAMS[name].items() if k != family.sweep_param}
    gc.collect()
    gc.disable()
    try:
        analysis.run_sweep(name, fixed, 0.0, 1.0, 11)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
