"""The sweep grid's stack and the lockstep bisection: the grid is built as one
stack, each halving's distinct midpoints as one more, and what either returns
equals what a fresh one-state evaluation computes, exactly.  Deterministic
counts only; no wall-clock assertions."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import SAMPLE_PARAMS, record_evaluations, sweep_evaluator

from ptmoments import NumericsError, analysis
from ptmoments.analysis import FAMILY_BY_NAME, bisect_sign_change, sweepable_families
from ptmoments.moments import resolve_criteria, resolve_kmax

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
        for column in floors:
            _, full, _ = sweep_evaluator(name)
            _, single, _ = sweep_evaluator(name)
            row = full(x)
            assert set(row) == set(columns)
            assert single(x, only=column) == {column: row[column]}


@pytest.fixture
def traced_sweep(monkeypatch):
    """run_sweep, recording every (values, only) passed to `evaluate`, every
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
        return result, [(value, only) for value, only, _ in evaluations], builds, stacks

    return sweep


@pytest.mark.parametrize("label", GOLDEN_SWEEPS)
def test_each_distinct_value_is_built_once(traced_sweep, label):
    family, fixed = GOLDEN_SWEEPS[label]
    result, evaluations, builds, stacks = traced_sweep(family, fixed)
    grid = [row[0] for row in result.rows]
    param = FAMILY_BY_NAME[family].sweep_param
    # one stack build for the whole grid; bisection reads the grid rows at the bracket
    # ends, then builds one stack per halving (14 halve a 0.01 cell below xtol 1e-6)
    # holding that halving's distinct midpoints in bracket order; no state is built
    # any other way, and no midpoint recurs across halvings
    ends, *halvings = [list(value) for value, _ in evaluations if np.ndim(value)][1:]
    assert len(halvings) == 14
    assert set(ends) <= set(grid)
    distinct = [list(dict.fromkeys(values)) for values in halvings]
    assert [list(params[param]) for _, params in stacks] == [grid, *distinct]
    assert builds == []
    built = [x for values in distinct for x in values]
    assert len(set(built)) == len(built)
    # brackets of two columns in one grid cell halve in step, so their midpoints are built once
    assert len(built) < sum(map(len, halvings))


def test_knoll_base_state_is_built_once_per_sweep(monkeypatch):
    calls = []
    real = analysis.knoll_state

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, "knoll_state", counting)
    analysis._knoll_base.cache_clear()
    for count, (omega, eta) in enumerate([(0.12, 0.21), (0.2, 0.25)], start=1):
        analysis.run_sweep("knoll", {"omega": omega, "eta": eta}, 0.0, 1.0, 101)
        assert calls == [(0.12, 0.21), (0.2, 0.25)][:count]


@pytest.mark.parametrize("label", GOLDEN_SWEEPS)
def test_sweep_rows_equal_fresh_evaluations(label):
    family, fixed = GOLDEN_SWEEPS[label]
    result = analysis.run_sweep(family, fixed, 0.0, 1.0, 101)
    record = FAMILY_BY_NAME[family]
    kmax = resolve_kmax(record.factors, None)
    criteria = resolve_criteria(None, kmax)
    for row in result.rows:
        _, fresh, _ = analysis._sweep_evaluator(record, fixed, criteria, kmax, 1e-10, ())
        assert [fresh(row[0])[c] for c in result.columns] == row


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
    record = FAMILY_BY_NAME[family]
    criteria = resolve_criteria(HIGH_ORDER_CRITERIA, 9)
    grid = np.linspace(*ends, steps)

    def one_state(x):
        _, fresh, _ = analysis._sweep_evaluator(record, fixed, criteria, 9, 1e-10, ())
        try:
            return list(fresh(x).values())
        except NumericsError as exc:
            return str(exc)

    expected = [one_state(float(x)) for x in grid]
    try:
        _, stacked, _ = analysis._sweep_evaluator(record, fixed, criteria, 9, 1e-10, grid)
    except NumericsError as exc:
        assert str(exc) in expected
        return
    assert [list(stacked(float(x)).values()) for x in grid] == expected


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sweepable_families()),
    data=st.data(),
    ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted),
    steps=st.integers(2, 40),
)
def test_lockstep_bisection_equals_scalar_bisection_per_bracket(family, data, ends, steps):
    # every root, in order, is where a scalar bisection of its bracket on a fresh evaluator
    # without a grid, one state per value, puts it; a failing cross-check (concurrence's, on
    # some knoll states) fails both, though each may meet a different failing state first
    fixed = data.draw(FIXED_PARAMS[family])

    def lockstep():
        return analysis.run_sweep(family, fixed, *ends, steps, criteria=HIGH_ORDER_CRITERIA, kmax=9).sign_changes

    def scalar():
        _, fresh, floors = sweep_evaluator(family, fixed, HIGH_ORDER_CRITERIA, 9)
        grid = np.linspace(*ends, steps).tolist()
        rows = [fresh(x) for x in grid]
        roots = []
        for column, floor in floors.items():
            values = [row[column] - floor for row in rows]
            for i in range(steps - 1):
                if (values[i] < 0.0) != (values[i + 1] < 0.0):

                    def f(x, column=column, floor=floor):
                        return fresh(x, only=column)[column] - floor

                    roots.append((column, bisect_sign_change(f, grid[i], grid[i + 1])))
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
