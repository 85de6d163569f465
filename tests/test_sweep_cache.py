"""The per-sweep point cache: each distinct parameter value is built once, and
what the cache returns equals what a fresh evaluator computes, exactly.
Deterministic counts only; no wall-clock assertions."""

from __future__ import annotations

import gc

import pytest
from conftest import SAMPLE_PARAMS, record_evaluations, sweep_evaluator

from ptmoments import analysis
from ptmoments.analysis import FAMILY_BY_NAME, sweepable_families
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
    """run_sweep, recording every value passed to `evaluate` and every
    `build_family_state` call."""
    evaluations = record_evaluations(monkeypatch)
    builds = []
    real_build = analysis.build_family_state

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(analysis, "build_family_state", counting_build)

    def sweep(family, fixed):
        evaluations.clear()
        builds.clear()
        result = analysis.run_sweep(family, fixed, 0.0, 1.0, 101)
        return result, [value for value, _, _ in evaluations], builds

    return sweep


@pytest.mark.parametrize("label", GOLDEN_SWEEPS)
def test_each_distinct_value_is_built_once(traced_sweep, label):
    family, fixed = GOLDEN_SWEEPS[label]
    _, values, builds = traced_sweep(family, fixed)
    # bisection revisits its grid endpoints, so values repeat
    assert len(builds) == len(set(values)) < len(values)


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
        _, fresh, _ = analysis._sweep_evaluator(record, fixed, criteria, kmax, 1e-10)
        assert [fresh(row[0])[c] for c in result.columns] == row


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
