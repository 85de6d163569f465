"""Deterministic work counts of a w-noise and a knoll sweep; no wall-clock assertions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import record_evaluations

from ptmoments import analysis
from ptmoments.minors import MINOR_BLOCK


@pytest.fixture
def traced_numpy(monkeypatch):
    """record(*names) patches each named `np.linalg` function to append the shape of its first
    argument to a list, and returns {name: list}."""

    def record(*names):
        shapes = {name: [] for name in names}
        for name, seen in shapes.items():
            real = getattr(np.linalg, name)

            def counting(a, *args, real=real, seen=seen, **kwargs):
                seen.append(np.shape(a))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return shapes

    return record


def bisection_calls(evaluations, grid):
    """The sweep's `evaluate` calls, checked: one full row per grid point, then one call per
    halving, each with one column per live bracket at off-grid midpoints; no call reads a
    bracket end.  Returns [(values, columns)] of the halvings."""
    full_rows = [(value, names) for value, names, _ in evaluations if np.ndim(value) == 0]
    assert full_rows == [(x, None) for x in grid]
    halvings = [(list(value), list(names), row) for value, names, row in evaluations if np.ndim(value)]
    assert all(set(values).isdisjoint(grid) for values, _, _ in halvings)
    assert all(len(row) == len(values) for values, _, row in halvings)
    return [(values, columns) for values, columns, _ in halvings]


def test_w_noise_sweep_work_counts(monkeypatch, traced_numpy):
    shapes = traced_numpy("det", "eigvalsh")
    evaluations = record_evaluations(monkeypatch)

    result = analysis.run_sweep("w-noise", {}, 0.0, 1.0, 101)
    grid = [row[0] for row in result.rows]
    # grid cells of 0.01 reach xtol 1e-6 after 14 halvings
    halvings = bisection_calls(evaluations, grid)
    assert len(halvings) == 14
    assert {c for _, columns in halvings for c in columns} == {c for c, _ in result.sign_changes}

    def minor_dets(rows):  # one batched determinant per subset size of the 8x8 partial transpose
        return [(rows, math.comb(8, size), size, size) for size in range(1, 9)]

    # the grid: one validation and three partial-transpose spectra, each of the whole
    # (101, 8, 8) stack, one (101, 3, 3) stack of the Hankel B2 of p5ppt, and the minors in
    # blocks of at most MINOR_BLOCK rows
    eigvalsh = [(101, 8, 8)] * 4 + [(101, 3, 3)]
    det = [dets for start in range(0, 101, MINOR_BLOCK) for dets in minor_dets(min(MINOR_BLOCK, 101 - start))]
    # each halving: one stack of its m distinct midpoints, validated, with the spectra its
    # brackets' columns read; B2 and the minors only at the midpoints whose brackets refine them
    margins = {"p3ppt_margin", "p3oppt_margin", "p5ppt_margin"}
    for values, columns in halvings:
        m, asked = len(set(values)), set(columns)

        def asking(column):
            return len({x for x, c in zip(values, columns) if c == column})

        eigvalsh.append((m, 8, 8))
        if asked & margins:
            eigvalsh += [(m, 8, 8)] * 3 + [(asking("p5ppt_margin"), 3, 3)] * ("p5ppt_margin" in asked)
        elif "pt_min_eig_A" in asked:
            eigvalsh.append((m, 8, 8))
        if "min_principal_minor" in asked:
            det += minor_dets(asking("min_principal_minor"))
    assert shapes["eigvalsh"] == eigvalsh
    assert shapes["det"] == det
    assert any(m > 1 for m, *_ in eigvalsh[5:])


def test_knoll_sweep_concurrence_is_one_stack_per_evaluation(monkeypatch, traced_numpy):
    shapes = traced_numpy("eigh", "svd")
    evaluations = record_evaluations(monkeypatch)

    result = analysis.run_sweep("knoll", {"omega": 0.12, "eta": 0.21}, 0.0, 1.0, 101)
    halvings = bisection_calls(evaluations, [row[0] for row in result.rows])
    # one eigh and one svd of the (101, 4, 4) grid stack, then, in each halving where a bracket
    # refines the concurrence, of the stack of its distinct midpoints that such brackets halve
    expected = [(101, 4, 4)] + [
        (len({x for x, c in zip(values, columns) if c == "concurrence"}), 4, 4)
        for values, columns in halvings
        if "concurrence" in columns
    ]
    assert len(expected) == 15
    assert shapes["eigh"] == expected
    assert shapes["svd"] == expected
