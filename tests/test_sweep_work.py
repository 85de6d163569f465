"""Deterministic work counts of a w-noise sweep; no wall-clock assertions."""

from __future__ import annotations

from collections import Counter

import numpy as np
from conftest import record_evaluations

from ptmoments import analysis
from ptmoments.minors import MINOR_BLOCK


def test_w_noise_sweep_work_counts(monkeypatch):
    shapes = {"det": [], "eigvalsh": []}
    for name, seen in shapes.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, real=real, seen=seen, **kwargs):
            seen.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    evaluations = record_evaluations(monkeypatch)

    result = analysis.run_sweep("w-noise", {}, 0.0, 1.0, 101)
    grid = [row[0] for row in result.rows]
    asked: dict[float, set] = {}  # each off-grid value -> the columns bisection asked for there
    for value, only, _ in evaluations:
        if value not in grid:
            assert only is not None
            asked.setdefault(value, set()).add(only)

    # 101 full grid rows; bisection asks for one column per call, at grid
    # endpoints and at midpoints
    full_rows = [row for _, only, row in evaluations if only is None]
    column_rows = [(only, row) for _, only, row in evaluations if only is not None]
    assert len(full_rows) == 101
    assert all(list(row) == [only] for only, row in column_rows)
    assert {only for only, _ in column_rows} == {column for column, _ in result.sign_changes}

    # one batched determinant per subset size of the 8x8 partial transpose, per
    # block of at most MINOR_BLOCK grid rows and per midpoint of the minor column
    minor_points = sum("min_principal_minor" in columns for columns in asked.values())
    assert minor_points > 0
    blocks = Counter(min(MINOR_BLOCK, 101 - start) for start in range(0, 101, MINOR_BLOCK))
    expected = Counter({rows: 8 * count for rows, count in blocks.items()})
    expected[1] += 8 * minor_points
    assert Counter(shape[0] for shape in shapes["det"]) == expected

    # the grid: one validation and three partial-transpose spectra, each of the
    # whole (101, 8, 8) stack, and one Hankel B2 of p5ppt per row; each midpoint:
    # its validation, the spectra its columns read, and B2 where p5ppt is asked
    margins = {"p3ppt_margin", "p3oppt_margin", "p5ppt_margin"}
    one_state = sum(
        1 + (3 if columns & margins else 1 if "pt_min_eig_A" in columns else 0)
        for columns in asked.values()
    )
    hankels = 101 + sum("p5ppt_margin" in columns for columns in asked.values())
    assert Counter(shapes["eigvalsh"]) == {(101, 8, 8): 4, (1, 8, 8): one_state, (3, 3): hankels}
