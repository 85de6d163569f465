"""Deterministic work counts of a w-noise sweep; no wall-clock assertions."""

from __future__ import annotations

import numpy as np

from ptmoments import analysis, minors


def test_w_noise_sweep_work_counts(monkeypatch):
    det_calls = [0]
    dets_per_enumeration = []
    rows = []

    real_det = np.linalg.det

    def counting_det(*args, **kwargs):
        det_calls[0] += 1
        return real_det(*args, **kwargs)

    real_enumerate = minors.all_principal_minors

    def counting_enumerate(matrix):
        before = det_calls[0]
        report = real_enumerate(matrix)
        dets_per_enumeration.append(det_calls[0] - before)
        return report

    real_evaluator = analysis._sweep_evaluator

    def recording_evaluator(*args, **kwargs):
        columns, evaluate, transforms = real_evaluator(*args, **kwargs)

        def recording_evaluate(value, only=None):
            row = evaluate(value, only=only)
            rows.append((only, row))
            return row

        return columns, recording_evaluate, transforms

    monkeypatch.setattr(np.linalg, "det", counting_det)
    # the sweep calls the enumeration through the name analysis imported
    monkeypatch.setattr(analysis, "all_principal_minors", counting_enumerate)
    monkeypatch.setattr(minors, "all_principal_minors", counting_enumerate)
    monkeypatch.setattr(analysis, "_sweep_evaluator", recording_evaluator)

    result = analysis.run_sweep("w-noise", {}, 0.0, 1.0, 101)

    # one batched determinant per subset size of the 8x8 partial transpose
    assert dets_per_enumeration and set(dets_per_enumeration) == {8}
    # 101 grid rows plus the bisection of the minor column only; a full-row
    # bisection would enumerate on all 181 evaluations
    assert len(dets_per_enumeration) < 181
    full_rows = [row for only, row in rows if only is None]
    column_rows = [(only, row) for only, row in rows if only is not None]
    assert len(full_rows) == 101
    assert all(list(row) == [only] for only, row in column_rows)
    assert {only for only, _ in column_rows} == {column for column, _ in result.sign_changes}
