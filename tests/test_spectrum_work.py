"""Deterministic eigendecomposition counts: each partial transpose is
diagonalised once per (state, subsystem).  No wall-clock assertions."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import SAMPLE_PARAMS, sweep_evaluator
from oracles import random_density_matrix

from ptmoments import analysis, bell_phi_plus, ghz_white_noise
from ptmoments.analysis import FAMILY_BY_NAME, build_family_state, sweepable_families
from ptmoments.ptranspose import partial_transpose


@pytest.fixture
def eig_inputs(monkeypatch):
    """Every matrix handed to np.linalg.eigvalsh from here on."""
    inputs = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        inputs.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return inputs


# 3 PT spectra, plus the Hankel B2 of p5ppt (2 and 1 for two qubits); the
# oracle reads the state's own spectrum from its validation instead.
@pytest.mark.parametrize(
    "make,analyze_eigs,oracle_eigs",
    [
        (lambda: ghz_white_noise(0.5), 4, 3),
        (lambda: random_density_matrix(8, 1), 4, 3),
        (bell_phi_plus, 3, 2),
        (lambda: random_density_matrix(4, 1), 3, 2),
    ],
)
def test_report_eigendecompositions(eig_inputs, make, analyze_eigs, oracle_eigs):
    state = make()
    eig_inputs.clear()
    analysis.analyze_state(state, {})
    assert len(eig_inputs) == analyze_eigs
    eig_inputs.clear()
    analysis.oracle_state(state, {})
    assert len(eig_inputs) == oracle_eigs


@pytest.mark.parametrize("name,spectra", [("w-noise", 3), ("ghz-noise", 3), ("knoll", 1)])
def test_sweep_row_pt_spectra(eig_inputs, name, spectra):
    _, evaluate, _ = sweep_evaluator(name)
    param = FAMILY_BY_NAME[name].sweep_param
    state = build_family_state(name, {**SAMPLE_PARAMS[name], param: 0.4})
    pts = {partial_transpose(state, s).tobytes() for s in range(state.num_factors)}
    eig_inputs.clear()
    evaluate(0.4)
    assert sum(a.tobytes() in pts for a in eig_inputs) == spectra


@pytest.mark.parametrize("name", sweepable_families())
def test_column_evaluation_matches_full_row(name):
    # one evaluator: a column asked for after its full row is served from the
    # point cache and must repeat the row's value
    columns, evaluate, floors = sweep_evaluator(name)
    for x in (0.05, 0.4, 0.77, 0.95):
        row = evaluate(x)
        for column in floors:
            assert evaluate(x, only=column) == {column: row[column]}


def test_family_records():
    # one builder per family: a matrix for float parameters, a stack for an array of
    # swept values, each slice bit for bit the matrix of its value alone
    assert set(SAMPLE_PARAMS) == set(FAMILY_BY_NAME)
    for name, family in FAMILY_BY_NAME.items():
        params = SAMPLE_PARAMS[name]
        state = build_family_state(name, params)
        assert state.num_factors == family.factors
        matrix = family.build(params)
        assert matrix.shape == (state.dim, state.dim)
        assert matrix.tobytes() == state.matrix.tobytes()
        if family.sweep_param is None:
            assert family.minor_columns == ()
        else:
            assert family.sweep_param in (*family.required, *family.optional)
            values = [0.0, 0.37, 1.0]
            stack = family.build({**params, family.sweep_param: np.array(values)})
            assert stack.shape == (3, state.dim, state.dim)
            for x, matrix in zip(values, stack):
                assert matrix.tobytes() == family.build({**params, family.sweep_param: x}).tobytes()
