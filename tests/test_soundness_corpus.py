"""Soundness: a violated moment criterion implies NPT on that cut, so on states the oracle calls
PPT on every cut no criterion may be violated.  The corpora are built in `oracles`.

Moment criteria cannot see PPT entanglement: P. Horodecki's rho_b is entangled yet PPT, and
every criterion passes it.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from oracles import SEPARABLE_LAYOUTS, horodecki_corpus, noisy_pure_three_qubit_corpus, separable_corpus

from ptmoments import DensityMatrix, linalg
from ptmoments.analysis import analyze_state
from ptmoments.moments import CRITERIA, power_sums
from ptmoments.ptranspose import transpose_subsystem
from ptmoments.states import density_matrix_spectra

TOL = linalg.DEFAULT_PSD_TOL
BIPARTITE_CRITERIA = ["p3ppt", "p3oppt", *(f"p{n}ppt" for n in range(5, 16, 2))]
THREE_QUBIT_CRITERIA = ",".join(["p3ppt", "p3oppt", *(f"p{n}ppt" for n in range(5, 12, 2))])
CORPORA = [*(f"separable-{a}x{b}" for a, b in SEPARABLE_LAYOUTS), "horodecki-2x4", "horodecki-4x2"]


@functools.cache
def bipartite_corpora() -> dict[str, tuple[tuple[int, int], np.ndarray]]:
    corpora = {f"separable-{a}x{b}": ((a, b), stack) for (a, b), stack in separable_corpus().items()}
    corpora.update({f"horodecki-{a}x{b}": ((a, b), stack) for (a, b), stack in horodecki_corpus().items()})
    return corpora


@functools.cache
def cut_spectra(corpus: str, cut: int) -> np.ndarray:
    """The ascending partial-transpose spectra over factor `cut` of every state of a corpus,
    each state validated first."""
    dims, stack = bipartite_corpora()[corpus]
    density_matrix_spectra(stack)
    return linalg.hermitian_eigenvalues(transpose_subsystem(stack, dims, cut))


@pytest.mark.parametrize("cut", [0, 1])
@pytest.mark.parametrize("corpus", CORPORA)
def test_oracle_says_ppt_on_every_cut(corpus, cut):
    assert linalg.spectrum_is_psd(cut_spectra(corpus, cut), TOL).all()


@pytest.mark.parametrize("cut", [0, 1])
@pytest.mark.parametrize("criterion", BIPARTITE_CRITERIA)
@pytest.mark.parametrize("corpus", CORPORA)
def test_no_criterion_is_violated_on_a_ppt_cut(corpus, criterion, cut):
    margins, tolerances = CRITERIA[criterion].test(power_sums(cut_spectra(corpus, cut), 15), TOL)
    violated = np.flatnonzero(margins < -tolerances)
    assert violated.size == 0, f"{violated.size} violations, first at state {violated[:1]}"


@functools.cache
def three_qubit_reports() -> list[dict]:
    return [analyze_state(DensityMatrix(m, (2, 2, 2)), {}, kmax=11, criteria=THREE_QUBIT_CRITERIA)
            for m in noisy_pure_three_qubit_corpus()]


def test_three_qubit_corpus_is_ppt_on_every_cut():
    assert all(all(report["oracle"]["ppt"].values()) for report in three_qubit_reports())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_three_qubit_criteria_are_sound_on_all_cut_ppt_states():
    # the criteria read the geometric mean of the three cuts' moments, which is no cut's moments:
    # 21 of the 600 states have a violated p7-, p9- or p11-ppt criterion
    violated = [c["criterion"] for report in three_qubit_reports() for c in report["criteria"] if c["violated"]]
    assert not violated, f"{len(violated)} violated verdicts"
