"""Acceptance suite: every release criterion, one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines on success;
failures always show them.
"""

import json
import time

import numpy as np
from conftest import (
    batched_ginibre,
    random_hermitian,
    random_psd,
    random_separable_state,
)
from oracles import (
    NPT_THRESHOLDS,
    bisect_root,
    composite_damping_kraus,
    psd_via_minors,
    random_density_matrix,
    random_three_qubit_x_state,
    random_x_state,
    three_qubit_full_minor_identity_check,
    x_state_minor_relations_check,
)

from ptmoments import (
    amplitude_damping,
    apply_channel,
    concurrence,
    ebc_gamma_threshold,
    ghz_white_noise,
    hermitian_eigenvalues,
    is_psd,
    knoll_state,
    oppt_threshold,
    p3_oppt_test,
    p3_ppt_test,
    partial_transpose,
    pn_ppt_test,
    principal_minor,
    pt_moments,
    three_qubit_x_minors,
    transpose_subsystem,
    w_white_noise,
    x_state,
    x_state_moments_closed_form,
)
from ptmoments.analysis import format_float, run_sweep
from ptmoments.cli import main as cli_main

GHZ_POLYNOMIALS = (
    lambda a: 1.0,
    lambda a: 1 - 7 * a / 4 + 7 * a ** 2 / 8,
    lambda a: (16 - 24 * a + 3 * a ** 2 + 6 * a ** 3) / 64,
    lambda a: (128 - 448 * a + 624 * a ** 2 - 412 * a ** 3 + 109 * a ** 4) / 512,
    lambda a: (256 - 640 * a + 160 * a ** 2 + 880 * a ** 3 - 955 * a ** 4 + 300 * a ** 5)
    / 4096,
)

W_POLYNOMIALS = (
    lambda b: 1.0,
    lambda b: 1 - 7 * b / 4 + 7 * b ** 2 / 8,
    lambda b: (64 - 120 * b + 57 * b ** 2 + 2 * b ** 3) / 192,
    lambda b: (12800 - 44288 * b + 59952 * b ** 2 - 37916 * b ** 3 + 9533 * b ** 4)
    / 41472,
    lambda b: (
        45056 - 161280 * b + 211840 * b ** 2 - 111920 * b ** 3 + 8565 * b ** 4 + 7820 * b ** 5
    )
    / 331776,
)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_closed_form_moment_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        params = random_x_state(seed)
        closed = x_state_moments_closed_form(params)
        direct = pt_moments(x_state(params), 0, 6)
        worst = max(
            worst, max(abs(c - d) for c, d in zip(closed.values, direct.values))
        )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: closed-form moments match eigenvalue oracle "
        "(1000 X-states, k=1..6, 1e-11)",
        worst <= 1e-11 and elapsed < 10.0,
        f"worst diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_noise_family_polynomials():
    worst_ghz = 0.0
    for alpha in np.linspace(0.0, 1.0, 50):
        mv = pt_moments(ghz_white_noise(alpha), 0, 5)
        for k, poly in enumerate(GHZ_POLYNOMIALS):
            worst_ghz = max(worst_ghz, abs(mv.values[k] - poly(alpha)))
    worst_w = 0.0
    for beta in np.linspace(0.0, 1.0, 50):
        mv = pt_moments(w_white_noise(beta), 0, 5)
        for k, poly in enumerate(W_POLYNOMIALS):
            worst_w = max(worst_w, abs(mv.values[k] - poly(beta)))
    _report(
        "criterion 2: GHZ and W white-noise moment polynomials (50 points, 1e-10)",
        worst_ghz <= 1e-10 and worst_w <= 1e-10,
        f"worst GHZ {worst_ghz:.2e}, worst W {worst_w:.2e}",
    )


def _hankel_margin(builder, value, order):
    mv = pt_moments(builder(value), 0, 2 * order + 1)
    return pn_ppt_test(mv, 2 * order + 1).margin


def _pt_min_eig(builder, value):
    return float(hermitian_eigenvalues(partial_transpose(builder(value), 0))[0])


def test_criterion_3_threshold_reproduction():
    ghz_b1 = bisect_root(lambda a: _hankel_margin(ghz_white_noise, a, 1), 0.5, 0.75)
    ghz_b2 = bisect_root(lambda a: _hankel_margin(ghz_white_noise, a, 2), 0.7, 0.9)
    ghz_ppt = bisect_root(lambda a: _pt_min_eig(ghz_white_noise, a), 0.7, 0.9)
    w_b1 = bisect_root(lambda b: _hankel_margin(w_white_noise, b, 1), 0.5, 0.7)
    w_b2 = bisect_root(lambda b: _hankel_margin(w_white_noise, b, 2), 0.7, 0.85)
    w_ppt = bisect_root(lambda b: _pt_min_eig(w_white_noise, b), 0.7, 0.85)

    base = knoll_state(0.12, 0.21)

    def evolved(gamma):
        return apply_channel(base, amplitude_damping(gamma), 1)

    knoll_conc = bisect_root(lambda g: concurrence(evolved(g)) - 1e-12, 0.4, 0.9)
    knoll_minor = bisect_root(
        lambda g: principal_minor(partial_transpose(evolved(g), 0), (2, 3)), 0.4, 0.9
    )
    knoll_formula = ebc_gamma_threshold(0.12, 0.21)

    # the order-3 boundary is quoted to two decimals (true root 0.6783)
    checks = [
        ("GHZ B1 ~ 0.67", abs(ghz_b1 - 0.67) <= 0.01),
        ("GHZ B2 ~ 0.80", abs(ghz_b2 - 0.80) <= 1e-3),
        ("GHZ PPT = 0.80", abs(ghz_ppt - 0.80) <= 1e-4),
        ("W B1 ~ 0.629", abs(w_b1 - 0.629) <= 2e-3),
        ("W B2 ~ 0.778", abs(w_b2 - 0.778) <= 2e-3),
        ("W PPT ~ 0.79", abs(w_ppt - 0.79) <= 5e-3),
        ("knoll concurrence ~ 0.649", abs(knoll_conc - 0.649) <= 0.005),
        ("knoll minor-23 ~ 0.649", abs(knoll_minor - 0.649) <= 0.005),
        ("knoll formula ~ 0.649", abs(knoll_formula - 0.649) <= 0.005),
    ]
    detail = (
        f"GHZ B1 {ghz_b1:.4f}, B2 {ghz_b2:.4f}, PPT {ghz_ppt:.4f}; "
        f"W B1 {w_b1:.4f}, B2 {w_b2:.4f}, PPT {w_ppt:.4f}; "
        f"knoll {knoll_conc:.4f}/{knoll_minor:.4f}/{knoll_formula:.4f}"
    )
    _report(
        "criterion 3: detection thresholds by bisection",
        all(ok for _, ok in checks),
        detail + "; failed: " + (", ".join(n for n, ok in checks if not ok) or "none"),
    )


def test_criterion_3b_sweep_boundaries_at_closed_form_thresholds():
    # the sweep's PT-eigenvalue boundary, and for W its minor boundary, bisected to 1e-6 in
    # the parameter, against each family's exact NPT threshold: GHZ and W once, knoll at each
    # pair whose threshold lies inside the sweep
    cases = [
        ("ghz-noise", {}, ("pt_min_eig_A",)),
        ("w-noise", {}, ("pt_min_eig_A", "min_principal_minor")),
    ]
    for omega in (0.1, 0.12, 0.2, 0.3, 0.5, 0.7, 0.9):
        for eta in (0.05, 0.21, 0.25, 0.5, 0.8, 0.95):
            if NPT_THRESHOLDS["knoll"]({"omega": omega, "eta": eta}) < 1.0:
                cases.append(("knoll", {"omega": omega, "eta": eta}, ("pt_min_eig_A",)))
    gaps = {}
    for family, fixed, columns in cases:
        sign_changes = run_sweep(family, fixed, 0.0, 1.0, 101).sign_changes
        threshold = NPT_THRESHOLDS[family](fixed)
        for column in columns:
            roots = [root for name, root in sign_changes if name == column]
            gap = abs(roots[0] - threshold) if len(roots) == 1 else float("inf")
            gaps[family, *fixed.values(), column] = gap
    knoll_pairs = sum(key[0] == "knoll" for key in gaps)
    worst = max(gaps.values())
    _report(
        "criterion 3b: sweep NPT boundaries at the closed-form thresholds (1e-6)",
        knoll_pairs == 16 and worst <= 1e-6,
        f"GHZ gap {gaps['ghz-noise', 'pt_min_eig_A']:.2e}; W gaps {gaps['w-noise', 'pt_min_eig_A']:.2e} "
        f"(PT) and {gaps['w-noise', 'min_principal_minor']:.2e} (minor); {knoll_pairs} knoll pairs, "
        f"worst gap {worst:.2e}",
    )


def test_criterion_4_ghz_minor_and_eigenvalue_formulas():
    worst_minor = 0.0
    for alpha in np.linspace(0.0, 1.0, 50):
        m45 = three_qubit_x_minors(ghz_white_noise(alpha))[3]
        worst_minor = max(worst_minor, abs(m45 - (32 * alpha - 15 * alpha ** 2 - 16) / 64))
    worst_eig = 0.0
    for alpha in np.linspace(0.0, 0.8, 50, endpoint=False):
        eig = _pt_min_eig(ghz_white_noise, alpha)
        worst_eig = max(worst_eig, abs(eig - (5 * alpha - 4) / 8))
    _report(
        "criterion 4: GHZ minor-(45) formula (1e-12) and PT eigenvalue formula (1e-10)",
        worst_minor <= 1e-12 and worst_eig <= 1e-10,
        f"worst minor {worst_minor:.2e}, worst eigenvalue {worst_eig:.2e}",
    )


def test_criterion_5a_partial_transpose_involution():
    ok = True
    for seed in range(1000):
        for dim, dims in ((4, (2, 2)), (8, (2, 2, 2))):
            m = random_density_matrix(dim, seed=seed, dims=dims).matrix
            for s in range(len(dims)):
                if not np.array_equal(
                    transpose_subsystem(transpose_subsystem(m, dims, s), dims, s), m
                ):
                    ok = False
    _report(
        "criterion 5a: partial-transpose involution exact (1000 states, dims 4 and 8)",
        ok,
    )


def test_criterion_5b_sylvester_equivalence():
    rng = np.random.default_rng(2024)
    disagreements = 0
    for i in range(1000):
        dim = 4 if i % 2 == 0 else 8
        m = random_psd(rng, dim) if i % 4 < 2 else random_hermitian(rng, dim)
        if is_psd(m) != psd_via_minors(m):
            disagreements += 1
    _report(
        "criterion 5b: Sylvester equivalence, eigenvalue vs all-minors "
        "(1000 Hermitian matrices)",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_5c_minor_identities():
    relations_ok = all(
        x_state_minor_relations_check(random_x_state(seed), atol=1e-10)
        for seed in range(1000)
    )
    product_ok = all(
        three_qubit_full_minor_identity_check(random_three_qubit_x_state(seed), rtol=1e-10)
        for seed in range(1000)
    )
    _report(
        "criterion 5c: X-state minor relations and 3-qubit product identity "
        "(1000 members each, 1e-10)",
        relations_ok and product_ok,
    )


def test_criterion_5d_at_most_one_negative_eigenvalue():
    rng = np.random.default_rng(55)
    stack = batched_ginibre(rng, 10_000, 4)
    eigs = np.linalg.eigvalsh(transpose_subsystem(stack, (2, 2), 0))
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))
    counts = (eigs < -1e-12 * scale[:, None]).sum(axis=1)
    _report(
        "criterion 5d: at most one negative PT eigenvalue (10^4 two-qubit states)",
        int(counts.max()) <= 1,
        f"max count {int(counts.max())}",
    )


def test_criterion_5e_oppt_dominates_p3ppt():
    grid = np.linspace(0.25, 1.0, 10_000)
    margins = np.array([oppt_threshold(p) - p * p for p in grid])
    everywhere = bool(np.all(margins >= -1e-12))
    at_integer = all(
        abs(oppt_threshold(p) - p * p) <= 1e-12 for p in (1.0, 0.5, 1.0 / 3.0, 0.25)
    )
    away = np.array([abs(1.0 / p - round(1.0 / p)) > 1e-3 for p in grid])
    strict = bool(np.all(margins[away] > 1e-12))
    _report(
        "criterion 5e: optimal order-3 bound dominates p2^2 "
        "(10^4-point grid, equality at integer 1/p2)",
        everywhere and at_integer and strict,
        f"min margin {margins.min():.2e}",
    )


def test_criterion_5f_composite_kraus_completeness():
    worst = 0.0
    for omega in np.linspace(0.05, 0.95, 10):
        for eta in np.linspace(0.05, 0.95, 10):
            for gamma in np.linspace(0.0, 1.0, 10):
                channel = composite_damping_kraus(omega, eta, gamma)
                total = sum(op.conj().T @ op for op in channel.operators)
                worst = max(worst, float(np.max(np.abs(total - np.eye(2)))))
    _report(
        "criterion 5f: composite-channel completeness (10^3 parameter grid, 1e-11)",
        worst <= 1e-11,
        f"worst defect {worst:.2e}",
    )


def test_criterion_6_soundness_on_separable_states():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    false_positives = 0
    for _ in range(1000):
        state = random_separable_state(rng, dims=(2, 2), max_terms=8)
        mv = pt_moments(state, 0, 6)
        for verdict in (p3_ppt_test(mv), p3_oppt_test(mv), pn_ppt_test(mv, 5)):
            if verdict.violated:
                false_positives += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6: no criterion fires on separable mixtures (1000 states)",
        false_positives == 0 and elapsed < 30.0,
        f"{false_positives} false positives, {elapsed:.2f}s",
    )


def test_criterion_7_cli_round_trip(tmp_path):
    first = tmp_path / "first.json"
    rc = cli_main(
        [
            "analyze",
            "--family",
            "knoll",
            "--param",
            "omega=0.12",
            "--param",
            "eta=0.21",
            "--param",
            "gamma=0.3",
            "--out",
            str(first),
        ]
    )
    report1 = json.loads(first.read_text())
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(report1["state"]))
    second = tmp_path / "second.json"
    rc2 = cli_main(["analyze", "--file", str(state_file), "--out", str(second)])
    report2 = json.loads(second.read_text())

    def rendered(report):
        return [
            (c["criterion"], format_float(c["margin"])) for c in report["criteria"]
        ] + sorted((k, format_float(v)) for k, v in report["negativity"].items())

    _report(
        "criterion 7: CLI export/ingest round-trip, margins bitwise at 12 digits",
        rc == 0 and rc2 == 0 and rendered(report1) == rendered(report2),
    )
