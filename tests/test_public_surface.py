"""The public names of `ptmoments`, so none is added or dropped unnoticed, the
modules it loads at run time, and its private helpers, each of which something uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptmoments
from ptmoments import channels, linalg, minors, states

PUBLIC_NAMES = [
    "CriterionVerdict",
    "DensityMatrix",
    "KrausChannel",
    "MinorReport",
    "MomentVector",
    "NumericsError",
    "ValidationError",
    "XStateParams",
    "all_principal_minors",
    "amplitude_damping",
    "apply_channel",
    "bell_phi_plus",
    "concurrence",
    "ebc_gamma_threshold",
    "ghz_white_noise",
    "hankel",
    "hermitian_eigenvalues",
    "is_psd",
    "is_x_pattern",
    "knoll_state",
    "negativity",
    "oppt_threshold",
    "p3_oppt_test",
    "p3_ppt_test",
    "partial_transpose",
    "pn_ppt_test",
    "principal_minor",
    "pt_moments",
    "three_qubit_x_minors",
    "transpose_subsystem",
    "tripartite_moments",
    "w_white_noise",
    "x_state",
    "x_state_key_minors",
    "x_state_moments_closed_form",
]

# Reference checks and seeded inputs that only the tests use; they live in tests/oracles.py.
TEST_ORACLES = [
    "bisect_root",
    "composite_damping_kraus",
    "determinant",
    "is_hermitian",
    "matrix_power_trace",
    "psd_via_minors",
    "random_density_matrix",
    "random_three_qubit_x_state",
    "random_x_state",
    "three_qubit_full_minor_identity_check",
    "x_state_minor_relations_check",
]


def test_public_names_are_exactly_the_expected_ones():
    assert len(PUBLIC_NAMES) == 35
    assert sorted(ptmoments.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ptmoments, name) is not None


@pytest.mark.parametrize(
    "module", [ptmoments, channels, linalg, minors, states], ids=lambda m: m.__name__
)
def test_test_oracles_are_not_in_the_package(module):
    assert [name for name in TEST_ORACLES if hasattr(module, name)] == []


def test_runtime_imports_are_numpy_and_the_standard_library():
    # scipy and the test tools may be installed beside the package, but it must not need them
    probe = (
        "import sys; before = set(sys.modules); import ptmoments, ptmoments.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    src = str(Path(ptmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "ptmoments" in loaded
    assert set(loaded) - set(sys.stdlib_module_names) <= {"numpy", "ptmoments"}


SOURCES = sorted(Path(ptmoments.__file__).parent.glob("*.py"))


def _top_level_private_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(tree: ast.Module) -> list[str]:
    """Every name the module reads, as a bare name, an attribute or an imported name."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs += [alias.name for alias in node.names]
    return refs


def test_every_private_helper_is_used_in_the_package():
    # a private helper that nothing in src/ reads is dead code: its callers are gone
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = {ref for tree in trees.values() for ref in _references(tree)}
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _top_level_private_names(tree)
        if name not in used
    ]
    assert len(trees) >= 10
    assert unused == []
