"""Sweep CSV output must stay byte-identical to the committed golden files.

The files in tests/golden/ are reference output of `ptmoments sweep` on every
sweepable family, including the knoll grid whose roots still depend on the
step count.  A change that is not meant to alter sweep output must leave
every byte as it is; regenerate them only for one that is, and say so in its
description.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ptmoments.cli import main

GOLDEN = Path(__file__).parent / "golden"

KNOLL_POINTS = {"o0.2-e0.25": ("0.2", "0.25"), "o0.12-e0.21": ("0.12", "0.21")}


def _cases():
    for steps in (3, 11, 101):
        yield f"wnoise-steps{steps}", ["--family", "w-noise", "--range", "beta=0:1"], steps
        yield f"ghznoise-steps{steps}", ["--family", "ghz-noise", "--range", "alpha=0:1"], steps
        for tag, (omega, eta) in KNOLL_POINTS.items():
            argv = [
                "--family", "knoll",
                "--param", f"omega={omega}",
                "--param", f"eta={eta}",
                "--range", "gamma=0:1",
            ]
            yield f"knoll-{tag}-steps{steps}", argv, steps
    yield (
        "wnoise-criteria-kmax7-steps11",
        [
            "--family", "w-noise",
            "--range", "beta=0.3:0.9",
            "--criteria", "p3ppt,p3oppt,p5ppt,p7ppt",
            "--kmax", "7",
        ],
        11,
    )


CASES = list(_cases())


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name,argv,steps", CASES, ids=[c[0] for c in CASES])
def test_sweep_csv_matches_golden_bytes(tmp_path, name, argv, steps):
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", *argv, "--steps", str(steps), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
