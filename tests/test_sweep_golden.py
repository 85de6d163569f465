"""CLI output must stay byte-identical to the committed golden files.

The files in tests/golden/ are reference output of `ptmoments sweep` on every
sweepable family at 3, 11 and 101 steps, and of `ptmoments analyze` and
`ptmoments oracle` on every named family and on the state files in
tests/golden/states/.  At 3 steps the two p3oppt_margin roots of knoll at
omega=0.2, eta=0.25 share one grid cell and are not reported.  A change that is not
meant to alter output must leave every byte as it is; regenerate them only
for one that is, and say so in its description.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ptmoments.cli import main

GOLDEN = Path(__file__).parent / "golden"

KNOLL_POINTS = {"o0.2-e0.25": ("0.2", "0.25"), "o0.12-e0.21": ("0.12", "0.21")}


def _family(name, **params):
    argv = ["--family", name]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    return argv


# Inputs of the analyze and oracle cases.  File paths are relative to GOLDEN,
# because the reports embed them.
REPORT_SOURCES = {
    "bell": _family("bell"),
    "ghznoise-a0.5": _family("ghz-noise", alpha="0.5"),
    "ghznoise-a0.7": _family("ghz-noise", alpha="0.7"),
    "ghznoise-a0.9": _family("ghz-noise", alpha="0.9"),
    "wnoise-b0.5": _family("w-noise", beta="0.5"),
    "wnoise-b0.7": _family("w-noise", beta="0.7"),
    "wnoise-b0.9": _family("w-noise", beta="0.9"),
    "knoll-o0.12-e0.21": _family("knoll", omega="0.12", eta="0.21"),
    "knoll-o0.12-e0.21-g0.3": _family("knoll", omega="0.12", eta="0.21", gamma="0.3"),
    "knoll-o0.12-e0.21-g0.8": _family("knoll", omega="0.12", eta="0.21", gamma="0.8"),
    "xstate-npt": _family(
        "x-state", r11="0.4", r22="0.1", r33="0.1", r44="0.4", re14="0.3", im23="0.05"
    ),
    "xstate-ppt": _family("x-state", r11="0.3", r22="0.2", r33="0.2", r44="0.3", re14="0.1"),
    **{
        f"file-{stem}": ["--file", f"states/{stem}.json"]
        for stem in ("dense4", "dense8", "x4", "x8", "dims3x2", "dims4")
    },
}


def _cases():
    """(golden file name, CLI argv) pairs."""
    for steps in (3, 11, 101):
        grid = ["--steps", str(steps)]
        yield f"wnoise-steps{steps}.csv", ["sweep", "--family", "w-noise", "--range", "beta=0:1", *grid]
        yield f"ghznoise-steps{steps}.csv", ["sweep", "--family", "ghz-noise", "--range", "alpha=0:1", *grid]
        for tag, (omega, eta) in KNOLL_POINTS.items():
            argv = ["sweep", *_family("knoll", omega=omega, eta=eta), "--range", "gamma=0:1", *grid]
            yield f"knoll-{tag}-steps{steps}.csv", argv
    yield (
        "wnoise-criteria-kmax7-steps11.csv",
        [
            "sweep",
            "--family", "w-noise",
            "--range", "beta=0.3:0.9",
            "--criteria", "p3ppt,p3oppt,p5ppt,p7ppt",
            "--kmax", "7",
            "--steps", "11",
        ],
    )
    for command in ("analyze", "oracle"):
        for tag, source in REPORT_SOURCES.items():
            yield f"{command}-{tag}.json", [command, *source]
    for tag in ("wnoise-b0.7", "file-dense8"):
        criteria = ["--kmax", "7", "--criteria", "p3ppt,p3oppt,p5ppt,p7ppt"]
        yield f"analyze-{tag}-criteria-kmax7.json", ["analyze", *REPORT_SOURCES[tag], *criteria]
    for tag in ("ghznoise-a0.5", "file-dense4"):
        yield f"analyze-{tag}-kmax3.json", ["analyze", *REPORT_SOURCES[tag], "--kmax", "3"]


CASES = list(_cases())
SWEEP_CASES = [case for case in CASES if case[0].endswith(".csv")]
REPORT_CASES = [case for case in CASES if case[0].endswith(".json")]


def _ids(cases):
    return [Path(name).stem for name, _ in cases]


def test_every_golden_file_has_a_case():
    files = sorted(p.name for p in GOLDEN.iterdir() if p.is_file())
    assert files == sorted(name for name, _ in CASES)


def _assert_golden_bytes(tmp_path, monkeypatch, name, argv):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv", SWEEP_CASES, ids=_ids(SWEEP_CASES))
def test_sweep_csv_matches_golden_bytes(tmp_path, monkeypatch, name, argv):
    _assert_golden_bytes(tmp_path, monkeypatch, name, argv)


@pytest.mark.parametrize("name,argv", REPORT_CASES, ids=_ids(REPORT_CASES))
def test_report_json_matches_golden_bytes(tmp_path, monkeypatch, name, argv):
    _assert_golden_bytes(tmp_path, monkeypatch, name, argv)
