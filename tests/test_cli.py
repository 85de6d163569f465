import json

import numpy as np
import pytest

from ptmoments import analysis
from ptmoments.analysis import MAX_GRID_POINTS, format_float, state_payload
from ptmoments.cli import main
from ptmoments.errors import NumericsError
from ptmoments.moments import MAX_KMAX
from ptmoments.states import bell_phi_plus


def run(args):
    return main(args)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# the maximally mixed two-qubit state as [re, im] pairs
MIXED4 = [[0.25 if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]


def footer_locations(csv_text):
    out = {}
    for line in csv_text.splitlines():
        if line.startswith("# sign-change,"):
            _, column, value = line.split(",")
            out.setdefault(column, []).append(float(value))
    return out


class TestAnalyze:
    def test_bell(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run(["analyze", "--family", "bell", "--out", str(out)]) == 0
        report = read_json(out)
        verdicts = {c["criterion"]: c for c in report["criteria"]}
        assert verdicts["p3-ppt"]["violated"]
        assert report["negativity"]["A"] == pytest.approx(0.5, abs=1e-10)
        assert report["concurrence"] == pytest.approx(1.0, abs=1e-10)

    def test_ghz_noise_ppt_region(self, tmp_path):
        out = tmp_path / "ghz.json"
        assert (
            run(
                [
                    "analyze",
                    "--family",
                    "ghz-noise",
                    "--param",
                    "alpha=0.9",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = read_json(out)
        assert all(not c["violated"] for c in report["criteria"])
        assert all(report["oracle"]["ppt"].values())
        assert "literature" in report

    def test_file_input_maximally_mixed(self, tmp_path):
        state_file = tmp_path / "mixed.json"
        payload = {
            "dims": [2, 2],
            "matrix": [[0.25 if i == j else 0.0, 0.0] for i in range(4) for j in range(4)],
        }
        state_file.write_text(json.dumps(payload))
        out = tmp_path / "mixed-report.json"
        assert run(["analyze", "--file", str(state_file), "--out", str(out)]) == 0
        report = read_json(out)
        assert all(c["margin"] >= -1e-12 for c in report["criteria"])

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2], "matrix": [')
        assert run(["analyze", "--file", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_bad_entry_location_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = {"dims": [2], "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], "x"]}
        bad.write_text(json.dumps(payload))
        assert run(["analyze", "--file", str(bad)]) == 2
        assert "entry 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    def test_nan_entry_rejected(self, tmp_path, capsys, command):
        # oracle used to report "ppt": true on this file, and analyze to fail
        # with "p_1 must equal 1"
        bad = tmp_path / "nan.json"
        bad.write_text('{"dims": [2], "matrix": [[1, 0], [0, 0], [0, 0], [NaN, 0]]}')
        assert run([command, "--file", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "m[1,1]" in err and "not finite" in err

    @pytest.mark.parametrize(
        "payload,where",
        [
            ({"dims": [2], "matrix": [[True, 0], [0, 0], [0, 0], [0, 0]]}, "entry 0"),
            ({"dims": [2], "matrix": [[1, 0], [0, 0], [0, False], [0, 0]]}, "entry 2"),
            ({"dims": [True, 2], "matrix": [[0.5, 0]] + [[0, 0]] * 2 + [[0.5, 0]]}, "'dims'"),
        ],
    )
    def test_boolean_entries_rejected(self, tmp_path, capsys, payload, where):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(payload))
        assert run(["analyze", "--file", str(bad)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims,where",
        [([2.7, 2], "entry 0 must be an integer, got 2.7"), (["2", "2"], "entry 0"), ([2, 2.0], "entry 1")],
    )
    def test_non_integer_dims_rejected(self, tmp_path, capsys, dims, where):
        # [2.7, 2] used to be read as [2, 2], and strings were accepted
        bad = tmp_path / "dims.json"
        bad.write_text(json.dumps({"dims": dims, "matrix": MIXED4}))
        assert run(["analyze", "--file", str(bad)]) == 2
        assert f"'dims' {where}" in capsys.readouterr().err

    def test_kmax_cap(self, capsys):
        assert run(["analyze", "--family", "bell", "--kmax", str(MAX_KMAX + 1)]) == 2
        assert f"1..{MAX_KMAX}" in capsys.readouterr().err

    def test_non_psd_matrix_rejected(self, tmp_path, capsys):
        bad = tmp_path / "npsd.json"
        diag = [1.5, -0.5, 0.0, 0.0]
        payload = {
            "dims": [2, 2],
            "matrix": [[diag[i] if i == j else 0.0, 0.0] for i in range(4) for j in range(4)],
        }
        bad.write_text(json.dumps(payload))
        assert run(["analyze", "--file", str(bad)]) == 2
        assert "positive semidefinite" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, capsys):
        assert run(["analyze"]) == 2
        assert run(["analyze", "--family", "bell", "--file", "x.json"]) == 2

    def test_unknown_family(self, capsys):
        assert run(["analyze", "--family", "nope"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_criteria_selection(self, tmp_path):
        out = tmp_path / "r.json"
        assert (
            run(
                [
                    "analyze",
                    "--family",
                    "bell",
                    "--criteria",
                    "p3ppt,p5ppt",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        names = [c["criterion"] for c in read_json(out)["criteria"]]
        assert names == ["p3-ppt", "p5-ppt"]


@pytest.mark.parametrize("command", ["analyze", "oracle", "sweep"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_unusable_tolerance_rejected(capsys, command, tol):
    # --tol -1 used to report a PPT state as NPT everywhere, and nan to report "ppt": false
    source = ["--range", "alpha=0:1", "--steps", "3"] if command == "sweep" else ["--param", "alpha=0.95"]
    assert run([command, "--family", "ghz-noise", *source, f"--tol={tol}"]) == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "oracle", "sweep"])
def test_unwritable_out_path_rejected(tmp_path, capsys, command):
    # a missing output directory used to end in a FileNotFoundError traceback with exit 1
    source = ["--range", "alpha=0:1", "--steps", "3"] if command == "sweep" else ["--param", "alpha=0.5"]
    out = tmp_path / "missing" / "out.json"
    assert run([command, "--family", "ghz-noise", *source, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {out}: " in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "ghz-noise", "--param", "alpha=0.5", "--param", "alpha=0.9"],
        ["sweep", "--family", "knoll", "--param", "omega=0.12", "--param", "eta=0.21",
         "--param", "omega=0.2", "--range", "gamma=0:1", "--steps", "3"],
    ],
    ids=["analyze", "sweep"],
)
def test_repeated_param_rejected(capsys, argv):
    # the last value used to win silently, with exit 0
    assert run(argv) == 2
    name = argv[argv.index("--param") + 1].partition("=")[0]
    assert f"parameter {name!r} is given more than once" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "ghz-noise", "--param", "=0.5", "--param", "alpha=0.5"],
        ["sweep", "--family", "ghz-noise", "--param", "=0.1", "--range", "alpha=0:1", "--steps", "3"],
    ],
    ids=["analyze", "sweep"],
)
def test_empty_param_name_rejected(capsys, argv):
    # the blank name used to reach the family check: "unknown parameter(s)  for family ..."
    assert run(argv) == 2
    item = argv[argv.index("--param") + 1]
    assert f"parameter {item!r} has an empty name" in capsys.readouterr().err


SWEEP_W = ["sweep", "--family", "w-noise", "--range", "beta=0:1", "--steps", "3"]


@pytest.mark.parametrize(
    "argv", [["analyze", "--family", "bell", "--criteria="], [*SWEEP_W, "--criteria="]], ids=["analyze", "sweep"]
)
def test_empty_criteria_rejected(capsys, argv):
    # an empty string used to fall back to the default criteria, with exit 0
    assert run(argv) == 2
    assert "criteria list is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--family", "bell", "--criteria", "p3ppt,P3-PPT"], [*SWEEP_W, "--criteria", "p3ppt,p3ppt"]],
    ids=["analyze", "sweep"],
)
def test_repeated_criterion_rejected(capsys, argv):
    # the verdict, or the CSV column, used to appear twice
    assert run(argv) == 2
    assert "criterion 'p3ppt' is given more than once" in capsys.readouterr().err


UNKNOWN_CRITERION = "expected p3ppt, p3oppt or p<n>ppt with odd n in 5..31"


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize(
    "options,message",
    [
        (["--kmax", "1"], "criterion 'p3ppt' needs kmax >= 3, got 1"),
        (["--kmax", "2"], "criterion 'p3ppt' needs kmax >= 3, got 2"),
        (["--kmax", "3", "--criteria", "p5ppt"], "criterion 'p5ppt' needs kmax >= 5, got 3"),
        (["--criteria", "p5oppt"], f"unknown criterion 'p5oppt'; {UNKNOWN_CRITERION}"),
        (["--criteria", "p4ppt"], f"unknown criterion 'p4ppt'; {UNKNOWN_CRITERION}"),
        (["--kmax", "32", "--criteria", "p33ppt"], f"unknown criterion 'p33ppt'; {UNKNOWN_CRITERION}"),
    ],
    ids=["kmax1", "kmax2", "p5ppt-kmax3", "p5oppt", "p4ppt", "p33ppt"],
)
def test_criterion_beyond_the_table_rejected(capsys, command, options, message):
    # --kmax 1 and 2 used to pass the kmax check and fail later on "moment p_3 not available"
    source = SWEEP_W if command == "sweep" else ["analyze", "--family", "w-noise", "--param", "beta=0.5"]
    assert run([*source, *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_highest_order_criterion_accepted(tmp_path, command):
    source = SWEEP_W if command == "sweep" else ["analyze", "--family", "w-noise", "--param", "beta=0.5"]
    out = tmp_path / "out.txt"
    assert run([*source, "--criteria", "p31ppt", "--kmax", "32", "--out", str(out)]) == 0
    text = out.read_text()
    assert ("p31ppt_margin" if command == "sweep" else '"criterion": "p31-ppt"') in text


def test_near_psd_state_analyzed(tmp_path, capsys):
    # a spectrum inside the PSD tolerance band used to pass validation and then fail
    # the concurrence's own stricter check with exit 3
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    matrix = (q * np.array([-5e-11, 0.2, 0.3, 0.5 + 5e-11])) @ q.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    assert np.linalg.eigvalsh(matrix)[0] < -1e-11
    state = tmp_path / "near-psd.json"
    state.write_text(json.dumps({"dims": [2, 2], "matrix": [[z.real, z.imag] for z in matrix.ravel()]}))
    for command in ("oracle", "analyze"):
        out = tmp_path / f"{command}.json"
        assert run([command, "--file", str(state), "--out", str(out)]) == 0
    assert 0.0 <= read_json(tmp_path / "analyze.json")["concurrence"] <= 1.0
    assert capsys.readouterr().err == ""


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise NumericsError("injected")

    monkeypatch.setattr(analysis, "all_principal_minors", failing)
    assert run(["analyze", "--family", "w-noise", "--param", "beta=0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical assertion failure: injected\n"


def test_injected_eigenvalue_error_exits_3(monkeypatch, capsys):
    # the eigenvalue-sum check must still catch a 1e-9 error on a valid state's spectrum
    real = np.linalg.eigvalsh

    def skewed(a, *args, **kwargs):
        eigs = real(a, *args, **kwargs)
        eigs[..., -1] += 1e-9
        return eigs

    monkeypatch.setattr(np.linalg, "eigvalsh", skewed)
    assert run(["oracle", "--family", "bell"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical assertion failure: eigenvalue sum 1.000000001 disagrees with trace 1")


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("scale", [1e5, 1e8, 1e12, 1e200, 1e300])
def test_huge_indefinite_state_exits_2(tmp_path, capsys, dim, scale):
    # trace-one Hermitian matrices with huge off-diagonal entries are not states; the
    # eigenvalue-sum check, bounded by the trace instead of the spectral radius, used to
    # reject some of them with exit 3
    rng = np.random.default_rng(int(np.log10(scale)) + dim)
    for k in range(4):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        matrix = (g + g.conj().T) * (scale / 8)
        np.fill_diagonal(matrix, 0.0)
        matrix[0, 0] = 1.0
        path = tmp_path / f"garbage{k}.json"
        dims = [2] * (dim.bit_length() - 1)
        path.write_text(json.dumps({"dims": dims, "matrix": [[z.real, z.imag] for z in matrix.ravel()]}))
        assert run(["oracle", "--file", str(path)]) == 2
        assert "matrix is not positive semidefinite" in capsys.readouterr().err


STATE_FILES = {
    "array": [MIXED4],
    "no-matrix": {"dims": [2, 2]},
    "empty-dims": {"dims": [], "matrix": MIXED4},
}
SWEEP_B = ["sweep", "--family", "w-noise", "--range"]
X_STATE = ["analyze", "--family", "x-state", *(f"--param={d}" for d in ("r11=0.5", "r22=0", "r33=0", "r44=0.5"))]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", "--family", "ghz-noise", "--param", "alpha"], "parameter 'alpha' is not of the form name=value"),
        (["analyze", "--family", "ghz-noise", "--param", "alpha=x"], "parameter 'alpha' has non-numeric value 'x'"),
        (["analyze", "--file", "{array}", "--param", "alpha=0.5"], "--param applies only to --family inputs"),
        ([*SWEEP_B, "beta"], "range 'beta' is not of the form name=lo:hi"),
        ([*SWEEP_B, "beta=a:1"], "range bounds in 'beta=a:1' must be numbers"),
        ([*SWEEP_B, "beta=0:nan"], "sweep range [0.0, nan] must satisfy 0 <= lo < hi <= 1"),
        ([*SWEEP_B, "beta=0:1", "--param", "beta=0.5"], "swept parameter 'beta' must not also be fixed via --param"),
        ([*SWEEP_B, "beta=0:1", "--step", "0"], "--step must be positive, got 0.0"),
        ([*SWEEP_B, "beta=0:1", "--step", "nan"], "--step must be positive, got nan"),
        ([*SWEEP_B, "beta=0:1", "--steps", "1"], "sweep needs at least 2 grid points, got 1"),
        (["analyze", "--file", "{array}"], "state payload must be a JSON object"),
        (["oracle", "--file", "{no-matrix}"], "state payload needs 'dims' and 'matrix' fields"),
        (["analyze", "--file", "{empty-dims}"], "'dims' must be a nonempty array of integers"),
        (["oracle", "--file", "{missing}"], "cannot read state file "),
        (["analyze", "--family", "knoll", "--param", "omega=0.12"], "family 'knoll' is missing parameter(s): eta"),
        ([*X_STATE, "--param", "re14=1e308"], "positivity violated: rho11*rho44 >= |rho14|^2 fails"),
        ([*X_STATE, "--param", "im23=1e200"], "positivity violated: rho22*rho33 >= |rho23|^2 fails"),
    ],
    ids=[
        "param-no-equals", "param-non-numeric", "param-with-file", "range-no-bounds", "range-non-numeric",
        "range-nan", "swept-param-fixed", "step-zero", "step-nan", "steps-one", "file-array",
        "file-no-matrix", "file-empty-dims", "file-missing", "family-missing-param",
        "x-state-re14-overflow", "x-state-im23-overflow",
    ],
)
def test_input_error_messages(tmp_path, capsys, argv, message):
    paths = {"missing": str(tmp_path / "missing.json")}
    for name, payload in STATE_FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    assert run([arg.format(**paths) if arg.startswith("{") else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "command,options",
    [("sweep", ["--range", "gamma=0:1", "--steps", "4"]), ("analyze", ["--param", f"gamma={1 / 3!r}"])],
)
def test_rank_two_knoll_state_concurrence(capsys, command, options):
    # a pure base damped to rank 2 once failed concurrence's cross-check with exit 3
    family = ["--family", "knoll", "--param", "omega=0.5", "--param", "eta=0"]
    assert run([command, *family, *options]) == 0
    out = capsys.readouterr().out
    if command == "analyze":
        assert json.loads(out)["concurrence"] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
    else:
        assert out.splitlines()[2].split(",")[-1] == format_float(np.sqrt(2 / 3))


def test_knoll_report_bytes_do_not_depend_on_call_order(capsys):
    # the base-state cache took -0.0 and 0.0 for one key, so the first call decided
    # whether both reports printed -0.0 or 0.0 matrix entries
    def reports(order):
        analysis._knoll_base.cache_clear()
        out = {}
        for omega in order:
            assert run(["analyze", "--family", "knoll", "--param", f"omega={omega}", "--param", "eta=0.3"]) == 0
            out[omega] = capsys.readouterr().out
        return out

    assert reports(["0.0", "-0.0"]) == reports(["-0.0", "0.0"])


def test_key_minors_note_above_the_enumeration_cap(tmp_path):
    state = tmp_path / "dims3x3.json"
    mixed9 = [[1 / 9 if i == j else 0.0, 0.0] for i in range(9) for j in range(9)]
    state.write_text(json.dumps({"dims": [3, 3], "matrix": mixed9}))
    out = tmp_path / "report.json"
    assert run(["analyze", "--file", str(state), "--out", str(out)]) == 0
    assert read_json(out)["key_minors"] == {"note": "principal-minor enumeration unavailable for dim > 8"}


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_factor_count_limited_to_report_names(tmp_path, capsys, command):
    # nine or more factors used to crash with IndexError; eight still work
    for dims, code in (([2, 1, 1, 1, 1, 1, 1, 2], 0), ([2, 1, 1, 1, 1, 1, 1, 1, 1, 2], 2)):
        state = tmp_path / "factors.json"
        state.write_text(json.dumps({"dims": dims, "matrix": MIXED4}))
        assert run([command, "--file", str(state), "--out", str(tmp_path / "out.json")]) == code
    assert "at most 8 tensor factors, got 10" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize(
    "dims,matrix",
    [([2 ** 32, 2 ** 32], []), ([4, 2 ** 62 + 1], MIXED4)],
    ids=["product-wraps-to-0", "product-wraps-to-4"],
)
def test_dims_product_is_exact(tmp_path, capsys, command, dims, matrix):
    # the int64 product used to wrap: the first file was rejected for its trace,
    # the second passed validation and crashed in reshape with exit 1
    state = tmp_path / "dims.json"
    state.write_text(json.dumps({"dims": dims, "matrix": matrix}))
    assert run([command, "--file", str(state)]) == 2
    size = dims[0] * dims[1]
    assert f"'matrix' must contain {size * size} [re, im] pairs" in capsys.readouterr().err


class TestOracle:
    def test_bell_spectrum(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(["oracle", "--family", "bell", "--out", str(out)]) == 0
        report = read_json(out)
        assert min(report["pt_eigenvalues"]["A"]) == pytest.approx(-0.5, abs=1e-12)
        assert not report["ppt"]["A"]

    def test_ghz_noise_half(self, tmp_path):
        out = tmp_path / "o.json"
        assert (
            run(["oracle", "--family", "ghz-noise", "--param", "alpha=0.5", "--out", str(out)])
            == 0
        )
        report = read_json(out)
        assert report["pt_min_eigenvalue"]["A"] == pytest.approx(-0.1875, abs=1e-12)

    def test_maximally_mixed_three_qubits(self, tmp_path):
        out = tmp_path / "o.json"
        assert (
            run(["oracle", "--family", "ghz-noise", "--param", "alpha=1", "--out", str(out)])
            == 0
        )
        report = read_json(out)
        np.testing.assert_allclose(report["state_eigenvalues"], [0.125] * 8, atol=1e-14)
        for name in ("A", "B", "C"):
            np.testing.assert_allclose(report["pt_eigenvalues"][name], [0.125] * 8, atol=1e-14)


class TestSweep:
    def test_ghz_sign_changes(self, tmp_path):
        out = tmp_path / "ghz.csv"
        assert (
            run(
                [
                    "sweep",
                    "--family",
                    "ghz-noise",
                    "--range",
                    "alpha=0:1",
                    "--steps",
                    "41",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        text = out.read_text()
        locations = footer_locations(text)
        assert locations["p3ppt_margin"][0] == pytest.approx(0.6783, abs=2e-3)
        assert locations["p5ppt_margin"][0] == pytest.approx(0.8, abs=2e-3)
        assert locations["pt_min_eig_A"][0] == pytest.approx(0.8, abs=1e-4)
        assert locations["minor_45"][0] == pytest.approx(0.8, abs=1e-4)

    def test_w_sign_changes(self, tmp_path):
        out = tmp_path / "w.csv"
        assert (
            run(
                [
                    "sweep",
                    "--family",
                    "w-noise",
                    "--range",
                    "beta=0:1",
                    "--steps",
                    "41",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        locations = footer_locations(out.read_text())
        assert locations["p5ppt_margin"][0] == pytest.approx(0.778, abs=2e-3)
        assert locations["pt_min_eig_A"][0] == pytest.approx(0.7904, abs=1e-3)

    def test_knoll_concurrence_crossing(self, tmp_path):
        out = tmp_path / "knoll.csv"
        assert (
            run(
                [
                    "sweep",
                    "--family",
                    "knoll",
                    "--param",
                    "omega=0.12",
                    "--param",
                    "eta=0.21",
                    "--range",
                    "gamma=0:1",
                    "--steps",
                    "21",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        locations = footer_locations(out.read_text())
        assert locations["concurrence"][0] == pytest.approx(0.6494, abs=1e-3)
        assert locations["minor_23"][0] == pytest.approx(0.6494, abs=1e-3)

    def test_range_outside_unit_interval(self, capsys):
        assert run(["sweep", "--family", "ghz-noise", "--range", "alpha=0:1.5"]) == 2

    @pytest.mark.parametrize(
        "grid",
        [
            ["--steps", str(MAX_GRID_POINTS + 1)],
            ["--step", repr(1.0 / MAX_GRID_POINTS)],
            ["--step", "1e-320"],  # the point count overflows to inf
        ],
    )
    def test_grid_cap(self, monkeypatch, capsys, grid):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        assert run(["sweep", "--family", "ghz-noise", "--range", "alpha=0:1", *grid]) == 2
        assert f"limit of {MAX_GRID_POINTS}" in capsys.readouterr().err

    def test_sweep_kmax_cap(self, capsys):
        argv = ["sweep", "--family", "ghz-noise", "--range", "alpha=0:1", "--kmax", str(MAX_KMAX + 1)]
        assert run(argv) == 2
        assert f"1..{MAX_KMAX}" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["bell", "x-state"])
    def test_family_without_sweep_data_is_not_sweepable(self, capsys, family):
        assert run(["sweep", "--family", family, "--range", "r11=0:1"]) == 2
        assert "not sweepable" in capsys.readouterr().err

    def test_wrong_sweep_parameter(self, capsys):
        assert run(["sweep", "--family", "ghz-noise", "--range", "beta=0:1"]) == 2
        assert "sweeps over" in capsys.readouterr().err

    def test_step_size_option(self, tmp_path):
        out = tmp_path / "s.csv"
        assert (
            run(
                [
                    "sweep",
                    "--family",
                    "ghz-noise",
                    "--range",
                    "alpha=0:1",
                    "--step",
                    "0.25",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        data_rows = [
            line
            for line in out.read_text().splitlines()[1:]
            if line and not line.startswith("#")
        ]
        assert len(data_rows) == 5

    def test_bisection_roots_invariant_under_grid_changes(self, tmp_path):
        roots = {}
        for steps in (23, 57):
            out = tmp_path / f"g{steps}.csv"
            assert (
                run(
                    [
                        "sweep",
                        "--family",
                        "ghz-noise",
                        "--range",
                        "alpha=0:1",
                        "--steps",
                        str(steps),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            roots[steps] = footer_locations(out.read_text())
        for column in ("p3ppt_margin", "p5ppt_margin", "pt_min_eig_A", "minor_45"):
            assert roots[23][column][0] == pytest.approx(roots[57][column][0], abs=2e-6)

    def test_csv_rendering(self, tmp_path):
        out = tmp_path / "fmt.csv"
        run(
            [
                "sweep",
                "--family",
                "ghz-noise",
                "--range",
                "alpha=0:1",
                "--steps",
                "5",
                "--out",
                str(out),
            ]
        )
        raw = out.read_bytes().decode()
        assert "\r" not in raw
        header = raw.splitlines()[0].split(",")
        first = raw.splitlines()[1].split(",")
        assert header[0] == "alpha"
        # every value is the fixed 12-significant-digit rendering of a float
        for token in first:
            assert token == format_float(float(token))


class TestRoundTrip:
    def test_export_ingest_bitwise_margins(self, tmp_path):
        first = tmp_path / "first.json"
        rc = run(
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
        assert rc == 0
        report1 = read_json(first)

        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(report1["state"]))
        second = tmp_path / "second.json"
        assert run(["analyze", "--file", str(state_file), "--out", str(second)]) == 0
        report2 = read_json(second)

        def rendered(report):
            margins = [
                (c["criterion"], format_float(c["margin"])) for c in report["criteria"]
            ]
            negativities = sorted(
                (k, format_float(v)) for k, v in report["negativity"].items()
            )
            return margins, negativities

        assert rendered(report1) == rendered(report2)

    def test_payload_round_trips_exactly(self):
        from ptmoments.analysis import state_from_payload

        state = bell_phi_plus()
        clone = state_from_payload(json.loads(json.dumps(state_payload(state))))
        assert np.array_equal(clone.matrix, state.matrix)
        assert clone.dims == state.dims
