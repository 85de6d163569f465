"""Report assembly, state file I/O, named families, and parameter sweeps.

This is the machinery behind the command-line interface; everything here
returns plain JSON-serializable dictionaries or rows of floats.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import linalg
from .channels import amplitude_damping, apply_channel, concurrence
from .errors import ValidationError
from .minors import all_principal_minors, is_x_pattern, principal_minor, three_qubit_x_minors
from .moments import (
    CriterionVerdict,
    MomentVector,
    p3_oppt_test,
    p3_ppt_test,
    pn_ppt_test,
    pt_moments,
    tripartite_moments,
)
from .ptranspose import negativity, partial_transpose
from .states import (
    DensityMatrix,
    XStateParams,
    bell_phi_plus,
    ghz_white_noise,
    knoll_state,
    w_white_noise,
    x_state,
)

SUBSYSTEM_NAMES = "ABCDEFGH"

# Concurrence is clamped at zero, so boundary detection uses a small positive
# floor instead of a sign change.
CONCURRENCE_FLOOR = 1e-12

# Genuine-multipartite-entanglement bounds quoted from the literature; they
# are documentation only and never computed here.
LITERATURE_NOTES = {
    "ghz-noise": {
        "genuine_multipartite_entanglement": {
            "alpha_max": 0.571,
            "status": "literature value; not reproduced by this tool",
        }
    },
    "w-noise": {
        "genuine_multipartite_entanglement": {
            "beta_max": 0.521,
            "status": "literature value; not reproduced by this tool",
        }
    },
}

_CRITERION_TOKEN = re.compile(r"^p(\d+)(o?)ppt$")


# ---------------------------------------------------------------------------
# Named families


def _build_bell(params: dict[str, float]) -> DensityMatrix:
    return bell_phi_plus()


def _build_ghz_noise(params: dict[str, float]) -> DensityMatrix:
    return ghz_white_noise(params["alpha"])


def _build_w_noise(params: dict[str, float]) -> DensityMatrix:
    return w_white_noise(params["beta"])


def _build_knoll(params: dict[str, float]) -> DensityMatrix:
    state = knoll_state(params["omega"], params["eta"])
    gamma = params.get("gamma")
    if gamma is not None:
        state = apply_channel(state, amplitude_damping(gamma), 1)
    return state


def _build_x_state(params: dict[str, float]) -> DensityMatrix:
    return x_state(
        XStateParams(
            rho11=params["r11"],
            rho22=params["r22"],
            rho33=params["r33"],
            rho44=params["r44"],
            rho14=complex(params.get("re14", 0.0), params.get("im14", 0.0)),
            rho23=complex(params.get("re23", 0.0), params.get("im23", 0.0)),
        )
    )


# name -> (builder, required params, optional params)
FAMILIES: dict[str, tuple[Callable[[dict], DensityMatrix], tuple[str, ...], tuple[str, ...]]] = {
    "bell": (_build_bell, (), ()),
    "ghz-noise": (_build_ghz_noise, ("alpha",), ()),
    "w-noise": (_build_w_noise, ("beta",), ()),
    "knoll": (_build_knoll, ("omega", "eta"), ("gamma",)),
    "x-state": (
        _build_x_state,
        ("r11", "r22", "r33", "r44"),
        ("re14", "im14", "re23", "im23"),
    ),
}

# Parameter a sweep may range over, per family.
SWEEPABLE_PARAM = {"ghz-noise": "alpha", "w-noise": "beta", "knoll": "gamma"}


def build_family_state(family: str, params: dict[str, float]) -> DensityMatrix:
    """Construct a named-family state, validating parameter names."""
    if family not in FAMILIES:
        raise ValidationError(
            f"unknown family {family!r}; known families: {', '.join(sorted(FAMILIES))}"
        )
    builder, required, optional = FAMILIES[family]
    allowed = set(required) | set(optional)
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) {', '.join(unknown)} for family {family!r}; "
            f"expected {', '.join(required) or 'none'}"
            + (f" (optional: {', '.join(optional)})" if optional else "")
        )
    missing = sorted(set(required) - set(params))
    if missing:
        raise ValidationError(
            f"family {family!r} is missing parameter(s): {', '.join(missing)}"
        )
    return builder(params)


def parse_param_assignments(assignments) -> dict[str, float]:
    """Parse repeated 'name=value' strings into a float-valued dict."""
    params: dict[str, float] = {}
    for item in assignments or ():
        if "=" not in item:
            raise ValidationError(f"parameter {item!r} is not of the form name=value")
        name, _, raw = item.partition("=")
        name = name.strip()
        try:
            params[name] = float(raw)
        except ValueError as exc:
            raise ValidationError(f"parameter {name!r} has non-numeric value {raw!r}") from exc
    return params


# ---------------------------------------------------------------------------
# State file format: {"dims": [..], "matrix": [[re, im], ...]} row-major.


def state_payload(state: DensityMatrix) -> dict:
    """JSON-serializable form of a state; floats keep full precision."""
    return {
        "dims": list(state.dims),
        "matrix": [[float(z.real), float(z.imag)] for z in state.matrix.ravel()],
    }


def state_from_payload(payload) -> DensityMatrix:
    if not isinstance(payload, dict):
        raise ValidationError("state payload must be a JSON object")
    if "dims" not in payload or "matrix" not in payload:
        raise ValidationError("state payload needs 'dims' and 'matrix' fields")
    dims_raw = payload["dims"]
    if not isinstance(dims_raw, list) or not dims_raw:
        raise ValidationError("'dims' must be a nonempty array of integers")
    try:
        dims = tuple(int(d) for d in dims_raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"'dims' must contain integers, got {dims_raw!r}") from exc
    dim = int(np.prod(dims))
    entries = payload["matrix"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ValidationError(
            f"'matrix' must contain {dim * dim} [re, im] pairs (row-major), "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = np.empty(dim * dim, dtype=complex)
    for idx, entry in enumerate(entries):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) for v in entry)
        ):
            raise ValidationError(
                f"matrix entry {idx} must be a [re, im] pair of numbers, got {entry!r}"
            )
        flat[idx] = complex(entry[0], entry[1])
    return DensityMatrix(flat.reshape(dim, dim), dims)


def load_state_json(path) -> DensityMatrix:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return state_from_payload(payload)


# ---------------------------------------------------------------------------
# Criteria


def default_criteria(kmax: int) -> list[str]:
    names = ["p3ppt", "p3oppt"]
    for n in (5, 7):
        if kmax >= n:
            names.append(f"p{n}ppt")
    return names


def parse_criteria(selection) -> list[str]:
    """Normalize a comma list such as 'p3ppt,p3oppt,p5ppt' into tokens."""
    if isinstance(selection, str):
        tokens = [t.strip() for t in selection.split(",") if t.strip()]
    else:
        tokens = list(selection)
    if not tokens:
        raise ValidationError("criteria list is empty")
    out = []
    for token in tokens:
        match = _CRITERION_TOKEN.match(token.replace("-", "").lower())
        if not match:
            raise ValidationError(
                f"unknown criterion {token!r}; expected p3ppt, p3oppt, p5ppt, p7ppt, ..."
            )
        n, optimal = int(match.group(1)), bool(match.group(2))
        if optimal and n != 3:
            raise ValidationError(f"the optimal criterion exists only at order 3, got {token!r}")
        if not optimal and (n < 3 or n % 2 == 0):
            raise ValidationError(f"moment criteria need odd order >= 3, got {token!r}")
        out.append(f"p{n}oppt" if optimal else f"p{n}ppt")
    return out


def evaluate_criterion(token: str, moments: MomentVector, tol: float) -> CriterionVerdict:
    match = _CRITERION_TOKEN.match(token)
    if not match:
        raise ValidationError(f"unknown criterion token {token!r}")
    n, optimal = int(match.group(1)), bool(match.group(2))
    if optimal:
        return p3_oppt_test(moments, tol)
    if n == 3:
        return p3_ppt_test(moments, tol)
    return pn_ppt_test(moments, n, tol)


# ---------------------------------------------------------------------------
# Reports


def _subsystem_names(state: DensityMatrix) -> list[str]:
    return [SUBSYSTEM_NAMES[s] for s in range(state.num_factors)]


def criteria_moments(state: DensityMatrix, kmax: int | None = None) -> tuple[MomentVector, str]:
    """The moment vector the criteria are evaluated on, plus its provenance:
    subsystem-A moments for bipartite states, the tripartite geometric mean
    for three-factor states."""
    if state.num_factors == 3:
        return tripartite_moments(state, kmax), "tripartite-geometric-mean"
    return pt_moments(state, 0, kmax), SUBSYSTEM_NAMES[0]


def _key_minors_block(state: DensityMatrix) -> dict:
    pt0 = partial_transpose(state, 0)
    if state.dims == (2, 2) and is_x_pattern(state.matrix):
        return {
            "minor_14": principal_minor(pt0, (1, 4)),
            "minor_23": principal_minor(pt0, (2, 3)),
        }
    if state.dims == (2, 2, 2) and is_x_pattern(state.matrix):
        m18, m27, m36, m45 = three_qubit_x_minors(state)
        return {"minor_18": m18, "minor_27": m27, "minor_36": m36, "minor_45": m45}
    if state.dim <= 8:
        report = all_principal_minors(pt0)
        return {
            "min_principal_minor": report.min_value,
            "min_index_set": list(report.min_index_set),
        }
    return {"note": f"principal-minor enumeration unavailable for dim > 8"}


def _oracle_block(state: DensityMatrix, tol: float) -> dict:
    pt_min: dict[str, float] = {}
    ppt: dict[str, bool] = {}
    for s, name in enumerate(_subsystem_names(state)):
        eigs = linalg.hermitian_eigenvalues(partial_transpose(state, s))
        scale = max(1.0, float(np.max(np.abs(eigs))))
        pt_min[name] = float(eigs[0])
        ppt[name] = bool(eigs[0] >= -tol * scale)
    return {"pt_min_eigenvalue": pt_min, "ppt": ppt}


def analyze_state(
    state: DensityMatrix,
    descriptor: dict,
    kmax: int | None = None,
    criteria=None,
    tol: float = linalg.DEFAULT_PSD_TOL,
) -> dict:
    """Full analysis report: moments, criterion verdicts, negativities, key
    minors, and the eigenvalue-oracle PPT verdicts."""
    crit_mv, source = criteria_moments(state, kmax)
    names = parse_criteria(criteria) if criteria else default_criteria(crit_mv.kmax)
    verdicts = [evaluate_criterion(token, crit_mv, tol) for token in names]
    per_subsystem = {
        name: list(pt_moments(state, s, crit_mv.kmax).values)
        for s, name in enumerate(_subsystem_names(state))
    }
    report = {
        "input": descriptor,
        "dims": list(state.dims),
        "kmax": crit_mv.kmax,
        "tolerance": tol,
        "state": state_payload(state),
        "moments": per_subsystem,
        "criteria_moments": {"source": source, "values": list(crit_mv.values)},
        "criteria": [asdict(v) for v in verdicts],
        "negativity": {
            name: negativity(state, s, tol)
            for s, name in enumerate(_subsystem_names(state))
        },
        "key_minors": _key_minors_block(state),
        "oracle": _oracle_block(state, tol),
    }
    if state.dims == (2, 2):
        report["concurrence"] = concurrence(state)
    family = descriptor.get("family")
    if family in LITERATURE_NOTES:
        report["literature"] = LITERATURE_NOTES[family]
    return report


def oracle_state(state: DensityMatrix, descriptor: dict, tol: float = linalg.DEFAULT_PSD_TOL) -> dict:
    """Eigenvalue report: spectrum of the state and of every single-subsystem
    partial transpose, with PPT verdicts."""
    pt_eigs = {
        name: [float(v) for v in linalg.hermitian_eigenvalues(partial_transpose(state, s))]
        for s, name in enumerate(_subsystem_names(state))
    }
    report = {
        "input": descriptor,
        "dims": list(state.dims),
        "state_eigenvalues": [float(v) for v in linalg.hermitian_eigenvalues(state.matrix)],
        "pt_eigenvalues": pt_eigs,
    }
    report.update(_oracle_block(state, tol))
    return report


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepResult:
    columns: list[str]
    rows: list[list[float]]
    sign_changes: list[tuple[str, float]]


def bisect_sign_change(f, lo: float, hi: float, xtol: float = 1e-6, max_iter: int = 200) -> float:
    """Locate a sign change of f in [lo, hi] by bisection."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValidationError(f"no sign change of {f} in [{lo}, {hi}]")
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def _sweep_evaluator(
    family: str,
    fixed: dict[str, float],
    sweep_param: str,
    criteria: list[str],
    resolved_kmax: int,
    tol: float,
):
    """Build (columns, evaluate, boundary transforms) for one family sweep."""

    def build(value: float) -> DensityMatrix:
        params = dict(fixed)
        params[sweep_param] = value
        return build_family_state(family, params)

    moment_cols = [f"p{k}" for k in range(1, resolved_kmax + 1)]
    margin_cols = [f"{token}_margin" for token in criteria]
    columns = [sweep_param, *moment_cols, *margin_cols]
    columns += ["negativity_A", "pt_min_eig_A"]
    if family == "ghz-noise":
        minor_cols = ["minor_18", "minor_27", "minor_36", "minor_45"]
    elif family == "w-noise":
        minor_cols = ["min_principal_minor"]
    else:
        minor_cols = ["minor_14", "minor_23", "concurrence"]
    columns += minor_cols

    def evaluate(value: float, only: str | None = None) -> dict[str, float]:
        """The row at one parameter value; with `only`, just that column."""

        def wanted(*names: str) -> bool:
            return only is None or only in names

        state = build(value)
        row: dict[str, float] = {sweep_param: value}
        if wanted(*moment_cols, *margin_cols):
            mv, _ = criteria_moments(state, resolved_kmax)
            row.update(zip(moment_cols, mv.values))
            for token, column in zip(criteria, margin_cols):
                if wanted(column):
                    row[column] = evaluate_criterion(token, mv, tol).margin
        if wanted("negativity_A"):
            row["negativity_A"] = negativity(state, 0, tol)
        if wanted("pt_min_eig_A", "min_principal_minor", "minor_14", "minor_23"):
            pt0 = partial_transpose(state, 0)
        if wanted("pt_min_eig_A"):
            row["pt_min_eig_A"] = float(linalg.hermitian_eigenvalues(pt0)[0])
        if family == "ghz-noise":
            if wanted(*minor_cols):
                m18, m27, m36, m45 = three_qubit_x_minors(state)
                row.update(minor_18=m18, minor_27=m27, minor_36=m36, minor_45=m45)
        elif family == "w-noise":
            if wanted("min_principal_minor"):
                row["min_principal_minor"] = all_principal_minors(pt0).min_value
        else:
            if wanted("minor_14"):
                row["minor_14"] = principal_minor(pt0, (1, 4))
            if wanted("minor_23"):
                row["minor_23"] = principal_minor(pt0, (2, 3))
            if wanted("concurrence"):
                row["concurrence"] = concurrence(state)
        return row if only is None else {only: row[only]}

    # Columns whose zero crossings get refined by bisection; concurrence is
    # clamped at 0 so its boundary is crossed at a small positive floor.
    boundary = list(margin_cols)
    boundary += ["pt_min_eig_A"] + [c for c in minor_cols if c != "concurrence"]
    transforms = {c: 0.0 for c in boundary}
    if "concurrence" in columns:
        transforms["concurrence"] = CONCURRENCE_FLOOR
    return columns, evaluate, transforms


def run_sweep(
    family: str,
    fixed: dict[str, float],
    lo: float,
    hi: float,
    count: int,
    criteria=None,
    kmax: int | None = None,
    tol: float = linalg.DEFAULT_PSD_TOL,
) -> SweepResult:
    """Evaluate a family over a parameter grid and locate criterion boundaries.

    Grid points are evaluated in order; sign changes of every margin, minor,
    and oracle column are refined by bisection to 1e-6 in the parameter.
    Bisection evaluates only the column it refines, not the whole row.
    """
    if family not in SWEEPABLE_PARAM:
        raise ValidationError(
            f"family {family!r} is not sweepable; choose from "
            f"{', '.join(sorted(SWEEPABLE_PARAM))}"
        )
    sweep_param = SWEEPABLE_PARAM[family]
    if not (0.0 <= lo < hi <= 1.0):
        raise ValidationError(
            f"sweep range [{lo}, {hi}] must satisfy 0 <= lo < hi <= 1"
        )
    if count < 2:
        raise ValidationError(f"sweep needs at least 2 grid points, got {count}")
    if kmax is None:
        kmax = 6 if family == "knoll" else 5
    names = parse_criteria(criteria) if criteria else default_criteria(kmax)
    columns, evaluate, transforms = _sweep_evaluator(
        family, fixed, sweep_param, names, kmax, tol
    )
    grid = np.linspace(lo, hi, count)
    table = [evaluate(float(x)) for x in grid]
    rows = [[row[c] for c in columns] for row in table]

    sign_changes: list[tuple[str, float]] = []
    for column, floor in transforms.items():
        shifted = [row[column] - floor for row in table]
        for i in range(len(grid) - 1):
            lo_neg, hi_neg = shifted[i] < 0.0, shifted[i + 1] < 0.0
            if lo_neg == hi_neg:
                continue
            root = bisect_sign_change(
                lambda x, c=column, f=floor: evaluate(float(x), only=c)[c] - f,
                float(grid[i]),
                float(grid[i + 1]),
                xtol=1e-6,
            )
            sign_changes.append((column, root))
    return SweepResult(columns=columns, rows=rows, sign_changes=sign_changes)


def format_float(value: float) -> str:
    """Fixed 12-significant-digit rendering used for CSV output and diffing."""
    return f"{value:.12g}"


def render_sweep_csv(result: SweepResult) -> str:
    """CSV with one row per grid point and a footer block of sign-change
    locations; LF line endings."""
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(format_float(v) for v in row))
    for column, location in result.sign_changes:
        lines.append(f"# sign-change,{column},{format_float(location)}")
    return "\n".join(lines) + "\n"
