"""Report assembly, state file I/O, named families, and parameter sweeps.

This is the machinery behind the command-line interface; everything here
returns plain JSON-serializable dictionaries or rows of floats.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import linalg, minors
from .channels import amplitude_damped_matrices, concurrence, matrix_concurrence
from .errors import ValidationError
from .minors import (
    X_PAIR_LABELS,
    all_principal_minors,
    is_x_pattern,
    min_principal_minors,
    x_pair_minor_stack,
)
from .moments import check_moments, geometric_mean_moments, power_sums, resolve_criteria, resolve_kmax
from .ptranspose import negativity_from_spectrum, transpose_subsystem
from .states import (
    DensityMatrix,
    XStateParams,
    bell_phi_plus_matrix,
    density_matrix_spectra,
    ghz_noise_matrices,
    knoll_matrix,
    w_noise_matrices,
    x_state_matrix,
)

SUBSYSTEM_NAMES = "ABCDEFGH"

# Concurrence is clamped at zero, so boundary detection uses a small positive
# floor instead of a sign change.
CONCURRENCE_FLOOR = 1e-12

# Far above any grid in use: a mistyped --steps or --step cannot allocate without limit.
MAX_GRID_POINTS = 10_001

# Halvings a bisection may take; 60 already shrink a unit interval below any xtol in use.
BISECT_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Named families


def _knoll_matrices(params: dict) -> np.ndarray:
    # -0.0 + 0.0 is 0.0: omega or eta given as -0.0 builds the state of 0.0, so a report
    # prints one matrix for both zeros where the -0.0 state would print -0.0 entries.
    base = knoll_matrix(params["omega"] + 0.0, params["eta"] + 0.0)
    gamma = params.get("gamma")
    # The undamped base keeps its own matrix: damping at gamma = 0 would turn its -0.0
    # imaginary parts into 0.0, which reports print.
    return base if gamma is None else amplitude_damped_matrices(base, (2, 2), gamma, 1)


def _x_family_matrix(params: dict[str, float]) -> np.ndarray:
    rho14, rho23 = (complex(params.get(f"re{k}", 0.0), params.get(f"im{k}", 0.0)) for k in (14, 23))
    diagonals = (params["r11"], params["r22"], params["r33"], params["r44"])
    return x_state_matrix(XStateParams(*diagonals, rho14, rho23))


@dataclass(frozen=True)
class ColumnGroup:
    """Sweep columns one function computes together, and the floor their sweep boundaries cross,
    or None where none is located.  compute(points, rows) indexes by `rows`, sorted indices or a
    slice, each `_Points` array it reads, so minors are computed at those rows only, and returns
    the float array (len(rows), len(names))."""

    names: tuple[str, ...]
    compute: Callable[[_Points, list[int] | slice], np.ndarray]
    floor: float | None = 0.0


# Column functions look the minor functions up among this module's globals at
# call time, so a substitute bound to those names sees every call.
X_MINORS = {  # by matrix dimension: the X-form pair minors, named minor_<i><j>
    dim: ColumnGroup(tuple(f"minor_{i}{j}" for i, j in pairs),
                     lambda points, rows: x_pair_minor_stack(points.pt(0)[rows]))
    for dim, pairs in X_PAIR_LABELS.items()
}
MIN_PT_MINOR = ColumnGroup(
    ("min_principal_minor",), lambda points, rows: min_principal_minors(points.pt(0)[rows])[:, None]
)
CONCURRENCE_COLUMN = ColumnGroup(
    ("concurrence",), lambda points, rows: matrix_concurrence(points.matrices[rows])[:, None],
    floor=CONCURRENCE_FLOOR,
)

# Genuine-multipartite-entanglement bounds quoted in reports are documentation
# only and never computed here.
_GME = "genuine_multipartite_entanglement"
_QUOTED = "literature value; not reproduced by this tool"


@dataclass(frozen=True)
class Family:
    """A named state family, its one builder and its report's literature note; a sweepable
    family also names its swept parameter and its sweep's minor columns.  `build` returns the
    unvalidated matrix (d, d) when every parameter is a float, and the stack (n, d, d) of one
    matrix per value when the swept one is an array of n values; `build_family_state` and
    `build_family_stack` validate what it returns, once."""

    name: str
    build: Callable[[dict], np.ndarray]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    factors: int = 2  # qubits of every state it builds
    sweep_param: str | None = None
    minor_columns: tuple[ColumnGroup, ...] = ()
    literature: dict | None = None


FAMILY_BY_NAME = {
    family.name: family for family in (
        Family("bell", lambda params: bell_phi_plus_matrix()),
        Family("ghz-noise", lambda params: ghz_noise_matrices(params["alpha"]), ("alpha",), factors=3,
               sweep_param="alpha", minor_columns=(X_MINORS[8],),
               literature={_GME: {"alpha_max": 0.571, "status": _QUOTED}}),
        Family("w-noise", lambda params: w_noise_matrices(params["beta"]), ("beta",), factors=3,
               sweep_param="beta", minor_columns=(MIN_PT_MINOR,),
               literature={_GME: {"beta_max": 0.521, "status": _QUOTED}}),
        Family("knoll", _knoll_matrices, ("omega", "eta"), ("gamma",),
               sweep_param="gamma", minor_columns=(X_MINORS[4], CONCURRENCE_COLUMN)),
        Family(
            "x-state", _x_family_matrix, ("r11", "r22", "r33", "r44"), ("re14", "im14", "re23", "im23")
        ),
    )
}


def sweepable_families() -> list[str]:
    return [name for name, family in FAMILY_BY_NAME.items() if family.sweep_param]


def _family_for(family: str, params: dict) -> Family:
    """The record of a named family, once the parameter names are checked against it."""
    record = FAMILY_BY_NAME.get(family)
    if record is None:
        raise ValidationError(
            f"unknown family {family!r}; known families: {', '.join(sorted(FAMILY_BY_NAME))}"
        )
    required, optional = record.required, record.optional
    unknown = sorted(set(params) - set(required) - set(optional))
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
    return record


def build_family_state(family: str, params: dict[str, float]) -> DensityMatrix:
    """Construct a named-family state, validating parameter names; its builder's matrix is
    validated here, once."""
    record = _family_for(family, params)
    return DensityMatrix(record.build(params), (2,) * record.factors)


def build_family_stack(family: str, params: dict) -> np.ndarray:
    """The states `build_family_state` builds at each value of a sweepable family's swept
    parameter, which `params` maps to an array of n values, as one validated stack (n, d, d)."""
    matrices = _family_for(family, params).build(params)
    density_matrix_spectra(matrices)
    return matrices


def parse_param_assignments(assignments) -> dict[str, float]:
    """Parse repeated 'name=value' strings into a float-valued dict."""
    params: dict[str, float] = {}
    for item in assignments or ():
        if "=" not in item:
            raise ValidationError(f"parameter {item!r} is not of the form name=value")
        name, _, raw = item.partition("=")
        name = name.strip()
        if not name:
            raise ValidationError(f"parameter {item!r} has an empty name")
        if name in params:
            raise ValidationError(f"parameter {name!r} is given more than once")
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
    dims = payload["dims"]
    if not isinstance(dims, list) or not dims:
        raise ValidationError("'dims' must be a nonempty array of integers")
    for idx, d in enumerate(dims):
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValidationError(f"'dims' entry {idx} must be an integer, got {d!r}")
    dim = math.prod(dims)
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
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise ValidationError(
                f"matrix entry {idx} must be a [re, im] pair of numbers, got {entry!r}"
            )
        try:
            flat[idx] = complex(entry[0], entry[1])
        except OverflowError as exc:  # an integer past the float range
            raise ValidationError(f"matrix entry {idx} has a number past the float range") from exc
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
    except ValueError as exc:  # bytes that are not UTF-8, or an integer of too many digits
        raise ValidationError(f"cannot decode state file {path}: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the interpreter's limit
        raise ValidationError(f"cannot decode state file {path}: JSON nested too deeply") from exc
    return state_from_payload(payload)


# ---------------------------------------------------------------------------
# Reports


class _Points:
    """States of one layout as a stack (n, d, d) and, each computed for the whole stack on first
    use and kept: the partial transpose over A, pt(0) (n, d, d); every cut's ascending
    spectrum(s) (n, d); every cut's PT moments(s) (n, kmax); and criteria_moments() (n, kmax),
    whose provenance is criteria_source.  Each moment array is checked once per stack, raising
    what its first failing row raises as a MomentVector.  pt(s) over any other cut is built anew
    each time, so it goes once its spectrum is taken.  A `ColumnGroup` reads only its own rows of
    these.  The caches close over locals, not over the record, so no cycle holds it."""

    def __init__(self, matrices: np.ndarray, dims: tuple[int, ...], kmax: int | None = None):
        self.matrices = matrices
        dim = matrices.shape[-1]
        pt_a = functools.cache(lambda: transpose_subsystem(matrices, dims, 0))
        self.pt = pt = lambda s: pt_a() if s == 0 else transpose_subsystem(matrices, dims, s)
        self.spectrum = spectrum = functools.cache(lambda s: linalg.hermitian_eigenvalues(pt(s)))
        self.moments = moments = functools.cache(
            lambda s: check_moments(power_sums(spectrum(s), kmax), dim)
        )
        if len(dims) == 3:
            self.criteria_source = "tripartite-geometric-mean"
            self.criteria_moments = functools.cache(
                lambda: check_moments(geometric_mean_moments(np.array([moments(s) for s in range(3)])), dim)
            )
        else:
            self.criteria_source, self.criteria_moments = SUBSYSTEM_NAMES[0], lambda: moments(0)

    @classmethod
    def of(cls, state: DensityMatrix, kmax: int | None = None) -> _Points:
        """The record of one state, a stack of one."""
        return cls(state.matrix[None], state.dims, kmax)


def _key_minors_block(state: DensityMatrix, point: _Points) -> dict:
    if state.dims in ((2, 2), (2, 2, 2)) and is_x_pattern(state.matrix):
        group = X_MINORS[state.dim]
        return dict(zip(group.names, group.compute(point, [0])[0].tolist()))
    if state.dim <= minors.MAX_ENUMERATION_DIM:
        report = all_principal_minors(point.pt(0)[0])
        return {
            "min_principal_minor": report.min_value,
            "min_index_set": list(report.min_index_set),
        }
    return {"note": f"principal-minor enumeration unavailable for dim > {minors.MAX_ENUMERATION_DIM}"}


def _named_spectra(state: DensityMatrix, point: _Points, tol: float) -> tuple[str, np.ndarray]:
    """The names A, B, ... of the single-factor partial transposes and their ascending spectra as
    one array (cuts, d), once the tolerance and the number of factors a report can name are checked."""
    linalg.check_tolerance(tol)
    count = state.num_factors
    if count > len(SUBSYSTEM_NAMES):
        raise ValidationError(f"reports name at most {len(SUBSYSTEM_NAMES)} tensor factors, got {count}")
    return SUBSYSTEM_NAMES[:count], np.array([point.spectrum(s)[0] for s in range(count)])


def _oracle_block(names: str, spectra: np.ndarray, tol: float) -> dict:
    """Smallest eigenvalue and PPT verdict of each named PT spectrum, all cuts at once."""
    ppt = linalg.spectrum_is_psd(spectra, tol).tolist()
    return {"pt_min_eigenvalue": dict(zip(names, spectra[:, 0].tolist())), "ppt": dict(zip(names, ppt))}


def analyze_state(
    state: DensityMatrix,
    descriptor: dict,
    kmax: int | None = None,
    criteria=None,
    tol: float = linalg.DEFAULT_PSD_TOL,
) -> dict:
    """Full analysis report: moments, criterion verdicts, negativities, key
    minors, and the eigenvalue-oracle PPT verdicts, all read off one spectrum
    per partial transpose."""
    kmax = resolve_kmax(state.num_factors, kmax)
    point = _Points.of(state, kmax)
    names, spectra = _named_spectra(state, point, tol)
    moments = {name: point.moments(s)[0].tolist() for s, name in enumerate(names)}
    crit = point.criteria_moments()
    verdicts = [c.verdict(crit[0], tol) for c in resolve_criteria(criteria, kmax).values()]
    negativities = negativity_from_spectrum(spectra, tol)
    report = {
        "input": descriptor,
        "dims": list(state.dims),
        "kmax": kmax,
        "tolerance": tol,
        "state": state_payload(state),
        "moments": moments,
        "criteria_moments": {"source": point.criteria_source, "values": crit[0].tolist()},
        "criteria": [asdict(v) for v in verdicts],
        "negativity": dict(zip(names, negativities.tolist())),
        "key_minors": _key_minors_block(state, point),
        "oracle": _oracle_block(names, spectra, tol),
    }
    if state.dims == (2, 2):
        report["concurrence"] = concurrence(state)
    family = FAMILY_BY_NAME.get(descriptor.get("family"))
    if family is not None and family.literature is not None:
        report["literature"] = family.literature
    return report


def oracle_state(state: DensityMatrix, descriptor: dict, tol: float = linalg.DEFAULT_PSD_TOL) -> dict:
    """Eigenvalue report: spectrum of the state and of every single-subsystem
    partial transpose, with PPT verdicts."""
    names, spectra = _named_spectra(state, _Points.of(state), tol)
    report = {
        "input": descriptor,
        "dims": list(state.dims),
        "state_eigenvalues": state.spectrum.tolist(),
        "pt_eigenvalues": dict(zip(names, spectra.tolist())),
    }
    report.update(_oracle_block(names, spectra, tol))
    return report


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepResult:
    columns: list[str]
    rows: list[list[float]]
    sign_changes: list[tuple[str, float]]


def bisect_sign_change(f, lo, hi, lo_negative, xtol: float = 1e-6) -> np.ndarray:
    """Roots of the brackets [lo[i], hi[i]], halved in lockstep, whose two ends differ in the
    sweep grid's sign test value < 0.0, an exact zero counting as non-negative; lo_negative[i]
    is that test at lo[i], as the grid scan found it.

    f(x, brackets) maps the midpoints x of the brackets still wider than xtol, whose indices
    are `brackets`, to their values at once; f is called at midpoints only.  Each bracket stops
    once its own width is at most xtol, after at most BISECT_MAX_ITER halvings."""
    lo, hi, lo_negative = np.array(lo, dtype=float), np.array(hi, dtype=float), np.asarray(lo_negative)
    for _ in range(BISECT_MAX_ITER):
        live = np.flatnonzero(hi - lo > xtol)
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        keeps_sign = (f(mid, live) < 0.0) == lo_negative[live]
        lo[live] = np.where(keeps_sign, mid, lo[live])
        hi[live] = np.where(keeps_sign, hi[live], mid)
    return 0.5 * (lo + hi)


def _sweep_evaluator(
    family: Family, fixed: dict[str, float], criteria: dict, kmax: int, tol: float, grid
):
    """Build (columns, evaluate, boundary floors) for one family sweep over `grid` from one
    table of column groups, which declares each column once; `criteria` maps each token to its
    `moments.Criterion`.  The grid's float table (len(grid), len(columns)) is computed here,
    each group at every row of one record of all its states, and `evaluate(x)` reads it.
    `evaluate(values, names)`, the bisection's call, builds its values as one record of their
    own, a stack from the same builder, and computes each group only at the rows of the values
    that ask for that group's columns."""
    param = family.sweep_param
    groups = [
        ColumnGroup(tuple(f"p{k}" for k in range(1, kmax + 1)),
                    lambda points, rows: points.criteria_moments()[rows], floor=None),
        *(ColumnGroup((f"{t}_margin",), lambda points, rows, test=criterion.test:
                      test(points.criteria_moments()[rows], tol)[0][:, None])
          for t, criterion in criteria.items()),
        ColumnGroup(("negativity_A",), lambda points, rows:
                    negativity_from_spectrum(points.spectrum(0)[rows], tol)[:, None], floor=None),
        ColumnGroup(("pt_min_eig_A",), lambda points, rows: points.spectrum(0)[rows, :1]),
        *family.minor_columns,
    ]
    group_of = {name: group for group in groups for name in group.names}
    columns = [param, *group_of]
    # Columns whose zero crossings get refined by bisection, each mapped to the floor it crosses.
    floors = {name: group.floor for name, group in group_of.items() if group.floor is not None}

    def record(values) -> _Points:
        """The record of the states at `values` of the swept parameter, one validated stack."""
        matrices = build_family_stack(family.name, {**fixed, param: np.array(values)})
        return _Points(matrices, (2,) * family.factors, kmax)

    grid = np.array(grid, dtype=float)
    if grid.size:
        points = record(grid)
        table = np.column_stack([grid, *(group.compute(points, slice(None)) for group in groups)])
    row_of = {x: i for i, x in enumerate(grid.tolist())}

    def evaluate(x, names=None):
        """The table's row at the grid value x, as a list in column order: a read kept as one
        call per grid row because perfbench counts grid evaluations by these calls.  Or, for an
        array x of values and one column name per value, the array of names[i] at x[i]: the
        distinct values are built as one record, in first-seen order, and each group is
        computed only at the values that ask for its columns."""
        if names is None:
            return table[row_of[x]].tolist()
        values = [float(v) for v in x]
        position = {v: i for i, v in enumerate(dict.fromkeys(values))}
        points, out = record(list(position)), np.empty(len(values))
        for group in groups:
            asking = [i for i, c in enumerate(names) if group_of[c] is group]
            if asking:
                taken = sorted({position[values[i]] for i in asking})
                row = {p: r for r, p in enumerate(taken)}
                block = group.compute(points, taken)
                out[asking] = block[[row[position[values[i]]] for i in asking],
                                    [group.names.index(names[i]) for i in asking]]
        return out

    return columns, evaluate, floors


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

    The grid's states are built, validated once, partially transposed and
    diagonalised as one stack, and their minors enumerated in blocks of
    `minors.MINOR_BLOCK` states; each column is computed for the whole stack
    at once, into one float table of a row per grid point.  Sign changes of
    every margin, minor, and oracle column are found by one comparison of
    adjacent rows of that table and refined by bisection to 1e-6 in the
    parameter, all brackets in lockstep: each bracket's end signs come from
    the grid scan, and each halving builds the distinct midpoints of the
    brackets still open as one stack from the family's builder, which builds
    the grid too, and computes each column only at the midpoints of the
    brackets that refine it.  A column counts as negative where
    value - floor < 0.0, on the grid and in the bisection alike.
    """
    record = FAMILY_BY_NAME.get(family)
    if record is None or record.sweep_param is None:
        raise ValidationError(
            f"family {family!r} is not sweepable; choose from "
            f"{', '.join(sorted(sweepable_families()))}"
        )
    if record.sweep_param in fixed:
        raise ValidationError(f"swept parameter {record.sweep_param!r} must not also be fixed")
    if not (0.0 <= lo < hi <= 1.0):
        raise ValidationError(
            f"sweep range [{lo}, {hi}] must satisfy 0 <= lo < hi <= 1"
        )
    if count < 2:
        raise ValidationError(f"sweep needs at least 2 grid points, got {count}")
    if count > MAX_GRID_POINTS:
        raise ValidationError(f"sweep grid of {count} points exceeds the limit of {MAX_GRID_POINTS}")
    linalg.check_tolerance(tol)
    kmax = resolve_kmax(record.factors, kmax)
    criteria = resolve_criteria(criteria, kmax)
    grid = np.linspace(lo, hi, count)
    columns, evaluate, floors = _sweep_evaluator(record, fixed, criteria, kmax, tol, grid)
    rows = [evaluate(float(x)) for x in grid]

    # Every (column, grid cell) whose sign test differs at its two ends, column by column,
    # with the test at the cell's lower end.
    bounded, offsets = list(floors), np.array(list(floors.values()))
    negative = np.array(rows)[:, [columns.index(c) for c in bounded]] - offsets < 0.0
    which, cells = np.nonzero((negative[1:] != negative[:-1]).T)
    names = [bounded[k] for k in which]
    roots = []
    if cells.size:
        roots = bisect_sign_change(
            lambda x, brackets: evaluate(x, [names[k] for k in brackets]) - offsets[which[brackets]],
            grid[cells],
            grid[cells + 1],
            negative[cells, which],
            xtol=1e-6,
        ).tolist()
    return SweepResult(columns=columns, rows=rows, sign_changes=list(zip(names, roots)))


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
