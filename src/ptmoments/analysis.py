"""Report assembly, state file I/O, named families, and parameter sweeps.

This is the machinery behind the command-line interface; everything here
returns plain JSON-serializable dictionaries or rows of floats.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

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
    bell_phi_plus,
    density_matrix_spectra,
    ghz_noise_matrices,
    knoll_state,
    w_noise_matrices,
    x_state,
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


@functools.lru_cache(maxsize=1)
def _knoll_base(omega: float, eta: float) -> DensityMatrix:
    """knoll_state(omega, eta), kept for the next call: a knoll sweep damps one fixed
    base state at every point, and a DensityMatrix is immutable, so its points share it."""
    return knoll_state(omega, eta)


def _knoll_matrices(params: dict) -> np.ndarray:
    # -0.0 + 0.0 is 0.0: the cache takes both zeros for one key, so both must build one state.
    base = _knoll_base(params["omega"] + 0.0, params["eta"] + 0.0)
    gamma = params.get("gamma")
    # The undamped base keeps its own matrix: damping at gamma = 0 would turn its -0.0
    # imaginary parts into 0.0, which reports print.
    return base.matrix if gamma is None else amplitude_damped_matrices(base, gamma, 1)


def _x_state_matrix(params: dict[str, float]) -> np.ndarray:
    return x_state(
        XStateParams(
            rho11=params["r11"],
            rho22=params["r22"],
            rho33=params["r33"],
            rho44=params["r44"],
            rho14=complex(params.get("re14", 0.0), params.get("im14", 0.0)),
            rho23=complex(params.get("re23", 0.0), params.get("im23", 0.0)),
        )
    ).matrix


@dataclass(frozen=True)
class ColumnGroup:
    """Sweep columns one function of a `_Points` record computes together, as one row of
    values per state, and the floor their sweep boundaries cross, or None where no boundary
    is located."""

    names: tuple[str, ...]
    compute: Callable[[_Points], Sequence[Sequence[float]]]
    floor: float | None = 0.0


# Column functions look the minor functions up among this module's globals at
# call time, so a substitute bound to those names sees every call.
X_MINORS = {  # by matrix dimension: the X-form pair minors, named minor_<i><j>
    dim: ColumnGroup(tuple(f"minor_{i}{j}" for i, j in pairs),
                     lambda points: x_pair_minor_stack(points.pt(0)).tolist())
    for dim, pairs in X_PAIR_LABELS.items()
}
MIN_PT_MINOR = ColumnGroup(
    ("min_principal_minor",), lambda points: min_principal_minors(points.pt(0))[:, None].tolist()
)
CONCURRENCE_COLUMN = ColumnGroup(
    ("concurrence",), lambda points: matrix_concurrence(points.matrices)[:, None].tolist(),
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
    matrix per value when the swept one is an array of n values."""

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
        Family("bell", lambda params: bell_phi_plus().matrix),
        Family("ghz-noise", lambda params: ghz_noise_matrices(params["alpha"]), ("alpha",), factors=3,
               sweep_param="alpha", minor_columns=(X_MINORS[8],),
               literature={_GME: {"alpha_max": 0.571, "status": _QUOTED}}),
        Family("w-noise", lambda params: w_noise_matrices(params["beta"]), ("beta",), factors=3,
               sweep_param="beta", minor_columns=(MIN_PT_MINOR,),
               literature={_GME: {"beta_max": 0.521, "status": _QUOTED}}),
        Family("knoll", _knoll_matrices, ("omega", "eta"), ("gamma",),
               sweep_param="gamma", minor_columns=(X_MINORS[4], CONCURRENCE_COLUMN)),
        Family(
            "x-state", _x_state_matrix, ("r11", "r22", "r33", "r44"), ("re14", "im14", "re23", "im23")
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
    """Construct a named-family state, validating parameter names."""
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
# Reports


class _Points:
    """States of one layout as a stack (n, d, d) and, each computed for the whole stack on first
    use and kept: the partial transpose over A, pt(0) (n, d, d); every cut's ascending
    spectrum(s) (n, d); every cut's PT moments(s) (n, kmax); and the criteria_moments() (n, kmax)
    with their provenance.  Each moment array is checked once per stack, raising what its first
    failing row raises as a MomentVector.  pt(s) over any other cut is built anew each time, so
    it goes once its spectrum is taken.  The caches close over locals, not over the record, so
    no cycle holds it."""

    def __init__(self, matrices: np.ndarray, dims: tuple[int, ...], kmax: int | None = None):
        self.matrices = matrices
        dim = matrices.shape[-1]
        pt_a = functools.cache(lambda: transpose_subsystem(matrices, dims, 0))
        self.pt = pt = lambda s: pt_a() if s == 0 else transpose_subsystem(matrices, dims, s)
        self.spectrum = spectrum = functools.cache(lambda s: linalg.hermitian_eigenvalues(pt(s)))
        self.moments = moments = functools.cache(
            lambda s: check_moments(power_sums(spectrum(s), kmax), dim)
        )

        @functools.cache
        def criteria_moments() -> tuple[np.ndarray, str]:
            if len(dims) == 3:
                mean = geometric_mean_moments(np.array([moments(s) for s in range(3)]))
                return check_moments(mean, dim), "tripartite-geometric-mean"
            return moments(0), SUBSYSTEM_NAMES[0]

        self.criteria_moments = criteria_moments

    def take(self, rows: list[int]) -> _Points:
        """The record of the states at `rows` of the stack.  It reads this record's caches, so
        what they hold is computed for the whole stack; its own matrices and pt(0), and what a
        column computes from them alone, such as minors, are those rows only."""
        part = object.__new__(_Points)
        part.matrices = self.matrices[rows]
        part.pt = lambda s: self.pt(s)[rows]
        part.spectrum = lambda s: self.spectrum(s)[rows]
        part.moments = lambda s: self.moments(s)[rows]
        part.criteria_moments = lambda: (self.criteria_moments()[0][rows], self.criteria_moments()[1])
        return part

    @classmethod
    def of(cls, state: DensityMatrix, kmax: int | None = None) -> _Points:
        """The record of one state, a stack of one."""
        return cls(state.matrix[None], state.dims, kmax)


def _key_minors_block(state: DensityMatrix, point: _Points) -> dict:
    if state.dims in ((2, 2), (2, 2, 2)) and is_x_pattern(state.matrix):
        group = X_MINORS[state.dim]
        return dict(zip(group.names, group.compute(point)[0]))
    if state.dim <= minors.MAX_ENUMERATION_DIM:
        report = all_principal_minors(point.pt(0)[0])
        return {
            "min_principal_minor": report.min_value,
            "min_index_set": list(report.min_index_set),
        }
    return {"note": f"principal-minor enumeration unavailable for dim > {minors.MAX_ENUMERATION_DIM}"}


def _named_spectra(state: DensityMatrix, point: _Points, tol: float) -> dict[str, np.ndarray]:
    """The spectrum of each single-factor partial transpose keyed A, B, ..., once the
    tolerance and the number of factors a report can name are checked."""
    linalg.check_tolerance(tol)
    count = state.num_factors
    if count > len(SUBSYSTEM_NAMES):
        raise ValidationError(f"reports name at most {len(SUBSYSTEM_NAMES)} tensor factors, got {count}")
    return {name: point.spectrum(s)[0] for s, name in zip(range(count), SUBSYSTEM_NAMES)}


def _oracle_block(spectra: dict[str, np.ndarray], tol: float) -> dict:
    """Smallest eigenvalue and PPT verdict of each named PT spectrum."""
    ppt = {name: linalg.spectrum_is_psd(eigs, tol) for name, eigs in spectra.items()}
    return {"pt_min_eigenvalue": {name: float(eigs[0]) for name, eigs in spectra.items()}, "ppt": ppt}


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
    spectra = _named_spectra(state, point, tol)
    moments = {name: point.moments(s)[0].tolist() for s, name in enumerate(spectra)}
    crit, source = point.criteria_moments()
    verdicts = [c.verdict(crit[0], tol) for c in resolve_criteria(criteria, kmax).values()]
    negativities = negativity_from_spectrum(np.array(list(spectra.values())), tol)
    report = {
        "input": descriptor,
        "dims": list(state.dims),
        "kmax": kmax,
        "tolerance": tol,
        "state": state_payload(state),
        "moments": moments,
        "criteria_moments": {"source": source, "values": crit[0].tolist()},
        "criteria": [asdict(v) for v in verdicts],
        "negativity": dict(zip(spectra, negativities.tolist())),
        "key_minors": _key_minors_block(state, point),
        "oracle": _oracle_block(spectra, tol),
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
    spectra = _named_spectra(state, _Points.of(state), tol)
    report = {
        "input": descriptor,
        "dims": list(state.dims),
        "state_eigenvalues": [float(v) for v in state.spectrum],
        "pt_eigenvalues": {name: [float(v) for v in eigs] for name, eigs in spectra.items()},
    }
    report.update(_oracle_block(spectra, tol))
    return report


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepResult:
    columns: list[str]
    rows: list[list[float]]
    sign_changes: list[tuple[str, float]]


def bisect_sign_change(f, lo, hi, xtol: float = 1e-6):
    """Locate where f changes sign in [lo, hi] by bisection, with the sweep grid's
    sign test f(x) < 0.0: an exact zero counts as non-negative, as on the grid.

    `lo` and `hi` may also be arrays of brackets, halved in lockstep: then f(x, brackets)
    maps the midpoints x of the brackets still wider than xtol, whose indices are `brackets`,
    to their values at once, and the array of roots is returned.  Each bracket stops once its
    own width is at most xtol, after at most BISECT_MAX_ITER halvings."""
    single = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    values = (lambda x, brackets: np.array([f(float(x[0]))])) if single else f
    every = np.arange(len(lo))
    # f gets copies of the ends, which the halvings below overwrite in place
    lo_negative = values(lo.copy(), every) < 0.0
    flat = np.flatnonzero(lo_negative == (values(hi.copy(), every) < 0.0))
    if flat.size:
        k = flat[0]
        raise ValidationError(f"no sign change of {f} in [{float(lo[k])}, {float(hi[k])}]")
    for _ in range(BISECT_MAX_ITER):
        live = np.flatnonzero(hi - lo > xtol)
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        keeps_sign = (values(mid, live) < 0.0) == lo_negative[live]
        lo[live] = np.where(keeps_sign, mid, lo[live])
        hi[live] = np.where(keeps_sign, hi[live], mid)
    roots = 0.5 * (lo + hi)
    return float(roots[0]) if single else roots


def _sweep_evaluator(
    family: Family, fixed: dict[str, float], criteria: dict, kmax: int, tol: float, grid
):
    """Build (columns, evaluate, boundary floors) for one family sweep over `grid` from one
    table of column groups, which declares each column once; `criteria` maps each token to its
    `moments.Criterion`.  Every group computes its columns for a whole `_Points` stack at once.
    The grid's rows are computed here from one record of all its states; the other values of
    each `evaluate` call get one record of their own, a stack from the same builder, and each
    group is computed on the part of it that asks for that group's columns."""
    param = family.sweep_param
    groups = [
        ColumnGroup(tuple(f"p{k}" for k in range(1, kmax + 1)),
                    lambda points: points.criteria_moments()[0].tolist(), floor=None),
        *(ColumnGroup((f"{t}_margin",),
                      lambda points, test=criterion.test:
                          test(points.criteria_moments()[0], tol)[0][:, None].tolist())
          for t, criterion in criteria.items()),
        ColumnGroup(("negativity_A",),
                    lambda points: negativity_from_spectrum(points.spectrum(0), tol)[:, None].tolist(),
                    floor=None),
        ColumnGroup(("pt_min_eig_A",), lambda points: points.spectrum(0)[:, :1].tolist()),
        *family.minor_columns,
    ]
    group_of = {name: group for group in groups for name in group.names}
    columns = [param, *group_of]
    # Columns whose zero crossings get refined by bisection, each mapped to the floor it crosses.
    floors = {name: group.floor for name, group in group_of.items() if group.floor is not None}

    def fill(rows: list[dict[str, float]], points: _Points, wanted) -> None:
        for group in wanted:
            for row, computed in zip(rows, group.compute(points)):
                row.update(zip(group.names, computed))

    def record(values: list[float]) -> _Points:
        """The record of the states at `values` of the swept parameter, one validated stack."""
        matrices = build_family_stack(family.name, {**fixed, param: np.array(values)})
        return _Points(matrices, (2,) * family.factors, kmax)

    grid_values = [float(x) for x in grid]
    grid_rows = [{param: x} for x in grid_values]
    if grid_rows:
        fill(grid_rows, record(grid_values), groups)
    grid_row = dict(zip(grid_values, grid_rows))

    def column_values(values, names) -> np.ndarray:
        """Column names[i] at values[i] for each i.  Grid values read their grid rows.  The
        distinct other values are built as one record, and each group is computed only at
        the values that ask for one of its columns."""
        values = [float(x) for x in values]
        row_at = {x: grid_row.get(x) for x in values}
        new = [x for x, row in row_at.items() if row is None]
        if new:
            points = record(new)
            position = {x: i for i, x in enumerate(new)}
            asking: dict[ColumnGroup, set[int]] = {}  # each group -> the positions asking for it
            for x, c in zip(values, names):
                if x in position and c in group_of:
                    asking.setdefault(group_of[c], set()).add(position[x])
            row_at.update((x, {param: x}) for x in new)
            for group in groups:
                if group in asking:
                    taken = sorted(asking[group])
                    fill([row_at[new[i]] for i in taken], points.take(taken), [group])
        return np.array([row_at[x][c] for x, c in zip(values, names)])

    def evaluate(values, only=None):
        """The row at one parameter value, every column or, with `only`, that column alone; or,
        for an array of values and a sequence `only` of one column name per value, the array of
        those columns' values (`column_values`)."""
        if np.ndim(values):
            return column_values(values, only)
        names = columns if only is None else [only]
        row = grid_row.get(values)
        if row is None:
            row = dict(zip(names, column_values([values] * len(names), names).tolist()))
        return {c: row[c] for c in names}

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

    The grid's states are built, validated, partially transposed and
    diagonalised as one stack, and their minors enumerated in blocks of
    `minors.MINOR_BLOCK` states; each column is computed for the whole stack
    at once.  Sign changes of every margin, minor, and oracle column are
    refined by bisection to 1e-6 in the parameter, all brackets in lockstep:
    the endpoints read the grid rows, and each halving builds the distinct
    midpoints of the brackets still open as one stack from the family's
    builder, which builds the grid too, and computes each column only at the
    midpoints of the brackets that refine it.  A column counts as negative
    where value - floor < 0.0, on the grid and in the bisection alike.
    """
    record = FAMILY_BY_NAME.get(family)
    if record is None or record.sweep_param is None:
        raise ValidationError(
            f"family {family!r} is not sweepable; choose from "
            f"{', '.join(sorted(sweepable_families()))}"
        )
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
    table = [evaluate(float(x)) for x in grid]
    rows = [[row[c] for c in columns] for row in table]

    # Every (column, grid cell) whose sign test differs at its two ends, column by column.
    names, cells = [], []
    for column, floor in floors.items():
        negative = np.array([row[column] - floor < 0.0 for row in table])
        crossings = np.flatnonzero(negative[1:] != negative[:-1]).tolist()
        names += [column] * len(crossings)
        cells += crossings
    roots = []
    if cells:
        offsets = np.array([floors[c] for c in names])
        roots = bisect_sign_change(
            lambda x, brackets: evaluate(x, only=[names[k] for k in brackets]) - offsets[brackets],
            grid[cells],
            grid[np.add(cells, 1)],
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
