"""Spans and work counters recorded from outside the package.

`instrumented(tracer)` replaces the public functions of each ptmoments module
at every binding that points at them (``analysis.all_principal_minors``,
``moments.partial_transpose``, ...), plus ``np.linalg.eigvalsh`` and
``np.linalg.det``, with wrappers that open a span or bump a counter.  On exit
every binding is restored, so timed runs execute the unmodified package.

Spans live in memory as columnar arrays (name, parent, start, end) and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Functions traced per layer.  A layer is a ptmoments module; its span names
# are "<module>.<function>".
TRACED_FUNCTIONS = {
    "states": ("ghz_white_noise", "w_white_noise", "knoll_state", "x_state", "bell_phi_plus"),
    "ptranspose": ("partial_transpose", "negativity"),
    "linalg": ("hermitian_eigenvalues", "is_psd", "assert_hermitian"),
    "moments": ("pt_moments", "tripartite_moments", "p3_ppt_test", "p3_oppt_test", "pn_ppt_test"),
    "minors": ("all_principal_minors", "principal_minor", "three_qubit_x_minors", "is_x_pattern"),
    "channels": ("apply_channel", "amplitude_damping", "concurrence"),
    "analysis": (
        "analyze_state",
        "oracle_state",
        "run_sweep",
        "state_from_payload",
        "load_state_json",
        "build_family_state",
        "bisect_sign_change",
        "render_sweep_csv",
    ),
    "cli": ("main",),
}

EIG_SPAN = "linalg.eigvalsh"
VALIDATE_SPAN = "states.validate"
EVALUATE_SPAN = "analysis.evaluate"
BISECT_SPAN = "analysis.bisect_sign_change"
OP_SPAN = "bench.op"


class NullTracer:
    """Stands in for a Tracer in timed runs: spans cost one no-op call."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def unit(self, unit_class: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("I")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._unit_class = None
        self._unit_eig_inputs: set = set()

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    # -- units of work ------------------------------------------------------

    @contextlib.contextmanager
    def unit(self, unit_class: str):
        """One item of an op (a sweep, a state, a CLI call).  Distinct
        eigendecomposition inputs are counted within it, per class."""
        self._unit_class = unit_class
        self._unit_eig_inputs = set()
        try:
            yield
        finally:
            self.counts[f"eig_distinct.{unit_class}"] += len(self._unit_eig_inputs)
            self._unit_class = None

    def record_eig_input(self, matrix) -> None:
        a = np.asarray(matrix)
        self._unit_eig_inputs.add((a.shape, a.dtype.str, a.tobytes()))
        self.counts[f"eig_calls.{self._unit_class}"] += 1

    # -- aggregation --------------------------------------------------------

    def _columns(self):
        names = np.frombuffer(self.name_id, dtype=np.uint32).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return names, parent, duration

    def calls(self) -> dict[str, int]:
        names, _, _ = self._columns()
        counts = np.bincount(names, minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def inclusive_ns(self) -> dict[str, int]:
        names, _, duration = self._columns()
        totals = np.bincount(names, weights=duration, minlength=len(self.names))
        return {name: int(totals[i]) for i, name in enumerate(self.names)}

    def self_ns(self) -> dict[str, int]:
        """Per span name, the summed span durations minus the time covered by
        each span's children.  Children of one span run one after another on
        this single thread, so the time they cover is their summed duration."""
        names, parent, duration = self._columns()
        covered = np.zeros(len(duration), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        totals = np.bincount(names, weights=duration - covered, minlength=len(self.names))
        return {name: int(totals[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as a TSV row: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="\n") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for idx in range(len(self.start)):
                out.write(
                    f"{idx}\t{self.parent[idx]}\t{names[self.name_id[idx]]}\t"
                    f"{self.start[idx]}\t{self.end[idx]}\n"
                )


# ---------------------------------------------------------------------------
# Installing the wrappers


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _eigvalsh_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        tracer.record_eig_input(a)
        idx = tracer.open(EIG_SPAN)
        try:
            return fn(a, *args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _det_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts["minors.det"] += 1
        return fn(*args, **kwargs)

    return counted


def _sweep_evaluator_wrapper(tracer: Tracer, fn):
    """Wrap the row evaluator a sweep builds, telling grid evaluations from
    the ones bisection makes (whose parent span is the bisection)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        built = fn(*args, **kwargs)
        if not (isinstance(built, tuple) and len(built) == 3 and callable(built[1])):
            return built
        columns, evaluate, transforms = built

        def traced_evaluate(*eargs, **ekwargs):
            in_bisection = tracer.current() == BISECT_SPAN
            idx = tracer.open(EVALUATE_SPAN)
            try:
                row = evaluate(*eargs, **ekwargs)
            finally:
                tracer.close(idx)
            if in_bisection:
                tracer.counts["analysis.bisect_eval"] += 1
                tracer.counts["analysis.bisect_columns_computed"] += len(row)
            else:
                tracer.counts["analysis.grid_eval"] += 1
            return row

        return columns, traced_evaluate, transforms

    return traced


def _package_modules() -> dict[str, object]:
    return {
        name.split(".", 1)[1]: module
        for name, module in list(sys.modules.items())
        if name.startswith("ptmoments.") and module is not None
    }


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Trace the package for the duration of the block."""
    modules = _package_modules()
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # A function, class or internal that a later version of the package no
    # longer has is skipped, and its counters read 0, so the benchmark keeps
    # running across refactors.
    try:
        for layer, functions in TRACED_FUNCTIONS.items():
            home = modules.get(layer)
            for fname in functions:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = _span_wrapper(tracer, f"{layer}.{fname}", original)
                # Every module that imported the function by name gets the
                # wrapper, so calls are traced whichever binding they use.
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch(module, attr, wrapper)

        states = modules.get("states")
        if states is not None and hasattr(states, "DensityMatrix"):
            cls = states.DensityMatrix
            patch(cls, "__post_init__", _span_wrapper(tracer, VALIDATE_SPAN, cls.__post_init__))
        analysis = modules.get("analysis")
        if analysis is not None and hasattr(analysis, "_sweep_evaluator"):
            patch(analysis, "_sweep_evaluator", _sweep_evaluator_wrapper(tracer, analysis._sweep_evaluator))
        patch(np.linalg, "eigvalsh", _eigvalsh_wrapper(tracer, np.linalg.eigvalsh))
        patch(np.linalg, "det", _det_wrapper(tracer, np.linalg.det))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
