"""The four closed-loop workloads: inputs from a seed, one op, one output check.

Each workload turns a seed into a cycle of ops, each running one or more
items.  A run replays the cycle in order, one op at a time (one client,
closed loop), and checks every output against references from `references`,
which never calls ptmoments.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import references as ref
from ptmoments import analysis, cli
from tracing import NullTracer

SWEEP_STEPS = 101


def cli_env(root: Path) -> dict[str, str]:
    """Environment of CLI subprocesses: this process's, with the package
    imported from ./src."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


@dataclass
class Item:
    """One unit of work: a sweep, a state or a CLI invocation.  `kind` labels
    it in per-kind summaries; `qubits` is the class the per-class
    eigendecomposition ratios are split by."""

    kind: str
    qubits: int
    data: Any
    expect: Any = field(repr=False)


@dataclass(frozen=True)
class Op:
    """What one closed-loop op runs: one or more items, in order."""

    items: tuple[Item, ...]

    @property
    def kind(self) -> str:
        return "+".join(item.kind for item in self.items)


class Workload:
    name = ""

    def __init__(self, root: Path):
        self.root = root
        self.tracer = NullTracer()  # the traced run swaps in a Tracer
        self.item_times: list[tuple[str, float]] = []

    def make_ops(self, seed: int) -> list[Op]:
        """The cycle of ops a run replays, generated from the seed."""
        raise NotImplementedError

    def run(self, op: Op) -> list:
        return self._run(op, self.run_item)

    def run_traced(self, op: Op) -> list:
        """The op as the traced run executes it: in-process."""
        return self._run(op, self.run_item_in_process)

    def _run(self, op: Op, run_item) -> list:
        outputs = []
        for item in op.items:
            start = perf_counter()
            with self.tracer.unit(f"q{item.qubits}"):
                outputs.append(run_item(item))
            self.item_times.append((item.kind, perf_counter() - start))
        return outputs

    def check(self, op: Op, outputs: list) -> bool:
        return len(outputs) == len(op.items) and all(
            self.check_item(item, output) for item, output in zip(op.items, outputs)
        )

    def run_item(self, item: Item):
        raise NotImplementedError

    def run_item_in_process(self, item: Item):
        return self.run_item(item)

    def check_item(self, item: Item, output) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sweeps


def check_sweep(item: Item, result) -> bool:
    """Every named boundary column reports exactly one root, within 2e-6 of
    the reference."""
    if len(result.rows) != SWEEP_STEPS:
        return False
    for column, boundary in item.expect.items():
        roots = [x for name, x in result.sign_changes if name == column]
        if len(roots) != 1 or abs(roots[0] - boundary) > ref.ROOT_ATOL:
            return False
    return True


class SweepWorkload(Workload):
    def run_item(self, item: Item):
        family, fixed = item.data
        return analysis.run_sweep(family, fixed, 0.0, 1.0, SWEEP_STEPS)

    def check_item(self, item: Item, output) -> bool:
        return check_sweep(item, output)


class SweepWnoise(SweepWorkload):
    name = "sweep-wnoise"

    def make_ops(self, seed: int) -> list[Op]:
        boundary = ref.w_noise_npt_boundary()
        expect = {"pt_min_eig_A": boundary, "min_principal_minor": boundary}
        return [Op((Item("w-noise", 3, ("w-noise", {}), expect),))]


class SweepXform(SweepWorkload):
    name = "sweep-xform"

    KNOLL_PAIRS = 16

    def make_ops(self, seed: int) -> list[Op]:
        """Each op runs the ghz-noise sweep and then a knoll sweep.  The two
        take different times, so timing them as separate ops would put the
        median in the gap between two latency clusters."""
        rng = np.random.default_rng([seed, 2])
        ghz = Item(
            "ghz-noise",
            3,
            ("ghz-noise", {}),
            {"pt_min_eig_A": ref.GHZ_NPT_BOUNDARY, "minor_45": ref.GHZ_NPT_BOUNDARY},
        )
        ops = []
        for _ in range(self.KNOLL_PAIRS):
            # Draw the boundary and eta, then solve for omega, so the boundary
            # stays well inside the grid.
            boundary = rng.uniform(0.45, 0.8)
            eta = rng.uniform(0.15, 0.3)
            omega = boundary * eta / (1.0 + boundary * eta)
            boundary = ref.knoll_npt_boundary(omega, eta)
            knoll = Item(
                "knoll",
                2,
                ("knoll", {"omega": omega, "eta": eta}),
                {"minor_23": boundary, "concurrence": boundary},
            )
            ops.append(Op((ghz, knoll)))
        return ops


# ---------------------------------------------------------------------------
# In-process analysis of a corpus of state payloads

CORPUS_KINDS = (("dense4", 4, False), ("dense8", 8, False), ("x4", 4, True), ("x8", 8, True))


def dims_for(dim: int) -> tuple[int, ...]:
    return (2, 2) if dim == 4 else (2, 2, 2)


def moments_reference(matrix: np.ndarray, dims) -> dict[str, list[float]]:
    """Per-subsystem moments p1..pk as `analyze` reports them by default
    (k = 6 bipartite, 5 tripartite)."""
    kmax = 6 if len(dims) == 2 else 5
    return {
        "ABC"[s]: ref.power_sums(eigs, kmax) for s, eigs in enumerate(ref.pt_spectra(matrix, dims))
    }


def check_analyze_report(report: dict, expect: dict) -> bool:
    moments = report.get("moments", {})
    return set(moments) == set(expect) and all(ref.close(moments[k], v) for k, v in expect.items())


class AnalyzeCorpus(Workload):
    name = "analyze-corpus"

    ROUNDS = 32

    def make_ops(self, seed: int) -> list[Op]:
        """Each op analyzes one state of each kind, so the corpus holds the
        kinds in equal shares.  Their latencies form separate clusters, and
        one state per op would put the median in the gap between them."""
        rng = np.random.default_rng([seed, 3])
        ops = []
        for _ in range(self.ROUNDS):
            items = []
            for kind, dim, x_pattern in CORPUS_KINDS:
                matrix = ref.random_x(rng, dim) if x_pattern else ref.random_dense(rng, dim)
                dims = dims_for(dim)
                payload = json.loads(json.dumps(ref.payload(matrix, dims)))
                items.append(Item(kind, len(dims), payload, moments_reference(matrix, dims)))
            ops.append(Op(tuple(items)))
        return ops

    def run_item(self, item: Item) -> str:
        state = analysis.state_from_payload(item.data)
        report = analysis.analyze_state(state, {"corpus": item.kind})
        with self.tracer.span("bench.render"):
            return json.dumps(report, indent=2)

    def check_item(self, item: Item, output: str) -> bool:
        return check_analyze_report(json.loads(output), item.expect)


# ---------------------------------------------------------------------------
# The command-line interface, one fresh process per op


@dataclass(frozen=True)
class CliExpect:
    code: int
    stdout: bytes
    moments: dict | None = None  # analyze: per-subsystem moments
    pt_eigs: dict | None = None  # oracle: per-subsystem PT spectra


def invalid_matrix(rng: np.random.Generator, flaw: str) -> np.ndarray:
    m = ref.random_dense(rng, 4)
    if flaw == "non-hermitian":
        m[0, 1] += 0.05
    elif flaw == "trace":
        m = 1.1 * m
    else:  # not positive semidefinite, unit trace, Hermitian
        m = np.diag([0.6, 0.45, 0.1, -0.15]).astype(complex)
    return m


def run_cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


class Cli(Workload):
    name = "cli"

    def __init__(self, root: Path):
        super().__init__(root)
        self.env = cli_env(root)

    def make_ops(self, seed: int) -> list[Op]:
        rng = np.random.default_rng([seed, 4])
        folder = self.root / "perfbench" / "out" / f"cli-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        specs: list[tuple[str, list[str], np.ndarray | None, tuple]] = []

        def state_file(matrix, dims) -> str:
            path = folder / f"state{len(specs):02d}.json"
            path.write_text(json.dumps(ref.payload(matrix, dims)), encoding="utf-8")
            return str(path)

        for i in range(8):
            family = ("ghz-noise", "w-noise", "knoll")[i % 3]
            if family == "knoll":
                omega, eta, gamma = rng.uniform(0.05, 0.95, size=3)
                params = {"omega": omega, "eta": eta, "gamma": gamma}
                matrix, dims = ref.damped_knoll_matrix(omega, eta, gamma), (2, 2)
            else:
                value = rng.uniform(0.0, 1.0)
                key, build = ("alpha", ref.ghz_noise_matrix) if family == "ghz-noise" else ("beta", ref.w_noise_matrix)
                params = {key: value}
                matrix, dims = build(value), (2, 2, 2)
            argv = ["analyze", "--family", family]
            for key, value in params.items():
                argv += ["--param", f"{key}={float(value)!r}"]
            specs.append(("analyze-family", argv, matrix, dims))
        for i in range(20):
            kind, dim, x_pattern = CORPUS_KINDS[i % 4]
            matrix = ref.random_x(rng, dim) if x_pattern else ref.random_dense(rng, dim)
            dims = dims_for(dim)
            command = "analyze" if i < 10 else "oracle"
            specs.append((f"{command}-file", [command, "--file", state_file(matrix, dims)], matrix, dims))
        for i, flaw in enumerate(("non-hermitian", "trace", "not-psd", "non-hermitian")):
            command = "analyze" if i % 2 == 0 else "oracle"
            path = state_file(invalid_matrix(rng, flaw), (2, 2))
            specs.append((f"invalid-{command}", [command, "--file", path], None, (2, 2)))
        # Interleave so every stretch of a run sees the same mix.
        order = rng.permutation(len(specs))
        ops = []
        for index in order:
            kind, argv, matrix, dims = specs[index]
            _, stdout = run_cli_in_process(argv)
            moments = pt_eigs = None
            if matrix is not None and argv[0] == "analyze":
                moments = moments_reference(matrix, dims)
            elif matrix is not None:
                pt_eigs = {"ABC"[s]: e for s, e in enumerate(ref.pt_spectra(matrix, dims))}
            expect = CliExpect(2 if matrix is None else 0, stdout, moments, pt_eigs)
            ops.append(Op((Item(kind, len(dims), argv, expect),)))
        return ops

    def run_item(self, item: Item) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "ptmoments", *item.data],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    def run_item_in_process(self, item: Item) -> tuple[int, bytes]:
        return run_cli_in_process(item.data)

    def check_item(self, item: Item, output) -> bool:
        code, stdout = output
        expect: CliExpect = item.expect
        if code != expect.code or stdout != expect.stdout:
            return False
        if expect.code != 0:
            return stdout == b""
        report = json.loads(stdout)
        if expect.moments is not None:
            return check_analyze_report(report, expect.moments)
        eigs = report.get("pt_eigenvalues", {})
        return set(eigs) == set(expect.pt_eigs) and all(
            ref.close(eigs[k], v) for k, v in expect.pt_eigs.items()
        )


WORKLOADS = {w.name: w for w in (SweepWnoise, SweepXform, AnalyzeCorpus, Cli)}
