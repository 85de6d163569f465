"""ptmoments benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run is timed with the package unmodified and the end-to-end
metrics are printed.  With --trace 1 the same cycle of inputs is replayed
untraced and then traced, and the per-layer metrics are printed.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the line before it carries provenance and per-kind detail.
Spans and full results are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The set-up (import, input generation, one warm-up op) is repeated this many
# times; its median is reported.
SETUP_REPEATS = 3
# Subprocess probes of interpreter start and package import, per traced run.
PROBE_REPEATS = 5
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
TAIL_CAP = 95
# One BLAS thread for this process and the CLI processes it starts, so every
# op runs on a single thread.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "minors.det_calls": "calls/op",
    "minors.enum_calls": "calls/op",
    "minors.self_ms": "ms/op",
    "analysis.grid_evals": "calls/op",
    "analysis.bisect_evals": "calls/op",
    "analysis.bisect_column_use": "ratio",
    "analysis.self_ms": "ms/op",
    "analysis.render_ms": "ms/op",
    "linalg.eig_calls": "calls/op",
    "linalg.eig_distinct_ratio": "ratio",
    "linalg.eig_distinct_ratio.q2": "ratio",
    "linalg.eig_distinct_ratio.q3": "ratio",
    "linalg.eig_self_ms": "ms/op",
    "ptranspose.pt_calls": "calls/op",
    "ptranspose.self_ms": "ms/op",
    "moments.pt_moments_calls": "calls/op",
    "moments.criterion_calls": "calls/op",
    "moments.self_ms": "ms/op",
    "channels.apply_calls": "calls/op",
    "channels.apply_self_ms": "ms/op",
    "channels.concurrence_self_ms": "ms/op",
    "states.validate_calls": "calls/op",
    "states.validate_self_ms": "ms/op",
    "states.ingest_ms": "ms/op",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms/op",
    "trace.overhead_ms": "ms/op",
}


def import_package() -> float:
    """Import ptmoments from ./src and return the import time in seconds.

    Fails if ./src/ptmoments is missing, rather than falling back to any
    installed copy."""
    package_dir = SRC / "ptmoments"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    module = importlib.import_module("ptmoments")
    importlib.import_module("ptmoments.cli")
    elapsed = time.perf_counter() - start
    if Path(module.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: imported ptmoments from {module.__file__}, not {package_dir}")
    return elapsed


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, kind: str, seconds: float, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.ends.append(time.perf_counter())
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {error or 'wrong output'}")


def run_op(run, check, op, tally: Tally) -> None:
    """Time one op, then check its output outside the timed region.  An op
    that raises or returns a wrong output counts as failed."""
    start = time.perf_counter()
    try:
        output = run(op)
    except Exception as exc:  # a failing op is a measured outcome, not a crash
        tally.record(op.kind, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter() - start
    try:
        ok = bool(check(op, output))
    except Exception as exc:
        tally.record(op.kind, elapsed, False, f"check raised {type(exc).__name__}: {exc}")
        return
    tally.record(op.kind, elapsed, ok)


def closed_loop(run, check, ops, seconds: float, tally: Tally) -> None:
    """One client: replay the cycle of ops, each after the previous one ends,
    until `seconds` have passed (at least one op)."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        run_op(run, check, ops[i % len(ops)], tally)
        i += 1


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND samples beyond
    it, capped at TAIL_CAP and floored at the median."""
    return max(50, min(TAIL_CAP, math.floor(100.0 * (n - TAIL_BEYOND) / n)))


def setup(workload, seed: int, import_s: float) -> tuple[float, list]:
    """Generate the inputs and run one warm-up op, SETUP_REPEATS times; the
    set-up time is the import time plus the median repeat."""
    repeats = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workload.make_ops(seed)
        workload.run(ops[0])
        repeats.append(time.perf_counter() - start)
    workload.item_times.clear()
    return import_s + statistics.median(repeats), ops


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_run(workload, ops, seconds: float, setup_s: float, subprocess_ops: bool):
    tally = Tally()
    closed_loop(workload.run, workload.check, ops, seconds, tally)
    lat_ms = sorted(1000.0 * x for x in tally.latencies)
    n = len(lat_ms)
    pct = tail_percentile(n)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(tally.latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": nearest_rank(lat_ms, pct),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb(children=subprocess_ops),
    }
    detail = {
        "op_tail": {"percentile": pct, "samples": n, "beyond": n - math.ceil(pct / 100.0 * n)},
        "failed_ratio": tally.failed / tally.attempted,
        "item_quartiles_ms_by_kind": quartiles_by_kind(workload.item_times),
    }
    return tally, metrics, detail


def quartiles_by_kind(pairs) -> dict[str, list[float]]:
    """First quartile, median and third quartile of each item kind's time."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in pairs:
        by_kind.setdefault(kind, []).append(1000.0 * seconds)
    return {k: statistics.quantiles(v, n=4) for k, v in sorted(by_kind.items()) if len(v) > 1}


def probe_ms(code: str, env: dict) -> float:
    """Median wall time of a fresh `python -c code`, in ms."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


@dataclass
class TraceRun:
    tally: Tally
    tracer: object
    cycles: int
    untraced_s: float
    traced_s: float


def trace_cycles(workload, ops, seconds: float) -> TraceRun:
    """Replay whole cycles untraced for about half the budget (at least one),
    then the same number of cycles traced.  Whole cycles of identical inputs
    make every counter repeat exactly for a given seed."""
    import tracing

    tally = Tally()
    cycles = 0
    start = time.perf_counter()
    elapsed = 0.0
    while cycles == 0 or elapsed * (cycles + 1) / cycles <= seconds / 2:
        for op in ops:
            run_op(workload.run_traced, workload.check, op, tally)
        cycles += 1
        elapsed = time.perf_counter() - start
    untraced_s = elapsed

    tracer = tracing.Tracer()
    workload.tracer = tracer

    def traced_op(op):
        with tracer.span(tracing.OP_SPAN):
            return workload.run_traced(op)

    start = time.perf_counter()
    try:
        with tracing.instrumented(tracer):
            for _ in range(cycles):
                for op in ops:
                    run_op(traced_op, workload.check, op, tally)
    finally:
        workload.tracer = tracing.NullTracer()
    return TraceRun(tally, tracer, cycles, untraced_s, time.perf_counter() - start)


def traced_run(workload, ops, seconds: float, seed: int, env: dict):
    traced = trace_cycles(workload, ops, seconds)
    op_count = traced.cycles * len(ops)
    metrics = layer_metrics(traced.tracer, op_count)
    metrics["trace.overhead_ms"] = 1000.0 * (traced.traced_s - traced.untraced_s) / op_count
    interp = probe_ms("pass", env)
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = probe_ms("import ptmoments.cli", env) - interp

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv.gz"
    traced.tracer.write(spans_path)
    detail = {
        "cycles": traced.cycles,
        "ops": op_count,
        "spans": len(traced.tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_s": traced.untraced_s,
        "traced_s": traced.traced_s,
        "not_applicable": not_applicable(traced.tracer),
    }
    return traced.tally, metrics, detail


def layer_metrics(tracer, ops: int) -> dict[str, float]:
    calls = tracer.calls()
    self_ns = tracer.self_ns()
    inclusive_ns = tracer.inclusive_ns()
    counts = tracer.counts

    def per_op(value) -> float:
        return value / ops

    def ms(ns) -> float:
        return ns / 1e6 / ops

    def layer_self(layer: str) -> float:
        return ms(sum(v for k, v in self_ns.items() if k.startswith(layer + ".")))

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    eig_calls = sum(v for k, v in counts.items() if k.startswith("eig_calls."))
    eig_distinct = sum(v for k, v in counts.items() if k.startswith("eig_distinct."))
    return {
        "minors.det_calls": per_op(counts["minors.det"]),
        "minors.enum_calls": per_op(calls.get("minors.all_principal_minors", 0)),
        "minors.self_ms": layer_self("minors"),
        "analysis.grid_evals": per_op(counts["analysis.grid_eval"]),
        "analysis.bisect_evals": per_op(counts["analysis.bisect_eval"]),
        "analysis.bisect_column_use": ratio(
            counts["analysis.bisect_eval"], counts["analysis.bisect_columns_computed"]
        ),
        "analysis.self_ms": layer_self("analysis"),
        "analysis.render_ms": ms(inclusive_ns.get("bench.render", 0)),
        "linalg.eig_calls": per_op(eig_calls),
        "linalg.eig_distinct_ratio": ratio(eig_distinct, eig_calls),
        "linalg.eig_distinct_ratio.q2": ratio(counts["eig_distinct.q2"], counts["eig_calls.q2"]),
        "linalg.eig_distinct_ratio.q3": ratio(counts["eig_distinct.q3"], counts["eig_calls.q3"]),
        "linalg.eig_self_ms": ms(self_ns.get("linalg.eigvalsh", 0)),
        "ptranspose.pt_calls": per_op(calls.get("ptranspose.partial_transpose", 0)),
        "ptranspose.self_ms": layer_self("ptranspose"),
        "moments.pt_moments_calls": per_op(calls.get("moments.pt_moments", 0)),
        "moments.criterion_calls": per_op(
            sum(calls.get(f"moments.{t}", 0) for t in ("p3_ppt_test", "p3_oppt_test", "pn_ppt_test"))
        ),
        "moments.self_ms": layer_self("moments"),
        "channels.apply_calls": per_op(calls.get("channels.apply_channel", 0)),
        "channels.apply_self_ms": ms(self_ns.get("channels.apply_channel", 0)),
        "channels.concurrence_self_ms": ms(self_ns.get("channels.concurrence", 0)),
        "states.validate_calls": per_op(calls.get("states.validate", 0)),
        "states.validate_self_ms": ms(self_ns.get("states.validate", 0)),
        "states.ingest_ms": ms(inclusive_ns.get("analysis.state_from_payload", 0)),
        "cli.main_ms": ms(inclusive_ns.get("cli.main", 0)),
    }


def not_applicable(tracer) -> list[str]:
    """Per-layer metrics whose span or counter never occurred in this
    workload; they are printed as n/a in the table and 0 in the JSON."""
    names = set(tracer.names)

    def seen(prefix: str) -> bool:
        return any(name.startswith(prefix) for name in names)

    present = {
        "minors.self_ms": seen("minors."),
        "analysis.bisect_column_use": tracer.counts["analysis.bisect_eval"] > 0,
        "analysis.render_ms": seen("bench.render"),
        "linalg.eig_distinct_ratio.q2": tracer.counts["eig_calls.q2"] > 0,
        "linalg.eig_distinct_ratio.q3": tracer.counts["eig_calls.q3"] > 0,
        "channels.apply_self_ms": seen("channels.apply_channel"),
        "channels.concurrence_self_ms": seen("channels.concurrence"),
        "states.ingest_ms": seen("analysis.state_from_payload"),
        "cli.main_ms": seen("cli.main"),
    }
    return [metric for metric, ok in present.items() if not ok]


def git_sha() -> str:
    """HEAD of ./.git when the checkout is a git repository, read from its
    files so nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, overhead_ms) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "tracing_overhead_ms_per_op": overhead_ms,
    }


def format_table(metrics: dict, units: dict, na: list[str]) -> str:
    lines = []
    for name, unit in units.items():
        value = "n/a" if name in na else f"{metrics[name]:.6g}"
        lines.append(f"  {name:32s} {value:>14s} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set before numpy is first imported.
    os.environ.update(SINGLE_THREAD_ENV)
    import_s = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](ROOT)
    setup_s, ops = setup(workload, args.seed, import_s)

    if args.trace:
        tally, metrics, detail = traced_run(workload, ops, args.seconds, args.seed, workloads.cli_env(ROOT))
        units = PER_LAYER_UNITS
        overhead = metrics["trace.overhead_ms"]
    else:
        tally, metrics, detail = timed_run(
            workload, ops, args.seconds, setup_s, subprocess_ops=isinstance(workload, workloads.Cli)
        )
        units = END_TO_END_UNITS
        overhead = None
    detail["errors"] = tally.errors
    na = detail.get("not_applicable", [])

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    context = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, overhead),
        "detail": detail,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    samples = [[end - tally.ends[0], 1000.0 * lat] for end, lat in zip(tally.ends, tally.latencies)]
    out_file.write_text(
        json.dumps({**context, "result": result, "samples_s_ms": samples}) + "\n", encoding="utf-8"
    )

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {tally.attempted} ops, {tally.failed} failed")
    print(format_table(metrics, units, na))
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
