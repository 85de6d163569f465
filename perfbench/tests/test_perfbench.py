"""Tests of the benchmark itself: its output checks catch wrong outputs, its
traced counters repeat exactly, and its metric names are well formed."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import references as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ptmoments import analysis  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_ops(runner, workload, ops) -> run.Tally:
    tally = run.Tally()
    for op in ops:
        run.run_op(runner, workload.check, op, tally)
    return tally


# ---------------------------------------------------------------------------
# Corrupted outputs count as failed


def test_corrupted_corpus_report_counts_as_failed():
    workload = workloads.AnalyzeCorpus(ROOT)
    ops = workload.make_ops(seed=7)[:2]

    def corrupted(op):
        outputs = workload.run(op)
        report = json.loads(outputs[0])
        report["moments"]["A"][2] += 1e-6
        outputs[0] = json.dumps(report)
        return outputs

    assert run_ops(workload.run, workload, ops).failed == 0
    tally = run_ops(corrupted, workload, ops)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_raising_op_counts_as_failed():
    workload = workloads.AnalyzeCorpus(ROOT)
    ops = workload.make_ops(seed=7)[:1]

    def raising(op):
        raise ArithmeticError("injected")

    tally = run_ops(raising, workload, ops)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "injected" in tally.errors[0]


def test_shifted_sweep_boundary_is_rejected():
    boundary = ref.w_noise_npt_boundary()
    item = workloads.Item("w-noise", 3, ("w-noise", {}), {"pt_min_eig_A": boundary})
    rows = [[0.0]] * workloads.SWEEP_STEPS

    def result(roots):
        return analysis.SweepResult(columns=["beta"], rows=rows, sign_changes=roots)

    assert workloads.check_sweep(item, result([("pt_min_eig_A", boundary + 1e-6)]))
    assert not workloads.check_sweep(item, result([("pt_min_eig_A", boundary + 1e-5)]))
    assert not workloads.check_sweep(item, result([]))
    twice = [("pt_min_eig_A", boundary), ("pt_min_eig_A", boundary)]
    assert not workloads.check_sweep(item, result(twice))


def test_sweep_outputs_pass_their_checks():
    workload = workloads.SweepXform(ROOT)
    op = workload.make_ops(seed=3)[0]
    outputs = workload.run(op)
    assert workload.check(op, outputs)
    outputs[1].sign_changes[:] = [
        (c, x + 1e-4) if c == "minor_23" else (c, x) for c, x in outputs[1].sign_changes
    ]
    assert not workload.check(op, outputs)


def test_corrupted_cli_output_counts_as_failed(tmp_path):
    workload = workloads.Cli(tmp_path)
    ops = workload.make_ops(seed=5)
    by_kind = {op.kind: op for op in ops}
    valid, invalid = by_kind["oracle-file"], by_kind["invalid-analyze"]

    code, stdout = workload.run_item_in_process(valid.items[0])
    assert workload.check(valid, [(code, stdout)])
    flipped = stdout.replace(b"-", b"+", 1)
    assert not workload.check(valid, [(code, flipped)])
    assert not workload.check(valid, [(2, stdout)])

    code, stdout = workload.run_item_in_process(invalid.items[0])
    assert code == 2 and workload.check(invalid, [(code, stdout)])
    assert not workload.check(invalid, [(0, stdout)])


def test_reference_partial_transpose_matches_definition():
    rng = __import__("numpy").random.default_rng(0)
    m = ref.random_dense(rng, 8)
    pt = ref.partial_transpose(m, (2, 2, 2), 1)
    # <a b c| rho^T_B |a' b' c'> = <a b' c| rho |a' b c'>
    for a, b, c, a2, b2, c2 in [(0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 0)]:
        row, col = 4 * a + 2 * b + c, 4 * a2 + 2 * b2 + c2
        assert pt[row, col] == m[4 * a + 2 * b2 + c, 4 * a2 + 2 * b + c2]
    assert abs(ref.knoll_npt_boundary(0.12, 0.21) - 0.649351) < 1e-6


# ---------------------------------------------------------------------------
# Counters repeat exactly


def traced_counters(workload_cls, seed: int, op_count: int) -> dict[str, float]:
    workload = workload_cls(ROOT)
    ops = workload.make_ops(seed)[:op_count]
    traced = run.trace_cycles(workload, ops, seconds=0.0)
    assert traced.tally.failed == 0
    metrics = run.layer_metrics(traced.tracer, traced.cycles * len(ops))
    return {
        name: value
        for name, value in metrics.items()
        if run.PER_LAYER_UNITS[name] in ("calls/op", "ratio")
    }


def test_counters_repeat_exactly_on_corpus():
    first = traced_counters(workloads.AnalyzeCorpus, seed=11, op_count=4)
    assert first == traced_counters(workloads.AnalyzeCorpus, seed=11, op_count=4)
    assert first["linalg.eig_calls"] > 0 and first["states.validate_calls"] == 4


def test_counters_repeat_exactly_on_sweeps():
    first = traced_counters(workloads.SweepXform, seed=11, op_count=1)
    assert first == traced_counters(workloads.SweepXform, seed=11, op_count=1)
    assert first["analysis.grid_evals"] == 2 * workloads.SWEEP_STEPS
    assert first["analysis.bisect_evals"] > 0


def test_tracing_restores_every_binding():
    from ptmoments import minors, moments

    import numpy as np

    before = (analysis.all_principal_minors, moments.partial_transpose, np.linalg.eigvalsh)
    with tracing.instrumented(tracing.Tracer()):
        assert analysis.all_principal_minors is not before[0]
        assert np.linalg.eigvalsh is not before[2]
    assert (analysis.all_principal_minors, moments.partial_transpose, np.linalg.eigvalsh) == before
    assert minors.all_principal_minors is before[0]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    for name, parent, start, end in [
        ("a.outer", -1, 0, 100),
        ("b.inner", 0, 10, 40),
        ("b.inner", 0, 50, 60),
        ("c.leaf", 1, 20, 25),
    ]:
        tracer.open(name)
        tracer._stack.clear()
        idx = len(tracer.start) - 1
        tracer.parent[idx], tracer.start[idx], tracer.end[idx] = parent, start, end
    assert tracer.self_ns() == {"a.outer": 60, "b.inner": 35, "c.leaf": 5}
    assert tracer.inclusive_ns() == {"a.outer": 100, "b.inner": 40, "c.leaf": 5}


# ---------------------------------------------------------------------------
# Metric names and the benchmark description


def test_metric_names_are_well_formed_and_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name in [*declared_e2e, *declared_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 29, 64, 150, 999, 20000):
        pct = run.tail_percentile(n)
        values = sorted(range(n))
        beyond = sum(v > run.nearest_rank(values, pct) for v in values)
        assert beyond >= run.TAIL_BEYOND
    assert run.tail_percentile(20000) == run.TAIL_CAP
