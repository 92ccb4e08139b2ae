"""The benchmark's own tests: tiny end-to-end runs of every workload, the
self-time arithmetic, and the accounting of a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import subprocess
import sys

import pytest

import checks
import run
import workloads
from tracer import Span, Tracer, self_times, tail_percentile

BENCH = run.HERE
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_end_to_end(workload):
    lines = _run(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith(f"{workload} failed_ops_frac = 0 ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["jobs"] == 1 and env["nproc"] >= 1 and env["numpy"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_traced(workload):
    result = json.loads(_run(workload, 1)[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("netgen", "updyn", "baselines", "analytics", "experiments", "learner",
                  "optimizer", "cli"))
    assert math.isclose(layers + metrics["bench.remainder_s"], metrics["bench.wall_s"],
                        rel_tol=1e-9, abs_tol=1e-12)
    assert 0 <= metrics["bench.remainder_s"] < metrics["bench.wall_s"]


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the covered part counts once
        Span("a.child", 2.0, 3.0, 1),
        Span("late", 9.0, 12.0, 0),  # runs past its parent: clipped to 9..10
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_tail_percentile_rule():
    assert tail_percentile(list(range(150)))[0] == 90
    q, _, n = tail_percentile(list(range(50)))
    assert (q, n) == (80, 50)  # 10 of 50 samples lie beyond p80
    assert tail_percentile([1.0, 2.0, 3.0])[0] == 50
    assert tail_percentile([]) == (90, 0.0, 0)


def test_tracer_restores_every_binding():
    from contagion import experiments, updyn

    original = updyn.run_cascade
    tracer = Tracer()
    tracer.install([(updyn, "run_cascade", lambda t, fn: t.span_wrapper(fn, "x"))],
                   (updyn, experiments))
    try:
        assert updyn.run_cascade is not original
        assert experiments.run_cascade is updyn.run_cascade
    finally:
        tracer.uninstall()
    assert updyn.run_cascade is original and experiments.run_cascade is original


class _CorruptedIC(workloads.McSweep):
    """mc_sweep whose IC step reports one spread off by one."""

    @property
    def steps(self):
        steps = super().steps
        ic = next(s for s in steps if s.label == "ic")

        def corrupted(ctx, it, out):
            recs = ic.run(ctx, it, out)
            return [dataclasses.replace(recs[0], final_spread=recs[0].final_spread + 1)] + recs[1:]

        return tuple(dataclasses.replace(s, run=corrupted) if s is ic else s for s in steps)


def test_corrupted_spread_is_a_failed_operation(tmp_path):
    clean_wl = workloads.McSweep(workloads.TINY)
    ctx = clean_wl.setup(5, tmp_path)
    clean, corrupted = run.Tally(), run.Tally()
    run.run_iteration(clean_wl, ctx, 0, clean)
    run.run_iteration(_CorruptedIC(workloads.TINY), ctx, 0, corrupted)
    assert clean.failed == 0
    assert (corrupted.attempted, corrupted.failed) == (len(clean_wl.steps), 1)
    assert "final_spread" in corrupted.problems[0]


def test_reference_comparison_flags_a_changed_output():
    ref = {"spreads": checks.exact([3, 4]), "features": checks.close_abs([0.5, 0.25])}
    same = {"spreads": checks.exact([3, 4]), "features": checks.close_abs([0.5, 0.25 + 1e-12])}
    assert checks.compare(ref, same) == []
    moved = {"spreads": checks.exact([3, 5]), "features": checks.close_abs([0.5, 0.25 + 1e-6])}
    assert len(checks.compare(ref, moved)) == 2


def test_reference_speed_scales_by_the_probe():
    import speed

    ref = speed.REFERENCE_S
    assert speed.at_reference(1.5, ref, ref) == pytest.approx(1.5)
    # a host running at half speed doubles both the step and the probe
    assert speed.at_reference(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert speed.at_reference(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert 0 < speed.probe() < 1.0
