"""Self-test of the benchmark: every workload at a tiny size, the metric
names and units against BENCHMARK.json, and span self-time accounting."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics, run, workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    declared = {k: {m["name"]: m["unit"] for m in BENCHMARK[k]}
                for k in ("end_to_end", "per_layer")}
    assert declared["end_to_end"] == metrics.END_TO_END
    assert declared["per_layer"] == metrics.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_tiny_workload_emits_every_metric(name, trace, tmp_path):
    report = run.run(name, seed=3, seconds=0.01, trace=bool(trace),
                     spec=workloads.TINY[name], setup_repeats=1, outdir=tmp_path)
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        [c["problems"] for c in report["commands"]]
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert report["environment"]["blas_threads"] == run.BLAS_THREADS
    json.dumps(result)  # the final line must be plain JSON


def test_nested_spans_give_expected_self_times():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.8, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda nested: leaf() if nested else None)
    outer = tracer.wrap("outer", lambda: (inner(False), inner(True)))
    outer()
    t = tracer.table()
    assert t.names == ["leaf", "inner", "outer"]
    assert t.self_total("outer") == pytest.approx(10.0 - 2.0 - 1.0)
    assert t.self_total("inner") == pytest.approx(2.0 + 0.7)
    assert t.self_total("leaf") == pytest.approx(0.3)
    assert t.nesting_ok()
    assert t.untraced_remainder(12.0) == pytest.approx(2.0)
    assert metrics.check_accounting(t, 12.0) == []


def test_crossing_spans_fail_the_accounting_check():
    import numpy as np
    from perfbench.spans import SpanTable
    t = SpanTable(names=["a", "b"], name_id=np.array([0, 1]), parent=np.array([-1, 0]),
                  step=np.zeros(2, dtype=int), failed=np.zeros(2, dtype=bool),
                  start=np.array([0.0, 1.0]), end=np.array([2.0, 3.0]))
    assert not t.nesting_ok()
    assert metrics.check_accounting(t, 3.0) == ["trace: spans do not nest"]


def test_failed_spans_are_flagged_and_attributes_restored():
    mod = types.SimpleNamespace(fn=lambda x: 1 / x)
    tracer = Tracer()
    original = mod.fn
    with tracer.patched([(mod, "fn", "mod.fn", None), (mod, "absent", "mod.absent", None)]):
        assert mod.fn(2) == 0.5
        with pytest.raises(ZeroDivisionError):
            mod.fn(0)
    assert mod.fn is original and not hasattr(mod, "absent")
    t = tracer.table()
    assert t.calls("mod.fn") == 2 and t.failures("mod.fn") == 1
    assert t.calls("mod.absent") == 0


def test_break_even_reports_no_break_even_when_cheap_pass_is_dear():
    from predgrad.analysis import CostModel, gamma, rho_star
    g, star, verdict, note = metrics.break_even(0.25, 0.8, 1.0, 2.0, 0.7)
    assert g == pytest.approx(gamma(CostModel(), 0.25)) and g == pytest.approx(0.425)
    assert star == pytest.approx(rho_star(CostModel(), 0.25, 1.0))
    assert verdict == int(0.8 >= star)
    g, star, verdict, note = metrics.break_even(0.25, 0.99, 1.0, 2.6, 19.0)
    assert note == "no break-even" and verdict == 0 and g > 1 and star > 1


def test_simulate_check_flags_a_wrong_variance():
    spec = workloads.TINY["simulate"]
    res = types.SimpleNamespace(mean_err=0.0, emp_var=1.5, predicted_var=1.0)
    assert workloads.check_simulate(spec, res, {})
    res = types.SimpleNamespace(mean_err=0.0, emp_var=1.0, predicted_var=1.0)
    assert workloads.check_simulate(spec, res, {}) == []


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
