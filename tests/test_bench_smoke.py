"""Each case of ``bench/`` run once at a tiny size, through a stub
``benchmark`` that calls its function once, and the trajectory digest
script run once on short runs. The bench directory is outside the test
paths and calls private trainer names, so without these a rename would
break it unseen. The bench modules are loaded as modules, not their test
functions imported, so that the real benchmarks are not collected."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
HIDDEN, M = (8, 8), 16


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


step_bench, refit_bench = _load("test_step_bench"), _load("test_refit_bench")
simulate_bench = _load("test_simulate_bench")


def benchmark(fn, *args, **kwargs):
    return fn(*args, **kwargs)


benchmark.extra_info = {}   # as pytest-benchmark's fixture has


@pytest.mark.parametrize("algo", ["vanilla", "predicted"])
def test_step_bench_runs(algo):
    for kind in step_bench.KINDS:
        step_bench.test_step(benchmark, algo, kind, HIDDEN, M)


@pytest.mark.parametrize("layer", ["forward", "trunk_rows", "predict_sums"])
def test_step_layer_bench_runs(layer):
    for kind in step_bench.KINDS:
        step_bench.test_layer(benchmark, layer, kind, HIDDEN, M)


def test_validation_bench_runs():
    step_bench.test_validation(benchmark, HIDDEN, M)


@pytest.mark.parametrize("phase", ["measure", "fit"])
def test_refit_bench_runs(phase):
    for kind in refit_bench.KINDS:
        for data in sorted({data for *_, data in refit_bench.CASES}):
            refit_bench.test_refit(benchmark, phase, kind, HIDDEN, M, data)


def test_simulate_bench_runs():
    simulate_bench.test_simulate(benchmark, 10)
    assert benchmark.extra_info["minor_faults_per_call"] >= 0


def test_trajectory_digests_runs(capsys):
    digests = _load("trajectory_digests")
    lines = digests.main([str(BENCH.parent / "src"), "--n", "100", "--max-steps", "2"])
    assert capsys.readouterr().out.splitlines() == lines
    fields = dict((name, rest) for name, *rest in map(str.split, lines))
    assert len(fields) == len(digests.CONFIGS) == 32
    for name, (params, metrics, report) in fields.items():
        assert (params == "-") == name.startswith("compare") == (report != "-")
        if name.startswith("train") and name.endswith("-perfect"):
            assert params == fields[name.replace("-perfect", "-vanilla")][0]
