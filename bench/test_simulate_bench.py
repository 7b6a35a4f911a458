"""Time ``simulate_estimator`` at perfbench's ``simulate`` inputs (m = 100,
dim = 8, f = 0.25, rho = 0.8, kappa = 1, sigma_g = 1) with that workload's
5000 trials and with the ``simulate`` command's default of 100000 trials.

Run from the repository root, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -m pytest bench/test_simulate_bench.py \\
        --benchmark-json=BENCH_simulate.json

Like ``test_step_bench.py``, the directory is outside the tier-1 test paths.
Every round is one call at seed 0; the time does not depend on the seed.
Each case also records in ``extra_info`` the minor page faults of a warm
call, the mean over every round after the first of the ``ru_minflt`` delta
across it; the two ``getrusage`` calls that read it are inside the timed
round, a microsecond or so against milliseconds.
"""

import resource

import pytest

from predgrad.analysis import simulate_estimator

SIGMA_G, RHO, KAPPA, DIM, F, M = 1.0, 0.8, 1.0, 8, 0.25, 100
TRIALS = [5000, 100000]


@pytest.mark.parametrize("trials", TRIALS, ids=[f"trials{t}" for t in TRIALS])
def test_simulate(benchmark, trials):
    sigma_h = KAPPA * SIGMA_G
    tau = RHO * SIGMA_G * sigma_h
    faults = []

    def call():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulate_estimator(SIGMA_G, sigma_h, tau, DIM, F, M, trials, 0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    benchmark(call)
    warm = faults[1:] or faults
    benchmark.extra_info["minor_faults_per_call"] = sum(warm) / len(warm)
