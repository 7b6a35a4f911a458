"""Benchmark runner for predgrad.

    python3 perfbench/run.py --workload narrow-regression --seed 1 --seconds 35 --trace 0

Runs one workload (see perfbench/workloads.py) from the source tree next
to this directory for about --seconds seconds in this single process and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With --trace 0 the metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced run. The line before it is a JSON report with the environment, the
check results and the losses of every command at full precision; the same
report, and for traced runs the recorded spans, are written to
perfbench/out/.

Exit codes: 0 success, 2 when the source tree or an argument is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1          # fixed before numpy loads; at most nproc
SETUP_REPEATS = 8

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]


def setup_seconds(workload: str) -> float:
    """Set-up time of one command, measured in a fresh interpreter: import
    predgrad (numpy included), make the inputs and initialize the network."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_probe(workload: str) -> int:
    t0 = time.perf_counter()
    from perfbench import workloads
    workloads.WORKLOADS[workload].setup()
    print(repr(time.perf_counter() - t0))
    return 0


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    from importlib import metadata
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    kernels = sys.modules.get("predgrad._kernels")
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy,
        "blas": blas, "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "use_numba": getattr(kernels, "USE_NUMBA", None), "seed": seed,
        "commit": _git_commit(), "source_sha256": _source_digest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spec=None,
        setup_repeats: int = SETUP_REPEATS, outdir: Path = OUT) -> dict:
    """Run one workload and return its report; ``result`` is the final line."""
    from perfbench import metrics, workloads
    from perfbench.spans import Tracer

    spec = spec or workloads.WORKLOADS[workload]
    os.makedirs(outdir, exist_ok=True)
    workloads.run_command(workloads.warmup_spec(spec), workloads.unit_seed(seed, 0),
                          Tracer(), trace, str(outdir))

    tracer = Tracer(step_span="trainer.optimizer_step")
    commands, pairs, setup = [], [], []
    start = last_probe = time.perf_counter()
    i = 0
    while True:
        s = workloads.unit_seed(seed, i)
        if trace:
            plain = workloads.run_command(spec, s, tracer, False, str(outdir))
            traced = workloads.run_command(spec, s, tracer, True, str(outdir))
            traced.problems += metrics.check_accounting(tracer.table(*traced.spans),
                                                        traced.wall_s)
            pairs.append((plain, traced))
            commands += [plain, traced]
        else:
            commands.append(workloads.run_command(spec, s, tracer, False, str(outdir)))
            if time.perf_counter() - last_probe >= seconds / setup_repeats:
                setup.append(setup_seconds(workload))
                last_probe = time.perf_counter()
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / i > seconds:
            break

    notes = {}
    if trace:
        values, notes = metrics.per_layer(spec, pairs, tracer,
                                          getattr(workloads._kernels, "USE_NUMBA", False))
        units = metrics.PER_LAYER
        tracer.save(outdir / f"spans-{workload}-seed{seed}.npz")
    else:
        while len(setup) < setup_repeats:
            setup.append(setup_seconds(workload))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(spec, commands, tracer, setup, peak_mb)
        units = metrics.END_TO_END

    failed = sum(bool(c.problems) for c in commands)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "break_even": notes,
        "setup_s": setup,
        "commands": [{"seed": c.seed, "traced": bool(trace and k % 2), "wall_s": c.wall_s,
                      "problems": c.problems,
                      "values": {k2: v for k2, v in c.values.items()
                                 if k2 not in ("fit_ranks", "solve_dims")}}
                     for k, c in enumerate(commands)],
        "result": {
            "correct": failed == 0,
            "attempted": len(commands),
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()},
        },
    }
    with open(outdir / f"report-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # internal: time one set-up
    args = parser.parse_args(argv)

    if not (SRC / "predgrad" / "__init__.py").is_file():
        print(f"error: no predgrad source tree at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args.workload)
    import predgrad
    if not Path(predgrad.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: predgrad was imported from {predgrad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
