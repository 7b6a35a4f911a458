"""Benchmark of predgrad: workloads, span tracing and metrics.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
