"""Microbenchmark suite for the simulation hot paths.

``python -m repro bench`` runs these and writes ``BENCH_*.json``
trajectory files; see :mod:`repro.bench.micro`.
"""

from repro.bench.micro import (  # noqa: F401
    BENCHMARKS,
    BenchResult,
    bench_channel,
    bench_engine,
    run_benchmarks,
)
