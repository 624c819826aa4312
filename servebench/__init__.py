"""End-to-end serving benchmark for :mod:`repro.serve` on ``gpt2-xl-scaled``.

``python3 servebench/run.py --workload chat --seed 1 --seconds 15 --trace 0``
serves one named workload through :class:`repro.serve.ServingEngine`,
checks every output and prints the metrics named in ``BENCHMARK.json``.
``--trace 1`` instead reports per-layer numbers taken by wrapping public
functions of ``repro`` from outside (see :mod:`servebench.layers`).  The
metrics, workloads and limits are described in ``servebench/METRICS.md``.
"""
