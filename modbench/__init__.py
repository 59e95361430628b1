"""End-to-end and per-layer benchmark of modlab.

Run from the root of a checkout::

    python3 -m modbench.run --workload wave-reports --seed 1 --seconds 10 --trace 0

See ``modbench/README.md`` for the workloads, the metrics and the checks.
"""
