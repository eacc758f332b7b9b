"""The repository's one benchmark: ``python -m bench run|compare``.

Measures the whole system from outside, through public entry points
only — four workloads, two clocks (``wall`` seconds of this Python code,
``modelled`` LX2 seconds from ``repro.hardware.CostModel``), end-to-end
numbers from an untraced pass and per-layer numbers from a separate
traced pass.  ``BENCHMARK.json`` at the repository root is the contract
(workloads, metric names, units, directions, regression bounds);
``bench/README.md`` explains every choice.
"""
