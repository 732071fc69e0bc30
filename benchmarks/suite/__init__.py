"""FUNNEL's benchmark suite: four workloads through the public default path.

Run one workload the way the benchmark driver does::

    python3 benchmarks/suite/run.py --workload live_deep --seed 7 \
        --seconds 20 --trace 0

or the whole suite, one OS process per workload, into one result file::

    PYTHONPATH=src python -m benchmarks.suite --out result.json

See ``README.md`` beside this file for the metric glossary, the workload
rationale and the timing protocol.
"""
