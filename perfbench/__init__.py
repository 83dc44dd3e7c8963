"""Closed-loop stream benchmark for the GCSM reproduction.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/METRICS.md`` documents every metric.
"""
