"""The repository's benchmark: end-to-end and per-layer metrics for DetTrace.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N``;
see ``perfbench/README.md`` for the metrics, the workloads and the
predictions later changes are measured against.
"""
