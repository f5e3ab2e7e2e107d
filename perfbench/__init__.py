"""The simulator's benchmark: named workloads, reference fingerprints, layer spans.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N``;
see ``perfbench/README.md``.
"""
