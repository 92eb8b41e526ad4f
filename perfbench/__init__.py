"""The repository's benchmark: pipelined APSP solves and distance serving.

Run it from the repository root::

    python3 perfbench/run.py --workload apsp_pipelined --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how they
relate to each other.
"""
