"""The repository's benchmark: host time and memory of the simulator.

Run it with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
