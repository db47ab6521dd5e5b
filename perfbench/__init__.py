"""The repository benchmark: meter readings to per-household schedules.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; ``--workload all`` runs every workload.  See
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
