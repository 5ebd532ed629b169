"""End-to-end benchmark of the AutoMDT reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in fresh single-threaded worker processes and prints its
metrics; see ``perfbench/README.md``.
"""
