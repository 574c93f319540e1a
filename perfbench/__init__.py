"""The repository benchmark: the HTTP admission service end to end.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
"""
