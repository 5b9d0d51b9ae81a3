"""Layer-by-layer benchmark of the full-text engine; run it with
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``."""
