"""Benchmark of the speed-estimation system; run ``perfbench/run.py``."""
