"""Benchmark of knotgraph; run it with ``python3 perfbench/run.py``."""
