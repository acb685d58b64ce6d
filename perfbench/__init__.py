"""Benchmark of the misosec package; the entry point is perfbench/run.py."""
