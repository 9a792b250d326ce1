"""The repo benchmark: Figure-7-family workloads timed end to end and traced per layer.

Entry point: ``python3 perfbench/run.py`` (see README.md).
"""
