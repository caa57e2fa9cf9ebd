"""The repository's benchmark: four workloads run from outside the program.

Run ``python bench/run.py --help``; ``bench/README.md`` documents the
workloads, the metrics and how to compare two sets of runs.
"""
