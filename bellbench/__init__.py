"""Benchmark for bellsim: four workloads, each checked against references
that share no code with the route they check.  Run ``bellbench/run.py``."""
