"""The repository benchmark: workloads, oracle, tracing and entry point.

See ``perfbench/README.md`` for how to run it and what each metric means.
"""
