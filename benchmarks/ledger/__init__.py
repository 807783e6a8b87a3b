"""The performance ledger: one benchmark for the whole KOKO serving stack.

Run it with ``python3 benchmarks/ledger/run.py``; see ``README.md`` beside
this file for the workloads, the metric tables and how to read a trace.
"""
