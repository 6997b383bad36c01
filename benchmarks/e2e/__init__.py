"""End-to-end benchmark of whole runs, with a traced per-layer pass.

``python3 -m benchmarks.e2e --help`` runs it; ``README.md`` in this
directory describes the workloads, the metrics and how to compare sets.
"""
