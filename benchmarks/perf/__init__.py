"""The repository's performance ledger: ``python -m benchmarks.perf run|compare``.

Four workloads in fresh processes, five end-to-end metrics, and per-layer
attribution from a second, traced run -- all measured from outside ``src/``.
See ``README.md`` beside this file; ``spec.py`` is the source of every name.
"""
