"""The repo benchmark harness (see ../README.md and /BENCHMARK.json).

Everything here measures ``src/repro`` from outside: it calls public
functions and the ``python -m repro serve`` CLI, and changes nothing
under ``src/``.
"""
