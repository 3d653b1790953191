"""Benchmark harness for simdiff.

``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in a closed loop (one caller, no threads, the next op
starts when the previous returns), checks every answer independently and
prints one JSON result as its last line.  The untraced run gives the
end-to-end metrics; the traced run wraps simdiff's public functions from
outside and gives per-layer metrics.  Nothing under ``src/`` is changed.
"""
