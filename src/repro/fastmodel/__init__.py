"""Quantum-granularity statistical model for wide parameter sweeps.

The detailed pipeline simulates ~15–25K cycles/s in CPython; the full
Figure 7/8 grid (5 thresholds x 5 heuristics x 13 mixes) at paper scale
would take hours. This package provides a vectorized per-quantum model:
each thread is a Markov phase chain emitting event *rates*; a closed-form
contention model maps the 8 threads' states plus the active fetch policy to
an aggregate quantum IPC. The real ADTS heuristics (the exact classes from
:mod:`repro.core.heuristics`) run unchanged on the emitted observations.

Calibration targets the detailed simulator (see `calibrate.py`); the
benchmarks label which engine produced each series.
"""
