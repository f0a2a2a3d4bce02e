"""Post-run analysis tools.

Turns the per-quantum IPC series and per-thread statistics of finished
runs into the quantities ``examples/dominance_analysis.py`` reports:
policy-dominance structure over time, phase-change detection, and
per-thread fairness.
"""
