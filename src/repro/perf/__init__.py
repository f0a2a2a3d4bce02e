"""Performance engineering toolkit (DESIGN.md §10).

A per-stage cycle-accounting profiler (:mod:`repro.perf.profiler`). The
repository's performance measurement is ``bench/run.py``; its traced pass
runs :class:`~repro.perf.profiler.StageProfiler` to split pipeline time by stage.
"""
