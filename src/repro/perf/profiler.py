"""Per-stage wall-clock accounting for the detailed pipeline.

The pipeline's ``step()`` dispatches each stage through ``self._commit``,
``self._complete``, … — instance-attribute lookups — so the profiler can
interpose timed wrappers on one *instance* without touching the class or
slowing down unprofiled processors.  Shares answer the optimisation
question directly: which stage owns the cycle budget.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict


class StageProfiler:
    """Attach timed wrappers to one :class:`SMTProcessor`'s stage methods.

    Usage::

        prof = StageProfiler(proc)
        with prof:
            proc.run_quanta(8)
        print(prof.report())
    """

    STAGES = (
        "_commit",
        "_complete",
        "_drain_miss_gauges",
        "_syscall_drain_check",
        "_issue",
        "_dispatch",
        "_fetch",
    )

    def __init__(self, proc) -> None:
        self.proc = proc
        self.seconds: Dict[str, float] = {s: 0.0 for s in self.STAGES}
        self._installed = False

    def _timed(self, name: str, fn):
        seconds = self.seconds

        def wrapped(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds[name] += perf_counter() - t0

        return wrapped

    def install(self) -> "StageProfiler":
        """Shadow each stage method with a timing wrapper on the instance."""
        if self._installed:
            return self
        proc = self.proc
        for name in self.STAGES:
            setattr(proc, name, self._timed(name, getattr(proc, name)))
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Remove the wrappers, restoring the plain class methods."""
        if not self._installed:
            return
        proc = self.proc
        for name in self.STAGES:
            if name in getattr(proc, "__dict__", {}):
                delattr(proc, name)
        self._installed = False

    def __enter__(self) -> "StageProfiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-stage seconds and share of the total profiled stage time."""
        total = sum(self.seconds.values())
        return {
            name: {
                "seconds": secs,
                "share": secs / total if total else 0.0,
            }
            for name, secs in sorted(
                self.seconds.items(), key=lambda kv: kv[1], reverse=True
            )
        }
