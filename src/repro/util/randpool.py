"""Batched random-number pool.

The trace generators draw several random numbers per instruction; calling
``Generator.random()`` scalar-at-a-time dominates the profile. ``RandPool``
amortizes by drawing NumPy batches and serving them from a cursor — the
standard vectorize-the-hot-loop idiom from the hpc-parallel guides, applied
to RNG.

Draws are served as plain Python floats: a ``np.float64`` scalar escaping
into the per-instruction arithmetic makes every downstream ``+``/``*``/``<``
dispatch through NumPy's scalar machinery (an order of magnitude slower
than float ops). ``ndarray.tolist()`` converts the batch once, preserving
every bit of each double.

The refill size (``batch``) cannot change the stream: ``Generator.random``
fills an array sequentially, so ``k`` refills of ``b`` draws are the same
bits as one of ``k * b``, provided nothing else draws from the pool's
generator between refills. Each trace thread's pool owns its generator
(the address and branch generators draw through that pool), so this holds.
The size only sets how many draws a pool holds at once, and every pickle
of a processor (batch and oracle forks) copies them. The default 1,024
holds 8 KB of array and ~32 KB of Python floats per trace thread; a
1,536-cycle 8-thread sweep cell serves ~2,000 draws a thread, so a larger
pool would mostly hold draws that are never served.
"""

from __future__ import annotations

from math import log1p as _log1p

import numpy as np


class RandPool:
    """Serves scalar uniforms/geometrics from pre-drawn NumPy batches."""

    __slots__ = ("rng", "batch", "_buf", "_uniform", "_ucursor",
                 "_geo_mean", "_geo_denom")

    def __init__(self, rng: np.random.Generator, batch: int = 1024) -> None:
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.rng = rng
        self.batch = batch
        self._buf = rng.random(batch)
        self._uniform = self._buf.tolist()
        self._ucursor = 0
        # Memoized log1p(-1/mean) for geometric(): callers cycle through a
        # handful of means (one per phase), so the last one usually repeats.
        self._geo_mean = 0.0
        self._geo_denom = 1.0

    def uniform(self) -> float:
        """One U[0,1) draw."""
        cursor = self._ucursor
        if cursor >= self.batch:
            self.rng.random(out=self._buf)
            self._uniform = self._buf.tolist()
            cursor = 0
        self._ucursor = cursor + 1
        return self._uniform[cursor]

    def geometric(self, mean: float) -> int:
        """Geometric draw with the given mean, support {1, 2, ...}.

        Uses inversion on a pooled uniform; mean <= 1 degenerates to 1.
        """
        if mean <= 1.0:
            return 1
        # Inversion: ceil(log(1-u) / log(1-p)) with p = 1/mean.  The
        # denominator depends only on `mean`, so memoize it.
        if mean != self._geo_mean:
            self._geo_mean = mean
            self._geo_denom = _log1p(-1.0 / mean)
        u = self.uniform()
        return max(1, int(_log1p(-u) / self._geo_denom) + 1)

    def integer(self, upper: int) -> int:
        """Uniform integer in [0, upper)."""
        if upper <= 1:
            return 0
        return int(self.uniform() * upper)

    def bernoulli(self, p: float) -> bool:
        """True with probability p."""
        return self.uniform() < p
