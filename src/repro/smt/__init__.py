"""SMT processor pipeline substrate.

An instruction-granular, cycle-driven model of an 8-context simultaneous
multithreading processor in the style of SimpleSMT / Tullsen's ICOUNT.2.8
machine: shared fetch (8-wide from up to 2 threads per cycle with
cache-block fetch fragmentation), decode/rename front end, separate integer
and floating-point instruction queues, a shared load/store queue, a pool of
functional units, per-thread reorder buffers, and the per-thread hardware
status counters that the ADTS detector thread reads.

The model is *coarse* relative to a validated cycle-accurate simulator (see
DESIGN.md §2) but preserves the inter-thread resource-competition dynamics
— IQ clogging, wrong-path fetch waste, shared-cache interference, MLP —
that drive the per-quantum counters ADTS consumes.
"""
