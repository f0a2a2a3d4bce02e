"""Synthetic SPEC CPU2000-like workloads.

The paper drives SimpleSMT with SPEC CPU2000 binaries, classified along
three axes to build its 13 mixes: single-thread IPC, memory footprint, and
integer vs floating point. SPEC binaries (and a functional ISA simulator to
run them) are out of scope here, so this package generates *statistical
instruction traces*: per-application profiles reproduce the published
behavioural characteristics of the SPEC programs along exactly those axes
plus the event rates (conditional-branch density, misprediction rate, cache
miss rate, load/store density) that the ADTS heuristics' threshold
conditions test. See DESIGN.md §2 for the substitution argument.
"""
