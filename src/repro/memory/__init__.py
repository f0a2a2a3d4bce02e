"""Cache-hierarchy substrate.

The paper's SimpleSMT inherits SimpleScalar's cache model; ADTS itself only
consumes *per-thread miss counts per quantum*, so this package provides a
faithful set-associative LRU cache model (`Cache`), a small MSHR model for
miss-under-miss (`MSHRFile`), and a two-level hierarchy with shared L2
(`MemoryHierarchy`) that turns load/store/ifetch probes into latencies and
per-thread event counts.
"""
