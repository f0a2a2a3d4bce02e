"""Unified durable-artifact storage layer.

Every artifact the harness persists — run journals, result stores,
recordings, reports and profiles — goes through this package: atomic
write/rename with fsync discipline and bounded retry
(:mod:`repro.storage.atomic`), checksummed JSON documents that carry
their own format, version and provenance
(:mod:`repro.storage.artifact`), a seeded filesystem fault injector
(:mod:`repro.storage.faultfs`), and an audit/repair engine behind
``repro fsck`` (:mod:`repro.storage.fsck`).

Layering: this package never imports from :mod:`repro.harness` or
:mod:`repro.service` at module scope (``fsck`` reaches them lazily inside
probe functions), so artifact owners are free to import storage.
"""

# The one name kept here besides the submodules: the benchmark's workloads
# (bench/workloads.py) import the tree audit as ``repro.storage.fsck_tree``.
from repro.storage.fsck import fsck_tree  # noqa: F401
