"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest -q bench/tests``."""
