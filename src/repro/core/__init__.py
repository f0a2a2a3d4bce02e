"""Adaptive Dynamic Thread Scheduling (ADTS) — the paper's contribution.

A *detector thread* (DT) occupies one designated hardware context at the
lowest fetch priority, making progress only through otherwise-wasted fetch
slots. At every scheduling quantum (8K cycles) it compares the quantum's
committed IPC against a threshold; when throughput is low it identifies
clogging threads, chooses a replacement fetch policy with one of the
Type 1–4 heuristics, and switches the Thread Selection Unit's policy.
"""
