"""Shared utilities: batched RNG draws and seed-stream management."""
