"""Seeding and buffer utilities."""

from .seeding import make_rng, spawn_rngs
from .buffers import Workspace

__all__ = ["make_rng", "spawn_rngs", "Workspace"]
