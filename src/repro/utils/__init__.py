"""Seeding and buffer utilities."""

from .seeding import make_rng, seed_everything, spawn_rngs
from .buffers import Workspace

__all__ = ["make_rng", "seed_everything", "spawn_rngs", "Workspace"]
