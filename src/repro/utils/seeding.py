"""Deterministic seeding helpers.

All randomness in the library flows through explicit
:class:`numpy.random.Generator` objects created here — never through
NumPy's hidden global state. ``repro.lint`` rule DET001 enforces this
statically.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn_rngs"]


def make_rng(seed: int) -> np.random.Generator:
    """The canonical library RNG: a PCG64 Generator for ``seed``.

    Bit-stream-identical to ``np.random.default_rng(seed)`` for integer
    seeds; named so call sites read as deliberate stream creation.
    """
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent child generators from one seed (SeedSequence spawning)."""
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in ss.spawn(n)]

