"""A synthetic, deterministically seeded simulator to serve.

``repro serve run`` serves :func:`synthetic_simulator` when no
checkpoint is given, and the serve tests build their requests from
:func:`synthetic_seed`. The package ``__init__`` does not import this
module.
"""

from __future__ import annotations

import numpy as np

from ..gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator, Stats

__all__ = ["synthetic_simulator", "synthetic_seed"]


def synthetic_simulator(seed: int = 1) -> LearnedSimulator:
    """A small untrained material-conditioned GNS — dynamics are
    arbitrary but deterministic, which is all a serving bench needs."""
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    cfg = FeatureConfig(connectivity_radius=0.15, history=3, bounds=bounds,
                        use_material=True)
    net = GNSNetworkConfig(latent_size=12, mlp_hidden_size=12,
                           message_passing_steps=2)
    stats = Stats(np.zeros(2), np.full(2, 0.01), np.zeros(2),
                  np.full(2, 2e-4))
    return LearnedSimulator(cfg, net, stats, rng=np.random.default_rng(seed))


def synthetic_seed(sim: LearnedSimulator, n: int = 50,
                   seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.25, 0.75, size=(n, 2))
    frames = [x0]
    for _ in range(sim.feature_config.history):
        frames.append(frames[-1] + rng.normal(0, 5e-4, size=(n, 2)))
    return np.stack(frames, axis=0)
