"""Attention-coefficient analysis for the attention GNS.

Section 3 claims the graph attention mechanism "focuses on the local
interaction law"; Section 7 adds that it "needs further analysis on its
ability to learn interaction physics". These tools provide that analysis:
per-node entropy of the attention distribution (uniform vs focused) and
an attention-vs-distance profile (does the model attend to close
neighbors, as contact physics demands?).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from ..gns.simulator import LearnedSimulator

__all__ = ["extract_attention", "attention_entropy", "attention_by_distance"]


def extract_attention(simulator: LearnedSimulator,
                      position_history: np.ndarray,
                      material: float | None = None,
                      particle_types: np.ndarray | None = None) -> dict:
    """Run one prediction and collect per-block attention coefficients.

    Returns a dict with ``alphas`` (list of (E,) arrays, one per attention
    block), ``senders``, ``receivers``, and edge ``distances``.
    """
    if not simulator.network_config.attention:
        raise ValueError("simulator has no attention processor")
    alphas: list[np.ndarray] = []
    with no_grad():
        graph = simulator.featurizer.build_graph(
            [Tensor(np.asarray(f)) for f in position_history],
            material, particle_types)
        simulator.network(graph, probe=lambda block, messages, alpha:
                          alphas.append(alpha.data))
    distances = graph.edge_features.data[:, -1] * \
        simulator.feature_config.connectivity_radius
    return {
        "alphas": alphas,
        "senders": graph.senders,
        "receivers": graph.receivers,
        "distances": distances,
        "num_nodes": graph.num_nodes,
    }


def attention_entropy(alpha: np.ndarray, receivers: np.ndarray,
                      num_nodes: int) -> np.ndarray:
    """Normalized entropy of each node's incoming-attention distribution.

    1.0 = uniform attention over neighbors (no selectivity);
    0.0 = all attention on a single neighbor. Nodes with < 2 incoming
    edges are returned as NaN (entropy undefined).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    entropy = np.zeros(num_nodes)
    np.add.at(entropy, receivers, -alpha * np.log(np.maximum(alpha, 1e-30)))
    degree = np.bincount(receivers, minlength=num_nodes)
    out = np.full(num_nodes, np.nan)
    multi = degree >= 2
    out[multi] = entropy[multi] / np.log(degree[multi])
    return out


def attention_by_distance(alpha: np.ndarray, distances: np.ndarray,
                          bins: int = 8,
                          radius: float | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Mean attention weight per edge-length bin.

    Returns (bin centers, mean attention). A *physical* contact model
    should down-weight distant neighbors, so the profile should decay —
    compare against the uniform level 1/⟨degree⟩.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    hi = radius if radius is not None else float(distances.max()) or 1.0
    edges_bins = np.linspace(0.0, hi, bins + 1)
    centers = 0.5 * (edges_bins[:-1] + edges_bins[1:])
    idx = np.clip(np.digitize(distances, edges_bins) - 1, 0, bins - 1)
    sums = np.bincount(idx, weights=alpha, minlength=bins)
    counts = np.bincount(idx, minlength=bins)
    means = np.divide(sums, counts, out=np.full(bins, np.nan),
                      where=counts > 0)
    return centers, means
