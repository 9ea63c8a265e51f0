"""Differentiable feature construction for GNS.

Node features (the paper's physics-inspired inductive biases):

* C most recent finite-difference **velocities**, normalized by dataset
  statistics — the *inertial frame* bias: the network only ever sees
  velocity differences, so constant gravity is learned as a constant
  acceleration bias instead of a position-dependent function.
* Clipped, radius-normalized **distances to each boundary wall** — local
  boundary awareness without global coordinates.
* Optional scalar **material feature** (normalized friction angle φ).
  Because the whole pipeline is differentiable, ∂(rollout)/∂φ exists —
  the key enabler of the Section 5 inverse problem.

Edge features: relative displacement (x_s − x_r)/R and its norm — again
translation-invariant by construction.

All features are built with autodiff ops from position Tensors, so
gradients flow from rollout losses back to positions and material.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Tensor, as_tensor, concatenate
from ..autodiff.compile import compile_tape
from ..autodiff.functional import norm
from ..autodiff.scatter import gather
from ..graph import Graph, radius_graph

__all__ = ["FeatureConfig", "GNSFeaturizer", "Stats"]


@dataclass
class Stats:
    """Dataset normalization statistics (displacement units)."""

    velocity_mean: np.ndarray
    velocity_std: np.ndarray
    acceleration_mean: np.ndarray
    acceleration_std: np.ndarray

    @classmethod
    def from_dict(cls, d: dict) -> "Stats":
        return cls(
            velocity_mean=np.asarray(d["velocity_mean"], dtype=np.float64),
            velocity_std=np.asarray(d["velocity_std"], dtype=np.float64),
            acceleration_mean=np.asarray(d["acceleration_mean"], dtype=np.float64),
            acceleration_std=np.asarray(d["acceleration_std"], dtype=np.float64),
        )

    @classmethod
    def unit(cls, dim: int = 2) -> "Stats":
        z, o = np.zeros(dim, dtype=np.float64), np.ones(dim, dtype=np.float64)
        return cls(z.copy(), o.copy(), z.copy(), o.copy())

    def to_dict(self) -> dict:
        return {
            "velocity_mean": self.velocity_mean, "velocity_std": self.velocity_std,
            "acceleration_mean": self.acceleration_mean,
            "acceleration_std": self.acceleration_std,
        }


@dataclass
class FeatureConfig:
    """Featurizer configuration.

    Attributes
    ----------
    connectivity_radius: R — neighbor search radius and length normalizer.
    history: C — number of velocity steps in node features (paper: 5).
    bounds: ``(d, 2)`` wall coordinates, or None to skip boundary features.
    use_material: append the normalized material scalar to node features.
    material_scale: divisor normalizing the material value (φ in degrees).
    """

    connectivity_radius: float = 0.1
    history: int = 5
    bounds: np.ndarray | None = None
    use_material: bool = False
    material_scale: float = 45.0
    neighbor_method: str = "kdtree"
    dim: int = 2
    #: >1 enables a per-particle one-hot type feature (GNS convention:
    #: type 0 = dynamic, others are boundary/obstacle kinds)
    num_particle_types: int = 1
    #: type ids treated as kinematically fixed during integration
    static_types: tuple = ()

    def node_feature_size(self) -> int:
        n = self.history * self.dim
        if self.bounds is not None:
            n += 2 * self.dim
        if self.use_material:
            n += 1
        if self.num_particle_types > 1:
            n += self.num_particle_types
        return n

    def one_hot_types(self, particle_types: np.ndarray) -> np.ndarray:
        types = np.asarray(particle_types, dtype=np.int64)
        if types.min() < 0 or types.max() >= self.num_particle_types:
            raise ValueError("particle type out of range")
        out = np.zeros((types.shape[0], self.num_particle_types),
                       dtype=np.float64)
        out[np.arange(types.shape[0]), types] = 1.0
        return out

    def static_mask(self, particle_types: np.ndarray | None) -> np.ndarray | None:
        if particle_types is None or not self.static_types:
            return None
        types = np.asarray(particle_types)
        return np.isin(types, np.asarray(self.static_types))

    def edge_feature_size(self) -> int:
        return self.dim + 1


class GNSFeaturizer:
    """Builds the differentiable input graph for one prediction step."""

    def __init__(self, config: FeatureConfig, stats: Stats | None = None):
        self.config = config
        self.stats = stats or Stats.unit(config.dim)
        self._chains = None
        self._chain_key = None

    def _compiled_chains(self) -> dict:
        """Fused elementwise tape chains for the feature pipeline.

        Each chain replaces 2–3 separate tape nodes with a single fused
        node (one VJP closure, no intermediate Tensors) while computing
        the exact same ufunc sequence, so results stay bitwise-identical
        to the unfused ops. Constants (stats arrays, bounds, radius) are
        baked in by reference at trace time; the cache is keyed on their
        identities so rebinding ``self.stats`` retraces.
        """
        s, cfg = self.stats, self.config
        key = (id(s.velocity_mean), id(s.velocity_std),
               id(s.acceleration_mean), id(s.acceleration_std),
               id(cfg.bounds), cfg.connectivity_radius)
        if self._chains is not None and self._chain_key == key:
            return self._chains
        R = cfg.connectivity_radius
        vmean, vstd = s.velocity_mean, s.velocity_std
        amean, astd = s.acceleration_mean, s.acceleration_std
        chains = {
            "velocity": compile_tape(
                lambda cur, prev: (cur - prev - vmean) / vstd,
                name="feat.velocity"),
            "rel": compile_tape(lambda xs, xr: (xs - xr) / R,
                                name="feat.rel"),
            "norm_acc": compile_tape(lambda a: (a - amean) / astd,
                                     name="feat.norm_acc"),
            "denorm_acc": compile_tape(lambda a: a * astd + amean,
                                       name="feat.denorm_acc"),
        }
        if cfg.bounds is not None:
            lower, upper = cfg.bounds[:, 0], cfg.bounds[:, 1]
            chains["dist_lower"] = compile_tape(
                lambda x: ((x - lower) / R).clip(0.0, 1.0),
                name="feat.dist_lower")
            chains["dist_upper"] = compile_tape(
                lambda x: ((upper - x) / R).clip(0.0, 1.0),
                name="feat.dist_upper")
        self._chains = chains
        self._chain_key = key
        return chains

    def build_graph(self, position_history: list[Tensor],
                    material: Tensor | float | None = None,
                    particle_types: np.ndarray | None = None) -> Graph:
        """Construct the input graph from ``C+1`` position frames.

        Parameters
        ----------
        position_history:
            list of ``(n, d)`` Tensors (or arrays), oldest first; length
            must be ``config.history + 1``.
        material:
            scalar material value (Tensor to make it differentiable).
        """
        cfg = self.config
        if len(position_history) != cfg.history + 1:
            raise ValueError(
                f"need {cfg.history + 1} position frames, got {len(position_history)}")
        frames = [as_tensor(p) for p in position_history]
        x_t = frames[-1]
        n = x_t.shape[0]

        # --- connectivity (non-differentiable structure) ----------------
        senders, receivers = radius_graph(
            x_t.data, cfg.connectivity_radius, method=cfg.neighbor_method)

        # --- node features ----------------------------------------------
        # compiled elementwise chains: one fused tape node per feature
        # block instead of one per ufunc (bitwise-identical results)
        chains = self._compiled_chains()
        feats = []
        for prev, cur in zip(frames[:-1], frames[1:]):
            feats.append(chains["velocity"](cur, prev))
        if cfg.bounds is not None:
            feats.extend([chains["dist_lower"](x_t),
                          chains["dist_upper"](x_t)])
        if cfg.use_material:
            if material is None:
                raise ValueError("featurizer configured with use_material but none given")
            m = as_tensor(material)
            col = (m / cfg.material_scale).reshape(1, 1) * Tensor(
                np.ones((n, 1), dtype=np.float64))
            feats.append(col)
        if cfg.num_particle_types > 1:
            if particle_types is None:
                raise ValueError("featurizer configured with particle types "
                                 "but none given")
            feats.append(Tensor(cfg.one_hot_types(particle_types)))
        node_features = concatenate(feats, axis=1)

        # --- edge features ------------------------------------------------
        xs = gather(x_t, senders)
        xr = gather(x_t, receivers)
        rel = chains["rel"](xs, xr)
        dist = norm(rel, axis=1, keepdims=True)
        edge_features = concatenate([rel, dist], axis=1)

        return Graph(node_features, edge_features, senders, receivers)

    # -- buffer-reusing assembly for the inference engine: the same
    # -- ufuncs as build_graph, so features are bitwise-identical --
    def assemble_node_features(self, frames, out: np.ndarray | None = None
                               ) -> np.ndarray:
        """Write the *dynamic* node-feature columns (velocity history and
        boundary distances) of the ``(n, F)`` feature matrix.

        ``frames`` is a ``(C+1, n, d)`` array or list of frames, oldest
        first. Static columns (material, one-hot type) are left untouched
        — see :meth:`write_static_columns`.
        """
        cfg = self.config
        x_t = frames[-1]
        n = x_t.shape[0]
        if out is None:
            out = np.empty((n, cfg.node_feature_size()), dtype=np.float64)
        col = 0
        vmean, vstd = self.stats.velocity_mean, self.stats.velocity_std
        for prev, cur in zip(frames[:-1], frames[1:]):
            v = out[:, col:col + cfg.dim]
            np.subtract(cur, prev, out=v)
            v -= vmean
            v /= vstd
            col += cfg.dim
        if cfg.bounds is not None:
            lower, upper = cfg.bounds[:, 0], cfg.bounds[:, 1]
            b = out[:, col:col + cfg.dim]
            np.subtract(x_t, lower, out=b)
            b /= cfg.connectivity_radius
            np.clip(b, 0.0, 1.0, out=b)
            col += cfg.dim
            b = out[:, col:col + cfg.dim]
            np.subtract(upper, x_t, out=b)
            b /= cfg.connectivity_radius
            np.clip(b, 0.0, 1.0, out=b)
        return out

    def write_static_columns(self, out: np.ndarray,
                             material: float | None = None,
                             particle_types: np.ndarray | None = None) -> None:
        """Fill the step-invariant trailing columns (material, one-hot
        particle type). The engine writes these once per rollout."""
        cfg = self.config
        col = out.shape[1]
        if cfg.num_particle_types > 1:
            if particle_types is None:
                raise ValueError("featurizer configured with particle types "
                                 "but none given")
            col -= cfg.num_particle_types
            out[:, col:] = cfg.one_hot_types(particle_types)
        if cfg.use_material:
            if material is None:
                raise ValueError("featurizer configured with use_material but none given")
            value = float(material.data if isinstance(material, Tensor) else material)
            col -= 1
            out[:, col] = value / cfg.material_scale

    def assemble_edge_features(self, x_t: np.ndarray, senders: np.ndarray,
                               receivers: np.ndarray,
                               out: np.ndarray | None = None) -> np.ndarray:
        """Relative displacement and distance edge features into ``out``."""
        cfg = self.config
        if out is None:
            out = np.empty((senders.shape[0], cfg.edge_feature_size()),
                           dtype=np.float64)
        rel = out[:, :cfg.dim]
        np.subtract(x_t.take(senders, axis=0), x_t.take(receivers, axis=0),
                    out=rel)
        rel /= cfg.connectivity_radius
        dist2 = np.einsum("ij,ij->i", rel, rel)
        dist2 += 1e-12
        np.sqrt(dist2, out=dist2)
        out[:, cfg.dim] = dist2
        return out

    # ------------------------------------------------------------------
    def normalize_acceleration(self, acc):
        """(a − μ)/σ with dataset statistics (works on Tensor or ndarray)."""
        if isinstance(acc, Tensor):
            return self._compiled_chains()["norm_acc"](acc)
        return (acc - self.stats.acceleration_mean) / self.stats.acceleration_std

    def denormalize_acceleration(self, acc_norm):
        """Inverse of :meth:`normalize_acceleration`."""
        if isinstance(acc_norm, Tensor):
            return self._compiled_chains()["denorm_acc"](acc_norm)
        return acc_norm * self.stats.acceleration_std + self.stats.acceleration_mean
