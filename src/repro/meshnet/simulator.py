"""MeshNet: learned mesh-based fluid simulator (Section 3.2, Fig 2).

Same Encode–Process–Decode trunk as the particle GNS; the decoder output
is the per-node *velocity change* Δq, integrated forward in time. Node
types let the model learn boundary behaviour; at rollout time hard
constraints re-impose the prescribed inlet velocity and zero wall
velocity (the mesh analogue of the GNS boundary treatment).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from ..autodiff.scatter import SortedSegments
from ..gns.network import EncodeProcessDecode, GNSNetworkConfig
from ..nn import Module
from ..utils.buffers import Workspace
from .meshgraph import MeshSpec, NUM_NODE_TYPES, NodeType, build_mesh_graph

__all__ = ["MeshNetSimulator"]


class MeshNetSimulator(Module):
    """Autoregressive velocity-field predictor on a fixed mesh."""

    def __init__(self, spec: MeshSpec,
                 network_config: GNSNetworkConfig | None = None,
                 velocity_scale: float = 1.0,
                 delta_scale: float = 1.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        cfg = network_config or GNSNetworkConfig(
            latent_size=32, mlp_hidden_size=32, message_passing_steps=4)
        cfg.node_input_size = 2 + NUM_NODE_TYPES
        cfg.edge_input_size = 3
        cfg.output_size = 2
        self.network = EncodeProcessDecode(cfg, rng)
        self.network_config = cfg
        self.spec = spec
        self.velocity_scale = float(velocity_scale)
        self.delta_scale = float(delta_scale)
        self._static_edges = spec.edge_features()
        self._constrained = (spec.node_types == NodeType.INLET) | \
                            (spec.node_types == NodeType.WALL)
        # the mesh never changes: the one-hot type block is written once,
        # one aggregation plan serves every step (its stable argsort of
        # the unsorted receivers keeps the bits), and MLP/scratch buffers
        # are reused across every step
        self._node_feats = np.empty((spec.coords.shape[0],
                                     cfg.node_input_size))
        self._node_feats[:, 2:] = spec.one_hot_types()
        self._plan = SortedSegments(spec.receivers, spec.coords.shape[0])
        self._work = Workspace()

    # ------------------------------------------------------------------
    def predict_delta(self, velocities) -> Tensor:
        """Normalized Δvelocity prediction for the current field."""
        graph = build_mesh_graph(self.spec, velocities, self.velocity_scale,
                                 self._static_edges)
        return self.network(graph)

    def step(self, velocities: np.ndarray,
             boundary_values: np.ndarray | None = None) -> np.ndarray:
        """One forward step with hard boundary re-imposition (tape-free).

        The mesh graph is static, so connectivity, its aggregation plan
        and the one-hot type columns are built once in ``__init__``; only
        the two velocity columns are rewritten here, and the network runs
        through reusable workspace buffers.
        """
        np.divide(velocities, self.velocity_scale,
                  out=self._node_feats[:, :2])
        delta = self.network.forward_fast(
            self._node_feats, self._static_edges, self.spec.senders,
            self.spec.receivers, work=self._work, plan=self._plan
        ) * self.delta_scale
        nxt = velocities + delta
        if boundary_values is not None:
            nxt[self._constrained] = boundary_values[self._constrained]
        return nxt

    def rollout(self, initial_velocities: np.ndarray, num_steps: int,
                boundary_values: np.ndarray | None = None) -> np.ndarray:
        """Autoregressive rollout → ``(num_steps+1, N, 2)``.

        ``boundary_values`` defaults to the initial field (steady inlet).
        """
        if boundary_values is None:
            boundary_values = initial_velocities
        frames = [np.asarray(initial_velocities, dtype=np.float64)]
        for _ in range(num_steps):
            frames.append(self.step(frames[-1], boundary_values))
        return np.stack(frames, axis=0)

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist weights + mesh + normalization scales to one ``.npz``."""
        from ..data.io import save_checkpoint

        extra = {
            "network_config": vars(self.network_config),
            "velocity_scale": self.velocity_scale,
            "delta_scale": self.delta_scale,
            "mesh": {
                "coords": self.spec.coords.tolist(),
                "senders": self.spec.senders.tolist(),
                "receivers": self.spec.receivers.tolist(),
                "node_types": self.spec.node_types.tolist(),
            },
        }
        save_checkpoint(path, self.state_dict(), extra)

    @classmethod
    def load(cls, path) -> "MeshNetSimulator":
        from ..data.io import load_checkpoint

        state, extra = load_checkpoint(path)
        mesh = extra["mesh"]
        spec = MeshSpec(
            coords=np.asarray(mesh["coords"], dtype=np.float64),
            senders=np.asarray(mesh["senders"], dtype=np.intp),
            receivers=np.asarray(mesh["receivers"], dtype=np.intp),
            node_types=np.asarray(mesh["node_types"], dtype=np.int64),
        )
        cfg = GNSNetworkConfig(**extra["network_config"])
        sim = cls(spec, cfg, velocity_scale=extra["velocity_scale"],
                  delta_scale=extra["delta_scale"])
        sim.load_state_dict(state)
        return sim
