"""The learned simulator: GNS prediction + semi-implicit Euler integration.

Working in displacement units (dt absorbed into the frame spacing):

    v_t     = x_t − x_{t−1}
    a_t     = network(graph(x_{t−C} … x_t))        (denormalized)
    v_{t+1} = v_t + a_t                            (semi-implicit Euler)
    x_{t+1} = x_t + v_{t+1}

Two rollout paths:

* :meth:`rollout` — tape-free inference through the
  :class:`~repro.gns.engine.InferenceEngine`, NumPy in/out; used for
  speedup benchmarks (E2) and the hybrid solver (E4). ``fast=False``
  runs :meth:`step` under ``no_grad`` instead — the float64 oracle the
  engine is bitwise-equal to.
* :meth:`rollout_differentiable` — keeps the autodiff tape across steps so
  losses on the final state differentiate back to the *material parameter*
  (and initial conditions); used by the inverse problem (E5). Matches the
  paper's memory-motivated practice of restricting the differentiable pass
  to ~30 steps.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, as_tensor, no_grad
from ..nn import Module
from .features import FeatureConfig, GNSFeaturizer, Stats
from .network import EncodeProcessDecode, GNSNetworkConfig

__all__ = ["LearnedSimulator"]


class LearnedSimulator(Module):
    """End-to-end differentiable particle simulator (GNS)."""

    def __init__(self, feature_config: FeatureConfig,
                 network_config: GNSNetworkConfig | None = None,
                 stats: Stats | None = None,
                 rng: np.random.Generator | None = None,
                 inference_dtype=np.float64):
        super().__init__()
        #: dtype of the tape-free rollout path; float32 ≈ 2× faster on CPU
        self.inference_dtype = inference_dtype
        if network_config is None:
            network_config = GNSNetworkConfig()
        # keep IO sizes consistent with the featurizer
        network_config.node_input_size = feature_config.node_feature_size()
        network_config.edge_input_size = feature_config.edge_feature_size()
        network_config.output_size = feature_config.dim
        self.featurizer = GNSFeaturizer(feature_config, stats)
        self.network = EncodeProcessDecode(network_config, rng)
        self.feature_config = feature_config
        self.network_config = network_config

    @property
    def stats(self) -> Stats:
        return self.featurizer.stats

    # ------------------------------------------------------------------
    def predict_normalized_acceleration(self, position_history: list[Tensor],
                                        material=None,
                                        particle_types=None) -> Tensor:
        """Network output in normalized acceleration space."""
        graph = self.featurizer.build_graph(position_history, material,
                                            particle_types)
        return self.network(graph)

    def step(self, position_history: list[Tensor], material=None,
             particle_types=None) -> Tensor:
        """One integration step; returns ``x_{t+1}`` as a Tensor.

        Particles whose type is listed in ``FeatureConfig.static_types``
        are kinematically frozen (boundary/obstacle particles).
        """
        acc_norm = self.predict_normalized_acceleration(position_history,
                                                        material,
                                                        particle_types)
        acc = self.featurizer.denormalize_acceleration(acc_norm)
        x_t = as_tensor(position_history[-1])
        x_prev = as_tensor(position_history[-2])
        velocity = x_t - x_prev + acc
        x_next = x_t + velocity
        static = self.feature_config.static_mask(particle_types)
        if static is not None and static.any():
            from ..autodiff import where
            x_next = where(static[:, None], x_t, x_next)
        return x_next

    # ------------------------------------------------------------------
    def engine(self, skin: float | None = None, dtype=None, backend=None):
        """The lazily-created :class:`~repro.gns.engine.InferenceEngine`
        for this simulator (buffers, neighbor cache, stage timers persist
        across rollouts). A ``skin``, ``dtype`` or ``backend`` differing
        from the current engine's rebuilds it (``dtype=None`` follows
        ``inference_dtype``; ``backend=None`` follows the process-active
        backend, re-resolved per call so env changes take effect)."""
        from ..backend import get_backend
        want = np.dtype(dtype if dtype is not None else self.inference_dtype)
        want_backend = get_backend(backend)
        eng = getattr(self, "_engine", None)
        if (eng is None or eng.skin != skin or eng.dtype != want
                or eng.backend is not want_backend):
            from .engine import InferenceEngine
            eng = InferenceEngine(self, skin=skin, dtype=want,
                                  backend=want_backend)
            object.__setattr__(self, "_engine", eng)
        return eng

    def rollout(self, initial_history: np.ndarray, num_steps: int,
                material: float | None = None,
                particle_types: np.ndarray | None = None,
                fast: bool = True, skin: float | None = None,
                max_velocity: float | None = None,
                guard: bool = True, dtype=None, backend=None) -> np.ndarray:
        """Inference rollout (no gradient tape) through the :meth:`engine`,
        or with ``fast=False`` through the float64 tape oracle.

        Parameters
        ----------
        initial_history: ``(C+1, n, d)`` seed positions (e.g. the MPM
            warm-up frames).
        num_steps: prediction steps beyond the seed.
        fast: route through the buffer-reusing :meth:`engine` with Verlet
            neighbor caching; ``False`` runs :meth:`step` (the tape
            forward) under ``no_grad`` — the float64 oracle the engine's
            float64 trajectories are bitwise-equal to. The oracle runs
            float64 only: a float32 ``dtype`` or ``inference_dtype``
            raises ``ValueError``, as does a ``backend``.
        skin: Verlet skin radius for the fast path (None → 0.25 R).
        max_velocity: optional per-step displacement limit for the
            divergence guard.
        guard: abort early with a structured
            :class:`~repro.obs.RolloutDivergedError` (step index,
            offending particle count, max |v|, good frames so far) the
            moment a step produces NaN/Inf positions, instead of rolling
            out garbage for the remaining steps.
        dtype: run the network in this dtype (float32 trades ~1e-4
            relative accuracy for speed; None follows
            ``inference_dtype``).
        backend: array backend name or handle for the network forward
            (None follows ``REPRO_BACKEND`` / the explicit process
            override). Fast path only.

        Returns
        -------
        ``(C+1+num_steps, n, d)`` positions including the seed frames.
        """
        if fast:
            return self.engine(skin, dtype=dtype, backend=backend).rollout(
                initial_history, num_steps, material, particle_types,
                max_velocity=max_velocity, guard=guard)
        want = np.dtype(dtype if dtype is not None else self.inference_dtype)
        if want != np.float64:
            raise ValueError(f"fast=False is the float64 tape oracle; "
                             f"{want} requires fast=True")
        if backend is not None:
            raise ValueError("backend override requires fast=True")
        from .engine import InferenceEngine

        frames = [np.asarray(f, dtype=np.float64) for f in initial_history]
        if guard:
            InferenceEngine._guard_seed(np.stack(frames)[np.newaxis])
        window_len = self.feature_config.history + 1
        with no_grad():
            for t in range(num_steps):
                x_next = self.step(frames[-window_len:], material,
                                   particle_types).data
                if guard:
                    InferenceEngine._guard_step(
                        t, frames[-1], x_next,
                        lambda: np.stack(frames, axis=0), max_velocity)
                frames.append(x_next)
        return np.stack(frames, axis=0)

    def rollout_batch(self, initial_histories: np.ndarray, num_steps: int,
                      materials=None,
                      particle_types: np.ndarray | None = None,
                      skin: float | None = None,
                      max_velocity: float | None = None,
                      guard: bool = True, dtype=None,
                      backend=None) -> np.ndarray:
        """Batched multi-initial-condition rollout via the fast engine;
        see :meth:`repro.gns.engine.InferenceEngine.rollout_batch`."""
        return self.engine(skin, dtype=dtype, backend=backend).rollout_batch(
            initial_histories, num_steps, materials, particle_types,
            max_velocity=max_velocity, guard=guard)

    def rollout_differentiable(self, initial_history: list[Tensor],
                               num_steps: int, material=None,
                               particle_types: np.ndarray | None = None
                               ) -> list[Tensor]:
        """Tape-preserving rollout; returns all frames as Tensors.

        Gradients of any function of the returned frames propagate to
        ``material`` and the seed frames.
        """
        frames = [as_tensor(f) for f in initial_history]
        for _ in range(num_steps):
            window = frames[-(self.feature_config.history + 1):]
            frames.append(self.step(window, material, particle_types))
        return frames

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        from ..data.io import save_checkpoint

        extra = {
            "feature_config": {
                "connectivity_radius": self.feature_config.connectivity_radius,
                "history": self.feature_config.history,
                "use_material": self.feature_config.use_material,
                "material_scale": self.feature_config.material_scale,
                "dim": self.feature_config.dim,
                "num_particle_types": self.feature_config.num_particle_types,
                "static_types": list(self.feature_config.static_types),
                "bounds": None if self.feature_config.bounds is None
                          else np.asarray(self.feature_config.bounds).tolist(),
            },
            "network_config": vars(self.network_config),
            "stats": {k: v.tolist() for k, v in self.stats.to_dict().items()},
        }
        save_checkpoint(path, self.state_dict(), extra)

    @classmethod
    def load(cls, path) -> "LearnedSimulator":
        from ..data.io import load_checkpoint

        state, extra = load_checkpoint(path)
        fc = extra["feature_config"]
        bounds = None if fc["bounds"] is None else np.asarray(fc["bounds"])
        feature_config = FeatureConfig(
            connectivity_radius=fc["connectivity_radius"], history=fc["history"],
            bounds=bounds, use_material=fc["use_material"],
            material_scale=fc["material_scale"], dim=fc["dim"],
            num_particle_types=fc.get("num_particle_types", 1),
            static_types=tuple(fc.get("static_types", ())))
        nc = dict(extra["network_config"])
        network_config = GNSNetworkConfig(**nc)
        stats = Stats.from_dict({k: np.asarray(v) for k, v in extra["stats"].items()})
        sim = cls(feature_config, network_config, stats)
        sim.load_state_dict(state)
        return sim
