"""Inference engine: bitwise parity with the tape oracle, batching, timing."""

import warnings

import numpy as np
import pytest

from repro.accel import build_error, kernels, toolchain_missing
from repro.autodiff import SortedSegments, no_grad
from repro.gns import (
    FeatureConfig, GNSNetworkConfig, InferenceEngine, LearnedSimulator, Stats,
)
from repro.graph import radius_graph


def make_sim(use_material=True, types=False, attention=False, history=3,
             seed=1, hidden_layers=2):
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    cfg = FeatureConfig(
        connectivity_radius=0.15, history=history, bounds=bounds,
        use_material=use_material,
        num_particle_types=2 if types else 1,
        static_types=(1,) if types else ())
    net = GNSNetworkConfig(latent_size=12, mlp_hidden_size=12,
                           mlp_hidden_layers=hidden_layers,
                           message_passing_steps=2, attention=attention)
    # small acceleration scale keeps the untrained dynamics slow enough
    # that the Verlet cache actually gets hits
    stats = Stats(np.zeros(2), np.full(2, 0.01), np.zeros(2),
                  np.full(2, 2e-4))
    return LearnedSimulator(cfg, net, stats, rng=np.random.default_rng(seed))


def make_seed(sim, n=50, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.25, 0.75, size=(n, 2))
    frames = [x0]
    for _ in range(sim.feature_config.history):
        frames.append(frames[-1] + rng.normal(0, 5e-4, size=(n, 2)))
    return np.stack(frames, axis=0)


# ----------------------------------------------------------------------
# Engine vs tape oracle: one matrix over graphs × paths × backends
# ----------------------------------------------------------------------

#: graph kinds of the parity matrix ("one-layer": every MLP without a
#: hidden layer, so the edge MLP's split first layer runs no ReLU)
PARITY_GRAPHS = ("plain", "attention", "typed-static", "no-material",
                 "zero-edges", "isolated-attention", "one-layer")
PARITY_STEPS = 8
#: float32 engine vs float64 engine, max |Δx| over the parity rollouts
FP32_DRIFT = 1e-5


def _place(seeds, points):
    """Shift the first ``len(points)`` particles of every seed so that
    their last frame sits on ``points`` (their motion is kept)."""
    seeds = seeds.copy()
    seeds[:, :, :len(points)] += points - seeds[:, -1:, :len(points)]
    return seeds


def _parity_case(graph):
    """Simulator, three seeds, their materials and the shared particle
    types for one graph kind; trajectory 1 is the one compared."""
    sim = make_sim(use_material=graph != "no-material",
                   types=graph == "typed-static",
                   attention=graph in ("attention", "isolated-attention"),
                   hidden_layers=0 if graph == "one-layer" else 2)
    seeds = np.stack([make_seed(sim, n=40, seed=s) for s in range(3)])
    if graph == "zero-edges":
        # a lattice spaced beyond the connectivity radius (0.15)
        grid = np.stack(np.meshgrid(np.linspace(0.1, 0.9, 5),
                                    np.linspace(0.1, 0.9, 5)), -1)
        seeds = _place(seeds[:, :, :25], grid.reshape(25, 2))
    elif graph == "isolated-attention":
        # three corner particles, far from the cluster and each other
        seeds = _place(seeds, np.array([[0.05, 0.05], [0.95, 0.05],
                                        [0.05, 0.95]]))
    materials = None if graph == "no-material" else [25.0, 30.0, 35.0]
    n = seeds.shape[2]
    types = ((np.arange(n) % 7 == 0).astype(np.int64)
             if graph == "typed-static" else None)
    # the seed graph is what its kind claims
    senders, receivers = radius_graph(seeds[1, -1],
                                      sim.feature_config.connectivity_radius)
    in_degree = np.bincount(receivers, minlength=n)
    if graph == "zero-edges":
        assert senders.size == 0
    elif graph == "isolated-attention":
        assert (in_degree[:3] == 0).all() and in_degree[3:].all()
    else:
        assert in_degree.all()
    return sim, seeds, materials, types


@pytest.mark.parametrize("backend", ["numpy", "accel"])
@pytest.mark.parametrize("path", ["rollout", "batch-member"])
@pytest.mark.parametrize("graph", PARITY_GRAPHS)
def test_engine_matches_tape_oracle(graph, path, backend):
    """Float64 engine trajectories equal the tape bit for bit — through
    ``fast=False`` and through ``rollout_differentiable`` under
    ``no_grad`` — solo and as member 1 of a B=3 batch, on either
    backend; the float32 engine stays within the drift bound."""
    sim, seeds, materials, types = _parity_case(graph)
    material = None if materials is None else materials[1]
    # the tape's scatter_softmax takes the reciprocal of an isolated
    # node's zero denominator (a value no edge gathers)
    with np.errstate(divide="ignore"):
        oracle = sim.rollout(seeds[1], PARITY_STEPS, material=material,
                             particle_types=types, fast=False)
        with no_grad():
            tape = sim.rollout_differentiable(list(seeds[1]), PARITY_STEPS,
                                              material=material,
                                              particle_types=types)
    tape = np.stack([f.data for f in tape])

    def engine(dtype):
        with warnings.catch_warnings():
            # the engine gathers before the reciprocal: no divide by zero
            warnings.simplefilter("error", RuntimeWarning)
            if path == "rollout":
                return sim.rollout(seeds[1], PARITY_STEPS, material=material,
                                   particle_types=types, dtype=dtype,
                                   backend=backend)
            return sim.rollout_batch(seeds, PARITY_STEPS, materials=materials,
                                     particle_types=types, dtype=dtype,
                                     backend=backend)[1]

    f64 = engine(np.float64)
    np.testing.assert_array_equal(f64, oracle)
    np.testing.assert_array_equal(f64, tape)
    assert not np.array_equal(f64[-1], f64[-2])  # the rollout moved
    f32 = engine(np.float32)
    assert np.abs(f32 - f64).max() < FP32_DRIFT


@pytest.mark.parametrize("case", ["float32-accel", "float32-numpy",
                                  "float64-accel", "attention-float32-accel"])
def test_plan_built_only_where_a_block_reads_it(monkeypatch, case):
    """The engine builds no aggregation plan of its own: ``forward_fast``
    builds one the first time a block aggregates through it. A float32
    ``accel`` rollout whose every block runs the fused edge pass builds
    none; ``numpy``, float64 and attention blocks build one per step."""
    if case == "float32-accel":
        reason = toolchain_missing()
        if reason is not None:
            pytest.skip(reason)
        assert kernels() is not None, build_error()
    builds = []
    init = SortedSegments.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SortedSegments, "__init__", counted)
    sim = make_sim(attention=case.startswith("attention"))
    dtype = np.float64 if "float64" in case else np.float32
    backend = "numpy" if case.endswith("numpy") else "accel"
    out = sim.rollout(make_seed(sim), 4, material=30.0, dtype=dtype,
                      backend=backend)
    assert np.isfinite(out).all()
    if case == "float32-accel":
        assert builds == []
    else:
        assert len(builds) == 4  # one per step, shared by every block


class TestBitwiseParity:
    def test_cached_matches_uncached(self):
        sim = make_sim()
        seed = make_seed(sim)
        cached = sim.rollout(seed, 20, material=30.0, skin=0.04)
        stats = sim.engine(0.04).cache_stats()
        assert stats["builds"] < stats["queries"]  # caching engaged
        uncached = sim.rollout(seed, 20, material=30.0, skin=0.0)
        np.testing.assert_array_equal(cached, uncached)

    def test_engine_reuse_stays_exact(self):
        # a second rollout through the same engine (warm buffers, stale
        # cache from the previous trajectory) must still be exact
        sim = make_sim()
        seed_a = make_seed(sim, seed=0)
        seed_b = make_seed(sim, seed=9)
        sim.rollout(seed_a, 10, material=30.0)
        fast = sim.rollout(seed_b, 10, material=25.0)
        oracle = sim.rollout(seed_b, 10, material=25.0, fast=False)
        np.testing.assert_array_equal(oracle, fast)


class TestBatchRollout:
    def test_matches_individual_rollouts(self):
        sim = make_sim()
        seeds = np.stack([make_seed(sim, seed=s) for s in range(3)], axis=0)
        mats = [25.0, 30.0, 35.0]
        batch = sim.rollout_batch(seeds, 12, materials=mats)
        for i in range(3):
            single = sim.rollout(seeds[i], 12, material=mats[i])
            np.testing.assert_allclose(batch[i], single, rtol=0, atol=1e-12)

    def test_scalar_material_and_types(self):
        sim = make_sim(types=True)
        n = 40
        seeds = np.stack([make_seed(sim, n=n, seed=s) for s in range(2)],
                         axis=0)
        ptypes = (np.arange(n) % 5 == 0).astype(np.int64)
        batch = sim.rollout_batch(seeds, 8, materials=30.0,
                                  particle_types=ptypes)
        assert batch.shape == (2, seeds.shape[1] + 8, n, 2)
        # static particles stay frozen in every trajectory
        frozen = ptypes.astype(bool)
        for b in range(2):
            np.testing.assert_array_equal(
                batch[b, -1, frozen], batch[b, seeds.shape[1] - 1, frozen])

    def test_bad_shapes_raise(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.rollout_batch(make_seed(sim), 3)  # missing batch dim
        seeds = np.stack([make_seed(sim, seed=0)], axis=0)
        with pytest.raises(ValueError):
            sim.rollout_batch(seeds, 3, materials=[1.0, 2.0])

    def test_batch_of_one_does_not_mutate_input(self):
        """Regression: for B=1 the stacking transpose+reshape was a view
        of the caller's array (size-1 axes keep it C-contiguous), so the
        rollout's window shifting mutated the input seed frames."""
        sim = make_sim()
        seeds = np.stack([make_seed(sim, seed=0)], axis=0)
        before = seeds.copy()
        sim.rollout_batch(seeds, 5, materials=30.0)
        np.testing.assert_array_equal(seeds, before)
        # and the batch still matches solo bitwise
        batch = sim.rollout_batch(seeds, 5, materials=30.0)
        single = sim.rollout(seeds[0], 5, material=30.0)
        np.testing.assert_array_equal(batch[0], single)


class TestBatchMixedFailure:
    """One diverging trajectory must not poison its siblings."""

    def _poisoned_seeds(self, sim):
        good = [make_seed(sim, seed=s) for s in range(2)]
        bad = make_seed(sim, seed=7)
        # a huge last-frame displacement makes the extrapolated velocity
        # blow any sane max_velocity on the first predicted step
        bad[-1] += 0.5
        return good, bad

    def test_batch_with_diverging_member_raises(self):
        sim = make_sim()
        good, bad = self._poisoned_seeds(sim)
        from repro.obs.health import RolloutDivergedError

        seeds = np.stack([good[0], bad, good[1]], axis=0)
        with pytest.raises(RolloutDivergedError):
            sim.rollout_batch(seeds, 8, materials=30.0, max_velocity=0.1)

    def test_siblings_unpoisoned_after_failed_batch(self):
        """After a batch aborts on one bad trajectory, re-running the
        siblings solo on the SAME engine must be bitwise-identical to a
        fresh engine's solo rollouts — i.e. the aborted batch left no
        state behind in the reused buffers/caches."""
        sim = make_sim()
        good, bad = self._poisoned_seeds(sim)
        from repro.obs.health import RolloutDivergedError

        engine = sim.engine()
        reference = [InferenceEngine(sim).rollout(s, 8, material=30.0)
                     for s in good]
        seeds = np.stack([good[0], bad, good[1]], axis=0)
        with pytest.raises(RolloutDivergedError):
            engine.rollout_batch(seeds, 8, materials=30.0, max_velocity=0.1)
        recovered = [engine.rollout(s, 8, material=30.0) for s in good]
        for got, want in zip(recovered, reference):
            np.testing.assert_array_equal(got, want)


class TestEngineInstrumentation:
    def test_timings_populated(self):
        sim = make_sim()
        engine = InferenceEngine(sim)
        engine.rollout(make_seed(sim), 6, material=30.0)
        timings = engine.timings()
        for stage in ("graph", "features", "encode", "process", "decode",
                      "integrate"):
            assert timings[stage]["count"] >= 6, stage
            assert timings[stage]["total"] > 0.0, stage
        engine.reset_timers()
        assert engine.timings()["process"]["count"] == 0

    def test_cache_stats_track_hits(self):
        sim = make_sim()
        engine = InferenceEngine(sim, skin=0.05)
        engine.rollout(make_seed(sim), 20, material=30.0)
        stats = engine.cache_stats()
        assert stats["queries"] == 20
        assert stats["builds"] < stats["queries"]
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_fp32_inference_dtype(self):
        sim = make_sim()
        sim.inference_dtype = np.float32
        seed = make_seed(sim)
        fast = sim.rollout(seed, 5, material=30.0)
        oracle = sim.rollout(seed, 5, material=30.0, fast=False,
                             dtype=np.float64)
        assert fast.dtype == np.float64  # positions stay f64
        np.testing.assert_allclose(fast, oracle, rtol=1e-4, atol=1e-5)

    def test_wrong_seed_length_raises(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.engine().rollout(make_seed(sim)[:-1], 3)


def test_simulator_engine_is_cached_per_skin():
    sim = make_sim()
    e1 = sim.engine()
    assert sim.engine() is e1
    e2 = sim.engine(0.02)
    assert e2 is not e1
    assert sim.engine(0.02) is e2
