"""Rollout fast-path benchmark: legacy path vs engine (f64 and fp32).

Times the 1k-particle GNS rollout three ways:

* **legacy_f64** — a faithful inline copy of the pre-fast-path inference
  code: fresh ``radius_graph`` each step, concatenation-based feature
  assembly, per-block edge concats, allocating MLP layers, COO-built
  segment sums. Always float64 — this is the committed baseline.
* **engine_f64** — :class:`repro.gns.InferenceEngine`: Verlet-skin
  neighbor caching, fused split-first-layer MLP kernels, sorted-segment
  (CSR) aggregation plans, and workspace buffer reuse.
* **engine_fp32** — the same engine with ``dtype=float32``: single
  precision network + features (integration stays float64), fused C
  elementwise kernels when a toolchain is available.

Correctness contract: the engine's float64 trajectory with caching
enabled is **bitwise identical** to both the uncached (skin=0) engine
and the float64 tape oracle (``fast=False``: the tape forward under
``no_grad``), and matches the legacy numerics to float round-off. The fp32 trajectory must stay within a documented
max-position-drift tolerance of the float64 one.

Writes ``BENCH_fastpath.json`` (per-path steps/sec and stage timings,
speedups, fp32 drift, an ``n_particles`` scaling sweep up to 100k).
``--quick`` shrinks the problem for CI smoke runs; ``--min-speedup X``
exits nonzero when the best engine-vs-legacy speedup falls below ``X``
(the CI regression gate reads the committed ``ci_min_speedup`` field).
``--telemetry DIR`` additionally exports the results through the
:mod:`repro.obs` metrics registry.

Usage::

    python benchmarks/bench_fastpath.py [--quick] [--steps N]
        [--no-sweep] [--min-speedup X] [--output PATH] [--telemetry DIR]
        [--record HISTORY]

``--record HISTORY`` appends a perf-ledger entry (git SHA, config
hash, flattened metrics) for ``repro bench compare`` regression gating.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator, Stats
from repro.graph import radius_graph
from scipy import sparse

FP32_DRIFT_TOL = 5e-3  # max |x_fp32 - x_f64| over the benchmark rollout


# ----------------------------------------------------------------------
# Legacy path — inline copy of the pre-fast-path inference code. Kept
# verbatim (allocation patterns and all) so the speedup is measured
# against what the repo actually shipped, not a strawman. Always f64.
# ----------------------------------------------------------------------
def _legacy_mlp(mlp, x):
    dtype = x.dtype.type
    for lin in mlp.linears[:-1]:
        w, b = lin.arrays(dtype)
        x = x @ w + b
        np.maximum(x, 0.0, out=x)
    w, b = mlp.linears[-1].arrays(dtype)
    x = x @ w + b
    if mlp.norm is not None:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        x = (x - mu) / np.sqrt(var + mlp.norm.eps)
        x = x * mlp.norm.gamma.data.astype(dtype) \
            + mlp.norm.beta.data.astype(dtype)
    return x


def _legacy_segment_sum(values, index, num_segments):
    e = index.shape[0]
    if e == 0:
        return np.zeros((num_segments,) + values.shape[1:],
                        dtype=values.dtype)
    mat = sparse.csr_matrix((np.ones(e), (index, np.arange(e))),
                            shape=(num_segments, e))
    return np.asarray(mat @ values.reshape(e, -1)).reshape(
        (num_segments,) + values.shape[1:])


def _legacy_network_forward(net, node_features, edge_features, senders,
                            receivers):
    n = node_features.shape[0]
    nodes = _legacy_mlp(net.node_encoder, node_features)
    edges = _legacy_mlp(net.edge_encoder, edge_features)
    for block in net.blocks:
        edge_in = np.concatenate([edges, nodes[senders], nodes[receivers]],
                                 axis=1)
        messages = _legacy_mlp(block.edge_mlp, edge_in)
        aggregated = _legacy_segment_sum(messages, receivers, n)
        node_update = _legacy_mlp(
            block.node_mlp, np.concatenate([nodes, aggregated], axis=1))
        nodes = nodes + node_update
        edges = edges + messages
    return _legacy_mlp(net.decoder, nodes)


def _legacy_build_arrays(featurizer, frames, material, stages=None):
    cfg = featurizer.config
    x_t = frames[-1]
    n = x_t.shape[0]
    t0 = time.perf_counter()
    senders, receivers = radius_graph(
        x_t, cfg.connectivity_radius, method=cfg.neighbor_method)
    t1 = time.perf_counter()
    feats = []
    for prev, cur in zip(frames[:-1], frames[1:]):
        feats.append((cur - prev - featurizer.stats.velocity_mean)
                     / featurizer.stats.velocity_std)
    if cfg.bounds is not None:
        lower, upper = cfg.bounds[:, 0], cfg.bounds[:, 1]
        feats.append(np.clip((x_t - lower) / cfg.connectivity_radius, 0.0, 1.0))
        feats.append(np.clip((upper - x_t) / cfg.connectivity_radius, 0.0, 1.0))
    if cfg.use_material:
        feats.append(np.full((n, 1), float(material) / cfg.material_scale))
    node_features = np.concatenate(feats, axis=1)
    rel = (x_t[senders] - x_t[receivers]) / cfg.connectivity_radius
    dist = np.sqrt((rel ** 2).sum(axis=1, keepdims=True) + 1e-12)
    edge_features = np.concatenate([rel, dist], axis=1)
    if stages is not None:
        t2 = time.perf_counter()
        stages["graph"] += t1 - t0
        stages["features"] += t2 - t1
    return node_features, edge_features, senders, receivers


def legacy_rollout(sim, initial_history, num_steps, material, stages=None):
    # the legacy path is the f64 baseline regardless of inference_dtype
    frames = [np.asarray(f, dtype=np.float64) for f in initial_history]
    window_len = sim.feature_config.history + 1
    for _ in range(num_steps):
        window = frames[-window_len:]
        node_f, edge_f, senders, receivers = _legacy_build_arrays(
            sim.featurizer, window, material, stages)
        t0 = time.perf_counter()
        acc_norm = _legacy_network_forward(
            sim.network, node_f, edge_f, senders, receivers)
        t1 = time.perf_counter()
        acc = sim.featurizer.denormalize_acceleration(acc_norm)
        x_t, x_prev = window[-1], window[-2]
        frames.append(x_t + (x_t - x_prev + acc))
        if stages is not None:
            stages["network"] += t1 - t0
            stages["integrate"] += time.perf_counter() - t1
    return np.stack(frames, axis=0)


# ----------------------------------------------------------------------
def build_benchmark(n_side: int, latent: int, mp_steps: int, history: int,
                    seed: int = 0):
    """Settled granular bed: ~n_side² particles, slow coherent motion so
    the Verlet cache sees GNS-realistic displacement per step."""
    rng = np.random.default_rng(seed)
    spacing = 1.0 / (n_side + 1)
    radius = 2.33 * spacing
    xs = (np.arange(n_side) + 1) * spacing
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    x0 = grid + rng.uniform(-0.15, 0.15, grid.shape) * spacing

    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    cfg = FeatureConfig(connectivity_radius=radius, history=history,
                        bounds=bounds, use_material=True)
    net = GNSNetworkConfig(latent_size=latent, mlp_hidden_size=latent,
                           mlp_hidden_layers=2,
                           message_passing_steps=mp_steps)
    # tiny acceleration scale: untrained-network outputs perturb the
    # velocity field without blowing up the trajectory
    vel_scale = 0.03 * spacing
    stats = Stats(np.zeros(2), np.full(2, vel_scale), np.zeros(2),
                  np.full(2, 0.02 * vel_scale))
    sim = LearnedSimulator(cfg, net, stats, rng=np.random.default_rng(1))

    velocity = rng.normal(0.0, vel_scale, size=x0.shape)
    frames = [x0]
    for _ in range(history):
        frames.append(frames[-1] + velocity)
    return sim, np.stack(frames, axis=0)


def _time_legacy(sim, seed_frames, steps, material, repeats):
    stages = {"graph": 0.0, "features": 0.0, "network": 0.0,
              "integrate": 0.0}
    best = np.inf
    for _ in range(repeats):
        s = dict.fromkeys(stages, 0.0)
        t0 = time.perf_counter()
        legacy_rollout(sim, seed_frames, steps, material, s)
        dt = time.perf_counter() - t0
        if dt < best:
            best, stages = dt, s
    return {"seconds": best, "steps_per_sec": steps / best,
            "stages_ms_per_step": {k: 1e3 * v / steps
                                   for k, v in stages.items()}}


def _time_engine(sim, seed_frames, steps, material, repeats, dtype):
    engine = sim.engine(dtype=dtype)
    sim.rollout(seed_frames, 2, material=material, dtype=dtype)  # warm
    best = np.inf
    for _ in range(repeats):
        engine.cache.invalidate()
        engine.reset_timers()
        engine.cache.reset_stats()
        t0 = time.perf_counter()
        sim.rollout(seed_frames, steps, material=material, dtype=dtype)
        best = min(best, time.perf_counter() - t0)
    stage_means = {name: 1e3 * t["mean"]
                   for name, t in engine.timings().items()}
    totals = {name: t["total"] for name, t in engine.timings().items()}
    denom = sum(totals.values())
    cache_stats = engine.cache.stats()
    return {
        "seconds": best, "steps_per_sec": steps / best,
        "stages_ms_per_step": stage_means,
        "process_share": totals.get("process", 0.0) / max(denom, 1e-12),
        "cache": {k: (float(v) if isinstance(v, (int, float, np.floating))
                      else v) for k, v in cache_stats.items()},
    }, engine


def run(args) -> dict:
    from repro.backend import get_backend, use_backend

    backend = get_backend(args.backend)
    # pin the backend for every path in the run (the engine resolves the
    # active backend at construction, so the pin must wrap everything)
    with use_backend(backend):
        return _run(args, backend)


def _run(args, backend) -> dict:
    n_side = 12 if args.quick else 32
    latent = 16 if args.quick else 32
    mp = 3 if args.quick else 5
    steps = args.steps or (6 if args.quick else 40)
    sim, seed_frames = build_benchmark(n_side, latent, mp, history=5)
    n = seed_frames.shape[1]
    material = 30.0
    # "does the selected backend attach compiled fp32 kernels": for the
    # accel backend this matches repro.accel.available(); the numpy
    # backend never does, whatever the toolchain
    ckernels = backend.float32_kernels() is not None

    print(f"benchmark: {n} particles, latent {latent}, {mp} message-passing "
          f"steps, {steps} rollout steps, backend {backend.name}, C kernels "
          f"{'on' if ckernels else 'off (numpy fallback)'}")

    # --- correctness gates ---------------------------------------------
    check_steps = min(steps, 10)
    ref = sim.rollout(seed_frames, check_steps, material=material, fast=False)
    cached = sim.rollout(seed_frames, check_steps, material=material)
    uncached = sim.rollout(seed_frames, check_steps, material=material,
                           skin=0.0)
    assert np.array_equal(cached, uncached), \
        "cached trajectory differs from uncached"
    assert np.array_equal(cached, ref), \
        "engine trajectory differs from the tape oracle"
    print(f"correctness: {check_steps}-step cached/uncached/tape "
          "trajectories bitwise identical (float64)")
    legacy_check = legacy_rollout(sim, seed_frames, check_steps, material)
    legacy_diff = float(np.max(np.abs(legacy_check - cached)))
    print(f"correctness: max |engine_f64 - legacy| = {legacy_diff:.3e}")
    assert legacy_diff < 1e-9, "engine diverged from the legacy numerics"

    # fp32 accuracy gate: max position drift vs the f64 trajectory
    traj64 = sim.rollout(seed_frames, steps, material=material)
    traj32 = sim.rollout(seed_frames, steps, material=material,
                         dtype=np.float32)
    fp32_drift = float(np.max(np.abs(traj32 - traj64)))
    print(f"correctness: fp32 max position drift over {steps} steps "
          f"= {fp32_drift:.3e} (tolerance {FP32_DRIFT_TOL:g})")
    assert fp32_drift < FP32_DRIFT_TOL, \
        f"fp32 drift {fp32_drift:.3e} exceeds tolerance {FP32_DRIFT_TOL:g}"

    # --- timed runs (best of N to damp scheduler noise) ----------------
    repeats = 1 if args.quick else 3
    legacy_rollout(sim, seed_frames, 2, material)  # warm BLAS/caches
    legacy = _time_legacy(sim, seed_frames, steps, material, repeats)
    eng64, _ = _time_engine(sim, seed_frames, steps, material, repeats,
                            np.float64)
    eng32, engine32 = _time_engine(sim, seed_frames, steps, material,
                                   repeats, np.float32)

    speedup_f64 = legacy["seconds"] / eng64["seconds"]
    speedup_fp32 = legacy["seconds"] / eng32["seconds"]
    result = {
        "n_particles": int(n),
        "latent_size": latent,
        "message_passing_steps": mp,
        "num_steps": steps,
        "quick": bool(args.quick),
        "backend": backend.name,
        "ckernels": ckernels,
        "paths": {"legacy_f64": legacy, "engine_f64": eng64,
                  "engine_fp32": eng32},
        "speedup_f64": speedup_f64,
        "speedup_fp32": speedup_fp32,
        "fp32": {"max_position_drift_vs_f64": fp32_drift,
                 "tolerance": FP32_DRIFT_TOL, "steps": steps},
        "correctness": {"bitwise_cached_vs_uncached": True,
                        "bitwise_engine_vs_naive": True,
                        "max_abs_diff_vs_legacy": legacy_diff},
        # conservative floor for the CI regression gate (quick mode,
        # shared runner, possibly no C toolchain)
        "ci_min_speedup": 1.5,
    }

    for name, r in result["paths"].items():
        print(f"{name:<12}: {r['steps_per_sec']:8.2f} steps/sec "
              f"({r['seconds']:.3f} s)")
        print("  stages (ms/step): " + ", ".join(
            f"{k}={v:.2f}" for k, v in r["stages_ms_per_step"].items()))
    print(f"speedup: engine_f64 {speedup_f64:.2f}x, "
          f"engine_fp32 {speedup_fp32:.2f}x vs legacy")
    print(f"process share: f64 {eng64['process_share']:.1%}, "
          f"fp32 {eng32['process_share']:.1%}")

    if not args.quick and not args.no_sweep:
        result["scaling"] = _scaling_sweep(latent, mp)

    if args.telemetry is not None:
        _export_telemetry(args.telemetry, result, engine32)
    return result


def _scaling_sweep(latent: int, mp: int) -> list[dict]:
    """steps/sec vs particle count, 1k → 100k.

    The legacy path is only timed up to 10k particles (it allocates
    O(E·latent) temporaries per block per step and takes minutes beyond
    that); dropped entries are reported as null with a note.
    """
    print("\nscaling sweep (particles -> steps/sec):")
    sweep = []
    for n_side, steps, with_legacy in ((32, 40, True), (100, 10, True),
                                       (181, 4, False), (317, 2, False)):
        sim, seed_frames = build_benchmark(n_side, latent, mp, history=5)
        n = seed_frames.shape[1]
        material = 30.0
        senders, _ = radius_graph(seed_frames[-1],
                                  sim.feature_config.connectivity_radius)
        entry = {"n_particles": int(n), "edges": int(senders.shape[0]),
                 "steps": steps}
        if with_legacy:
            legacy = _time_legacy(sim, seed_frames, steps, material, 1)
            entry["legacy_f64_steps_per_sec"] = legacy["steps_per_sec"]
        else:
            entry["legacy_f64_steps_per_sec"] = None
            entry["note"] = "legacy path skipped above 10k particles"
        eng64, _ = _time_engine(sim, seed_frames, steps, material, 1,
                                np.float64)
        eng32, _ = _time_engine(sim, seed_frames, steps, material, 1,
                                np.float32)
        entry["engine_f64_steps_per_sec"] = eng64["steps_per_sec"]
        entry["engine_fp32_steps_per_sec"] = eng32["steps_per_sec"]
        entry["engine_fp32_process_share"] = eng32["process_share"]
        legacy_s = entry["legacy_f64_steps_per_sec"]
        legacy_txt = (f"legacy {legacy_s:.2f}" if legacy_s is not None
                      else "legacy skipped")
        print(f"  {n:>7} particles ({entry['edges']:>8} edges): "
              f"{legacy_txt}, f64 {eng64['steps_per_sec']:.2f}, "
              f"fp32 {eng32['steps_per_sec']:.2f} steps/sec")
        sweep.append(entry)
    return sweep


def _export_telemetry(directory, result, engine) -> None:
    """Re-emit the benchmark results through the observability stack
    (private registry — global telemetry stays off, so the timed runs
    above were not perturbed)."""
    from repro.obs import MetricsRegistry, TelemetrySession

    reg = MetricsRegistry()
    session = TelemetrySession(
        directory, command="bench_fastpath",
        config={k: result[k] for k in ("n_particles", "latent_size",
                                       "message_passing_steps", "num_steps",
                                       "quick", "backend", "ckernels")},
        dtype="float32+float64", registry=reg, enable_global=False)
    for name, r in result["paths"].items():
        reg.gauge(f"bench.{name}_steps_per_sec").set(r["steps_per_sec"])
        for stage, ms in r["stages_ms_per_step"].items():
            reg.gauge("bench.stage_ms_per_step",
                      path=name, stage=stage).set(ms)
    reg.gauge("bench.speedup_f64").set(result["speedup_f64"])
    reg.gauge("bench.speedup_fp32").set(result["speedup_fp32"])
    reg.gauge("bench.particles").set(result["n_particles"])
    reg.gauge("bench.fp32_drift").set(
        result["fp32"]["max_position_drift_vs_f64"])
    cache = result["paths"]["engine_fp32"]["cache"]
    reg.gauge("cache.hit_rate").set(cache["hit_rate"])
    reg.gauge("cache.builds").set(cache["builds"])
    reg.gauge("cache.queries").set(cache["queries"])
    session.add_tracer(engine.tracer)
    session.finish(summary={
        "speedup_f64": result["speedup_f64"],
        "speedup_fp32": result["speedup_fp32"],
        "legacy_steps_per_sec":
            result["paths"]["legacy_f64"]["steps_per_sec"],
        "engine_fp32_steps_per_sec":
            result["paths"]["engine_fp32"]["steps_per_sec"],
        "fp32_drift": result["fp32"]["max_position_drift_vs_f64"],
        "max_abs_diff_vs_legacy":
            result["correctness"]["max_abs_diff_vs_legacy"]})
    print(f"telemetry written to {session.telemetry_path.parent}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem for CI smoke runs (no sweep)")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed rollout length")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the n_particles scaling sweep")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="array backend to benchmark (default: active "
                             "backend, i.e. REPRO_BACKEND or 'accel')")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 if the best engine speedup vs legacy "
                             "is below this (CI regression gate)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_fastpath.json")
    parser.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                        help="also write telemetry.jsonl + manifest.json")
    parser.add_argument("--record", type=Path, default=None,
                        metavar="HISTORY",
                        help="append a perf-ledger entry to HISTORY "
                             "(same as 'repro bench record')")
    args = parser.parse_args(argv)
    result = run(args)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if args.record is not None:
        from repro.obs.ledger import entry_from_fastpath, record_entry

        entry = entry_from_fastpath(result)
        record_entry(args.record, entry)
        print(f"ledger entry (config {entry['config_hash']}) appended "
              f"to {args.record}")
    best = max(result["speedup_f64"], result["speedup_fp32"])
    if args.min_speedup is not None and best < args.min_speedup:
        print(f"FAIL: best speedup {best:.2f}x below the required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
