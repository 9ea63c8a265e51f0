"""Command-line interface.

Subcommands cover the full paper workflow without writing Python:

* ``repro simulate`` — run an MPM scenario, save the trajectory (and GIF).
* ``repro generate`` — build a GNS training dataset (box-flow draws).
* ``repro train``    — train a GNS on a dataset, save a checkpoint.
* ``repro rollout``  — roll a checkpoint on a held-out trajectory and
  report the error vs ground truth.
* ``repro invert``   — identify the friction angle from a target runout
  by AD through the rollout (Section 5).
* ``repro info``     — inspect datasets and checkpoints.
* ``repro telemetry summarize|report|merge`` — render a telemetry run
  directory as text or self-contained HTML (flame chart, op table,
  metric percentiles), or merge per-worker shards into one labeled
  timeline.
* ``repro serve run`` — the simulation-as-a-service front door: push
  a demo workload through a live service and print its stats (the
  serve-chaos CI job runs it under injected faults; see
  ``docs/serving.md``).
* ``repro lint``     — run the domain static-analysis rules
  (determinism, dtype discipline, autodiff contracts, conventions; see
  ``docs/static-analysis.md``).

``simulate``/``train``/``rollout``/``invert`` accept ``--telemetry DIR``
which enables the :mod:`repro.obs` subsystem for the run and writes the
span/metric/health record plus a run manifest into ``DIR``.
"""
# repro-lint: fp32-ok — --dtype float32 plumbing for the inference fast path

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _add_faults_args(p) -> None:
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="arm deterministic fault injection (e.g. "
                        "'train.poison_batch@3;ckpt.corrupt@1'; see "
                        "docs/resilience.md; also via REPRO_FAULTS)")
    p.add_argument("--faults-seed", type=int, default=0, metavar="N",
                   help="seed for probabilistic fault clauses")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differentiable GNS for forward & inverse particle/fluid problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an MPM scenario")
    p.add_argument("scenario", choices=["column", "boxflow", "dambreak", "obstacle"])
    p.add_argument("--output", type=Path, required=True, help="trajectory .npz")
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--record-every", type=int, default=8)
    p.add_argument("--cells-per-unit", type=int, default=24)
    p.add_argument("--friction-angle", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gif", type=Path, default=None, help="optional animation")
    p.add_argument("--dtype", choices=["float32", "float64"], default="float64",
                   help="solver dtype — MPM physics (and the training data "
                        "it generates) is float64-only; float32 is rejected")
    p.add_argument("--timing", action="store_true",
                   help="print wall-clock time and steps/sec")
    p.add_argument("--profile", action="store_true",
                   help="cProfile the run and print hotspots")
    p.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                   help="write telemetry.jsonl + manifest.json to DIR")
    _add_faults_args(p)

    p = sub.add_parser("generate", help="build a GNS training dataset")
    p.add_argument("--output", type=Path, required=True, help="dataset .npz")
    p.add_argument("--trajectories", type=int, default=4)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--cells-per-unit", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a GNS on a dataset")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True, help="checkpoint .npz")
    p.add_argument("--steps", type=int, default=300,
                   help="TOTAL step budget (a resumed run trains only the "
                        "remaining steps)")
    p.add_argument("--resume", type=Path, default=None, metavar="PATH",
                   help="TrainState .npz (or checkpoint dir) to resume from")
    p.add_argument("--accum", type=int, default=1,
                   help="micro-batches accumulated per optimizer step")
    p.add_argument("--ema", type=float, default=None, metavar="DECAY",
                   help="keep EMA shadow weights with this decay")
    p.add_argument("--schedule", default="exponential",
                   choices=["constant", "exponential", "cosine", "step",
                            "plateau"],
                   help="learning-rate schedule (default: exponential)")
    p.add_argument("--warmup", type=int, default=0, metavar="N",
                   help="linear LR warmup steps")
    p.add_argument("--checkpoint-every", type=int, default=None, metavar="K",
                   help="write a resumable TrainState every K steps "
                        "(default: steps // 4)")
    p.add_argument("--checkpoint-dir", type=Path, default=None, metavar="DIR",
                   help="TrainState directory (default: <output>.ckpt)")
    p.add_argument("--latent", type=int, default=24)
    p.add_argument("--message-passing", type=int, default=3)
    p.add_argument("--history", type=int, default=4)
    p.add_argument("--radius", type=float, default=0.08)
    p.add_argument("--learning-rate", type=float, default=5e-4)
    p.add_argument("--attention", action="store_true")
    p.add_argument("--use-material", action="store_true")
    p.add_argument("--holdout", type=int, default=1,
                   help="trajectories reserved for validation")
    p.add_argument("--metrics", type=Path, default=None, help="CSV log path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                   help="write telemetry.jsonl + manifest.json to DIR")
    p.add_argument("--max-recoveries", type=int, default=None, metavar="N",
                   help="self-heal from non-finite loss streaks by "
                        "reloading the newest valid checkpoint, at most "
                        "N times (enables the resilient training loop)")
    _add_faults_args(p)

    p = sub.add_parser("rollout", help="roll a checkpoint vs ground truth")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--index", type=int, default=-1,
                   help="trajectory index used as ground truth")
    p.add_argument("--steps", type=int, default=None,
                   help="rollout length (default: remaining frames)")
    p.add_argument("--gif", type=Path, default=None)
    p.add_argument("--dtype", choices=["float32", "float64"], default=None,
                   help="inference dtype (default: the checkpoint's "
                        "inference_dtype; float32 is ~2-3x faster with "
                        "~1e-4 relative accuracy)")
    p.add_argument("--fp32", action="store_true",
                   help="alias for --dtype float32")
    p.add_argument("--skin", type=float, default=None,
                   help="Verlet neighbor-cache skin (default 0.25*radius)")
    p.add_argument("--no-fast", action="store_true",
                   help="run the float64 tape oracle instead of the engine "
                        "(no caching/buffers; float64 only)")
    p.add_argument("--timing", action="store_true",
                   help="print per-stage timing breakdown and cache stats")
    p.add_argument("--profile", action="store_true",
                   help="cProfile the rollout and print hotspots")
    p.add_argument("--profile-ops", action="store_true",
                   help="op-level tape profile: re-run a short window on "
                        "the tape path and print the span->op cost tree "
                        "(rows land in --telemetry when set)")
    p.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                   help="write telemetry.jsonl + manifest.json to DIR")
    _add_faults_args(p)

    p = sub.add_parser("invert", help="friction-angle inversion (Sec 5)")
    p.add_argument("--checkpoint", type=Path, required=True,
                   help="material-conditioned GNS checkpoint")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--target-angle", type=float, default=30.0)
    p.add_argument("--initial-angle", type=float, default=45.0)
    p.add_argument("--rollout-steps", type=int, default=10)
    p.add_argument("--iterations", type=int, default=15)
    p.add_argument("--offset", type=int, default=12,
                   help="seed-frame offset into the trajectory")
    p.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                   help="write telemetry.jsonl + manifest.json to DIR")
    _add_faults_args(p)

    p = sub.add_parser("info", help="inspect a dataset or checkpoint")
    p.add_argument("path", type=Path)

    p = sub.add_parser("telemetry", help="inspect telemetry output")
    p.add_argument("action", choices=["summarize", "report", "merge"],
                   help="summarize = text report; report = self-contained "
                        "HTML (flame chart + op table + percentiles); "
                        "merge = combine worker shards into one labeled "
                        "timeline")
    p.add_argument("path", type=Path,
                   help="run directory or telemetry.jsonl file")
    p.add_argument("--output", type=Path, default=None, metavar="FILE",
                   help="output path (report: default report.html next to "
                        "the input, '-' prints the terminal fallback; "
                        "merge: default merged.jsonl in the run dir)")

    p = sub.add_parser("serve", help="simulation-as-a-service front door")
    p.add_argument("action", choices=["run"],
                   help="run = start a service, push a demo workload "
                        "through it and print the stats")
    p.add_argument("--checkpoint", type=Path, default=None,
                   help="checkpoint to serve (default: a synthetic "
                        "deterministic simulator)")
    p.add_argument("--requests", type=int, default=16,
                   help="total demo requests (default 16)")
    p.add_argument("--num-steps", type=int, default=5,
                   help="rollout length per request")
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads in the engine pool")
    p.add_argument("--max-batch", type=int, default=8,
                   help="micro-batch cap while healthy")
    p.add_argument("--attempt-timeout", type=float, default=2.0,
                   help="per-attempt deadline in seconds (0 = unbounded)")
    p.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                   help="write telemetry.jsonl + manifest.json to DIR")
    _add_faults_args(p)

    p = sub.add_parser("lint", help="run the domain static-analysis rules")
    p.add_argument("root", type=Path, nargs="?", default=Path("."),
                   help="repository root (default: cwd)")
    p.add_argument("--strict", action="store_true",
                   help="fail on any fresh violation regardless of severity")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format")
    p.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                   help="JSON baseline of grandfathered violations")
    p.add_argument("--write-baseline", type=Path, default=None,
                   metavar="FILE", help="write the current violations as a "
                   "new baseline and exit 0")
    p.add_argument("--rules", default=None, metavar="IDS",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    return parser


def _open_session(args, **config):
    """A :class:`~repro.obs.TelemetrySession` for ``--telemetry DIR``
    runs, or ``None`` (all instrumentation stays no-op)."""
    if getattr(args, "telemetry", None) is None:
        return None
    from ..obs import TelemetrySession

    return TelemetrySession(args.telemetry, command=args.command,
                            config=config,
                            seed=getattr(args, "seed", None))


# ----------------------------------------------------------------------
def _cmd_simulate(args) -> int:
    if getattr(args, "dtype", "float64") == "float32":
        print("error: MPM simulation (and the training data it produces) "
              "runs in float64; float32 is inference-only — use "
              "'repro rollout --dtype float32'", file=sys.stderr)
        return 2
    from ..data import Trajectory, save_trajectories
    from ..mpm import (
        dam_break, flow_around_obstacle, granular_box_flow,
        granular_column_collapse,
    )

    if args.scenario == "obstacle":
        spec = flow_around_obstacle(cells_per_unit=args.cells_per_unit,
                                    friction_angle=args.friction_angle)
    elif args.scenario == "column":
        spec = granular_column_collapse(friction_angle=args.friction_angle,
                                        cells_per_unit=args.cells_per_unit)
    elif args.scenario == "boxflow":
        spec = granular_box_flow(seed=args.seed,
                                 cells_per_unit=args.cells_per_unit,
                                 friction_angle=args.friction_angle)
    else:
        spec = dam_break(cells_per_unit=args.cells_per_unit)
    import contextlib
    import time

    from ..obs import profile_block

    solver = spec.solver
    dt = solver.stable_dt()
    session = _open_session(args, scenario=args.scenario, steps=args.steps,
                            record_every=args.record_every,
                            friction_angle=args.friction_angle)
    prof = profile_block(limit=15) if args.profile else contextlib.nullcontext()
    t0 = time.perf_counter()
    with prof:
        frames = solver.rollout(args.steps, record_every=args.record_every,
                                dt=dt)
    elapsed = time.perf_counter() - t0
    if args.timing:
        print(f"timing: {elapsed:.3f} s total, "
              f"{args.steps / elapsed:.1f} MPM steps/sec "
              f"({frames.shape[1]} particles)")
    if session is not None:
        from ..obs import check_trajectory

        reg = session.registry
        reg.gauge("simulate.steps_per_sec").set(args.steps / max(elapsed, 1e-12))
        reg.gauge("simulate.particles").set(frames.shape[1])
        reg.gauge("simulate.frames").set(frames.shape[0])
        report = check_trajectory(frames, dt=dt * args.record_every)
        session.record_health(report)
        session.finish(summary={
            "elapsed_wall_seconds": elapsed, "frames": int(frames.shape[0]),
            "particles": int(frames.shape[1]), "health_ok": report.ok})
        print(f"telemetry written to {session.telemetry_path.parent}")
    m = solver.grid.interior_margin()
    bounds = np.array([[m, solver.grid.size[0] - m],
                       [m, solver.grid.size[1] - m]])
    traj = Trajectory(frames, dt=dt * args.record_every,
                      material=args.friction_angle, bounds=bounds,
                      meta=dict(spec.params, scenario=spec.name))
    save_trajectories(args.output, [traj])
    print(f"saved {frames.shape[0]} frames x {frames.shape[1]} particles "
          f"to {args.output}")
    if args.gif is not None:
        _write_trajectory_gif(args.gif, frames, bounds)
    return 0


def _write_trajectory_gif(path, frames, bounds, max_frames: int = 60):
    from ..viz import render_frames, write_gif

    step = max(1, frames.shape[0] // max_frames)
    images = render_frames(frames[::step], bounds, resolution=240,
                           radius_px=2)
    write_gif(path, images, delay_cs=6)
    print(f"wrote animation to {path}")


def _cmd_generate(args) -> int:
    from ..data import generate_box_flow_dataset, save_trajectories

    ds = generate_box_flow_dataset(
        num_trajectories=args.trajectories, steps=args.steps,
        record_every=args.record_every, seed=args.seed,
        cells_per_unit=args.cells_per_unit)
    save_trajectories(args.output, ds)
    print(f"saved {len(ds)} trajectories "
          f"({ds[0].num_steps} frames x {ds[0].num_particles} particles) "
          f"to {args.output}")
    return 0


def _cmd_train(args) -> int:
    from ..data import load_trajectories, normalization_stats
    from ..gns import (
        FeatureConfig, GNSNetworkConfig, GNSTrainer, LearnedSimulator, Stats,
        TrainingConfig, one_step_mse,
    )
    from ..resilience import retry_call
    from ..train import CheckpointCallback, ValidationCallback, build_schedule

    ds = retry_call(load_trajectories, args.dataset,
                    give_up_on=(FileNotFoundError, IsADirectoryError),
                    op="load_trajectories")
    holdout = min(args.holdout, max(len(ds) - 1, 0))
    train_set = ds[:len(ds) - holdout] if holdout else ds
    val_set = ds[len(ds) - holdout:] if holdout else []

    stats = Stats.from_dict(normalization_stats(train_set))
    fc = FeatureConfig(connectivity_radius=args.radius, history=args.history,
                       bounds=train_set[0].bounds,
                       use_material=args.use_material)
    nc = GNSNetworkConfig(latent_size=args.latent,
                          mlp_hidden_size=args.latent, mlp_hidden_layers=2,
                          message_passing_steps=args.message_passing,
                          attention=args.attention)
    sim = LearnedSimulator(fc, nc, stats, rng=np.random.default_rng(args.seed))
    noise = float(np.mean(stats.acceleration_std))
    cfg = TrainingConfig(
        learning_rate=args.learning_rate, noise_std=noise, batch_size=2,
        grad_accum=args.accum, ema_decay=args.ema, seed=args.seed)
    trainer = GNSTrainer(sim, train_set, cfg)
    if args.schedule != "exponential" or args.warmup:
        trainer.schedule = build_schedule(
            args.schedule, init_lr=cfg.learning_rate,
            final_lr=cfg.final_learning_rate, decay_steps=cfg.decay_steps,
            warmup_steps=args.warmup)
    print(f"training {sim.num_parameters()} parameters on "
          f"{len(trainer.windows)} windows (noise={noise:.2e})")

    resumed_from = 0
    if args.resume is not None:
        trainer.restore(args.resume)
        resumed_from = trainer.global_step
        print(f"resumed from step {resumed_from} ({args.resume})")
    remaining = max(args.steps - trainer.global_step, 0)
    if args.resume is not None and remaining == 0:
        print(f"checkpoint already at step {trainer.global_step} >= "
              f"--steps {args.steps}; nothing to train")

    session = _open_session(args, steps=args.steps, latent=args.latent,
                            message_passing=args.message_passing,
                            history=args.history, radius=args.radius,
                            learning_rate=args.learning_rate,
                            noise_std=noise, windows=len(trainer.windows),
                            schedule=args.schedule, accum=args.accum,
                            ema=args.ema, resumed_from=resumed_from)

    ckpt_dir = args.checkpoint_dir or args.output.with_suffix(
        args.output.suffix + ".ckpt")
    every = args.checkpoint_every or max(args.steps // 4, 1)
    callbacks = [CheckpointCallback(ckpt_dir, every=every)]
    logger = None
    if val_set:
        def validate(tr) -> float:
            total = 0.0
            for traj in val_set:
                total += one_step_mse(sim, traj, max_windows=10)
            return total / max(len(val_set), 1)

        val_cb = ValidationCallback(validate,
                                    every=max(args.steps // 5, 1))
        callbacks.append(val_cb)
        logger = val_cb.logger
    if args.max_recoveries is not None:
        from ..resilience import RecoveryPolicy, train_with_recovery

        train_with_recovery(
            trainer, args.steps, ckpt_dir, callbacks=callbacks,
            policy=RecoveryPolicy(max_recoveries=args.max_recoveries),
            verbose=True)
    else:
        trainer.fit(remaining, callbacks=callbacks)

    losses = trainer.loss_history
    # recovery keeps non-finite losses in the history (telemetry wants
    # the truth), so summary statistics must look at the finite tail
    finite_losses = [ls for ls in losses if np.isfinite(ls)]
    final_loss = (float(np.mean(finite_losses[-10:]))
                  if finite_losses else float("nan"))
    if logger is not None and logger.rows:
        for row in logger.rows:
            print(f"  step {int(row['step'])}: train={row['train_loss']:.4f} "
                  f"val={row['val_mse']:.4f}")
        if args.metrics is not None:
            logger.to_csv(args.metrics)
    elif losses:
        print(f"  loss {losses[0]:.4f} -> {final_loss:.4f}")
    if session is not None:
        from ..obs import check_loss_curve

        session.registry.gauge("train.final_loss").set(final_loss)
        health = check_loss_curve(losses)
        session.record_health(health)
        session.finish(summary={
            "steps": trainer.global_step,
            "resumed_from": resumed_from,
            "initial_loss": losses[0] if losses else None,
            "final_loss": final_loss if finite_losses else None,
            "parameters": sim.num_parameters(),
            "health_ok": health.ok})
        print(f"telemetry written to {session.telemetry_path.parent}")
    sim.save(args.output)
    print(f"saved checkpoint to {args.output} "
          f"(resumable states in {ckpt_dir})")
    return 0


def _cmd_rollout(args) -> int:
    from ..analysis import compare_trajectories
    from ..data import load_trajectories
    from ..gns import LearnedSimulator
    from ..resilience import retry_call

    sim = LearnedSimulator.load(args.checkpoint)
    if args.fp32:
        if args.dtype == "float64":
            print("error: --fp32 conflicts with --dtype float64",
                  file=sys.stderr)
            return 2
        args.dtype = "float32"
    if args.no_fast and args.dtype == "float32":
        print("error: --no-fast runs the float64 tape oracle; it conflicts "
              "with --dtype float32", file=sys.stderr)
        return 2
    if args.dtype is not None:
        # the entry point of the fp32 inference mode (per-file allowlists
        # live in LintConfig.fp32_allowlist / the fp32-ok pragma)
        sim.inference_dtype = np.dtype(args.dtype)
    ds = retry_call(load_trajectories, args.dataset,
                    give_up_on=(FileNotFoundError, IsADirectoryError),
                    op="load_trajectories")
    traj = ds[args.index]
    c = sim.feature_config.history
    steps = args.steps if args.steps is not None else traj.num_steps - (c + 1)
    seed = traj.positions[:c + 1]
    material = traj.material if sim.feature_config.use_material else None

    import contextlib
    import time

    from ..obs import profile_block

    session = _open_session(args, checkpoint=str(args.checkpoint),
                            dataset=str(args.dataset), index=args.index,
                            steps=steps, fast=not args.no_fast,
                            skin=args.skin, fp32=(args.dtype == "float32"))
    if session is not None:
        session.dtype = np.dtype(sim.inference_dtype).name
    engine = sim.engine(args.skin) if not args.no_fast else None
    engine_mark = engine.tracer.snapshot() if engine is not None else None
    if engine is not None and session is not None:
        # per-graph edge-count histogram lands in the session registry
        engine.metrics = session.registry
    prof = profile_block(limit=15) if args.profile else contextlib.nullcontext()
    t0 = time.perf_counter()
    with prof:
        predicted = sim.rollout(seed, steps, material=material,
                                particle_types=traj.particle_types,
                                fast=not args.no_fast, skin=args.skin)
    elapsed = time.perf_counter() - t0
    report = compare_trajectories(predicted, traj.positions)
    print(report.as_text())
    if args.timing:
        print(f"timing: {elapsed:.3f} s total, {steps / elapsed:.1f} steps/sec "
              f"({seed.shape[1]} particles)")
        if engine is not None:
            for stage, t in engine.timings(scope=engine_mark).items():
                if t["count"]:
                    share = 100.0 * t["total"] / max(elapsed, 1e-12)
                    print(f"  {stage:<10} {t['total']:8.3f} s  "
                          f"({t['mean'] * 1e3:7.3f} ms/step, {share:4.1f}%)")
            cs = engine.cache_stats()
            print(f"  neighbor cache: {cs['builds']} builds / "
                  f"{cs['queries']} queries (hit rate {cs['hit_rate']:.1%}, "
                  f"skin {cs['skin']:g})")
    if args.profile_ops:
        from ..obs import format_op_tree, profiled_rollout

        # short tape-path window: the fast path is pure NumPy (no tape
        # ops), so op attribution reruns the Tensor path under no_grad
        prof_steps = min(steps, 5)
        _, tape_prof, span_stats = profiled_rollout(
            sim, seed, prof_steps, material=material,
            particle_types=traj.particle_types)
        print(f"\nop profile ({prof_steps} tape-path steps):")
        print(format_op_tree(tape_prof.rows(), span_stats))
        if session is not None:
            session.add_profiler(tape_prof)
    if session is not None:
        from ..obs import check_trajectory, default_monitors

        reg = session.registry
        reg.gauge("rollout.steps_per_sec").set(steps / max(elapsed, 1e-12))
        reg.gauge("rollout.particles").set(seed.shape[1])
        reg.gauge("rollout.mean_error").set(report.mean_error)
        reg.gauge("rollout.final_error").set(report.final_error)
        if engine is not None:
            session.add_tracer(engine.tracer, prefix="gns/",
                               since=engine_mark)
            cs = engine.cache_stats()
            reg.gauge("cache.hit_rate").set(cs["hit_rate"])
            reg.gauge("cache.builds").set(cs["builds"])
            reg.gauge("cache.queries").set(cs["queries"])
        health = check_trajectory(
            predicted, default_monitors(reference=traj.positions),
            dt=traj.dt)
        session.record_health(health)
        session.finish(summary={
            "elapsed_wall_seconds": elapsed, "steps": steps,
            "particles": int(seed.shape[1]),
            "mean_error": report.mean_error,
            "final_error": report.final_error, "health_ok": health.ok})
        print(f"telemetry written to {session.telemetry_path.parent}")
    if args.gif is not None and traj.bounds is not None:
        _write_trajectory_gif(args.gif, predicted, traj.bounds)
    return 0


def _cmd_invert(args) -> int:
    from ..data import load_trajectories
    from ..gns import LearnedSimulator
    from ..inverse import RunoutInverseProblem

    sim = LearnedSimulator.load(args.checkpoint)
    ds = load_trajectories(args.dataset)
    traj = min(ds, key=lambda t: abs(t.material - args.target_angle))
    c = sim.feature_config.history
    off = min(args.offset, traj.num_steps - (c + 1) - args.rollout_steps)
    off = max(off, 0)
    seed = traj.positions[off:off + c + 1]
    toe_x = traj.meta.get("toe_x", float(seed[-1][:, 0].max()))
    problem = RunoutInverseProblem(sim, seed, target_runout=0.0, toe_x=toe_x,
                                   rollout_steps=args.rollout_steps,
                                   temperature=0.01)
    problem.target_runout = problem.target_from_angle(args.target_angle)
    print(f"target runout (phi={args.target_angle:g}): "
          f"{problem.target_runout:+.4f} m")
    session = _open_session(args, target_angle=args.target_angle,
                            initial_angle=args.initial_angle,
                            rollout_steps=args.rollout_steps,
                            iterations=args.iterations)
    record = problem.solve(
        args.initial_angle, lr="auto", initial_step=4.0,
        max_iterations=args.iterations,
        callback=lambda it, phi, loss, grad:
            print(f"  iter {it:2d}: phi={phi:6.2f}  J={loss:.3e}"))
    print(f"result: phi* = {record.final_parameter:.2f} deg "
          f"(target {args.target_angle:g})")
    if session is not None:
        reg = session.registry
        reg.gauge("inverse.final_parameter").set(record.final_parameter)
        reg.gauge("inverse.final_loss").set(record.losses[-1])
        session.finish(summary={
            "converged": record.converged, "iterations": record.iterations,
            "final_parameter": record.final_parameter,
            "target_angle": args.target_angle,
            "final_loss": record.losses[-1]})
        print(f"telemetry written to {session.telemetry_path.parent}")
    return 0


def _cmd_info(args) -> int:
    from ..data import load_checkpoint, load_trajectories

    with np.load(args.path, allow_pickle=False) as data:
        files = set(data.files)
    if "count" in files:
        ds = load_trajectories(args.path)
        print(f"dataset: {len(ds)} trajectories")
        for i, t in enumerate(ds):
            print(f"  [{i}] {t.num_steps} frames x {t.num_particles} "
                  f"particles, dt={t.dt:.3e}, material={t.material:g}, "
                  f"scenario={t.meta.get('scenario', '?')}")
    elif "extra" in files:
        state, extra = load_checkpoint(args.path)
        n_params = sum(int(np.asarray(v).size) for v in state.values())
        print(f"checkpoint: {len(state)} tensors, {n_params} parameters")
        nc = extra.get("network_config", {})
        fc = extra.get("feature_config", {})
        print(f"  network: latent={nc.get('latent_size')}, "
              f"mp_steps={nc.get('message_passing_steps')}, "
              f"attention={nc.get('attention')}")
        print(f"  features: history={fc.get('history')}, "
              f"radius={fc.get('connectivity_radius')}, "
              f"material={fc.get('use_material')}")
    else:
        print("unrecognized npz layout")
        return 1
    return 0


def _cmd_telemetry(args) -> int:
    from ..obs import summarize_telemetry

    try:
        if args.action == "summarize":
            print(summarize_telemetry(args.path))
        elif args.action == "report":
            if args.output is not None and str(args.output) == "-":
                from ..obs import read_manifest, render_text
                from ..obs.session import read_telemetry_tolerant

                rows, skipped = read_telemetry_tolerant(args.path)
                print(render_text(rows, read_manifest(args.path),
                                  skipped_lines=skipped))
            else:
                from ..obs import write_report

                out = write_report(args.path, output=args.output)
                print(f"report written to {out}")
        elif args.action == "merge":
            from ..obs import merge_worker_telemetry

            path, rows, skipped = merge_worker_telemetry(
                args.path, output=args.output)
            note = f" ({skipped} corrupt line(s) skipped)" if skipped else ""
            print(f"merged {len(rows)} row(s) into {path}{note}")
    except FileNotFoundError as err:
        print(f"error: {err}")
        return 1
    return 0


def _cmd_serve(args) -> int:
    from ..gns import LearnedSimulator
    from ..serve import RolloutRequest, ServeConfig, ServeError, \
        SimulationService
    from ..serve.synthetic import synthetic_seed, synthetic_simulator

    attempt_timeout = args.attempt_timeout or None
    session = _open_session(args, action=args.action,
                            workers=args.workers, max_batch=args.max_batch,
                            num_steps=args.num_steps)

    if args.checkpoint is not None:
        sim = LearnedSimulator.load(args.checkpoint)
    else:
        sim = synthetic_simulator()
    seed = synthetic_seed(sim)
    use_material = sim.feature_config.use_material
    service = SimulationService(sim, ServeConfig(
        num_workers=args.workers, max_batch=args.max_batch,
        attempt_timeout=attempt_timeout))
    futures = []
    rejected = 0
    for i in range(args.requests):
        request = RolloutRequest(
            seed_frames=seed, num_steps=args.num_steps,
            material=float(20 + i % 8) if use_material else None)
        try:
            futures.append(service.submit(request))
        except ServeError as err:
            rejected += 1
            print(f"  rejected: {err}")
    completed = failed = 0
    for fut in futures:
        try:
            fut.result(timeout=60.0)
            completed += 1
        except ServeError as err:
            failed += 1
            print(f"  failed: {err}")
    stats = service.stats()
    service.close()
    counts = stats["counts"]
    print(f"served {completed} ok, {failed} failed, {rejected} rejected "
          f"({counts['cache_hits']} cache hit(s), "
          f"{counts['worker_respawns']} respawn(s), "
          f"breaker {stats['breaker']['state']})")
    if session is not None:
        session.finish(summary={"completed": completed, "failed": failed,
                                "rejected": rejected,
                                "counts": counts})
        print(f"telemetry written to {session.telemetry_path.parent}")
    return 0


def _cmd_lint(args) -> int:
    from ..lint import (LintConfig, iter_rules, load_baseline, run_lint,
                        write_baseline)

    if args.list_rules:
        # force rule registration, then print the catalog
        run_lint(LintConfig(root=args.root), rules=[], sources=[])
        for r in iter_rules():
            print(f"{r.id}  [{r.scope:>7}]  {r.name}")
        return 0
    baseline = None
    if args.baseline is not None and args.baseline.exists():
        baseline = load_baseline(args.baseline)
    rules = ([s.strip() for s in args.rules.split(",") if s.strip()]
             if args.rules else None)
    report = run_lint(LintConfig(root=args.root, strict=args.strict),
                      rules=rules, baseline=baseline)
    if args.write_baseline is not None:
        write_baseline(args.write_baseline, report)
        print(f"wrote baseline with {len(report.violations)} violation(s) "
              f"to {args.write_baseline}")
        return 0
    print(report.as_json() if args.format == "json" else report.as_text())
    return report.exit_code(strict=args.strict)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
    "train": _cmd_train,
    "rollout": _cmd_rollout,
    "invert": _cmd_invert,
    "info": _cmd_info,
    "telemetry": _cmd_telemetry,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "faults", None):
        from ..resilience import arm_faults

        arm_faults(args.faults, seed=args.faults_seed)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
