"""The suite's five workloads.

Each workload owns its input generator, a set-up that warms engines and
caches, a timed *op* (its unit of work), and the correctness gates whose
failures count as failed operations rather than crashes. ``--seed``
varies only the generated inputs; network weights come from fixed seeds,
like a checkpoint, and are untrained: what a step costs does not depend
on the weights, and trained-model quality stays with the E4/E5
experiments in ``EXPERIMENTS.md``. Sizes are constructor arguments so
the smoke test can run every workload in miniature.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.autodiff import Tensor
from repro.data import Trajectory, generate_box_flow_dataset, normalization_stats
from repro.gns import (
    FeatureConfig, GNSNetworkConfig, GNSTrainer, InferenceEngine,
    LearnedSimulator, Stats, TrainingConfig,
)
from repro.hybrid import FixedSchedule, HybridSimulator, final_displacement_error
from repro.inverse import RunoutInverseProblem
from repro.mpm import granular_column_collapse
from repro.serve import RolloutRequest, ServeConfig, ServeError, SimulationService

#: edge radius of every particle graph, in particle spacings
RADIUS_SPACINGS = 2.33
#: weight seed of every network (a fixed "checkpoint")
MODEL_SEED = 0
#: max |x_fp32 - x_f64| over the timed rollout (as bench_fastpath)
FP32_DRIFT_TOL = 5e-3
#: column particles are jittered by up to this many spacings per seed
JITTER = 0.05
UNIT_BOX = np.array([[0.0, 1.0], [0.0, 1.0]])
#: every run times at least this many units, however long they take
MIN_UNITS = 3


@dataclass
class Measurement:
    """What one workload run measured.

    ``samples`` are per-op wall times of the units run with the layer
    wrappers disarmed (every unit of an untraced run); ``ops``/``busy``
    are the ops those units completed and the seconds they took. The
    ``armed_*`` fields are the same for the units a traced run armed.
    """

    op: str
    #: how ``op_ms`` summarises ``samples``: "median" or "mean"
    statistic: str = "median"
    samples: list = field(default_factory=list)
    ops: int = 0
    busy: float = 0.0
    armed_samples: list = field(default_factory=list)
    armed_ops: int = 0
    armed_busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    #: printed alongside the metrics, not gated
    detail: dict = field(default_factory=dict)
    #: per-layer values the workload reads from the program's results
    layer: dict = field(default_factory=dict)

    def add(self, seconds: float, ops: int, samples, armed: bool) -> None:
        if armed:
            self.armed_busy += seconds
            self.armed_ops += ops
            self.armed_samples.extend(samples)
        else:
            self.busy += seconds
            self.ops += ops
            self.samples.extend(samples)

    def attempt(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempt(ok)
        self.checks.append((name, bool(ok), detail))


def repeat_for(seconds: float, unit, layers) -> list:
    """Run ``unit()`` until ``seconds`` have passed (at least
    ``MIN_UNITS`` times). In a traced run every second unit runs with the
    layer wrappers armed, so both halves see the same warm state.
    Returns ``[(elapsed, armed, result), ...]``."""
    units = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
        armed = layers is not None and len(units) % 2 == 1
        with layers.armed() if armed else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = unit()
            elapsed = time.perf_counter() - t0
        if armed:
            layers.sample_gemm()
        units.append((elapsed, armed, result))
    return units


class Workload:
    """A named workload: ``setup(seed) -> state``, ``measure(state,
    seconds, layers) -> Measurement``, ``teardown(state)``."""

    name: str

    def teardown(self, state) -> None:
        """Release what ``setup`` started (threads, services)."""


def _gns(radius: float, history: int, latent: int, blocks: int, stats: Stats,
         bounds=None, material: bool = False) -> LearnedSimulator:
    features = FeatureConfig(connectivity_radius=radius, history=history,
                             bounds=bounds, use_material=material)
    network = GNSNetworkConfig(latent_size=latent, mlp_hidden_size=latent,
                               mlp_hidden_layers=2,
                               message_passing_steps=blocks)
    return LearnedSimulator(features, network, stats,
                            rng=np.random.default_rng(MODEL_SEED))


def _jitter(solver, seed: int, spacing: float) -> None:
    """Perturb particle positions by the seed without changing their
    count, so every seed costs the same work."""
    rng = np.random.default_rng(seed)
    pos = solver.particles.positions
    pos += rng.uniform(-JITTER, JITTER, pos.shape) * spacing


def _box(spec) -> np.ndarray:
    """Wall coordinates of a scenario's domain as featurizer bounds."""
    width, height = spec.params["domain"]
    return np.array([[0.0, width], [0.0, height]])


# ----------------------------------------------------------------------
class ForwardBed(Workload):
    """Production fast path on one large graph: fp32 rollouts of a
    settled granular bed through ``LearnedSimulator.rollout``."""

    name = "forward-4k"
    material = 30.0
    history = 5

    def __init__(self, n_side: int = 64, steps: int = 30,
                 warm_steps: int = 5, check_steps: int = 3,
                 latent: int = 32, blocks: int = 5):
        self.n_side, self.steps = n_side, steps
        self.warm_steps, self.check_steps = warm_steps, check_steps
        self.latent, self.blocks = latent, blocks

    def setup(self, seed: int):
        """Jittered square lattice with a slow coherent velocity field,
        so the Verlet cache sees GNS-realistic motion per step."""
        rng = np.random.default_rng(seed)
        spacing = 1.0 / (self.n_side + 1)
        xs = (np.arange(self.n_side) + 1) * spacing
        grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        x0 = grid + rng.uniform(-0.15, 0.15, grid.shape) * spacing
        # tiny acceleration scale: untrained outputs perturb the velocity
        # field without blowing the trajectory up
        vel_scale = 0.03 * spacing
        velocity = rng.normal(0.0, vel_scale, size=x0.shape)
        frames = x0 + velocity * np.arange(self.history + 1)[:, None, None]
        stats = Stats(np.zeros(2), np.full(2, vel_scale), np.zeros(2),
                      np.full(2, 0.02 * vel_scale))
        sim = _gns(RADIUS_SPACINGS * spacing, self.history, self.latent,
                   self.blocks, stats, bounds=UNIT_BOX, material=True)
        sim.rollout(frames, self.warm_steps, material=self.material,
                    dtype=np.float32)
        return sim, frames

    def measure(self, state, seconds: float, layers) -> Measurement:
        sim, frames = state
        m = Measurement(op=f"rollout step ({self.steps}-step fp32 rollouts "
                           f"of {frames.shape[1]} particles)")
        units = repeat_for(seconds, lambda: sim.rollout(
            frames, self.steps, material=self.material, dtype=np.float32),
            layers)
        first = units[0][2]
        for elapsed, armed, out in units:
            m.add(elapsed, self.steps, [elapsed / self.steps], armed)
            # the engine is deterministic: every rollout, traced or not,
            # must reproduce the first bit for bit
            m.attempt(np.isfinite(out).all() and np.array_equal(out, first))

        ref64 = sim.rollout(frames, self.steps, material=self.material,
                            dtype=np.float64)
        naive = sim.rollout(frames, self.check_steps, material=self.material,
                            fast=False)
        m.check("f64 engine == fast=False", np.array_equal(
            ref64[:naive.shape[0]], naive),
            f"{self.check_steps} steps, bitwise")
        drift = float(np.max(np.abs(first - ref64)))
        m.check("fp32 drift", drift < FP32_DRIFT_TOL,
                f"{drift:.2e} < {FP32_DRIFT_TOL:g} over {self.steps} steps")
        return m


# ----------------------------------------------------------------------
class HybridColumn(Workload):
    """E4 on a column collapse: each op runs the pure-MPM reference and
    the hybrid GNS/MPM run over the same frames from the same state."""

    name = "hybrid-column"
    frame_seconds = 2.5e-3

    def __init__(self, cells_per_unit: int = 32, frames: int = 12,
                 schedule: tuple = (6, 4, 1), latent: int = 32,
                 blocks: int = 5):
        self.cells, self.frames = cells_per_unit, frames
        self.schedule = schedule
        self.latent, self.blocks = latent, blocks

    def setup(self, seed: int):
        spec = granular_column_collapse(
            aspect_ratio=1.0, column_width=0.5, cells_per_unit=self.cells,
            particles_per_cell=2, youngs_modulus=5e7)
        solver = spec.solver
        spacing = 0.5 / self.cells
        _jitter(solver, seed, spacing)
        snapshot = solver.snapshot()
        substeps = max(1, round(self.frame_seconds / solver.stable_dt()))
        warmup, gns_frames, refine = self.schedule
        stats = Stats(np.zeros(2), np.full(2, 1e-3), np.zeros(2),
                      np.full(2, 1e-5))
        gns = _gns(RADIUS_SPACINGS * spacing, warmup - 1, self.latent,
                   self.blocks, stats, bounds=_box(spec))
        gns.inference_dtype = np.float32
        hybrid = HybridSimulator(gns, solver,
                                 FixedSchedule(warmup, gns_frames, refine),
                                 substeps=substeps)
        still = np.repeat(solver.particles.positions[None], warmup, axis=0)
        gns.rollout(still, 2)
        return hybrid, snapshot

    def measure(self, state, seconds: float, layers) -> Measurement:
        hybrid, snapshot = state

        def rep():
            hybrid.mpm.restore(snapshot)
            reference, mpm_seconds = hybrid.run_pure_mpm(self.frames)
            hybrid.mpm.restore(snapshot)
            result = hybrid.run(self.frames)
            return (mpm_seconds, result,
                    final_displacement_error(result.frames, reference))

        n = hybrid.mpm.particles.positions.shape[0]
        m = Measurement(op=f"E4 rep: pure MPM + hybrid over {self.frames} "
                           f"frames of {n} particles, "
                           f"{hybrid.substeps} substeps/frame")
        units = repeat_for(seconds, rep, layers)
        first_error = units[0][2][2]
        e2, e4, shares = [], [], []
        for elapsed, armed, (mpm_seconds, result, error) in units:
            m.add(elapsed, 1, [elapsed], armed)
            # every rep starts from the same state: the error is exact
            m.attempt(np.isfinite(error) and error == first_error)
            shares.append(result.gns_time / result.total_time)
            if not armed:
                e2.append((mpm_seconds / self.frames)
                          / (result.gns_time / result.gns_frames))
                e4.append(mpm_seconds / result.total_time)
        m.detail.update({
            "E2 GNS-vs-MPM per-frame speedup": statistics.median(e2),
            "E4 hybrid speedup over pure MPM": statistics.median(e4),
            "final-frame error vs MPM (m)": first_error,
        })
        result = units[-1][2][1]
        m.layer.update({
            "hybrid.gns_share": statistics.median(shares),
            "hybrid.gns_frames": result.gns_frames,
            "hybrid.mpm_frames": result.mpm_frames,
            "hybrid.error_m": first_error,
            "hybrid.e2_speedup": statistics.median(e2),
            "hybrid.e4_speedup": statistics.median(e4),
        })
        return m


# ----------------------------------------------------------------------
class _Solved(Exception):
    """Raised by the solve callback at the first iterate in tolerance."""


class InverseRunout(Workload):
    """E5: friction angle from a target runout by AD through a k-step
    differentiable rollout; each op is one gradient-descent iteration."""

    name = "inverse-runout"
    phi0 = 45.0
    tolerance = 0.5
    record_every = 8
    history = 3
    max_iterations = 20
    #: lr="auto" moves the first iterate this far; with these untrained
    #: weights a 4 degree first step left phi* <= 30 unsolved in 20
    initial_step = 12.0

    def __init__(self, cells_per_unit: int = 32, rollout_steps: int = 20,
                 warm_frames: int = 30, latent: int = 24, blocks: int = 3):
        self.cells, self.rollout_steps = cells_per_unit, rollout_steps
        self.warm_frames = warm_frames
        self.latent, self.blocks = latent, blocks

    def setup(self, seed: int):
        phi_star = float(np.random.default_rng([seed, 1]).uniform(28.0, 32.0))
        spec = granular_column_collapse(
            aspect_ratio=0.8, column_width=0.3, cells_per_unit=self.cells,
            friction_angle=30.0)
        spacing = 0.5 / self.cells
        _jitter(spec.solver, seed, spacing)
        frames = spec.solver.rollout(self.warm_frames * self.record_every,
                                     record_every=self.record_every)
        bounds = _box(spec)
        stats = Stats.from_dict(normalization_stats(
            [Trajectory(positions=frames, dt=1.0, bounds=bounds)]))
        sim = _gns(RADIUS_SPACINGS * spacing, self.history, self.latent,
                   self.blocks, stats, bounds=bounds, material=True)
        problem = RunoutInverseProblem(
            sim, frames[-(self.history + 1):], target_runout=0.0,
            toe_x=spec.params["toe_x"], rollout_steps=self.rollout_steps,
            temperature=0.01)
        problem.target_runout = problem.target_from_angle(phi_star)
        problem.loss(Tensor(np.array(self.phi0), requires_grad=True)).backward()
        return problem, phi_star

    def measure(self, state, seconds: float, layers) -> Measurement:
        problem, phi_star = state

        def solve():
            marks = [time.perf_counter()]

            def callback(it, phi, loss, grad):
                marks.append(time.perf_counter())
                if abs(phi - phi_star) < self.tolerance:
                    raise _Solved
            try:
                problem.solve(self.phi0, lr="auto",
                              initial_step=self.initial_step,
                              max_iterations=self.max_iterations,
                              callback=callback)
            except _Solved:
                return list(np.diff(marks)), True
            return list(np.diff(marks)), False

        n = problem.initial_history.shape[1]
        m = Measurement(op=f"gradient-descent iteration (loss + backward "
                           f"through {self.rollout_steps} steps of {n} "
                           f"particles)")
        units = repeat_for(seconds, solve, layers)
        iterations, solve_seconds = [], []
        for elapsed, armed, (times, solved) in units:
            m.add(elapsed, len(times), times, armed)
            m.attempt(solved)
            iterations.append(len(times))
            if not armed:
                solve_seconds.append(elapsed)
        m.checks.append(("solves reach tolerance", m.failed == 0,
                         f"|phi - {phi_star:.3f}| < {self.tolerance} within "
                         f"{self.max_iterations} iterations in "
                         f"{m.attempted - m.failed}/{m.attempted} solves"))
        m.detail.update({
            "target phi* (deg)": phi_star,
            "time to solution (s, median)": statistics.median(solve_seconds),
            "iterations per solve": iterations,
        })
        m.layer["inverse.iterations"] = statistics.mean(iterations)
        return m


# ----------------------------------------------------------------------
class TrainBox(Workload):
    """GNS training steps on a small box-flow dataset: many short tapes,
    weight gradients and Adam."""

    name = "train-box"
    #: losses after the warm step a fresh trainer must repeat bitwise
    repeat_steps = 2

    def __init__(self, trajectories: int = 2, steps: int = 200,
                 record_every: int = 10, cells_per_unit: int = 40,
                 history: int = 5, latent: int = 32, blocks: int = 5):
        self.trajectories, self.steps = trajectories, steps
        self.record_every, self.cells = record_every, cells_per_unit
        self.history, self.latent, self.blocks = history, latent, blocks

    def trainer(self, dataset, seed: int) -> GNSTrainer:
        stats = Stats.from_dict(normalization_stats(dataset))
        spacing = 0.5 / self.cells
        sim = _gns(RADIUS_SPACINGS * spacing, self.history, self.latent,
                   self.blocks, stats, bounds=dataset[0].bounds)
        return GNSTrainer(sim, dataset, TrainingConfig(
            learning_rate=5e-4, noise_std=float(np.mean(stats.acceleration_std)),
            batch_size=2, seed=seed))

    def setup(self, seed: int):
        # the dataset is fixed (like a checkpoint); the seed drives batch
        # sampling and noise, so every seed trains on the same particles
        dataset = generate_box_flow_dataset(
            num_trajectories=self.trajectories, steps=self.steps,
            record_every=self.record_every, seed=0,
            cells_per_unit=self.cells, youngs_modulus=5e7)
        trainer = self.trainer(dataset, seed)
        trainer.train_step()
        return dataset, trainer, seed

    def measure(self, state, seconds: float, layers) -> Measurement:
        dataset, trainer, seed = state
        sizes = "+".join(str(t.num_particles) for t in dataset)
        m = Measurement(op=f"train_step (batch 2 of {len(trainer.windows)} "
                           f"windows, {sizes} particles)")
        for elapsed, armed, loss in repeat_for(seconds, trainer.train_step,
                                               layers):
            m.add(elapsed, 1, [elapsed], armed)
            m.attempt(np.isfinite(loss))
        fresh = self.trainer(dataset, seed)
        count = 1 + self.repeat_steps
        again = [fresh.train_step() for _ in range(count)]
        m.check("losses repeat for the seed",
                again == trainer.loss_history[:count],
                f"first {count} losses bitwise")
        return m


# ----------------------------------------------------------------------
class RequestStream:
    """Deterministic rollout requests: request ``i`` of seed ``s`` is
    drawn from its own ``default_rng([s, i])`` stream, whatever the
    timing; every request has its own material."""

    def __init__(self, seed: int, particles: int, steps: int, history: int):
        self.seed, self.particles = seed, particles
        self.steps, self.history = steps, history
        self.index = 0

    def next(self) -> RolloutRequest:
        rng = np.random.default_rng([self.seed, self.index])
        self.index += 1
        x0 = rng.uniform(0.25, 0.75, size=(self.particles, 2))
        walk = rng.normal(0.0, 5e-4, size=(self.history, self.particles, 2))
        frames = np.concatenate([x0[None], x0 + np.cumsum(walk, axis=0)])
        return RolloutRequest(seed_frames=frames, num_steps=self.steps,
                              material=float(rng.uniform(20.0, 45.0)))


class ServeNoCache(Workload):
    """``SimulationService`` with the result cache off: a closed-loop
    phase for throughput, then an open-loop phase at a fixed rate for
    latency, all load from one generator thread."""

    name = "serve-nocache"
    history = 3
    timeout = 15.0
    #: closed-loop clients; the closed loop takes this share of the run
    outstanding = 8
    closed_share = 0.5

    def __init__(self, particles: int = 128, steps: int = 10,
                 warm_requests: int = 16, rate: float = 20.0,
                 latent: int = 24, blocks: int = 2):
        self.particles, self.steps = particles, steps
        self.warm_requests, self.rate = warm_requests, rate
        self.latent, self.blocks = latent, blocks

    def setup(self, seed: int):
        stats = Stats(np.zeros(2), np.full(2, 0.01), np.zeros(2),
                      np.full(2, 2e-4))
        sim = _gns(0.15, self.history, self.latent, self.blocks, stats,
                   bounds=UNIT_BOX, material=True)
        service = SimulationService(sim, ServeConfig(
            max_queue=256, max_batch=8, num_workers=2, cache_capacity=0,
            engine_dtype=np.float32))
        stream = RequestStream(seed, self.particles, self.steps, self.history)
        for future in [service.submit(stream.next())
                       for _ in range(self.warm_requests)]:
            future.result(timeout=self.timeout)
        return service, sim, stream

    def teardown(self, state) -> None:
        # every request was accounted for; nothing is left to drain
        state[0].close(drain=False)

    def _closed_loop(self, service, stream, seconds: float, served: list):
        """Keep ``outstanding`` requests in flight for ``seconds``;
        returns (completed, elapsed, rejected, failed)."""
        pending: dict = {}
        rejected = failed = completed = 0
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            while len(pending) < self.outstanding and \
                    time.perf_counter() < deadline:
                request = stream.next()
                try:
                    pending[service.submit(request)] = request
                except ServeError:
                    rejected += 1
            if not pending:
                break
            done, _ = cf.wait(pending, timeout=self.timeout,
                              return_when=cf.FIRST_COMPLETED)
            if not done:
                failed += len(pending)
                break
            for future in done:
                request = pending.pop(future)
                try:
                    served.append((request, future.result()))
                    completed += 1
                except ServeError:
                    failed += 1
        return completed, time.perf_counter() - start, rejected, failed

    def _open_loop(self, service, stream, seconds: float, served: list):
        """Send at ``rate`` for ``seconds``, timing each request from
        when it was due; returns (latencies, late, rejected, failed)."""
        latencies, futures = [], {}
        late = rejected = failed = 0
        start = time.perf_counter() + 0.01
        for i in range(max(1, int(self.rate * seconds))):
            due = start + i / self.rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            elif -wait > 1e-3:
                late += 1
            request = stream.next()
            try:
                future = service.submit(request)
            except ServeError:
                rejected += 1
                continue
            future.add_done_callback(
                lambda f, due=due: latencies.append(time.perf_counter() - due))
            futures[future] = request
        done, lost = cf.wait(futures, timeout=self.timeout)
        failed += len(lost)
        for future in done:
            try:
                served.append((futures[future], future.result()))
            except ServeError:
                failed += 1
        return latencies, late, rejected, failed

    def measure(self, state, seconds: float, layers) -> Measurement:
        service, sim, stream = state
        # request latency on a shared host alternates between two levels
        # for seconds at a time; the median of such a sample jumps between
        # them, the mean moves with the share of time spent in each
        m = Measurement(op=f"request ({self.particles} particles, "
                           f"{self.steps} steps; mean latency at "
                           f"{self.rate:g} req/s, throughput closed-loop "
                           f"with {self.outstanding} outstanding)",
                        statistic="mean")
        served: list = []
        closed = seconds * self.closed_share
        # a traced run alternates armed and plain quarters of the closed
        # loop (the overhead estimate) and arms the whole open loop
        blocks = 4 if layers is not None else 1
        rates = {False: [], True: []}
        rejected = failed = 0
        for b in range(blocks):
            armed = layers is not None and b % 2 == 1
            with layers.armed() if armed else contextlib.nullcontext():
                completed, elapsed, *errors = self._closed_loop(
                    service, stream, closed / blocks, served)
            if armed:
                layers.sample_gemm()
            rates[armed].append(completed / elapsed)
            m.add(elapsed, completed, [], armed)
            rejected += errors[0]
            failed += errors[1]
        with layers.armed() if layers is not None else contextlib.nullcontext():
            latencies, late, *errors = self._open_loop(
                service, stream, seconds - closed, served)
        if layers is None:
            # latency only: throughput is the closed loop's
            m.samples.extend(latencies)
        else:
            m.add(seconds - closed, len(latencies), latencies, armed=True)
        rejected += errors[0]
        failed += errors[1]
        m.attempted = len(served) + rejected + failed
        m.failed = rejected + failed

        if not served or not latencies:
            m.check("requests complete", False, "no request completed")
            return m
        # batched responses must equal a solo rollout bit for bit
        request, response = max(served, key=lambda rr: rr[1].batch_size)
        solo = InferenceEngine(sim, dtype=np.float32).rollout_batch(
            request.seed_frames[None], request.num_steps,
            materials=[request.material])[0]
        m.check("served == solo rollout_batch",
                np.array_equal(response.frames, solo),
                f"request from a batch of {response.batch_size}, bitwise")

        p50, p95 = (float(p) for p in np.percentile(
            np.asarray(latencies) * 1e3, [50, 95]))
        m.detail.update({"closed-loop req/s": rates[False],
                         "open-loop p50/p95 ms": [p50, p95],
                         "late sends": late})
        m.layer.update({
            "serve.batch_mean": statistics.mean(
                r.batch_size for _, r in served),
            "serve.tail_ratio": p95 / p50,
            "serve.rejected": rejected,
            "serve.late_sends": late,
        })
        if layers is not None:
            m.layer["trace.overhead_frac"] = (
                statistics.median(rates[False])
                / statistics.median(rates[True]) - 1.0)
            m.layer.update(layers.serve_values())
        return m


WORKLOADS = {w.name: w for w in (ForwardBed, HybridColumn, InverseRunout,
                                  TrainBox, ServeNoCache)}
