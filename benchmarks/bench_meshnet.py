"""E3 — MeshNet vs CFD for vortex shedding (Section 3.2 / Fig 2).

Trains MeshNet on lattice-Boltzmann snapshots of flow past a cylinder and
compares an autoregressive rollout against the CFD ground truth. Checks:

* trained MeshNet tracks the velocity field far better than untrained,
* MeshNet frame is cheaper than the equivalent span of LBM steps
  (the learned step covers `record_every` solver steps).
"""

import numpy as np
import pytest

from repro.cfd import vortex_shedding_flow
from repro.gns.network import GNSNetworkConfig
from repro.meshnet import (
    MeshNetSimulator, MeshNetTrainer, MeshTrainingConfig, fields_to_nodes,
    mesh_from_lattice, velocity_field_rmse,
)
from repro.obs import Tracer

from common import ARTIFACT_DIR, profile, write_result

NX, NY, RADIUS = 96, 40, 5
RECORD_EVERY = 20
SUBSAMPLE = 2


def _generate_flow_data():
    path = ARTIFACT_DIR / "lbm_cylinder.npz"
    if path.exists():
        with np.load(path) as data:
            return data["fields"], data["types"]
    flow = vortex_shedding_flow(nx=NX, ny=NY, radius=RADIUS, tau=0.52,
                                inflow=0.09)
    flow.solver.run(4000)   # develop the vortex street (Re ~ 135)
    fields = flow.solver.velocity_history(1600, record_every=RECORD_EVERY)
    types = flow.node_types(subsample=SUBSAMPLE)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    np.savez_compressed(path, fields=fields, types=types)
    return fields, types


@pytest.fixture(scope="module")
def meshnet_setup():
    fields, types = _generate_flow_data()
    frames = fields_to_nodes(fields, subsample=SUBSAMPLE)
    spec = mesh_from_lattice(types.shape[0], types.shape[1], types)
    p = profile()
    sim = MeshNetSimulator(spec, GNSNetworkConfig(
        latent_size=p["latent"], mlp_hidden_size=p["latent"],
        message_passing_steps=3), rng=np.random.default_rng(0))
    trainer = MeshNetTrainer(sim, frames[:-6], MeshTrainingConfig(learning_rate=1e-3, seed=0))
    trainer.train(p["mesh_train_steps"])
    return sim, spec, frames


@pytest.fixture(scope="module")
def meshnet_results(meshnet_setup):
    sim, spec, frames = meshnet_setup
    start = frames.shape[0] - 6
    horizon = 5

    predicted = sim.rollout(frames[start], horizon,
                            boundary_values=frames[start])
    rmse = velocity_field_rmse(predicted, frames[start:])

    fresh = MeshNetSimulator(spec, sim.network_config,
                             velocity_scale=sim.velocity_scale,
                             delta_scale=sim.delta_scale,
                             rng=np.random.default_rng(123))
    rmse_fresh = velocity_field_rmse(
        fresh.rollout(frames[start], horizon, boundary_values=frames[start]),
        frames[start:])

    u_scale = float(np.abs(frames).mean())

    # timing: one MeshNet frame vs the RECORD_EVERY LBM steps it replaces
    flow = vortex_shedding_flow(nx=NX, ny=NY, radius=RADIUS, tau=0.52,
                                inflow=0.09)
    tracer = Tracer(enabled=True)
    with tracer.span("lbm"):
        flow.solver.run(RECORD_EVERY)
    with tracer.span("meshnet"):
        sim.step(frames[start], boundary_values=frames[start])
    seconds = {path: row["total"] for path, row in tracer.stats().items()}
    lbm_s, mesh_s = seconds["lbm"], seconds["meshnet"]

    lines = [
        "E3: MeshNet vs CFD (von Karman vortex shedding, Fig 2)",
        f"lattice {NX}x{NY}, Re ~ {0.09 * 2 * RADIUS / ((0.52 - 0.5) / 3):.0f}, "
        f"{spec.num_nodes} mesh nodes",
        "",
        f"{'frame':>6} | {'trained RMSE %':>14} | {'untrained RMSE %':>16}",
    ]
    for i in range(len(rmse)):
        lines.append(f"{i:>6} | {rmse[i] / u_scale * 100:>14.2f} | "
                     f"{rmse_fresh[i] / u_scale * 100:>16.2f}")
    lines += [
        "",
        f"one MeshNet frame: {mesh_s:.3f}s vs {RECORD_EVERY} LBM steps: "
        f"{lbm_s:.3f}s (speedup {lbm_s / mesh_s:.1f}x)",
        "shape check: trained MeshNet tracks CFD; untrained diverges "
        "(Fig 2's 'prediction vs ground truth').",
    ]
    write_result("bench_meshnet", "\n".join(lines))
    return dict(rmse=rmse, rmse_fresh=rmse_fresh, lbm=lbm_s, mesh=mesh_s)


def test_meshnet_step_benchmark(benchmark, meshnet_setup, meshnet_results):
    sim, spec, frames = meshnet_setup
    benchmark.pedantic(
        lambda: sim.step(frames[-1], boundary_values=frames[-1]),
        rounds=3, iterations=2)

    r = meshnet_results
    assert r["rmse"][1:].mean() < r["rmse_fresh"][1:].mean(), \
        "trained MeshNet must beat untrained"
    assert np.all(np.isfinite(r["rmse"]))


def test_lbm_equivalent_span_benchmark(benchmark):
    flow = vortex_shedding_flow(nx=NX, ny=NY, radius=RADIUS, tau=0.52,
                                inflow=0.09)
    benchmark.pedantic(lambda: flow.solver.run(RECORD_EVERY),
                       rounds=3, iterations=1)
