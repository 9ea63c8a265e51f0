"""End-to-end CLI tests exercising the full workflow via main(argv)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared tiny dataset + checkpoint produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "dataset.npz"
    ckpt = root / "model.npz"
    rc = main(["generate", "--output", str(ds), "--trajectories", "3",
               "--steps", "60", "--record-every", "10",
               "--cells-per-unit", "16"])
    assert rc == 0
    rc = main(["train", "--dataset", str(ds), "--output", str(ckpt),
               "--steps", "12", "--latent", "8", "--message-passing", "1",
               "--history", "2", "--radius", "0.15"])
    assert rc == 0
    return {"root": root, "dataset": ds, "checkpoint": ckpt}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bench_is_not_a_command(self, capsys):
        # benchmarks/suite/run.py is the one performance harness
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_simulate_defaults(self):
        args = build_parser().parse_args(
            ["simulate", "column", "--output", "x.npz"])
        assert args.scenario == "column"
        assert args.steps == 400


class TestSimulate:
    @pytest.mark.parametrize("scenario", ["column", "boxflow", "dambreak"])
    def test_scenarios_produce_trajectories(self, tmp_path, scenario, capsys):
        out = tmp_path / f"{scenario}.npz"
        rc = main(["simulate", scenario, "--output", str(out),
                   "--steps", "20", "--record-every", "5",
                   "--cells-per-unit", "16"])
        assert rc == 0
        assert out.exists()
        from repro.data import load_trajectories

        traj = load_trajectories(out)[0]
        assert traj.num_steps == 5
        assert "saved" in capsys.readouterr().out

    def test_simulate_with_gif(self, tmp_path):
        gif = tmp_path / "anim.gif"
        rc = main(["simulate", "boxflow", "--output", str(tmp_path / "t.npz"),
                   "--steps", "15", "--record-every", "5",
                   "--cells-per-unit", "12", "--gif", str(gif)])
        assert rc == 0
        assert gif.read_bytes().startswith(b"GIF89a")


class TestTrainRollout:
    def test_workspace_checkpoint_valid(self, workspace):
        from repro.gns import LearnedSimulator

        sim = LearnedSimulator.load(workspace["checkpoint"])
        assert sim.feature_config.history == 2

    def test_rollout_reports_errors(self, workspace, capsys):
        rc = main(["rollout", "--checkpoint", str(workspace["checkpoint"]),
                   "--dataset", str(workspace["dataset"]),
                   "--steps", "3", "--fp32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final error" in out

    def test_no_fast_matches_default_float64_report(self, workspace, capsys):
        # --no-fast runs the float64 tape oracle; the default float64
        # engine run is bitwise-equal to it, so the reports agree
        args = ["rollout", "--checkpoint", str(workspace["checkpoint"]),
                "--dataset", str(workspace["dataset"]), "--steps", "3"]
        assert main(args) == 0
        engine_report = capsys.readouterr().out
        assert main(args + ["--no-fast"]) == 0
        assert capsys.readouterr().out == engine_report
        assert "final error" in engine_report

    def test_no_fast_rejects_float32(self, workspace, capsys):
        rc = main(["rollout", "--checkpoint", str(workspace["checkpoint"]),
                   "--dataset", str(workspace["dataset"]),
                   "--steps", "3", "--no-fast", "--fp32"])
        assert rc == 2
        assert "--no-fast" in capsys.readouterr().err

    def test_train_with_metrics_csv(self, workspace, tmp_path):
        metrics = tmp_path / "metrics.csv"
        rc = main(["train", "--dataset", str(workspace["dataset"]),
                   "--output", str(tmp_path / "m.npz"), "--steps", "6",
                   "--latent", "8", "--message-passing", "1",
                   "--history", "2", "--radius", "0.15",
                   "--metrics", str(metrics)])
        assert rc == 0
        assert metrics.exists()
        assert "val_mse" in metrics.read_text()


class TestInfo:
    def test_dataset_info(self, workspace, capsys):
        assert main(["info", str(workspace["dataset"])]) == 0
        out = capsys.readouterr().out
        assert "dataset: 3 trajectories" in out

    def test_checkpoint_info(self, workspace, capsys):
        assert main(["info", str(workspace["checkpoint"])]) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out and "parameters" in out

    def test_unknown_layout(self, tmp_path, capsys):
        p = tmp_path / "junk.npz"
        np.savez(p, something=np.zeros(3))
        assert main(["info", str(p)]) == 1


class TestInvert:
    def test_invert_runs(self, tmp_path, capsys):
        """Train a tiny material-conditioned model via the CLI and invert."""
        from repro.data import generate_column_collapse_trajectory, save_trajectories

        ds_path = tmp_path / "columns.npz"
        ds = [generate_column_collapse_trajectory(
            friction_angle=phi, steps=120, record_every=10,
            cells_per_unit=16) for phi in (20.0, 30.0, 40.0)]
        save_trajectories(ds_path, ds)

        ckpt = tmp_path / "mat.npz"
        rc = main(["train", "--dataset", str(ds_path), "--output", str(ckpt),
                   "--steps", "10", "--latent", "8", "--message-passing", "1",
                   "--history", "2", "--radius", "0.15", "--use-material",
                   "--holdout", "0"])
        assert rc == 0
        rc = main(["invert", "--checkpoint", str(ckpt),
                   "--dataset", str(ds_path), "--target-angle", "30",
                   "--initial-angle", "40", "--rollout-steps", "3",
                   "--iterations", "3", "--offset", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phi*" in out


class TestObstacleScenario:
    def test_simulate_obstacle(self, tmp_path):
        out = tmp_path / "obs.npz"
        rc = main(["simulate", "obstacle", "--output", str(out),
                   "--steps", "15", "--record-every", "5",
                   "--cells-per-unit", "16"])
        assert rc == 0
        from repro.data import load_trajectories

        traj = load_trajectories(out)[0]
        assert traj.meta["scenario"] == "flow_around_obstacle"


class TestTelemetry:
    def test_rollout_writes_and_summarizes_telemetry(self, workspace,
                                                     tmp_path, capsys):
        tele = tmp_path / "tele"
        rc = main(["rollout", "--checkpoint", str(workspace["checkpoint"]),
                   "--dataset", str(workspace["dataset"]), "--steps", "4",
                   "--timing", "--telemetry", str(tele)])
        assert rc == 0
        assert (tele / "telemetry.jsonl").exists()
        assert (tele / "manifest.json").exists()

        from repro.obs import read_manifest, read_telemetry

        rows = read_telemetry(tele)
        spans = [r for r in rows if r["kind"] == "span"]
        metrics = [r for r in rows if r["kind"] == "metric"]
        # the full per-stage breakdown is reconstructible from the export
        paths = {r["path"] for r in spans}
        assert {"gns/graph", "gns/features", "gns/encode", "gns/process",
                "gns/decode", "gns/integrate"} <= paths
        assert len({r["name"] for r in metrics}) >= 6
        manifest = read_manifest(tele)
        assert manifest["command"] == "rollout"
        assert manifest["summary"]["steps"] == 4
        capsys.readouterr()

        rc = main(["telemetry", "summarize", str(tele)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rollout" in out and "gns/process" in out

    def test_global_telemetry_restored_after_run(self, workspace, tmp_path):
        from repro.obs import get_registry, get_tracer

        rc = main(["rollout", "--checkpoint", str(workspace["checkpoint"]),
                   "--dataset", str(workspace["dataset"]), "--steps", "2",
                   "--telemetry", str(tmp_path / "t2")])
        assert rc == 0
        assert not get_tracer().enabled
        assert not get_registry().enabled

    def test_simulate_telemetry_includes_mpm_spans(self, tmp_path, capsys):
        tele = tmp_path / "tele-sim"
        rc = main(["simulate", "boxflow", "--output", str(tmp_path / "s.npz"),
                   "--steps", "12", "--record-every", "4",
                   "--cells-per-unit", "12", "--telemetry", str(tele)])
        assert rc == 0
        from repro.obs import read_telemetry

        paths = {r["path"] for r in read_telemetry(tele)
                 if r["kind"] == "span"}
        assert {"mpm/p2g", "mpm/grid", "mpm/g2p"} <= paths
        capsys.readouterr()

    def test_summarize_missing_path_fails_cleanly(self, tmp_path, capsys):
        rc = main(["telemetry", "summarize", str(tmp_path / "nope")])
        assert rc == 1
        assert "error" in capsys.readouterr().out


class TestServe:
    def test_run_accounts_for_every_request(self, tmp_path, capsys):
        tele = tmp_path / "tele-serve"
        rc = main(["serve", "run", "--requests", "8",
                   "--telemetry", str(tele)])
        assert rc == 0
        from repro.obs import read_telemetry

        counters, observed = {}, {}
        for r in read_telemetry(tele):
            if r["kind"] != "metric":
                continue
            if r["type"] == "counter":
                counters[r["name"]] = counters.get(r["name"], 0) + r["value"]
            elif r["type"] == "histogram":
                observed[r["name"]] = observed.get(r["name"], 0) + r["count"]
        assert counters["serve.admitted"] == 8
        # every admitted request ends in a result, a typed error or a hit
        assert sum(counters.get(f"serve.{k}", 0) for k in
                   ("completed", "failed", "shed", "cache_hits")) == 8
        assert observed.get("gns.step_seconds", 0) > 0
        capsys.readouterr()

    def test_lost_request_keeps_telemetry(self, tmp_path, capsys,
                                          monkeypatch):
        """A request whose future never resolves counts as lost: the run
        still closes the service and writes its telemetry, and exits 1."""
        import concurrent.futures
        import importlib
        import json

        from repro.serve import SimulationService

        submit = SimulationService.submit
        calls = {"n": 0}

        def submit_one_lost(self, request):
            calls["n"] += 1
            if calls["n"] == 3:
                return concurrent.futures.Future()  # never resolved
            return submit(self, request)

        monkeypatch.setattr(SimulationService, "submit", submit_one_lost)
        monkeypatch.setattr(importlib.import_module("repro.cli.main"),
                            "SERVE_RESULT_TIMEOUT", 0.2)
        tele = tmp_path / "tele-lost"
        rc = main(["serve", "run", "--requests", "4",
                   "--telemetry", str(tele)])
        assert rc == 1
        assert (tele / "telemetry.jsonl").stat().st_size > 0
        manifest = json.loads((tele / "manifest.json").read_text())
        assert manifest["summary"]["lost"] == 1
        assert manifest["summary"]["completed"] == 3
        out = capsys.readouterr().out
        assert "lost: admitted request 2" in out
        assert "3 ok, 0 failed, 0 rejected, 1 lost" in out

    def test_bench_is_not_an_action(self, capsys):
        # benchmarks/suite/run.py's serve-nocache is the serving benchmark
        with pytest.raises(SystemExit) as exc:
            main(["serve", "bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
