"""Smoke test of the benchmark suite: every workload in miniature, the
metric declarations against ``BENCHMARK.json``, and the compare rule.

Not collected by the tier-1 run (``testpaths = ["tests"]``); run with
``PYTHONPATH=src python -m pytest benchmarks/suite/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(SUITE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spec import END_TO_END, PER_LAYER  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: every workload at a size that runs in about a second
TINY = {
    "forward-4k": lambda: wl.ForwardBed(
        n_side=8, steps=3, warm_steps=1, check_steps=2, latent=8, blocks=1),
    "hybrid-column": lambda: wl.HybridColumn(
        cells_per_unit=12, frames=6, schedule=(3, 2, 1), latent=8, blocks=1),
    "inverse-runout": lambda: wl.InverseRunout(
        cells_per_unit=16, rollout_steps=4, warm_frames=10, latent=16,
        blocks=2),
    "train-box": lambda: wl.TrainBox(
        trajectories=1, steps=40, record_every=5, cells_per_unit=16,
        history=2, latent=8, blocks=1),
    "serve-nocache": lambda: wl.ServeNoCache(
        particles=16, steps=2, warm_requests=2, rate=40.0, latent=8,
        blocks=1),
}


def _declared(kind: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in BENCH[kind]}


def test_declarations_match_benchmark_json():
    assert _declared("end_to_end") == END_TO_END
    assert _declared("per_layer") == PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert list(TINY) == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_emits_every_metric(name, trace):
    record = run.run_workload(TINY[name](), seed=0, seconds=0.3, trace=trace)
    declared = PER_LAYER if trace else END_TO_END
    assert list(record["metrics"]) == list(declared)
    assert {k: m["unit"] for k, m in record["metrics"].items()} == \
        {k: unit for k, (unit, _) in declared.items()}
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["checks"]
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name", ["setup_s", "peak_rss_mb", "op_ms"])
def test_costs_are_lower_better_whatever_the_name(name):
    """``repro.obs.ledger.metric_direction`` reads ``setup_s`` and
    ``peak_rss_mb`` as higher-better; compare takes BENCHMARK.json's."""
    metric = next(m for m in BENCH["end_to_end"] if m["name"] == name)
    assert metric["better"] == "lower"
    parent = [1.0 + 0.001 * i for i in range(10)]
    worse = [1.5 * v for v in parent]
    verdict = compare.judge(parent, worse, metric["better"], metric["bound"])
    assert verdict["verdict"] == "regression"


def test_compare_rule():
    parent = [100.0 + i for i in range(10)]
    # nine of ten pairs better and beyond the parent's IQR: a gain
    faster = [90.0 + i for i in range(9)] + [200.0]
    assert compare.judge(parent, faster, "lower", 0.25)["verdict"] == "gain"
    # the same values are no gain, no regression
    assert compare.judge(parent, parent, "lower", 0.25)["verdict"] == \
        "within bound"
    # a spread wider than the bound cannot be judged
    noisy = [50.0, 150.0] * 5
    assert compare.judge(parent, noisy, "lower", 0.25)["verdict"] == \
        "unresolved"


def test_compare_exit_status(tmp_path):
    def runs(scale: float) -> dict:
        return {"runs": [
            {"workload": "forward-4k", "trace": 0, "failed": 0,
             "metrics": {m["name"]: {"value": scale * (1.0 + 0.001 * i),
                                     "unit": m["unit"]}
                         for m in BENCH["end_to_end"]}}
            for i in range(10)]}

    parent, same = tmp_path / "parent.json", tmp_path / "same.json"
    parent.write_text(json.dumps(runs(1.0)))
    same.write_text(json.dumps(runs(1.0)))
    assert compare.main([str(parent), str(same)]) == 0
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(runs(2.0)))
    assert compare.main([str(parent), str(slower)]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite, the
    benchmark exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "forward-4k", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
