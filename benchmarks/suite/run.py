"""One command for the paper's end-to-end claims, with per-layer
attribution timed from outside the program.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py [--workloads a,b] [--seed N]
        [--seconds S] [--trace] [--output PATH]
    python3 benchmarks/suite/run.py --workload NAME --seed N
        --seconds S --trace 0|1 [--output PATH]
    python3 benchmarks/suite/run.py compare PARENT.json CHANGE.json

Without ``--workload`` every selected workload runs in its own fresh
subprocess (so ``peak_rss_mb`` and warm state belong to that workload
alone), untraced and, with ``--trace``, once more traced. With
``--workload`` one run happens in this process and the last line of
standard output is its JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
untraced, its per-layer metrics traced). ``--output`` appends each run's
full record to a JSON file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
#: set-up runs this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 5
#: a child run that has not finished by then is reported as failed
CHILD_TIMEOUT = 180


def prepare_environment() -> None:
    """Keep every file the run writes inside the checkout: the C-kernel
    cache and the compiler's temporaries go to ``benchmarks/suite/.cache``.
    Must run before ``repro`` (and ``tempfile``) are first used."""
    cache = SUITE / ".cache"
    cache.mkdir(exist_ok=True)
    os.environ.setdefault("REPRO_CKERNEL_CACHE", str(cache / "ckernels"))
    os.environ["TMPDIR"] = str(cache)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def probe_kernels() -> dict:
    """Compile (or load the cached) C kernels once, outside every
    ``setup_s``, and describe the run's environment."""
    import numpy as np

    from repro.accel import kernels
    from repro.backend import get_backend

    kernels()
    backend = get_backend()
    return {
        "git_sha": git_sha(),
        "backend": backend.name,
        "ckernels": backend.float32_kernels() is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ----------------------------------------------------------------------
def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``SETUP_REPEATS`` times, measure on the last set-up, and
    return the run's record (metrics as plain values)."""
    from layers import LayerTrace
    from spec import END_TO_END, PER_LAYER

    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    layers = LayerTrace() if trace else None
    try:
        m = workload.measure(state, seconds, layers)
    finally:
        workload.teardown(state)

    if trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(layers.values(m.armed_ops, m.armed_busy))
        values["trace.overhead_frac"] = (
            statistics.median(m.armed_samples) / statistics.median(m.samples)
            - 1.0) if m.samples and m.armed_samples else 0.0
        values.update(m.layer)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # a run whose ops all failed has nothing to time; it reports
            # zeros and is marked incorrect
            "op_ms": 1e3 * getattr(statistics, m.statistic)(m.samples)
            if m.samples else 0.0,
            "ops_per_s": m.ops / m.busy if m.busy else 0.0,
        }
        units = END_TO_END
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": m.failed == 0,
        "attempted": m.attempted, "failed": m.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k][0]}
                    for k in units},
        "op": m.op,
        "statistic": m.statistic,
        "setups": len(setups),
        "op_samples_ms": [1e3 * s for s in (m.samples or m.armed_samples)],
        "checks": [list(c) for c in m.checks],
        "detail": m.detail,
    }


def tail_percentile(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(samples)
    if n < 20:
        return f"n={n} (too few for a tail percentile)"
    q = int(100 * (1 - 10 / n))
    return f"n={n}, p{q} {np.percentile(samples, q):.4g} ms"


def report(record: dict, meta: dict, better: dict) -> None:
    """Human-readable lines for one run."""
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['trace'] else 'untraced'}  "
          f"{record['seconds']:g} s")
    print(f"   op: {record['op']}")
    print("   " + "  ".join(f"{k} {v}" for k, v in meta.items()))
    for name, metric in record["metrics"].items():
        print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']:<8}"
              f" {better[name]}")
    if not record["trace"]:
        print(f"   op_ms is the {record['statistic']} of "
              f"{tail_percentile(record['op_samples_ms'])}; setup_s median "
              f"of {record['setups']}")
    for name, ok, detail in record["checks"]:
        print(f"   check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, value in record["detail"].items():
        print(f"   {name}: {value}")
    print(f"   ops attempted {record['attempted']} failed {record['failed']}")


def append_output(path: Path, records: list) -> None:
    """Add records to the ``runs`` list of the JSON file at ``path``."""
    doc = (json.loads(path.read_text()) if path.exists()
           else {"benchmark": "benchmarks/suite", "runs": []})
    doc["runs"].extend(records)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    tmp.replace(path)


def single_run(args, bench: dict) -> int:
    from workloads import WORKLOADS

    meta = probe_kernels()
    record = run_workload(WORKLOADS[args.workload](), args.seed,
                          args.seconds, bool(args.trace))
    record["meta"] = meta
    declared = bench["per_layer" if args.trace else "end_to_end"]
    if list(record["metrics"]) != [m["name"] for m in declared]:
        print("metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    report(record, meta, {m["name"]: m["better"] for m in declared})
    if args.output:
        append_output(Path(args.output), [record])
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def suite_run(args, bench: dict) -> int:
    """Each workload in a fresh subprocess, untraced then (optionally)
    traced; prints each child's report and a closing summary."""
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    unknown = set(names) - {w["name"] for w in bench["workloads"]}
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    probe_kernels()
    summary, status = [], 0
    for name in names:
        for trace in ([0, 1] if args.trace else [0]):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.output:
                cmd += ["--output", args.output]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc = None
            wall = time.perf_counter() - t0
            if proc is None or proc.returncode != 0:
                if proc is not None:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                summary.append((name, trace, "crashed", "-", wall))
                status = 1
                continue
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            status |= int(not result["correct"])
            summary.append((name, trace, result["attempted"],
                            result["failed"], wall))
    print("\n== summary (ops attempted / failed, wall incl. set-up)")
    for name, trace, attempted, failed, wall in summary:
        print(f"   {name:<16} {'traced' if trace else 'untraced':<9}"
              f" {attempted!s:>5} / {failed!s:<3} {wall:6.1f} s")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--workloads", help="comma-separated suite subset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--output", help="append run records to this JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepare_environment()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload is None:
        return suite_run(args, bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return single_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
