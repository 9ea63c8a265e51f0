"""Per-layer attribution for the traced run, timed from outside the program.

A :class:`LayerTrace` wraps the public entry point of each layer in a
span on a benchmark-owned :class:`repro.obs.Tracer` (one tracer per
thread, so the serve workers never share a span stack). The wrappers are
patched onto the classes only inside :meth:`LayerTrace.armed`, and the
workloads arm every other unit of work, so the untraced run and the
disarmed half of the traced run execute the program unmodified.

While armed the trace also reads what the program already records:
the global tracer's ``encode``/``process``/``decode`` (tape forward) and
``mpm/p2g|grid|g2p`` spans, the ``serve.*`` histograms of the global
metrics registry, and a :class:`repro.obs.TapeProfiler`.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import repro.gns.features as gns_features
import repro.graph.neighborcache as neighborcache
from repro.autodiff import Tensor
from repro.autodiff.scatter import SortedSegments
from repro.gns import EncodeProcessDecode, GNSFeaturizer, GNSTrainer
from repro.gns.engine import InferenceEngine
from repro.graph import NeighborListCache
from repro.inverse import RunoutInverseProblem
from repro.mpm import MPMSolver
from repro.nn import Adam
from repro.obs import (
    TapeProfiler, Tracer, disable_metrics, disable_tracing, enable_metrics,
    enable_tracing, get_registry, get_tracer, reset_metrics, reset_tracing,
)

from spec import TAPE_SITES

_MISSING = object()


def network_cost(net: EncodeProcessDecode, nodes: int, edges: int,
                 itemsize: int) -> tuple[float, float]:
    """Computed FLOPs and bytes of one process stage (all blocks).

    Counted from the ``linears`` shapes times the edge (E) or node (N)
    rows, with the edge MLP's first layer split the way the kernels run
    it (E x latent for the edge part, N x latent for each endpoint
    projection) and the receiver segment-sum as E x latent adds. Bytes
    are each GEMM's input, weight and output once; cache misses are not
    modelled.
    """
    flop = byte = 0.0
    latent = net.cfg.latent_size
    for block in net.blocks:
        for mlp, rows in ((block.edge_mlp, edges), (block.node_mlp, nodes)):
            for i, lin in enumerate(mlp.linears):
                fin, fout = lin.in_features, lin.out_features
                if i == 0 and mlp is block.edge_mlp:
                    in_elems = edges * latent + 2 * nodes * latent
                    flop += 2.0 * fout * in_elems
                else:
                    in_elems = rows * fin
                    flop += 2.0 * rows * fin * fout
                byte += itemsize * (in_elems + fin * fout + rows * fout)
        flop += edges * latent
        byte += itemsize * (edges + nodes) * latent
    return flop, byte


class LayerTrace:
    """Benchmark-owned spans, counters and reads of program telemetry."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tracers = []
        self.counts = defaultdict(float)
        self.global_spans = defaultdict(float)
        self.profiler = TapeProfiler()
        self.gemm_gflops: list[float] = []
        self._gemm_arrays = None
        self._network = None
        reset_tracing()
        reset_metrics()
        self._patches = [
            (NeighborListCache, "query", self._graph_query),
            (neighborcache, "radius_graph", self._graph_build),
            (gns_features, "radius_graph", self._graph_fresh),
            (SortedSegments, "__init__", self._spanned("plan")),
            (GNSFeaturizer, "assemble_node_features", self._spanned("features")),
            (GNSFeaturizer, "assemble_edge_features", self._spanned("features")),
            (GNSFeaturizer, "build_graph", self._spanned("features")),
            (EncodeProcessDecode, "forward_fast", self._forward_fast),
            (EncodeProcessDecode, "forward", self._forward_tape),
            (InferenceEngine, "rollout", self._engine_call(batched=False)),
            (InferenceEngine, "rollout_batch", self._engine_call(batched=True)),
            (MPMSolver, "step", self._spanned("mpm")),
            (RunoutInverseProblem, "loss", self._spanned("loss")),
            (GNSTrainer, "loss", self._spanned("loss")),
            (Tensor, "backward", self._spanned("backward")),
            (Adam, "step", self._spanned("optim")),
        ]

    # -- recording ------------------------------------------------------
    def _tracer(self):
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            tracer = Tracer(enabled=True)
            self._local.tracer = tracer
            with self._lock:
                self._tracers.append(tracer)
        return tracer

    def _count(self, **amounts) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counts[key] += value

    def _spanned(self, name):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                with self._tracer().span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return make

    def _graph_query(self, orig):
        @functools.wraps(orig)
        def query(cache, positions):
            with self._tracer().span("graph"):
                senders, receivers = orig(cache, positions)
            self._count(queries=1, edges=len(senders), nodes=len(positions))
            return senders, receivers
        return query

    def _graph_build(self, orig):
        @functools.wraps(orig)
        def radius_graph(*args, **kwargs):
            self._count(builds=1)
            return orig(*args, **kwargs)
        return radius_graph

    def _graph_fresh(self, orig):
        @functools.wraps(orig)
        def radius_graph(positions, *args, **kwargs):
            with self._tracer().span("graph"):
                senders, receivers = orig(positions, *args, **kwargs)
            self._count(queries=1, builds=1, edges=len(senders),
                        nodes=len(positions))
            return senders, receivers
        return radius_graph

    def _account_network(self, net, nodes: int, edges: int, dtype) -> None:
        flop, byte = network_cost(net, nodes, edges, np.dtype(dtype).itemsize)
        self._network = (net.cfg.mlp_hidden_size, np.dtype(dtype))
        self._count(net_calls=1, net_edges=edges, flop=flop, bytes=byte)

    def _forward_fast(self, orig):
        @functools.wraps(orig)
        def forward_fast(net, node_features, edge_features, senders,
                         receivers, work=None, timers=None, plan=None,
                         backend=None):
            tracer = self._tracer()
            # the documented ``timers`` slot takes this run's stage spans
            stages = {k: tracer.span(k) for k in ("encode", "process",
                                                  "decode")}
            with tracer.span("network"):
                out = orig(net, node_features, edge_features, senders,
                           receivers, work=work, timers=stages, plan=plan,
                           backend=backend)
            self._account_network(net, node_features.shape[0],
                                  edge_features.shape[0],
                                  node_features.dtype)
            return out
        return forward_fast

    def _forward_tape(self, orig):
        @functools.wraps(orig)
        def forward(net, graph):
            with self._tracer().span("network"):
                out = orig(net, graph)
            self._account_network(net, graph.node_features.shape[0],
                                  graph.edge_features.shape[0],
                                  graph.node_features.dtype)
            return out
        return forward

    def _engine_call(self, batched: bool):
        def make(orig):
            @functools.wraps(orig)
            def call(engine, histories, *args, **kwargs):
                t0 = time.perf_counter()
                with self._tracer().span("engine"):
                    out = orig(engine, histories, *args, **kwargs)
                trajectories = len(histories) if batched else 1
                # every request of a batch waits for the whole engine call
                self._count(exec_seconds=(time.perf_counter() - t0)
                            * trajectories, exec_requests=trajectories)
                return out
            return call
        return make

    # -- arming ---------------------------------------------------------
    @contextlib.contextmanager
    def armed(self):
        """Install the wrappers and the program's own telemetry for the
        body of the ``with`` block; restore everything on exit."""
        tracer = get_tracer()
        since = tracer.snapshot()
        saved = []
        for owner, attr, make in self._patches:
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, make(getattr(owner, attr)))
        enable_tracing()
        enable_metrics()
        self.profiler.install()
        try:
            yield self
        finally:
            self.profiler.uninstall()
            disable_metrics()
            disable_tracing()
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            for path, row in tracer.stats(since=since).items():
                self.global_spans[path] += row["total"]

    def sample_gemm(self, reps: int = 3) -> None:
        """Time a matmul of the process stage's dominant shape (mean
        edges per forward x hidden, times hidden x hidden) in the
        network's dtype; called between units of work."""
        if self._network is None or not self.counts["net_calls"]:
            return
        hidden, dtype = self._network
        rows = max(1, int(self.counts["net_edges"] / self.counts["net_calls"]))
        key = (rows, hidden, dtype)
        if self._gemm_arrays is None or self._gemm_arrays[0] != key:
            rng = np.random.default_rng(0)
            a = rng.standard_normal((rows, hidden)).astype(dtype)
            b = rng.standard_normal((hidden, hidden)).astype(dtype)
            c = np.empty((rows, hidden), dtype=dtype)
            np.matmul(a, b, out=c)
            self._gemm_arrays = (key, a, b, c)
        _, a, b, c = self._gemm_arrays
        t0 = time.perf_counter()
        for _ in range(reps):
            np.matmul(a, b, out=c)
        seconds = time.perf_counter() - t0
        self.gemm_gflops.append(2.0 * rows * hidden * hidden * reps
                                / seconds / 1e9)

    # -- results --------------------------------------------------------
    def _spans(self) -> dict:
        merged = defaultdict(lambda: [0.0, 0])
        for tracer in self._tracers:
            for path, row in tracer.stats().items():
                merged[path][0] += row["total"]
                merged[path][1] += row["count"]
        return merged

    @staticmethod
    def _sum(table, name: str, index: int = 0) -> float:
        """Total over paths whose last component(s) equal ``name``."""
        out = 0.0
        for path, row in table.items():
            if path == name or path.endswith("/" + name):
                out += row[index] if isinstance(row, list) else row
        return out

    @staticmethod
    def _self(table, name: str) -> float:
        """Time in spans named ``name`` not covered by their children."""
        out = 0.0
        for path, row in table.items():
            if path == name or path.endswith("/" + name):
                out += row[0]
            elif path.rsplit("/", 2)[-2:-1] == [name]:
                out -= row[0]
        return out

    def values(self, ops: int, wall: float) -> dict:
        """Per-layer metrics normalised to ``ops`` armed ops that took
        ``wall`` seconds."""
        spans, glob, c = self._spans(), self.global_spans, self.counts
        ms = 1e3 / max(ops, 1)
        graph = self._sum(spans, "graph")
        plan = self._sum(spans, "plan")
        features = self._self(spans, "features")
        network = self._sum(spans, "network") - self._sum(spans, "network/plan")
        stage = {k: self._sum(spans, f"network/{k}") + self._sum(glob, k)
                 for k in ("encode", "process", "decode")}
        mpm = self._sum(spans, "mpm")
        loss = self._sum(spans, "loss")
        loss_self = self._self(spans, "loss")
        backward = self._sum(spans, "backward")
        optim = self._sum(spans, "optim")
        process_gflops = (c["flop"] / stage["process"] / 1e9
                          if stage["process"] else 0.0)
        gemm = statistics.median(self.gemm_gflops) if self.gemm_gflops else 0.0

        sites = defaultdict(float)
        tape_ops = tape_bytes = 0
        for row in self.profiler.rows():
            sites[row["site"]] += row["total"]
            tape_ops += row["count"]
            tape_bytes += row["bytes"]
        tape_seconds = sum(sites.values())
        loss_calls = self._sum(spans, "loss", index=1)

        out = {
            "graph.query_ms": graph * ms,
            "graph.rebuild_ratio": c["builds"] / c["queries"] if c["queries"] else 0.0,
            "graph.edges_per_particle": c["edges"] / c["nodes"] if c["nodes"] else 0.0,
            "plan.build_ms": plan * ms,
            "features.assemble_ms": features * ms,
            "network.forward_ms": network * ms,
            **{f"network.{k}_ms": v * ms for k, v in stage.items()},
            "network.process_gflop": c["flop"] / 1e9 / max(ops, 1),
            "network.process_mbytes": c["bytes"] / 1e6 / max(ops, 1),
            "network.process_gflops": process_gflops,
            "blas.gemm_gflops": gemm,
            "network.process_peak_frac": process_gflops / gemm if gemm else 0.0,
            "mpm.step_share": mpm / wall,
            **{f"mpm.{k}_share": self._sum(glob, f"mpm/{k}") / wall
               for k in ("p2g", "grid", "g2p")},
            "mpm.steps": self._sum(spans, "mpm", index=1) / max(ops, 1),
            "autodiff.forward_share": loss / wall,
            "autodiff.backward_share": backward / wall,
            "autodiff.tape_ops": tape_ops / loss_calls if loss_calls else 0.0,
            "autodiff.tape_mb": tape_bytes / 1e6 / loss_calls if loss_calls else 0.0,
            **{f"autodiff.op.{frag}_share":
               sites[site] / tape_seconds if tape_seconds else 0.0
               for site, frag in TAPE_SITES.items()},
            "optim.step_share": optim / wall,
            # layer self times are disjoint, so their sum over the wall
            # is the share of the run the layer spans account for
            "trace.coverage_frac": (graph + plan + features + network + mpm
                                    + loss_self + backward + optim) / wall,
        }
        return out

    def serve_values(self) -> dict:
        """Queue and engine shares of the mean request latency, from the
        service's own histograms and the engine-call spans."""
        reg = get_registry()
        latency = reg.histogram("serve.latency_seconds").mean
        wait = reg.histogram("serve.queue_wait_seconds").mean
        c = self.counts
        execution = (c["exec_seconds"] / c["exec_requests"]
                     if c["exec_requests"] else 0.0)
        return {
            "serve.queue_wait_share": wait / latency if latency else 0.0,
            "serve.exec_share": execution / latency if latency else 0.0,
            "trace.coverage_frac": (wait + execution) / latency if latency else 0.0,
        }
