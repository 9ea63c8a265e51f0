"""Metric declarations of the suite: name -> (unit, better).

``BENCHMARK.json`` at the repository root repeats these (plus the
end-to-end bounds) for the tools that read the benchmark from outside;
``tests/test_suite.py`` holds the two in step, and ``run.py`` refuses to
print a result whose metric names differ from ``BENCHMARK.json``.

Every workload reports every metric. End-to-end metrics are generic over
the workload's unit of work (an *op*, defined per workload in
``workloads.py``), so none of them is ever zero. Per-layer times in
milliseconds cover only layers every workload runs (neighbour search,
reduction plans, features, the network); layers that only some
workloads run report shares of the measured wall time, counts or ratios,
which read 0 where the layer is not exercised.
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
}

#: the six largest tape-op sites on the tape workloads, by TapeProfiler
#: site name -> metric name fragment
TAPE_SITES = {
    "fused_edge_mlp": "fused_edge_mlp",
    "mlp_forward": "mlp_forward",
    "Tensor.__add__": "tensor_add",
    "fused_node_mlp": "fused_node_mlp",
    "CompiledChain.__call__": "compiled_chain",
    "scatter_add": "scatter_add",
}

PER_LAYER = {
    # graph: NeighborListCache.query and the tape path's radius_graph
    "graph.query_ms": ("ms", "lower"),
    "graph.rebuild_ratio": ("frac", "lower"),
    "graph.edges_per_particle": ("count", "lower"),
    # autodiff.scatter: SortedSegments construction
    "plan.build_ms": ("ms", "lower"),
    # gns.features: assemble_node/edge_features, build_graph (self time)
    "features.assemble_ms": ("ms", "lower"),
    # gns.network: forward_fast and the tape forward
    "network.forward_ms": ("ms", "lower"),
    "network.encode_ms": ("ms", "lower"),
    "network.process_ms": ("ms", "lower"),
    "network.decode_ms": ("ms", "lower"),
    "network.process_gflop": ("GFLOP", "lower"),
    "network.process_mbytes": ("MB", "lower"),
    "network.process_gflops": ("GFLOP/s", "higher"),
    "blas.gemm_gflops": ("GFLOP/s", "higher"),
    "network.process_peak_frac": ("frac", "higher"),
    # mpm: MPMSolver.step and its p2g/grid/g2p spans
    "mpm.step_share": ("frac", "lower"),
    "mpm.p2g_share": ("frac", "lower"),
    "mpm.grid_share": ("frac", "lower"),
    "mpm.g2p_share": ("frac", "lower"),
    "mpm.steps": ("count", "lower"),
    # hybrid: HybridSimulator.run
    "hybrid.gns_share": ("frac", "lower"),
    "hybrid.gns_frames": ("count", "higher"),
    "hybrid.mpm_frames": ("count", "lower"),
    "hybrid.error_m": ("m", "lower"),
    "hybrid.e2_speedup": ("x", "higher"),
    "hybrid.e4_speedup": ("x", "higher"),
    # autodiff: loss forward on the tape, Tensor.backward, TapeProfiler
    "autodiff.forward_share": ("frac", "lower"),
    "autodiff.backward_share": ("frac", "lower"),
    "autodiff.tape_ops": ("count", "lower"),
    "autodiff.tape_mb": ("MB", "lower"),
    **{f"autodiff.op.{frag}_share": ("frac", "lower")
       for frag in TAPE_SITES.values()},
    # inverse: GradientDescentInverter via RunoutInverseProblem.solve
    "inverse.iterations": ("count", "lower"),
    # nn.optim: Adam.step inside Trainer.train_step
    "optim.step_share": ("frac", "lower"),
    # serve: SimulationService
    "serve.batch_mean": ("count", "higher"),
    "serve.queue_wait_share": ("frac", "lower"),
    "serve.exec_share": ("frac", "lower"),
    "serve.tail_ratio": ("x", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.late_sends": ("count", "lower"),
    # the tracing itself
    "trace.overhead_frac": ("frac", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
}
