"""Encode–Process–Decode graph network (Fig 1a of the paper).

* **Encoder** — node and edge MLPs embed raw features into a latent graph.
* **Processor** — M message-passing blocks (interaction networks with
  residual connections); the attention variant weights incoming messages
  with edge-softmax coefficients (the paper's graph-attention extension).
* **Decoder** — node MLP extracting the dynamics (acceleration).
"""
# repro-lint: fp32-ok — float32 inference fast path

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor, concatenate
from ..backend import get_backend
from ..accel import edge_pass_weights
from ..autodiff.fused import (
    edge_mlp_numpy, fused_edge_mlp, fused_node_mlp, node_mlp_numpy, _buf,
    _kernels,
)
from ..autodiff.scatter import (
    SortedSegments, gather, scatter_add, scatter_softmax,
)
from ..graph import Graph
from ..nn import MLP, Module

_NULL_TIMER = contextlib.nullcontext()

__all__ = ["GNSNetworkConfig", "InteractionNetwork", "EncodeProcessDecode"]


def _edge_pass_weights(mlp: MLP, ws, bs, gamma, beta, eps):
    """:func:`repro.accel.edge_pass_weights` of ``mlp``'s float32 arrays,
    cached on ``mlp`` and invalidated by their identity (the casts are
    themselves cached by :meth:`repro.nn.Linear.arrays`)."""
    key = (*ws, *bs, gamma, beta)
    cache = getattr(mlp, "_edge_pass_cache", None)
    if cache is None or len(cache[0]) != len(key) or any(
            a is not c for a, c in zip(key, cache[0])):
        cache = (key, edge_pass_weights(ws, bs, gamma, beta, eps))
        object.__setattr__(mlp, "_edge_pass_cache", cache)
    return cache[1]


@dataclass
class GNSNetworkConfig:
    """Architecture hyperparameters.

    The paper follows Sanchez-Gonzalez et al. (2020): latent size 128 and
    10 message-passing steps; defaults here are smaller for CPU-scale
    experiments but fully configurable.
    """

    node_input_size: int = 12
    edge_input_size: int = 3
    output_size: int = 2
    latent_size: int = 64
    mlp_hidden_size: int = 64
    mlp_hidden_layers: int = 2
    message_passing_steps: int = 5
    attention: bool = False

    def _mlp_sizes(self, in_size: int, out_size: int) -> list[int]:
        return [in_size] + [self.mlp_hidden_size] * self.mlp_hidden_layers + [out_size]


class InteractionNetwork(Module):
    """One message-passing block with residual updates.

    Edge update: e' = φ_e([e, v_s, v_r]); node update: v' = φ_v([v, Σ e'])
    where the sum runs over incoming edges. With ``attention=True`` the
    aggregation is an attention-weighted sum: coefficients are an
    edge-softmax over each receiver's incoming edges, computed from the
    same inputs as the edge update (GAT-style).
    """

    def __init__(self, cfg: GNSNetworkConfig, rng: np.random.Generator):
        super().__init__()
        ls = cfg.latent_size
        self.edge_mlp = MLP(cfg._mlp_sizes(3 * ls, ls), rng, layer_norm=True)
        self.node_mlp = MLP(cfg._mlp_sizes(2 * ls, ls), rng, layer_norm=True)
        self.attention = cfg.attention
        if cfg.attention:
            self.attn_mlp = MLP([3 * ls, cfg.mlp_hidden_size, 1], rng)

    def attention_coefficients(self, edge_in: Tensor, receivers: np.ndarray,
                               num_nodes: int,
                               plan: SortedSegments | None = None) -> Tensor:
        """Edge-softmax attention over each receiver's incoming edges."""
        logits = self.attn_mlp(edge_in).reshape(-1)
        return scatter_softmax(logits, receivers, num_nodes, plan=plan)

    def forward(self, nodes: Tensor, edges: Tensor,
                senders: np.ndarray, receivers: np.ndarray,
                probe=None,
                plan: SortedSegments | None = None,
                sender_plan: SortedSegments | None = None
                ) -> tuple[Tensor, Tensor]:
        """``plan`` indexes by receiver, ``sender_plan`` by sender.
        ``probe(messages, alpha)``, when given, sees the block's edge
        messages and its attention coefficients (``None`` without
        attention)."""
        n = nodes.shape[0]
        if self.attention:
            # attention needs the explicit concatenated edge input for the
            # coefficient MLP, so it keeps the composite-op path
            vs = gather(nodes, senders, plan=sender_plan)
            vr = gather(nodes, receivers, plan=plan)
            edge_in = concatenate([edges, vs, vr], axis=1)
            messages = self.edge_mlp(edge_in)
            alpha = self.attention_coefficients(edge_in, receivers, n,
                                                plan=plan)
            if probe is not None:
                probe(messages, alpha)
            weighted = messages * alpha.reshape(-1, 1)
            aggregated = scatter_add(weighted, receivers, n, plan=plan)
            node_update = self.node_mlp(concatenate([nodes, aggregated], axis=1))
            # residual connections stabilize deep message-passing stacks
            return nodes + node_update, edges + messages
        # fused path: one tape node per MLP, split first layers — no
        # edge-sized concat, node-sized sender/receiver projections; the
        # node-side residual folds into the fused node MLP's tape node
        messages = fused_edge_mlp(edges, nodes, senders, receivers,
                                  *self.edge_mlp.fused_params(),
                                  sender_plan=sender_plan,
                                  receiver_plan=plan)
        if probe is not None:
            probe(messages, None)
        aggregated = scatter_add(messages, receivers, n, plan=plan)
        new_nodes = fused_node_mlp(nodes, aggregated,
                                   *self.node_mlp.fused_params(),
                                   residual=nodes)
        return new_nodes, edges + messages


class EncodeProcessDecode(Module):
    """The full GNS network: graph in → per-node output (acceleration)."""

    def __init__(self, cfg: GNSNetworkConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        ls = cfg.latent_size
        self.node_encoder = MLP(cfg._mlp_sizes(cfg.node_input_size, ls), rng,
                                layer_norm=True)
        self.edge_encoder = MLP(cfg._mlp_sizes(cfg.edge_input_size, ls), rng,
                                layer_norm=True)
        self.blocks = [InteractionNetwork(cfg, rng)
                       for _ in range(cfg.message_passing_steps)]
        self.decoder = MLP(cfg._mlp_sizes(ls, cfg.output_size), rng,
                           layer_norm=False)

    def forward(self, graph: Graph, probe=None) -> Tensor:
        """Tape forward. ``probe(block, messages, alpha)``, when given, is
        called once per message-passing block with the block index, its
        edge messages and its attention coefficients (``None`` without
        attention) — the interpretability hook (Section 6); it does not
        change the result."""
        from ..obs import span
        with span("encode"):
            nodes = self.node_encoder(graph.node_features)
            edges = self.edge_encoder(graph.edge_features)
        with span("process"):
            # one receiver and one sender reduction plan shared by every
            # block (the backward's segment sums reuse their matrices)
            plan = SortedSegments(graph.receivers, nodes.shape[0])
            sender_plan = SortedSegments(graph.senders, nodes.shape[0])
            for bi, block in enumerate(self.blocks):
                nodes, edges = block(
                    nodes, edges, graph.senders, graph.receivers,
                    probe=None if probe is None else functools.partial(probe, bi),
                    plan=plan, sender_plan=sender_plan)
        with span("decode"):
            return self.decoder(nodes)

    def forward_fast(self, node_features: np.ndarray,
                     edge_features: np.ndarray,
                     senders: np.ndarray, receivers: np.ndarray,
                     work=None, timers: dict | None = None,
                     plan: SortedSegments | None = None,
                     backend=None) -> np.ndarray:
        """No-grad forward with optional buffer reuse and stage timing.

        Runs the tape path's array-level MLPs (split first layers,
        in-place LayerNorm, one aggregation plan shared by every block),
        so float64 results are bitwise-identical to :meth:`forward`.
        With ``work`` (a :class:`repro.utils.buffers.Workspace`) every
        edge/node-sized temporary lives in a reusable buffer — the
        returned array is a workspace view, valid until the next call.
        ``timers`` may map ``"encode"/"process"/"decode"`` to
        :class:`repro.obs.Tracer` spans (the engine passes its stage
        spans).

        ``plan`` is a :class:`SortedSegments` over ``receivers`` (a
        caller with a fixed graph passes one); it is built here the
        first time a block aggregates through it. The compiled kernels
        run when ``backend`` (resolved by
        :func:`repro.backend.get_backend`; the engine passes the handle
        it resolved at construction) is ``accel`` and they are built.
        On float32 inputs each block's edge side (edge MLP, aggregation
        and edge residual) is then one
        :meth:`repro.accel.CpuKernels.edge_pass`, when the edge MLP has a
        hidden layer and widths of at most 128; attention blocks, the
        other edge MLPs, float64 and ``numpy`` aggregate through the
        plan.
        """
        timers = timers or {}
        getbuf = work.get if work is not None else None
        b = get_backend(backend)
        dtype = node_features.dtype
        n = node_features.shape[0]

        with timers.get("encode", _NULL_TIMER):
            nodes = self.node_encoder.forward_numpy(node_features, getbuf,
                                                    "enc.node", backend=b)
            edges = self.edge_encoder.forward_numpy(edge_features, getbuf,
                                                    "enc.edge", backend=b)

        with timers.get("process", _NULL_TIMER):
            kern = None
            if dtype == np.float32:
                kern = _kernels(b, nodes, edges, senders, receivers)
            last = len(self.blocks) - 1
            for bi, block in enumerate(self.blocks):
                edge_mlp = (None if block.attention
                            else block.edge_mlp.arrays(dtype))
                fused = None
                if kern is not None and edge_mlp is not None:
                    fused = _edge_pass_weights(block.edge_mlp, *edge_mlp)
                if fused is None and plan is None:
                    plan = SortedSegments(receivers, n, backend=b)
                messages = None
                if block.attention:
                    # the tape's attention block op for op: concatenated
                    # edge input, scatter_softmax's reciprocal, node MLP
                    # on [nodes, aggregated]
                    edge_in = np.concatenate(
                        [edges, nodes.take(senders, axis=0),
                         nodes.take(receivers, axis=0)], axis=1)
                    messages = block.edge_mlp.forward_numpy(edge_in,
                                                            backend=b)
                    logits = block.attn_mlp.forward_numpy(
                        edge_in, backend=b).ravel()
                    # dtype follows the logits so the fp32 fast path is
                    # not silently promoted back to float64
                    seg_max = plan.segment_max(logits, empty=-np.inf)
                    seg_max[~np.isfinite(seg_max)] = 0.0
                    exp = np.exp(logits - seg_max[receivers])
                    # gathering before the reciprocal gives the same bits
                    # and never divides by an isolated node's zero
                    alpha = exp * plan.segment_sum(exp)[receivers] ** -1.0
                    aggregated = plan.segment_sum(messages * alpha[:, None])
                    node_update = block.node_mlp.forward_numpy(
                        np.concatenate([nodes, aggregated], axis=1),
                        backend=b)
                else:
                    agg_out = _buf(getbuf, "blk.agg", (n, edges.shape[1]),
                                   dtype)
                    if fused is not None:
                        # node-sized projections on sgemm, then one C
                        # pass per edge tile from the gather to the
                        # aggregation and the edge residual
                        ph = fused.b0.shape[0]
                        proj_s = np.matmul(
                            nodes, fused.w_send,
                            out=_buf(getbuf, "blk.proj_s", (n, ph), dtype))
                        proj_s += fused.b0
                        proj_r = np.matmul(
                            nodes, fused.w_recv,
                            out=_buf(getbuf, "blk.proj_r", (n, ph), dtype))
                        aggregated = kern.edge_pass(
                            fused, edges, proj_s, proj_r, senders, receivers,
                            agg_out, residual=bi != last)
                    else:
                        messages = edge_mlp_numpy(
                            edges, nodes, senders, receivers, *edge_mlp,
                            getbuf=getbuf, tag="blk.edge", backend=b)
                        aggregated = plan.segment_sum(messages, out=agg_out)
                    node_update = node_mlp_numpy(
                        nodes, aggregated, *block.node_mlp.arrays(dtype),
                        getbuf=getbuf, tag="blk.node", backend=b)
                nodes += node_update
                if bi != last and messages is not None:
                    # the final block's edge residual is dead — nothing
                    # downstream reads the edge latents (values identical);
                    # the fused edge pass adds its own
                    edges += messages

        with timers.get("decode", _NULL_TIMER):
            out = self.decoder.forward_numpy(nodes, getbuf, "dec", backend=b)
        return out
