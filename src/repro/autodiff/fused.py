"""Fused MLP kernels: one tape node per network block instead of ~8.

The GNS hot loop is dominated by small MLPs applied to every edge and
node. Composing them from Tensor primitives costs one Python closure,
one tape node, and at least one temporary array per op. This module
provides:

* **Plain-NumPy forward kernels** (:func:`mlp_forward_numpy` and the
  split first-layer helpers) used by the no-grad inference paths. They
  accept optional caller-managed buffers so a rollout engine can run
  allocation-free.
* **Fused tape ops** (:func:`linear_relu`, :func:`mlp_forward`,
  :func:`fused_edge_mlp`, :func:`fused_node_mlp`) that execute the same
  kernels forward and implement a single hand-written vector-Jacobian
  product, so the training path and the inference path share bitwise-
  identical float64 numerics.

The split first-layer trick: an interaction-network edge update computes
``φ_e([e, v_s, v_r]) = concat([e, v_s, v_r]) @ W0 + b0``. Splitting
``W0`` by row blocks ``[We; Ws; Wr]`` gives

    e @ We + (v @ Ws)[senders] + (v @ Wr)[receivers] + b0

which replaces two *edge-sized* matmul blocks with *node-sized* ones
(~20× fewer flops on those blocks at GNS densities) and eliminates the
edge-sized concatenation entirely. The bias is folded into the sender
projection so it is added once per node instead of once per edge.
"""
# repro-lint: fp32-ok — float32 inference fast path

from __future__ import annotations

import numpy as np

from ..backend import get_backend
from .scatter import SortedSegments, segment_sum
from .tensor import Tensor, as_tensor

__all__ = [
    "linear_relu", "mlp_forward", "fused_edge_mlp", "fused_node_mlp",
    "mlp_forward_numpy", "edge_mlp_first_layer", "node_mlp_first_layer",
    "layer_norm_inplace",
]

# cached per-(width, dtype) mean vectors: row means as a matvec run ~2.5×
# faster than ndarray.mean on the reduction-heavy LayerNorm path
_MEAN_VECS: dict[tuple[int, np.dtype], np.ndarray] = {}


def _mean_vec(width: int, dtype) -> np.ndarray:
    key = (width, np.dtype(dtype))
    vec = _MEAN_VECS.get(key)
    if vec is None:
        vec = np.full(width, 1.0 / width, dtype=dtype)
        _MEAN_VECS[key] = vec
    return vec


def _buf(getbuf, tag: str, shape: tuple, dtype) -> np.ndarray:
    if getbuf is None:
        return np.empty(shape, dtype=dtype)
    return getbuf(tag, shape, dtype)


def _accel_for(h: np.ndarray, saved, backend=None) -> object | None:
    """Compiled kernels for the fused float32 tail of ``h``, or None.

    Only the no-grad float32 path runs :func:`_mlp_tail_accel`, whose
    LayerNorm kernel reassociates its sums: tape mode (``saved``) keeps
    the float64 contract and needs the NumPy intermediates for the VJP.
    The float64 tail asks :func:`_accel64` instead, one step at a time,
    and its kernels keep NumPy's bits. ``backend`` is resolved by
    :func:`repro.backend.get_backend` (the inference engine passes the
    handle it resolved at construction).
    """
    if saved is not None or h.dtype != np.float32 or not h.flags.c_contiguous:
        return None
    return get_backend(backend).float32_kernels()


_TAPE_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def _accel64(backend, *arrays: np.ndarray) -> object | None:
    """Compiled kernels for the float64 glue over ``arrays``, or None.

    They run when every array is C-contiguous float64 (int64 for
    indices) and the switch is ``accel``. Each float64 glue kernel
    repeats its NumPy expression's operations in order (see
    :mod:`repro.accel.cpu`), so the answer changes speed, never bits.
    """
    for a in arrays:
        if a.dtype not in _TAPE_DTYPES or not a.flags.c_contiguous:
            return None
    return get_backend(backend).float32_kernels()


# ----------------------------------------------------------------------
# NumPy forward kernels (shared by tape ops and no-grad inference)
# ----------------------------------------------------------------------

def _ln_stats(h: np.ndarray, eps: float, out: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(centered, inv_std)`` for LayerNorm over the last axis;
    ``out=h`` centres in place."""
    width = h.shape[-1]
    mu = h @ _mean_vec(width, h.dtype)
    centered = np.subtract(h, mu[:, None], out=out)
    var = np.einsum("ij,ij->i", centered, centered)
    var /= width
    var += eps
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    return centered, inv


def layer_norm_inplace(h: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       eps: float, backend=None) -> np.ndarray:
    """LayerNorm over the last axis, overwriting ``h``.

    float32 inputs dispatch to the single-pass C kernel when available
    (last-ulp differences vs NumPy; see :mod:`repro.accel.cpu`)."""
    if h.ndim == 2:
        kern = _accel_for(h, None, backend)
        if (kern is not None and gamma.dtype == np.float32
                and beta.dtype == np.float32
                and gamma.flags.c_contiguous and beta.flags.c_contiguous):
            return kern.ln(h, gamma, beta, eps)
    width = h.shape[-1]
    mu = h @ _mean_vec(width, h.dtype)
    np.subtract(h, mu[:, None], out=h)
    var = np.einsum("ij,ij->i", h, h)
    var /= width
    var += eps
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=var)
    h *= var[:, None]
    h *= gamma
    h += beta
    return h


def _mlp_tail_accel(h: np.ndarray, weights, biases, gamma, beta, eps: float,
                    getbuf, tag: str, kern, bias0: np.ndarray | None = None
                    ) -> np.ndarray:
    """float32 tail using the fused C kernels (bias+ReLU, bias+LayerNorm).

    ``h`` is the layer-0 pre-activation. With ``bias0`` the layer-0 bias
    has not been added yet and is fused into the first ReLU. Requires
    ``len(weights) > 1``.
    """
    depth = len(weights)
    for k in range(1, depth):
        if k > 1:
            kern.bias_relu(h, biases[k - 1])
        elif bias0 is not None:
            kern.bias_relu(h, bias0)
        else:
            kern.relu(h)
        out = _buf(getbuf, f"{tag}.{k}", (h.shape[0], weights[k].shape[1]),
                   h.dtype)
        h = np.matmul(h, weights[k], out=out)
    if gamma is not None:
        kern.bias_ln(h, biases[depth - 1], gamma, beta, eps)
    else:
        h += biases[depth - 1]
    return h


def _mlp_tail(h: np.ndarray, weights, biases, gamma, beta, eps: float,
              getbuf=None, tag: str = "mlp", saved: dict | None = None,
              backend=None, bias0: np.ndarray | None = None,
              activated: bool = False) -> np.ndarray:
    """Layers 1..K−1 plus optional LayerNorm, given layer-0 pre-activation.

    With ``bias0`` the layer-0 bias has not been added yet; with
    ``activated`` the caller already applied the first ReLU (the float64
    split edge first layer). With ``saved`` (tape mode) every
    intermediate is a fresh allocation and the post-ReLU activations /
    LayerNorm stats are recorded for the VJP. Without it, ReLU and
    LayerNorm run in place and matmuls target caller buffers — same
    operations, bitwise-identical values. On the no-grad float32 path,
    multi-layer tails dispatch to the fused C kernels when available; on
    float64 each bias+ReLU, ReLU and tape LayerNorm step calls its
    compiled kernel when :func:`_accel64` gives one, its NumPy
    expression otherwise.
    """
    if len(weights) > 1:
        kern = _accel_for(h, saved, backend)
        if kern is not None:
            return _mlp_tail_accel(h, weights, biases, gamma, beta, eps,
                                   getbuf, tag, kern, bias0=bias0)
    norm = () if gamma is None else (gamma, beta)
    kern = _accel64(backend, h, *biases, *norm)
    acts = []
    pending = bias0  # the bias still to add before the next ReLU
    for k in range(1, len(weights)):
        if kern is None:
            if pending is not None:
                h += pending
            np.maximum(h, 0.0, out=h)
        elif pending is not None:
            kern.bias_relu64(h, pending)
        elif not activated:
            kern.relu64(h)
        acts.append(h)
        out = _buf(getbuf, f"{tag}.{k}", (h.shape[0], weights[k].shape[1]),
                   h.dtype)
        h = np.matmul(h, weights[k], out=out)
        pending = biases[k]
    if pending is not None:
        h += pending
    if gamma is not None:
        if saved is not None:
            # the kernel path centres h, this op's own fresh array, in place
            xhat, inv = _ln_stats(h, eps, out=None if kern is None else h)
            if kern is not None:
                h = kern.ln_affine64(xhat, inv, gamma, beta,
                                     np.empty_like(h))
            else:
                xhat *= inv[:, None]
                h = xhat * gamma
                h += beta
            saved["xhat"], saved["inv"] = xhat, inv
        else:
            layer_norm_inplace(h, gamma, beta, eps, backend=backend)
    if saved is not None:
        saved["acts"] = acts
    return h


def mlp_forward_numpy(x: np.ndarray, weights, biases, gamma=None, beta=None,
                      eps: float = 1e-5, getbuf=None, tag: str = "mlp",
                      saved: dict | None = None, backend=None) -> np.ndarray:
    """ReLU MLP (+ optional LayerNorm) on plain arrays.

    ``weights``/``biases`` are per-layer arrays; ``getbuf(tag, shape,
    dtype)`` optionally supplies reusable output buffers (inference
    engine); ``saved`` (mutually exclusive with ``getbuf``) records
    intermediates for a fused backward pass.
    """
    # promoted as `x @ w` would: a float32 input with float64
    # parameters runs in float64
    h = np.matmul(x, weights[0],
                  out=_buf(getbuf, f"{tag}.0", (x.shape[0], weights[0].shape[1]),
                           np.result_type(x, weights[0])))
    # layer-0 bias folds into the first bias+ReLU pass
    return _mlp_tail(h, weights, biases, gamma, beta, eps, getbuf=getbuf,
                     tag=tag, saved=saved, backend=backend, bias0=biases[0])


def edge_mlp_first_layer(edge_f: np.ndarray, node_f: np.ndarray,
                         senders: np.ndarray, receivers: np.ndarray,
                         w0: np.ndarray, b0: np.ndarray,
                         out: np.ndarray | None = None,
                         kern=None) -> np.ndarray:
    """Split-evaluate ``concat([edge_f, node_f[s], node_f[r]]) @ w0 + b0``.

    With ``kern`` (float64 operands) the two gather-adds and the ReLU
    that follows run as one compiled pass, and the result is activated.
    """
    ein = edge_f.shape[1]
    width = node_f.shape[1]
    w_edge = w0[:ein]
    w_send = w0[ein:ein + width]
    w_recv = w0[ein + width:]
    proj_s = node_f @ w_send
    proj_s += b0  # bias folded: added once per node, not once per edge
    proj_r = node_f @ w_recv
    if out is None:
        h = edge_f @ w_edge
    else:
        h = np.matmul(edge_f, w_edge, out=out)
    if kern is not None:
        return kern.gather2_add_relu64(h, proj_s, proj_r, senders, receivers)
    h += proj_s.take(senders, axis=0)
    h += proj_r.take(receivers, axis=0)
    return h


def node_mlp_first_layer(node_f: np.ndarray, agg: np.ndarray,
                         w0: np.ndarray, b0: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Split-evaluate ``concat([node_f, agg]) @ w0 + b0``."""
    width = node_f.shape[1]
    if out is None:
        h = node_f @ w0[:width]
    else:
        h = np.matmul(node_f, w0[:width], out=out)
    h += agg @ w0[width:]
    h += b0
    return h


# ----------------------------------------------------------------------
# Fused tape ops
# ----------------------------------------------------------------------

def _as_param_lists(weights, biases):
    return [as_tensor(w) for w in weights], [as_tensor(b) for b in biases]


def _mlp_backward_tail(g: np.ndarray, saved: dict, weights, biases,
                       gamma, beta, grads) -> np.ndarray:
    """Backward through LayerNorm + layers K−1..1; returns grad at the
    layer-0 pre-activation."""
    if gamma is not None:
        xhat, inv = saved["xhat"], saved["inv"]
        width = xhat.shape[1]
        if grads.wants(gamma):
            Tensor._add_grad(grads, gamma, np.einsum("ij,ij->j", g, xhat))
        if grads.wants(beta):
            Tensor._add_grad(grads, beta, g.sum(axis=0))
        gxh = g * gamma.data
        m1 = gxh @ _mean_vec(width, gxh.dtype)
        m2 = np.einsum("ij,ij->i", gxh, xhat)
        m2 /= width
        kern = _accel64(None, gxh, xhat)
        if kern is not None:
            gh = kern.ln_vjp64(gxh, xhat, m1, m2, inv)
        else:
            gh = gxh
            gh -= m1[:, None]
            gh -= xhat * m2[:, None]
            gh *= inv[:, None]
    else:
        gh = np.asarray(g)
    acts = saved["acts"]
    for k in range(len(weights) - 1, 0, -1):
        act = acts[k - 1]
        if grads.wants(weights[k]):
            Tensor._add_grad(grads, weights[k], act.T @ gh)
        if grads.wants(biases[k]):
            Tensor._add_grad(grads, biases[k], gh.sum(axis=0))
        gh = gh @ weights[k].data.T
        kern = _accel64(None, gh, act)
        if kern is not None:
            kern.relu_mask64(gh, act)
        else:
            gh *= act > 0
    return gh


def _ln_parents(gamma, beta):
    return ([gamma, beta], gamma, beta) if gamma is not None else ([], None, None)


def linear_relu(x, weight, bias) -> Tensor:
    """Fused ``relu(x @ weight + bias)`` — one tape node, one temporary."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    out = np.matmul(x.data, weight.data)
    out += bias.data
    np.maximum(out, 0.0, out=out)

    def backward(g, grads):
        gh = g * (out > 0)
        if grads.wants(weight):
            Tensor._add_grad(grads, weight, x.data.T @ gh)
        if grads.wants(bias):
            Tensor._add_grad(grads, bias, gh.sum(axis=0))
        if grads.wants(x):
            Tensor._add_grad(grads, x, gh @ weight.data.T)

    return Tensor._make(out, (x, weight, bias), backward)


def mlp_forward(x, weights, biases, gamma=None, beta=None,
                eps: float = 1e-5) -> Tensor:
    """Whole ReLU MLP (+ optional LayerNorm) as a single tape node."""
    x = as_tensor(x)
    weights, biases = _as_param_lists(weights, biases)
    ln_parents, gamma, beta = _ln_parents(
        as_tensor(gamma) if gamma is not None else None,
        as_tensor(beta) if beta is not None else None)
    saved: dict = {}
    out = mlp_forward_numpy(x.data, [w.data for w in weights],
                            [b.data for b in biases],
                            gamma.data if gamma is not None else None,
                            beta.data if beta is not None else None,
                            eps, saved=saved)

    def backward(g, grads):
        gh = _mlp_backward_tail(g, saved, weights, biases, gamma, beta, grads)
        if grads.wants(weights[0]):
            Tensor._add_grad(grads, weights[0], x.data.T @ gh)
        if grads.wants(biases[0]):
            Tensor._add_grad(grads, biases[0], gh.sum(axis=0))
        if grads.wants(x):
            Tensor._add_grad(grads, x, gh @ weights[0].data.T)

    return Tensor._make(out, [x] + weights + biases + ln_parents, backward)


def fused_edge_mlp(edge_f, node_f, senders: np.ndarray, receivers: np.ndarray,
                   weights, biases, gamma=None, beta=None,
                   eps: float = 1e-5, *,
                   sender_plan: SortedSegments | None = None,
                   receiver_plan: SortedSegments | None = None) -> Tensor:
    """Edge MLP ``φ_e([e, v_s, v_r])`` with the split first layer, fused
    into one tape node (gathers, concat, all linear layers, LayerNorm).

    ``sender_plan`` / ``receiver_plan`` are :class:`SortedSegments` over
    ``senders`` / ``receivers``; the VJP's two node-side segment sums
    reuse their cached CSR matrices (bitwise-equal to the stateless
    path)."""
    edge_f, node_f = as_tensor(edge_f), as_tensor(node_f)
    weights, biases = _as_param_lists(weights, biases)
    ln_parents, gamma, beta = _ln_parents(
        as_tensor(gamma) if gamma is not None else None,
        as_tensor(beta) if beta is not None else None)
    senders = np.asarray(senders, dtype=np.intp)
    receivers = np.asarray(receivers, dtype=np.intp)
    saved: dict = {}
    # the kernel applies the first ReLU, which a one-layer MLP does not have
    kern = _accel64(None, edge_f.data, node_f.data, weights[0].data,
                    biases[0].data, senders,
                    receivers) if len(weights) > 1 else None
    h0 = edge_mlp_first_layer(edge_f.data, node_f.data, senders, receivers,
                              weights[0].data, biases[0].data, kern=kern)
    out = _mlp_tail(h0, [w.data for w in weights], [b.data for b in biases],
                    gamma.data if gamma is not None else None,
                    beta.data if beta is not None else None,
                    eps, saved=saved, activated=kern is not None)

    def backward(g, grads):
        gh = _mlp_backward_tail(g, saved, weights, biases, gamma, beta, grads)
        w0 = weights[0].data
        ein = edge_f.data.shape[1]
        width = node_f.data.shape[1]
        n = node_f.data.shape[0]
        if grads.wants(weights[0]) or grads.wants(node_f):
            seg_s = segment_sum(gh, senders, n, plan=sender_plan)
            seg_r = segment_sum(gh, receivers, n, plan=receiver_plan)
        if grads.wants(weights[0]):
            gw0 = np.empty_like(w0)
            gw0[:ein] = edge_f.data.T @ gh
            gw0[ein:ein + width] = node_f.data.T @ seg_s
            gw0[ein + width:] = node_f.data.T @ seg_r
            Tensor._add_grad(grads, weights[0], gw0)
        if grads.wants(biases[0]):
            Tensor._add_grad(grads, biases[0], gh.sum(axis=0))
        if grads.wants(edge_f):
            Tensor._add_grad(grads, edge_f, gh @ w0[:ein].T)
        if grads.wants(node_f):
            gnodes = seg_s @ w0[ein:ein + width].T
            gnodes += seg_r @ w0[ein + width:].T
            Tensor._add_grad(grads, node_f, gnodes)

    return Tensor._make(out, [edge_f, node_f] + weights + biases + ln_parents,
                        backward)


def fused_node_mlp(node_f, agg, weights, biases, gamma=None, beta=None,
                   eps: float = 1e-5, residual=None) -> Tensor:
    """Node MLP ``φ_v([v, Σe'])`` with the split first layer, fused into
    one tape node.

    ``residual`` optionally folds the interaction-network skip connection
    ``residual + φ_v(...)`` into the same node (its VJP is the identity),
    saving one tape node and one closure per processor block.
    """
    node_f, agg = as_tensor(node_f), as_tensor(agg)
    weights, biases = _as_param_lists(weights, biases)
    ln_parents, gamma, beta = _ln_parents(
        as_tensor(gamma) if gamma is not None else None,
        as_tensor(beta) if beta is not None else None)
    if residual is not None:
        residual = as_tensor(residual)
    saved: dict = {}
    h0 = node_mlp_first_layer(node_f.data, agg.data, weights[0].data,
                              biases[0].data)
    out = _mlp_tail(h0, [w.data for w in weights], [b.data for b in biases],
                    gamma.data if gamma is not None else None,
                    beta.data if beta is not None else None,
                    eps, saved=saved)
    if residual is not None:
        # same operand order as the unfused `residual + update` tape op,
        # so the fold is bitwise-neutral
        out = residual.data + out

    def backward(g, grads):
        if residual is not None and grads.wants(residual):
            Tensor._add_grad(grads, residual, g)
        gh = _mlp_backward_tail(g, saved, weights, biases, gamma, beta, grads)
        w0 = weights[0].data
        width = node_f.data.shape[1]
        if grads.wants(weights[0]):
            gw0 = np.empty_like(w0)
            gw0[:width] = node_f.data.T @ gh
            gw0[width:] = agg.data.T @ gh
            Tensor._add_grad(grads, weights[0], gw0)
        if grads.wants(biases[0]):
            Tensor._add_grad(grads, biases[0], gh.sum(axis=0))
        if grads.wants(node_f):
            Tensor._add_grad(grads, node_f, gh @ w0[:width].T)
        if grads.wants(agg):
            Tensor._add_grad(grads, agg, gh @ w0[width:].T)

    parents = [node_f, agg] + weights + biases + ln_parents
    if residual is not None:
        parents.append(residual)
    return Tensor._make(out, parents, backward)
