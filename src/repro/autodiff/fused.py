"""Fused MLP kernels: one tape node per network block instead of ~8.

The GNS hot loop is dominated by small MLPs applied to every edge and
node. Composing them from Tensor primitives costs one Python closure,
one tape node, and at least one temporary array per op. This module
provides one MLP path for the tape and the inference engine, in both
dtypes:

* **Array-level MLPs** (:func:`mlp_forward_numpy`, :func:`edge_mlp_numpy`,
  :func:`node_mlp_numpy`). Each runs its first layer (split for the
  graph MLPs, below) and then the one tail, :func:`_mlp_tail`: the
  hidden layers and the optional LayerNorm. Their optional ``getbuf``
  hands out caller-managed buffers, so a rollout engine runs them
  allocation-free.
* **One kernel dispatcher**, :func:`_kernels`: the compiled kernels of
  :mod:`repro.accel` when the operands are C-contiguous, share one
  kernel dtype and use int64 indices, and the switch is ``accel``. Each
  bias+ReLU, ReLU and LayerNorm step of the tail runs the float32
  kernel, the float64 kernel or the NumPy expression by dtype, and the
  edge MLP's split first layer runs ``gather2_add_relu64`` in float64.
  Float64 kernels keep NumPy's bits. The float32 ones reassociate
  LayerNorm, so they run only without a tape (the float32 drift
  contract of the inference engine).
* **Fused tape ops** (:func:`linear_relu`, :func:`mlp_forward`,
  :func:`fused_edge_mlp`, :func:`fused_node_mlp`) that run the
  array-level MLPs forward and implement a single hand-written
  vector-Jacobian product, so the training path and the inference path
  share bitwise-identical float64 numerics.

The split first layer: an interaction-network edge update computes
``φ_e([e, v_s, v_r]) = concat([e, v_s, v_r]) @ W0 + b0``. Splitting
``W0`` by row blocks ``[We; Ws; Wr]`` gives

    e @ We + (v @ Ws)[senders] + (v @ Wr)[receivers] + b0

which replaces two *edge-sized* matmul blocks with *node-sized* ones
(~20× fewer flops on those blocks at GNS densities) and eliminates the
edge-sized concatenation entirely. The bias is folded into the sender
projection so it is added once per node instead of once per edge. The
node update ``φ_v([v, Σe'])`` splits the same way into ``v @ Wv +
agg @ Wa``.
"""
# repro-lint: fp32-ok — float32 inference fast path

from __future__ import annotations

import numpy as np

from ..backend import get_backend
from .scatter import SortedSegments, segment_sum
from .tensor import Tensor, as_tensor

__all__ = [
    "linear_relu", "mlp_forward", "fused_edge_mlp", "fused_node_mlp",
    "mlp_forward_numpy", "edge_mlp_numpy", "node_mlp_numpy",
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


_F32, _F64, _I64 = (np.dtype(t) for t in (np.float32, np.float64, np.int64))


def _kernels(backend, h: np.ndarray, *others: np.ndarray,
             tape: bool = False):
    """The compiled kernels for the array ``h`` and ``others``, or None.

    ``h`` sets the kernel dtype, float32 or float64; every array must be
    C-contiguous and of that dtype, or int64 (indices). ``backend`` is
    resolved by :func:`repro.backend.get_backend` (the inference engine
    passes the handle it resolved at construction). With ``tape`` (a
    recording forward or a VJP) float32 gets None: its LayerNorm kernel
    reassociates, and the tape keeps the float64 contract. The caller
    picks the dtype's kernel; the parameter vectors it then passes
    (biases, γ, β) must be contiguous and of ``h``'s dtype, as
    :meth:`repro.nn.MLP.arrays` and the tape's parameters are, or the
    kernel wrappers raise.
    """
    # native dtypes are singletons: identity is the cheapest test, and a
    # byte-swapped array (another dtype object) must not reach a kernel
    dtype = h.dtype
    if ((dtype is not _F64 and (tape or dtype is not _F32))
            or not h.flags.c_contiguous):
        return None
    for a in others:
        if not a.flags.c_contiguous or (a.dtype is not dtype
                                        and a.dtype is not _I64):
            return None
    return get_backend(backend).float32_kernels()


# ----------------------------------------------------------------------
# Array-level MLPs (shared by tape ops and no-grad inference)
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


def _relu(kern, h: np.ndarray, bias: np.ndarray | None) -> None:
    """In place ``h = max(h + bias, 0)``, or ``max(h, 0)`` without a
    bias."""
    if kern is None:
        if bias is not None:
            h += bias
        np.maximum(h, 0.0, out=h)
    elif h.dtype == _F32:
        if bias is None:
            kern.relu(h)
        else:
            kern.bias_relu(h, bias)
    elif bias is None:
        kern.relu64(h)
    else:
        kern.bias_relu64(h, bias)


def _layer_norm(kern, h: np.ndarray, bias: np.ndarray | None, gamma, beta,
                eps: float, saved: dict | None) -> np.ndarray:
    """``LayerNorm(h + bias)`` over rows (no bias when None). Without
    ``saved`` it overwrites ``h``; with it (tape mode) it returns a fresh
    array and records ``xhat``/``inv`` for the VJP."""
    if kern is not None and h.dtype == _F32:
        if bias is None:
            return kern.ln(h, gamma, beta, eps)
        return kern.bias_ln(h, bias, gamma, beta, eps)
    if bias is not None:
        h += bias
    if saved is None:
        _, inv = _ln_stats(h, eps, out=h)
        h *= inv[:, None]
        h *= gamma
        h += beta
        return h
    # the kernel path centres h, this op's own fresh array, in place
    xhat, inv = _ln_stats(h, eps, out=None if kern is None else h)
    if kern is not None:
        h = kern.ln_affine64(xhat, inv, gamma, beta, np.empty_like(h))
    else:
        xhat *= inv[:, None]
        h = xhat * gamma
        h += beta
    saved["xhat"], saved["inv"] = xhat, inv
    return h


def _mlp_tail(h: np.ndarray, weights, biases, gamma, beta, eps: float,
              kern, getbuf=None, tag: str = "mlp", saved: dict | None = None,
              bias0: np.ndarray | None = None,
              activated: bool = False) -> np.ndarray:
    """Layers 1..K−1 plus optional LayerNorm, given layer 0's output.

    With ``bias0`` the layer-0 bias has not been added yet: it folds
    into the first bias+ReLU (a one-layer MLP adds it on its own). With
    ``activated`` the first ReLU has been applied (the float64 split
    edge first layer). ``kern`` is :func:`_kernels`' answer for ``h``.
    With ``saved`` (tape mode) every intermediate is a fresh allocation
    and the post-ReLU activations / LayerNorm stats are recorded for the
    VJP. Without it, ReLU and LayerNorm run in place and matmuls target
    caller buffers — same operations, bitwise-identical values in
    float64.
    """
    if len(weights) == 1 and bias0 is not None:
        h += bias0
        bias0 = None
    acts = []
    pending = bias0  # the bias still to add before the next ReLU
    for k in range(1, len(weights)):
        if not activated:
            _relu(kern, h, pending)
        activated = False
        acts.append(h)
        out = _buf(getbuf, f"{tag}.{k}", (h.shape[0], weights[k].shape[1]),
                   h.dtype)
        h = np.matmul(h, weights[k], out=out)
        pending = biases[k]
    if gamma is not None:
        h = _layer_norm(kern, h, pending, gamma, beta, eps, saved)
    elif pending is not None:
        h += pending
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
    return _mlp_tail(h, weights, biases, gamma, beta, eps,
                     _kernels(backend, h, tape=saved is not None), getbuf,
                     tag, saved, bias0=biases[0])


def edge_mlp_numpy(edge_f: np.ndarray, node_f: np.ndarray,
                   senders: np.ndarray, receivers: np.ndarray, weights,
                   biases, gamma=None, beta=None, eps: float = 1e-5,
                   getbuf=None, tag: str = "edge", saved: dict | None = None,
                   backend=None) -> np.ndarray:
    """Edge MLP ``φ_e([e, v_s, v_r])`` on plain arrays: the split first
    layer, then the tail. ``weights[0]`` stacks the row blocks of ``e``,
    ``v_s`` and ``v_r``; the other arguments are as for
    :func:`mlp_forward_numpy`."""
    ein = edge_f.shape[1]
    width = node_f.shape[1]
    w0 = weights[0]
    proj_shape = (node_f.shape[0], w0.shape[1])
    dtype = np.result_type(node_f, w0)
    proj_s = np.matmul(node_f, w0[ein:ein + width],
                       out=_buf(getbuf, f"{tag}.proj_s", proj_shape, dtype))
    proj_s += biases[0]  # bias folded: added once per node, not once per edge
    proj_r = np.matmul(node_f, w0[ein + width:],
                       out=_buf(getbuf, f"{tag}.proj_r", proj_shape, dtype))
    h = np.matmul(edge_f, w0[:ein],
                  out=_buf(getbuf, f"{tag}.0", (edge_f.shape[0], w0.shape[1]),
                           np.result_type(edge_f, w0)))
    kern = _kernels(backend, h, proj_s, proj_r, senders, receivers,
                    tape=saved is not None)
    # the float64 kernel applies the first ReLU, which only an MLP with a
    # hidden layer has (there is no float32 one)
    activated = kern is not None and h.dtype == _F64 and len(weights) > 1
    if activated:
        kern.gather2_add_relu64(h, proj_s, proj_r, senders, receivers)
    else:
        h += proj_s.take(senders, axis=0)
        h += proj_r.take(receivers, axis=0)
    return _mlp_tail(h, weights, biases, gamma, beta, eps, kern, getbuf, tag,
                     saved, activated=activated)


def node_mlp_numpy(node_f: np.ndarray, agg: np.ndarray, weights, biases,
                   gamma=None, beta=None, eps: float = 1e-5, getbuf=None,
                   tag: str = "node", saved: dict | None = None,
                   backend=None) -> np.ndarray:
    """Node MLP ``φ_v([v, agg])`` on plain arrays: the split first layer
    ``v @ Wv + agg @ Wa`` (no concatenation), then the tail. Arguments as
    :func:`mlp_forward_numpy`."""
    width = node_f.shape[1]
    w0 = weights[0]
    shape = (node_f.shape[0], w0.shape[1])
    h = np.matmul(node_f, w0[:width],
                  out=_buf(getbuf, f"{tag}.0", shape,
                           np.result_type(node_f, w0)))
    h += np.matmul(agg, w0[width:],
                   out=_buf(getbuf, f"{tag}.agg", shape, h.dtype))
    # layer-0 bias folds into the first bias+ReLU pass
    return _mlp_tail(h, weights, biases, gamma, beta, eps,
                     _kernels(backend, h, tape=saved is not None), getbuf,
                     tag, saved, bias0=biases[0])


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
        kern = _kernels(None, gxh, xhat, tape=True)
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
        kern = _kernels(None, gh, act, tape=True)
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
    out = edge_mlp_numpy(edge_f.data, node_f.data, senders, receivers,
                         [w.data for w in weights], [b.data for b in biases],
                         gamma.data if gamma is not None else None,
                         beta.data if beta is not None else None,
                         eps, saved=saved)

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
    out = node_mlp_numpy(node_f.data, agg.data, [w.data for w in weights],
                         [b.data for b in biases],
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
