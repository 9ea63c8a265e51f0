"""Backward-pass mechanics: the sweep consumes the graph, and
``backward(inputs=...)`` differentiates only the requested leaves.

The gradient contract is bitwise: a pruned backward gives each requested
leaf exactly the gradient a full backward gives it, over every op family
of the gradcheck suite (tensor primitives, scatter ops, fused MLP
kernels, compiled elementwise chains).
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.autodiff import (GraphConsumedError, SortedSegments, Tensor,
                            compile_tape, concatenate, fused_edge_mlp,
                            fused_node_mlp, gather, linear_relu, mlp_forward,
                            no_grad, scatter_add, scatter_mean,
                            scatter_softmax, stack, where)


def _arr(seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


def _pos(seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.5, 2.0, size=shape)


# ---------------------------------------------------------------- consuming

class TestConsume:
    def test_sweep_drops_closures_and_parent_links(self):
        x = Tensor(_arr(0, 4, 3), requires_grad=True)
        h = (x * 2.0).exp()
        loss = h.sum()
        loss.backward()
        for node in (h, loss):
            assert node._parents == ()
            with pytest.raises(GraphConsumedError):
                node._backward_fn(np.ones(node.shape), None)
        # leaves are never consumed: they can join a new graph
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(
            x.grad, 2.0 * np.exp(2.0 * x.data) + 3.0)

    def test_tape_memory_released_while_loss_is_held(self):
        x = Tensor(np.linspace(0.0, 1.0, 100_000), requires_grad=True)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = x
            for _ in range(8):
                h = (h * 1.001).tanh()
            loss = h.sum()
            del h
            taped = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # 8 ops x (output + saved operands) of 800 kB each were alive
        assert taped > 8 * 800_000
        # what remains is x.grad (one array) although `loss` is still held
        assert loss.data.shape == ()
        assert held < 1.5 * x.data.nbytes

    def test_second_backward_raises_and_keeps_grads(self):
        x = Tensor(_arr(1, 5), requires_grad=True)
        w = Tensor(_arr(2, 5), requires_grad=True)
        loss = ((x * w).tanh() * x).sum()
        loss.backward()
        before = [x.grad.copy(), w.grad.copy()]
        with pytest.raises(GraphConsumedError):
            loss.backward()
        np.testing.assert_array_equal(x.grad, before[0])
        np.testing.assert_array_equal(w.grad, before[1])

    def test_consumed_node_in_a_new_graph_raises_before_any_vjp(self):
        x = Tensor(_arr(3, 5), requires_grad=True)
        y = Tensor(_arr(4, 5), requires_grad=True)
        h = x.exp()
        h.sum().backward()
        gx = x.grad.copy()
        # y's branch would run first in the sweep; the traversal must
        # fail on the consumed `h` before any gradient is written
        loss = (h * 2.0).sum() + (y * y).sum()
        with pytest.raises(GraphConsumedError):
            loss.backward()
        np.testing.assert_array_equal(x.grad, gx)
        assert y.grad is None

    def test_no_grad_output_has_no_tape(self):
        x = Tensor(_arr(5, 3), requires_grad=True)
        with no_grad():
            out = (x * x).sum()
        assert out._backward_fn is None and not out.requires_grad

    @pytest.mark.parametrize("bad", ["non-leaf", "no-grad", "array"])
    def test_inputs_must_be_grad_leaves(self, bad):
        x = Tensor(_arr(6, 3), requires_grad=True)
        h = x * 2.0
        loss = h.sum()
        target = {"non-leaf": h, "no-grad": Tensor(_arr(7, 3)),
                  "array": x.data}[bad]
        with pytest.raises(ValueError):
            loss.backward(inputs=[target])
        assert x.grad is None


# ------------------------------------------------------------ inputs pruning
A, B, C = _arr(10, 4, 3), _arr(11, 4, 3), _arr(12, 4, 3)
P = _pos(13, 4, 3)
M = _arr(14, 3, 5)
COND = _arr(15, 4, 3) > 0
IDX6 = np.array([0, 2, 1, 0, 3, 2], dtype=np.intp)
SEG6 = np.array([0, 0, 1, 2, 2, 2], dtype=np.intp)
E6 = _arr(16, 6, 3)
L6 = _arr(17, 6)
# fused-kernel shapes: 4 nodes (width 3), 6 edges (width 2), hidden 5
NODE, AGG, EDGE = _arr(20, 4, 3), _arr(21, 4, 3), _arr(22, 6, 2)
W0, WE0, WN0 = 0.4 * _arr(23, 3, 5), 0.4 * _arr(24, 8, 5), 0.4 * _arr(25, 6, 5)
B0, W1, B1 = 0.1 * _arr(26, 5), 0.4 * _arr(27, 5, 3), 0.1 * _arr(28, 3)
GAMMA, BETA = 1.0 + 0.1 * _arr(29, 3), 0.1 * _arr(30, 3)
SEND = np.array([0, 1, 2, 3, 0, 2], dtype=np.intp)
RECV = np.array([1, 2, 3, 0, 2, 1], dtype=np.intp)
CHAIN = compile_tape(lambda a, b: ((a - b) * 2.0).tanh() / (b * b + 1.0),
                     name="pair")

# name -> (leaf arrays, build(leaves) -> scalar loss); every op has at
# least two grad-requiring parents so a pruned VJP must skip one of them
CASES = {
    "add": ([A, B], lambda x, y: ((x + y) * C).sum()),
    "sub": ([A, B], lambda x, y: ((x - y) * C).sum()),
    "mul": ([A, B], lambda x, y: ((x * y) * C).sum()),
    "div": ([A, P], lambda x, y: ((x / y) * C).sum()),
    "matmul": ([A, M], lambda x, m: ((x @ m) ** 2.0).sum()),
    "elementwise": ([A, B], lambda x, y: (x.tanh() * y.exp()
                                           + x.sigmoid() * y.sin()).sum()),
    "reductions": ([A, B], lambda x, y: (x.max(axis=1) * y.mean(axis=1)
                                         ).sum() + x.sum(axis=0).sum()
                   * y.min(axis=0).sum()),
    "shapes": ([A, B], lambda x, y: (x.reshape(3, 4).T * y[:, ::-1]).sum()
               + (x.expand_dims(0).squeeze(0) * y).sum()),
    "concat_stack_where": ([A, B], lambda x, y: (
        concatenate([x, y], axis=1).sum(axis=1)
        * stack([y, x], axis=0).sum(axis=(0, 2))).sum()
        + (where(COND, x, y) * C).sum()),
    "gather_scatter": ([A, E6], lambda x, e: (
        scatter_add(gather(x, IDX6) * e, SEG6, 3) ** 2.0).sum()),
    "scatter_mean_softmax": ([E6, L6], lambda e, l: (
        scatter_mean(e * scatter_softmax(l, SEG6, 3).reshape(-1, 1),
                     SEG6, 3) ** 2.0).sum()),
    "compiled_chain": ([A, P], lambda x, y: (CHAIN(x, y) * C).sum()),
    "linear_relu": ([NODE, W0, B0], lambda x, w, b: (
        linear_relu(x, w, b) ** 2.0).sum()),
    "mlp_forward": ([NODE, W0, W1, B0, B1, GAMMA, BETA],
                    lambda x, w0, w1, b0, b1, g, bt: (
                        mlp_forward(x, [w0, w1], [b0, b1], g, bt)
                        * NODE).sum()),
    "fused_edge_mlp": ([EDGE, NODE, WE0, W1, B0, B1, GAMMA, BETA],
                       lambda e, v, w0, w1, b0, b1, g, bt: (
                           fused_edge_mlp(e, v, SEND, RECV, [w0, w1],
                                          [b0, b1], g, bt) * E6).sum()),
    "fused_edge_mlp_plans": ([EDGE, NODE, WE0, W1, B0, B1, GAMMA, BETA],
                             lambda e, v, w0, w1, b0, b1, g, bt: (
                                 fused_edge_mlp(
                                     e, v, SEND, RECV, [w0, w1], [b0, b1],
                                     g, bt,
                                     sender_plan=SortedSegments(SEND, 4),
                                     receiver_plan=SortedSegments(RECV, 4))
                                 * E6).sum()),
    "fused_node_mlp": ([NODE, AGG, WN0, W1, B0, B1, GAMMA, BETA],
                       lambda v, a, w0, w1, b0, b1, g, bt: (
                           fused_node_mlp(v, a, [w0, w1], [b0, b1], g, bt,
                                          residual=v) * C).sum()),
}

PRUNE_CASES = [(name, i) for name, (leaves, _) in sorted(CASES.items())
               for i in range(len(leaves))]


def _leaves(arrays):
    return [Tensor(a.copy(), requires_grad=True) for a in arrays]


@pytest.mark.parametrize("name,wanted", PRUNE_CASES)
def test_pruned_grads_bitwise_equal_full(name, wanted):
    arrays, build = CASES[name]
    full = _leaves(arrays)
    build(*full).backward()
    leaves = _leaves(arrays)
    sentinels = [np.full(a.shape, 7.0) for a in arrays]
    for i, leaf in enumerate(leaves):
        if i != wanted:
            leaf.grad = sentinels[i]
    build(*leaves).backward(inputs=[leaves[wanted]])
    assert leaves[wanted].grad.tobytes() == full[wanted].grad.tobytes()
    for i, leaf in enumerate(leaves):
        if i != wanted:
            assert leaf.grad is sentinels[i]


@pytest.mark.parametrize("name", sorted(CASES))
def test_pruning_to_every_leaf_is_a_full_backward(name):
    arrays, build = CASES[name]
    full = _leaves(arrays)
    build(*full).backward()
    leaves = _leaves(arrays)
    build(*leaves).backward(inputs=leaves)
    for a, b in zip(leaves, full):
        assert a.grad.tobytes() == b.grad.tobytes()


def _recording_op(x: Tensor, calls: list, label: str) -> Tensor:
    def backward(g, grads):
        calls.append(label)
        Tensor._add_grad(grads, x, g)

    return Tensor._make(x.data.copy(), (x,), backward)


def test_only_nodes_on_a_path_to_the_inputs_are_swept():
    calls: list = []
    x = Tensor(_arr(40, 3), requires_grad=True)
    w = Tensor(_arr(41, 3), requires_grad=True)
    off = _recording_op(w, calls, "w-branch")
    on = _recording_op(x, calls, "x-branch")
    loss = (on * off).sum()
    loss.backward(inputs=[x])
    assert calls == ["x-branch"]
    assert w.grad is None
    np.testing.assert_array_equal(x.grad, w.data)
    # the off-path branch got no gradient and was consumed all the same
    with pytest.raises(GraphConsumedError):
        off.sum().backward()


def test_unreachable_input_gets_no_grad():
    x = Tensor(_arr(42, 3), requires_grad=True)
    z = Tensor(_arr(43, 3), requires_grad=True)
    (x * x).sum().backward(inputs=[z])
    assert x.grad is None and z.grad is None


def test_pruning_state_is_per_sweep_across_threads():
    """Two sweeps in flight at once on different threads, one pruned to
    ``x`` and one full, each see only their own pruning set."""
    barrier = threading.Barrier(2, timeout=10)

    def meet(t: Tensor) -> Tensor:
        def backward(g, grads):
            barrier.wait()           # both sweeps are mid-flight here
            Tensor._add_grad(grads, t, g)

        return Tensor._make(t.data.copy(), (t,), backward)

    results = {}

    def run(key, prune):
        x = Tensor(A.copy(), requires_grad=True)
        w = Tensor(M.copy(), requires_grad=True)
        loss = (meet(x @ w) ** 2.0).sum()
        loss.backward(inputs=[x] if prune else None)
        results[key] = (x.grad, w.grad)

    threads = [threading.Thread(target=run, args=(k, k == "pruned"))
               for k in ("pruned", "full")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    gx_pruned, gw_pruned = results["pruned"]
    gx_full, gw_full = results["full"]
    assert gw_pruned is None and gw_full is not None
    assert gx_pruned.tobytes() == gx_full.tobytes()


def test_no_grad_is_per_thread():
    """One thread's ``no_grad()`` (an inverter's final objective on a
    serve worker) must not stop another thread's forward from taping."""
    inside, done = threading.Event(), threading.Event()

    def untaped():
        with no_grad():
            inside.set()
            done.wait(timeout=10)

    worker = threading.Thread(target=untaped)
    worker.start()
    try:
        assert inside.wait(timeout=10)
        x = Tensor(_arr(44, 3), requires_grad=True)
        y = (x * x).sum()
    finally:
        done.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert y._backward_fn is not None
    y.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_concurrent_pruned_and_full_sweeps_stress():
    """More threads than cores, switching every microsecond, alternate
    pruned and full backward passes through a fused MLP; each sweep must
    give exactly the single-threaded gradients."""
    arrays, build = CASES["mlp_forward"]
    ref = _leaves(arrays)
    build(*ref).backward()
    failures = []

    def worker(index):
        for it in range(15):
            leaves = _leaves(arrays)
            wanted = (index + it) % len(leaves)
            prune = (index + it) % 2 == 0
            build(*leaves).backward(inputs=[leaves[wanted]] if prune
                                    else None)
            for i, leaf in enumerate(leaves):
                expect = ref[i].grad if (not prune or i == wanted) else None
                got = leaf.grad
                if (got is None) != (expect is None) or (
                        got is not None and got.tobytes() != expect.tobytes()):
                    failures.append((index, it, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
