"""Fused MLP kernels: gradient correctness and equivalence.

Each fused op (one tape node per MLP) must match the composite-op
construction both forward (bitwise in float64 where the kernels are
shared) and backward (against central differences and against the
composite tape's gradients).
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, concatenate
from repro.autodiff.functional import layer_norm, relu
from repro.autodiff.fused import (
    edge_mlp_first_layer, fused_edge_mlp, fused_node_mlp, linear_relu,
    mlp_forward, mlp_forward_numpy, node_mlp_first_layer,
)
from repro.autodiff.scatter import gather
from repro.nn import MLP

from .helpers import check_grad

RNG = np.random.default_rng(0)


def make_params(sizes, rng, scale=0.5):
    ws = [Tensor(rng.normal(0, scale, (a, b)), requires_grad=True)
          for a, b in zip(sizes[:-1], sizes[1:])]
    bs = [Tensor(rng.normal(0, 0.1, (b,)), requires_grad=True)
          for b in sizes[1:]]
    gamma = Tensor(rng.normal(1.0, 0.1, (sizes[-1],)), requires_grad=True)
    beta = Tensor(rng.normal(0.0, 0.1, (sizes[-1],)), requires_grad=True)
    return ws, bs, gamma, beta


class TestLinearRelu:
    def test_forward_matches_composite(self):
        x = Tensor(RNG.normal(size=(7, 4)))
        w = Tensor(RNG.normal(size=(4, 5)))
        b = Tensor(RNG.normal(size=(5,)))
        fused = linear_relu(x, w, b)
        composite = relu(x @ w + b)
        np.testing.assert_array_equal(fused.data, composite.data)

    def test_grad_x(self):
        w = RNG.normal(size=(4, 5))
        b = RNG.normal(size=(5,))
        check_grad(lambda x: (linear_relu(x, Tensor(w), Tensor(b)) ** 2).sum(),
                   RNG.normal(size=(6, 4)))

    def test_grad_weight_and_bias(self):
        x = RNG.normal(size=(6, 4))
        b = RNG.normal(size=(5,))
        check_grad(lambda w: (linear_relu(Tensor(x), w, Tensor(b)) ** 2).sum(),
                   RNG.normal(size=(4, 5)))
        w = RNG.normal(size=(4, 5))
        check_grad(lambda bb: (linear_relu(Tensor(x), Tensor(w), bb) ** 2).sum(),
                   RNG.normal(size=(5,)))


class TestMlpForward:
    @pytest.mark.parametrize("with_ln", [True, False])
    def test_forward_matches_composite(self, with_ln):
        rng = np.random.default_rng(1)
        ws, bs, gamma, beta = make_params([4, 8, 8, 3], rng)
        x = Tensor(rng.normal(size=(10, 4)))
        g, bt = (gamma, beta) if with_ln else (None, None)
        fused = mlp_forward(x, ws, bs, g, bt)
        h = x
        for w, b in zip(ws[:-1], bs[:-1]):
            h = relu(h @ w + b)
        h = h @ ws[-1] + bs[-1]
        if with_ln:
            h = layer_norm(h, gamma, beta)
        np.testing.assert_allclose(fused.data, h.data, rtol=0, atol=1e-14)

    def test_grad_input(self):
        rng = np.random.default_rng(2)
        ws, bs, gamma, beta = make_params([3, 6, 4], rng)
        check_grad(lambda x: (mlp_forward(x, ws, bs, gamma, beta) ** 2).sum(),
                   rng.normal(size=(5, 3)))

    def test_grad_all_params(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        ws, bs, gamma, beta = make_params([3, 6, 4], rng)

        def rebuild(flat_w0):
            ws2 = [flat_w0] + ws[1:]
            return (mlp_forward(Tensor(x), ws2, bs, gamma, beta) ** 2).sum()

        check_grad(rebuild, ws[0].data.copy())
        check_grad(lambda g: (mlp_forward(Tensor(x), ws, bs, g, beta) ** 2).sum(),
                   gamma.data.copy())
        check_grad(lambda b0: (mlp_forward(Tensor(x), ws,
                                           [b0] + bs[1:], gamma, beta) ** 2).sum(),
                   bs[0].data.copy())

    def test_matches_composite_backward(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(9, 4))
        sizes = [4, 8, 8, 3]

        def params():
            r = np.random.default_rng(7)
            return make_params(sizes, r)

        ws1, bs1, g1, be1 = params()
        t1 = Tensor(x.copy(), requires_grad=True)
        (mlp_forward(t1, ws1, bs1, g1, be1) ** 2).sum().backward()

        ws2, bs2, g2, be2 = params()
        t2 = Tensor(x.copy(), requires_grad=True)
        h = t2
        for w, b in zip(ws2[:-1], bs2[:-1]):
            h = relu(h @ w + b)
        h = h @ ws2[-1] + bs2[-1]
        (layer_norm(h, g2, be2) ** 2).sum().backward()

        np.testing.assert_allclose(t1.grad, t2.grad, rtol=1e-10, atol=1e-12)
        for a, b in zip(ws1 + bs1 + [g1, be1], ws2 + bs2 + [g2, be2]):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-10, atol=1e-12)


def graph_fixture(rng, n=12, e=30, latent=6, edge_in=None):
    senders = rng.integers(0, n, size=e)
    receivers = np.sort(rng.integers(0, n, size=e))
    nodes = rng.normal(size=(n, latent))
    edges = rng.normal(size=(e, edge_in or latent))
    return nodes, edges, senders, receivers


class TestFusedGraphMlps:
    def test_edge_mlp_matches_composite(self):
        rng = np.random.default_rng(5)
        latent = 6
        nodes, edges, senders, receivers = graph_fixture(rng, latent=latent)
        ws, bs, gamma, beta = make_params([3 * latent, 8, latent], rng)

        nt, et = Tensor(nodes), Tensor(edges)
        fused = fused_edge_mlp(et, nt, senders, receivers, ws, bs, gamma, beta)
        edge_in = concatenate([et, gather(nt, senders),
                               gather(nt, receivers)], axis=1)
        h = edge_in
        for w, b in zip(ws[:-1], bs[:-1]):
            h = relu(h @ w + b)
        h = h @ ws[-1] + bs[-1]
        composite = layer_norm(h, gamma, beta)
        np.testing.assert_allclose(fused.data, composite.data,
                                   rtol=0, atol=1e-13)

    def test_edge_mlp_grads(self):
        rng = np.random.default_rng(6)
        latent = 4
        nodes, edges, senders, receivers = graph_fixture(
            rng, n=8, e=18, latent=latent)
        ws, bs, gamma, beta = make_params([3 * latent, 6, latent], rng)

        check_grad(lambda nd: (fused_edge_mlp(Tensor(edges), nd, senders,
                                              receivers, ws, bs, gamma,
                                              beta) ** 2).sum(),
                   nodes, rtol=1e-4, atol=1e-6)
        check_grad(lambda ed: (fused_edge_mlp(ed, Tensor(nodes), senders,
                                              receivers, ws, bs, gamma,
                                              beta) ** 2).sum(),
                   edges, rtol=1e-4, atol=1e-6)
        check_grad(lambda w0: (fused_edge_mlp(Tensor(edges), Tensor(nodes),
                                              senders, receivers,
                                              [w0, ws[1]], bs, gamma,
                                              beta) ** 2).sum(),
                   ws[0].data.copy(), rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("with_ln", [True, False], ids=["ln", "no-ln"])
    def test_one_layer_edge_mlp_keeps_bits_across_backends(self, monkeypatch,
                                                           with_ln):
        """A one-layer edge MLP has no ReLU: the float64 tape gives the
        composite's values and the same bits with and without the
        compiled kernels, forward and backward."""
        latent = 4

        def run():
            rng = np.random.default_rng(13)
            nodes, edges, senders, receivers = graph_fixture(rng,
                                                             latent=latent)
            ws, bs, gamma, beta = make_params([3 * latent, latent], rng)
            norm = [gamma, beta] if with_ln else []
            nt = Tensor(nodes, requires_grad=True)
            et = Tensor(edges, requires_grad=True)
            out = fused_edge_mlp(et, nt, senders, receivers, ws, bs, *norm)
            h = concatenate([et, gather(nt, senders), gather(nt, receivers)],
                            axis=1) @ ws[0] + bs[0]
            if with_ln:
                h = layer_norm(h, gamma, beta)
            np.testing.assert_allclose(out.data, h.data, rtol=0, atol=1e-13)
            (out ** 2).sum().backward()
            return [out.data] + [p.grad for p in [nt, et] + ws + bs + norm]

        monkeypatch.setenv("REPRO_BACKEND", "accel")
        got = run()
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        reference = run()
        for a, b in zip(got, reference, strict=True):
            np.testing.assert_array_equal(a.view(np.int64),
                                          b.view(np.int64))

    def test_node_mlp_matches_composite_and_grads(self):
        rng = np.random.default_rng(8)
        latent = 4
        n = 9
        nodes = rng.normal(size=(n, latent))
        agg = rng.normal(size=(n, latent))
        ws, bs, gamma, beta = make_params([2 * latent, 6, latent], rng)

        fused = fused_node_mlp(Tensor(nodes), Tensor(agg), ws, bs, gamma, beta)
        h = concatenate([Tensor(nodes), Tensor(agg)], axis=1)
        for w, b in zip(ws[:-1], bs[:-1]):
            h = relu(h @ w + b)
        h = h @ ws[-1] + bs[-1]
        composite = layer_norm(h, gamma, beta)
        np.testing.assert_allclose(fused.data, composite.data,
                                   rtol=0, atol=1e-13)

        check_grad(lambda nd: (fused_node_mlp(nd, Tensor(agg), ws, bs,
                                              gamma, beta) ** 2).sum(),
                   nodes, rtol=1e-4, atol=1e-6)
        check_grad(lambda ag: (fused_node_mlp(Tensor(nodes), ag, ws, bs,
                                              gamma, beta) ** 2).sum(),
                   agg, rtol=1e-4, atol=1e-6)


class TestNumpyKernels:
    def test_mlp_forward_numpy_matches_tape(self):
        rng = np.random.default_rng(9)
        mlp = MLP([5, 8, 8, 3], rng, layer_norm=True)
        x = rng.normal(size=(11, 5))
        tape = mlp(Tensor(x)).data
        ws, bs, gamma, beta, eps = mlp.arrays(np.float64)
        plain = mlp_forward_numpy(x, ws, bs, gamma, beta, eps)
        np.testing.assert_array_equal(tape, plain)

    def test_first_layer_split_matches_concat(self):
        rng = np.random.default_rng(10)
        latent = 6
        nodes, edges, senders, receivers = graph_fixture(rng, latent=latent)
        w0 = rng.normal(size=(3 * latent, 8))
        b0 = rng.normal(size=(8,))
        split = edge_mlp_first_layer(edges, nodes, senders, receivers, w0, b0)
        concat = np.concatenate([edges, nodes[senders], nodes[receivers]],
                                axis=1) @ w0 + b0
        np.testing.assert_allclose(split, concat, rtol=1e-13, atol=1e-14)

        agg = rng.normal(size=(nodes.shape[0], latent))
        w0n = rng.normal(size=(2 * latent, 8))
        split_n = node_mlp_first_layer(nodes, agg, w0n, b0)
        concat_n = np.concatenate([nodes, agg], axis=1) @ w0n + b0
        np.testing.assert_allclose(split_n, concat_n, rtol=1e-13, atol=1e-14)

    def test_empty_edges(self):
        rng = np.random.default_rng(12)
        latent = 4
        nodes = rng.normal(size=(5, latent))
        edges = np.zeros((0, latent))
        senders = receivers = np.zeros(0, dtype=np.intp)
        ws, bs, gamma, beta = make_params([3 * latent, 6, latent], rng)
        out = fused_edge_mlp(Tensor(edges), Tensor(nodes), senders, receivers,
                             ws, bs, gamma, beta)
        assert out.shape == (0, latent)
        (out ** 2).sum().backward()
