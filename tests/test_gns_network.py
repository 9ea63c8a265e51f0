"""Tests for the Encode-Process-Decode network and attention processor."""

import numpy as np

from repro.autodiff import Tensor
from repro.gns import EncodeProcessDecode, GNSNetworkConfig, InteractionNetwork
from repro.graph import Graph


def _toy_graph(n=5, seed=0, node_in=4, edge_in=3):
    rng = np.random.default_rng(seed)
    senders = np.array([0, 1, 2, 3, 4, 0])
    receivers = np.array([1, 2, 3, 4, 0, 2])
    return Graph(Tensor(rng.normal(size=(n, node_in))),
                 Tensor(rng.normal(size=(len(senders), edge_in))),
                 senders, receivers)


def _cfg(**kw):
    defaults = dict(node_input_size=4, edge_input_size=3, output_size=2,
                    latent_size=8, mlp_hidden_size=8, mlp_hidden_layers=1,
                    message_passing_steps=2)
    defaults.update(kw)
    return GNSNetworkConfig(**defaults)


class TestEncodeProcessDecode:
    def test_output_shape(self):
        net = EncodeProcessDecode(_cfg(), np.random.default_rng(0))
        out = net(_toy_graph())
        assert out.shape == (5, 2)

    def test_deterministic_given_seed(self):
        a = EncodeProcessDecode(_cfg(), np.random.default_rng(7))(_toy_graph())
        b = EncodeProcessDecode(_cfg(), np.random.default_rng(7))(_toy_graph())
        np.testing.assert_allclose(a.data, b.data)

    def test_gradients_reach_all_parameters(self):
        net = EncodeProcessDecode(_cfg(), np.random.default_rng(0))
        (net(_toy_graph()) ** 2).sum().backward()
        for name, p in net.named_parameters():
            assert p.grad is not None, name

    def test_attention_variant_runs_and_differs(self):
        rng_a = np.random.default_rng(3)
        plain = EncodeProcessDecode(_cfg(), np.random.default_rng(3))
        attn = EncodeProcessDecode(_cfg(attention=True), np.random.default_rng(3))
        g = _toy_graph()
        out_plain = plain(g)
        out_attn = attn(g)
        assert out_attn.shape == (5, 2)
        assert not np.allclose(out_plain.data, out_attn.data)

    def test_attention_params_trainable(self):
        net = EncodeProcessDecode(_cfg(attention=True), np.random.default_rng(0))
        (net(_toy_graph()) ** 2).sum().backward()
        attn_params = [n for n, p in net.named_parameters() if "attn" in n]
        assert attn_params
        for n, p in net.named_parameters():
            if "attn" in n:
                assert p.grad is not None

    def test_permutation_equivariance(self):
        """Relabeling nodes permutes outputs identically — the GNS
        permutation-invariance claim from Section 3."""
        net = EncodeProcessDecode(_cfg(), np.random.default_rng(0))
        g = _toy_graph()
        perm = np.array([2, 0, 4, 1, 3])     # new_id = perm[old_id]? define mapping
        inv = np.argsort(perm)
        g_perm = Graph(
            Tensor(g.node_features.data[inv]),
            g.edge_features,
            perm[g.senders] if False else np.array([perm[s] for s in g.senders]),
            np.array([perm[r] for r in g.receivers]),
        )
        # permuted node i corresponds to original node inv[i]
        out = net(g).data
        out_perm = net(g_perm).data
        np.testing.assert_allclose(out_perm, out[inv], atol=1e-10)

    def test_isolated_node_still_updates(self):
        # node 3 has no edges; node MLP still transforms it
        g = Graph(Tensor(np.random.default_rng(0).normal(size=(4, 4))),
                  Tensor(np.random.default_rng(1).normal(size=(2, 3))),
                  np.array([0, 1]), np.array([1, 0]))
        net = EncodeProcessDecode(_cfg(), np.random.default_rng(0))
        out = net(g)
        assert np.all(np.isfinite(out.data))

    def test_forward_with_latents_messages(self):
        # forward's probe sees each block's edge messages (and attention)
        for attention in (False, True):
            net = EncodeProcessDecode(_cfg(attention=attention),
                                      np.random.default_rng(0))
            g = _toy_graph()
            calls = []
            out = net(g, probe=lambda block, messages, alpha:
                      calls.append((block, messages, alpha)))
            # once per message-passing block, in order
            assert [c[0] for c in calls] == [0, 1]
            for _, messages, alpha in calls:
                assert messages.shape == (g.num_edges, 8)
                if attention:
                    assert alpha.shape == (g.num_edges,)
                else:
                    assert alpha is None
            # a probe observes; the output keeps its bits
            np.testing.assert_array_equal(out.data, net(g).data)


class TestInteractionNetwork:
    def test_residual_structure(self):
        cfg = _cfg()
        block = InteractionNetwork(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        nodes = Tensor(rng.normal(size=(4, 8)))
        edges = Tensor(rng.normal(size=(3, 8)))
        s, r = np.array([0, 1, 2]), np.array([1, 2, 3])
        new_nodes, new_edges = block(nodes, edges, s, r)
        assert new_nodes.shape == nodes.shape
        assert new_edges.shape == edges.shape
        # residual: output differs from input but is correlated with it
        assert not np.allclose(new_nodes.data, nodes.data)
