"""SortedSegments aggregation plans: bitwise contracts and gradients.

The plan precomputes a CSR layout of the receiver index once per
neighbor query and is reused by every message-passing block. Its
contract is strict: every plan-accelerated op must be **bitwise
identical** to the stateless path (which itself matches ``np.add.at``),
for sorted and unsorted indices, empty segments, and 0-edge graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, fused_edge_mlp
from repro.autodiff.scatter import (SortedSegments, gather, scatter_add,
                                    scatter_mean, scatter_softmax,
                                    segment_sum)
from repro.graph import radius_graph

from .helpers import check_grad

RNG = np.random.default_rng(7)


def _random_index(e, n, sort):
    idx = RNG.integers(0, n, size=e)
    return np.sort(idx) if sort else idx


INDEX_CASES = {
    "sorted": (np.array([0, 0, 1, 3, 3, 3]), 5),
    "unsorted": (np.array([3, 0, 4, 0, 3, 1]), 5),
    "empty-segments": (np.array([2, 2, 2]), 6),
    "zero-edges": (np.empty(0, dtype=np.intp), 4),
    "single": (np.array([1]), 3),
    "random-sorted": (_random_index(200, 40, True), 40),
    "random-unsorted": (_random_index(200, 40, False), 40),
}


class TestPlanSegmentSum:
    @pytest.mark.parametrize("case", sorted(INDEX_CASES))
    def test_bitwise_vs_add_at(self, case):
        idx, n = INDEX_CASES[case]
        values = RNG.normal(size=(idx.shape[0], 3))
        plan = SortedSegments(idx, n)
        expect = np.zeros((n, 3))
        np.add.at(expect, idx, values)
        # np.add.at is a sequential in-order accumulation; the plan's
        # CSR matmat walks each row's edges in the same order
        np.testing.assert_array_equal(plan.segment_sum(values), expect)

    @pytest.mark.parametrize("case", sorted(INDEX_CASES))
    def test_bitwise_vs_stateless(self, case):
        idx, n = INDEX_CASES[case]
        values = RNG.normal(size=(idx.shape[0], 4))
        plan = SortedSegments(idx, n)
        np.testing.assert_array_equal(plan.segment_sum(values),
                                      segment_sum(values, idx, n))

    @pytest.mark.parametrize("case", sorted(INDEX_CASES))
    def test_module_fn_plan_kwarg(self, case):
        idx, n = INDEX_CASES[case]
        values = RNG.normal(size=(idx.shape[0], 2))
        plan = SortedSegments(idx, n)
        np.testing.assert_array_equal(
            segment_sum(values, idx, n, plan=plan),
            segment_sum(values, idx, n))

    def test_1d_values(self):
        idx = np.array([0, 0, 2, 2, 2])
        values = RNG.normal(size=5)
        plan = SortedSegments(idx, 4)
        np.testing.assert_array_equal(plan.segment_sum(values),
                                      segment_sum(values, idx, 4))

    @pytest.mark.parametrize("sort", [True, False])
    def test_float32(self, sort):
        idx = _random_index(150, 30, sort)
        values = RNG.normal(size=(150, 8)).astype(np.float32)
        plan = SortedSegments(idx, 30)
        out = plan.segment_sum(values)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, segment_sum(values, idx, 30))

    def test_out_buffer(self):
        idx = np.array([0, 1, 1, 2])
        values = RNG.normal(size=(4, 3)).astype(np.float32)
        plan = SortedSegments(idx, 3)
        out = np.empty((3, 3), dtype=np.float32)
        res = plan.segment_sum(values, out=out)
        if res is not out:
            # numpy fallback (no C toolchain, or REPRO_BACKEND=numpy)
            # allocates its own result and leaves `out` untouched
            from repro.accel import available
            assert not available()
        else:
            np.testing.assert_array_equal(out, segment_sum(values, idx, 3))
        np.testing.assert_array_equal(res, segment_sum(values, idx, 3))

    def test_counts(self):
        idx = np.array([0, 0, 2, 4, 4, 4])
        plan = SortedSegments(idx, 6)
        np.testing.assert_array_equal(plan.counts, [2, 0, 1, 0, 3, 0])


class TestPlanSegmentMax:
    @pytest.mark.parametrize("case", sorted(INDEX_CASES))
    def test_bitwise_vs_maximum_at(self, case):
        idx, n = INDEX_CASES[case]
        values = RNG.normal(size=(idx.shape[0], 3))
        plan = SortedSegments(idx, n)
        expect = np.full((n, 3), -np.inf)
        np.maximum.at(expect, idx, values)
        out = plan.segment_max(values, empty=-np.inf)
        np.testing.assert_array_equal(out, expect)

    def test_empty_fill(self):
        idx = np.array([1, 1])
        plan = SortedSegments(idx, 3)
        out = plan.segment_max(np.ones((2, 2)), empty=0.0)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[2], 0.0)

    def test_nan_propagates(self):
        idx = np.array([0, 0, 1])
        values = np.array([[1.0], [np.nan], [2.0]])
        plan = SortedSegments(idx, 2)
        out = plan.segment_max(values, empty=0.0)
        assert np.isnan(out[0, 0])
        assert out[1, 0] == 2.0


class TestPlanAwareOps:
    """Tape ops with a ``plan=`` kwarg must match the stateless path
    bitwise in forward and gradient."""

    @pytest.mark.parametrize("case", ["sorted", "unsorted",
                                      "empty-segments", "zero-edges"])
    def test_scatter_add_forward(self, case):
        idx, n = INDEX_CASES[case]
        x = Tensor(RNG.normal(size=(idx.shape[0], 3)))
        plan = SortedSegments(idx, n)
        np.testing.assert_array_equal(
            scatter_add(x, idx, n, plan=plan).data,
            scatter_add(x, idx, n).data)

    @pytest.mark.parametrize("case", ["sorted", "unsorted"])
    def test_scatter_mean_forward(self, case):
        idx, n = INDEX_CASES[case]
        x = Tensor(RNG.normal(size=(idx.shape[0], 3)))
        plan = SortedSegments(idx, n)
        np.testing.assert_array_equal(
            scatter_mean(x, idx, n, plan=plan).data,
            scatter_mean(x, idx, n).data)

    @pytest.mark.parametrize("case", ["sorted", "unsorted",
                                      "empty-segments"])
    def test_scatter_softmax_forward(self, case):
        idx, n = INDEX_CASES[case]
        x = Tensor(RNG.normal(size=idx.shape[0]))
        plan = SortedSegments(idx, n)
        np.testing.assert_array_equal(
            scatter_softmax(x, idx, n, plan=plan).data,
            scatter_softmax(x, idx, n).data)

    def test_gather_forward_and_grad(self):
        idx = np.array([0, 1, 1, 2, 2, 2])
        plan = SortedSegments(idx, 4)
        check_grad(lambda t: (gather(t, idx, plan=plan) ** 2).sum(),
                   RNG.normal(size=(4, 3)))

    def test_scatter_add_grad(self):
        idx = np.array([3, 0, 4, 0, 3, 1])
        plan = SortedSegments(idx, 5)
        check_grad(lambda t: (scatter_add(t, idx, 5, plan=plan) ** 2).sum(),
                   RNG.normal(size=(6, 2)))

    def test_scatter_mean_grad(self):
        idx = np.array([0, 0, 1, 3, 3, 3])
        plan = SortedSegments(idx, 4)
        check_grad(lambda t: (scatter_mean(t, idx, 4, plan=plan) ** 2).sum(),
                   RNG.normal(size=(6, 2)))

    def test_scatter_softmax_grad(self):
        idx = np.array([0, 0, 1, 2, 2, 2])
        plan = SortedSegments(idx, 3)
        check_grad(
            lambda t: (scatter_softmax(t, idx, 3, plan=plan) ** 2).sum(),
            RNG.normal(size=6), rtol=1e-4, atol=1e-6)

    def test_grad_matches_stateless_bitwise(self):
        idx = np.array([3, 0, 4, 0, 3, 1])
        plan = SortedSegments(idx, 5)
        x0 = RNG.normal(size=(6, 2))
        grads = []
        for kwargs in ({}, {"plan": plan}):
            t = Tensor(x0.copy(), requires_grad=True)
            (scatter_add(t, idx, 5, **kwargs) ** 2).sum().backward()
            grads.append(t.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("order", ["radius-graph", "shuffled"])
    def test_fused_edge_mlp_grads_match_stateless_bitwise(self, order):
        """The fused edge MLP's VJP sums node gradients over senders and
        receivers; with plans over both indices, every input and weight
        gradient matches the stateless segment sums bit for bit. A
        radius graph lists receivers sorted and senders unsorted, so both
        plan layouts (sorted and stable-argsorted) are exercised;
        shuffling the edges makes both unsorted."""
        n = 285
        pos = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 2))
        senders, receivers = radius_graph(pos, 0.084)
        if order == "shuffled":
            perm = np.random.default_rng(1).permutation(len(senders))
            senders, receivers = senders[perm], receivers[perm]
        e = len(senders)
        assert e > 1500 and np.any(senders[:-1] > senders[1:])
        rng = np.random.default_rng(2)
        arrays = {"edge": rng.normal(size=(e, 3)),
                  "node": rng.normal(size=(n, 4)),
                  "w0": 0.3 * rng.normal(size=(3 + 4 + 4, 6)),
                  "w1": 0.3 * rng.normal(size=(6, 5)),
                  "b0": 0.1 * rng.normal(size=6),
                  "b1": 0.1 * rng.normal(size=5),
                  "gamma": 1.0 + 0.1 * rng.normal(size=5),
                  "beta": 0.1 * rng.normal(size=5)}
        weight = rng.normal(size=(e, 5))
        plans = {"sender_plan": SortedSegments(senders, n),
                 "receiver_plan": SortedSegments(receivers, n)}
        grads = []
        for kwargs in ({}, plans):
            t = {k: Tensor(v.copy(), requires_grad=True)
                 for k, v in arrays.items()}
            out = fused_edge_mlp(t["edge"], t["node"], senders, receivers,
                                 [t["w0"], t["w1"]], [t["b0"], t["b1"]],
                                 t["gamma"], t["beta"], **kwargs)
            (out * weight).sum().backward()
            grads.append({k: v.grad for k, v in t.items()})
        for k in arrays:
            assert grads[0][k].tobytes() == grads[1][k].tobytes(), k
