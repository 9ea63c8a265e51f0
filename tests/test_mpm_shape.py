"""Tests for MPM shape functions: partition of unity, gradient consistency,
reproduction of linear fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpm.shape import LinearShape, QuadraticShape, make_shape

GRID_DIMS = (20, 20)
H = 0.1
# an affine field's coefficients per axis; the last axis only in 3-D
SLOPES = (2.0, -3.0, 0.5)


def _dims(dim):
    return (GRID_DIMS[0],) * dim


def _interior_positions(rng, n, dim=2):
    # keep particles well inside so all support nodes exist
    return rng.uniform(3 * H, (GRID_DIMS[0] - 4) * H, size=(n, dim))


def _node_coords(k, dim):
    """``(..., dim)`` coordinates of the kernel's node ids."""
    return np.stack(np.unravel_index(k.nodes, _dims(dim)), axis=-1) * H


# one suite for both dimensions; the 2-D cases keep the bare class name
@pytest.mark.parametrize("shape_cls, dim", [
    pytest.param(LinearShape, 2, id="LinearShape"),
    pytest.param(QuadraticShape, 2, id="QuadraticShape"),
    pytest.param(LinearShape, 3, id="LinearShape-3d"),
    pytest.param(QuadraticShape, 3, id="QuadraticShape-3d"),
])
class TestShapeCommon:
    def test_partition_of_unity(self, shape_cls, dim):
        rng = np.random.default_rng(0)
        k = shape_cls()(_interior_positions(rng, 50, dim), H, _dims(dim))
        np.testing.assert_allclose(k.weights.sum(axis=0), 1.0, atol=1e-12)

    def test_gradients_sum_to_zero(self, shape_cls, dim):
        rng = np.random.default_rng(1)
        k = shape_cls()(_interior_positions(rng, 50, dim), H, _dims(dim))
        np.testing.assert_allclose(k.grads.sum(axis=1), 0.0, atol=1e-10)

    def test_weights_nonnegative(self, shape_cls, dim):
        rng = np.random.default_rng(2)
        k = shape_cls()(_interior_positions(rng, 100, dim), H, _dims(dim))
        assert np.all(k.weights >= -1e-14)

    def test_reproduces_linear_field(self, shape_cls, dim):
        """Σ N_i(x) f(x_i) == f(x) for affine f — first-order consistency."""
        rng = np.random.default_rng(3)
        pos = _interior_positions(rng, 30, dim)
        k = shape_cls()(pos, H, _dims(dim))
        slopes = np.array(SLOPES[:dim])
        f_nodes = _node_coords(k, dim) @ slopes + 0.7
        interp = (k.weights * f_nodes).sum(axis=0)
        expected = pos @ slopes + 0.7
        np.testing.assert_allclose(interp, expected, atol=1e-10)

    def test_gradient_of_linear_field_exact(self, shape_cls, dim):
        rng = np.random.default_rng(4)
        pos = _interior_positions(rng, 30, dim)
        k = shape_cls()(pos, H, _dims(dim))
        slopes = np.array(SLOPES[:dim])
        f_nodes = _node_coords(k, dim) @ slopes
        grad = np.einsum("kp,dkp->pd", f_nodes, k.grads)
        np.testing.assert_allclose(grad, np.tile(slopes, (30, 1)), atol=1e-9)

    def test_matches_central_difference(self, shape_cls, dim):
        """∂N/∂x from the kernel matches finite differences of the weights."""
        shape = shape_cls()
        pos = np.array([[0.537, 0.761, 0.649][:dim]])
        k0 = shape(pos, H, _dims(dim))
        eps = 1e-7
        for d in range(dim):
            dp = pos.copy()
            dp[0, d] += eps
            dm = pos.copy()
            dm[0, d] -= eps
            kp = shape(dp, H, _dims(dim))
            km = shape(dm, H, _dims(dim))
            assert np.array_equal(kp.nodes, k0.nodes)  # same support cell
            num = (kp.weights - km.weights) / (2 * eps)
            np.testing.assert_allclose(k0.grads[d], num, atol=1e-6)

    def test_node_count(self, shape_cls, dim):
        """``support ** d`` distinct nodes per particle."""
        k = shape_cls()(np.full((1, dim), 0.55), H, _dims(dim))
        count = shape_cls.support ** dim
        assert k.nodes.shape == k.weights.shape == (count, 1)
        assert k.grads.shape == (dim, count, 1)
        assert len(np.unique(k.nodes[:, 0])) == count


class TestQuadraticSpecific:
    def test_nine_nodes(self):
        k = QuadraticShape()(np.array([[0.5, 0.5]]), H, GRID_DIMS)
        assert k.nodes.shape == (9, 1)
        assert len(np.unique(k.nodes[:, 0])) == 9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.31, max_value=1.49),
           st.floats(min_value=0.31, max_value=1.49))
    def test_property_partition_of_unity(self, x, y):
        k = QuadraticShape()(np.array([[x, y]]), H, GRID_DIMS)
        assert abs(k.weights.sum() - 1.0) < 1e-10


class TestFactory:
    def test_make_shape(self):
        assert isinstance(make_shape("linear"), LinearShape)
        assert isinstance(make_shape("quadratic"), QuadraticShape)
        with pytest.raises(ValueError):
            make_shape("cubic")
