"""Reverse-mode automatic differentiation engine (NumPy substrate).

Replaces PyTorch autograd for this reproduction: tape-based ``Tensor``
objects, differentiable scatter/gather for message passing, composite
neural-network functions, and a fusion pass that collapses elementwise
chains into single tape nodes.
"""

from .tensor import (GraphConsumedError, Tensor, as_tensor, concatenate,
                     is_grad_enabled, no_grad, stack, where)
from .scatter import SortedSegments, gather, scatter_add, scatter_mean, scatter_softmax
from .fused import fused_edge_mlp, fused_node_mlp, linear_relu, mlp_forward
from .compile import CompiledChain, compile_tape
from . import functional
from . import fused

__all__ = [
    "Tensor", "as_tensor", "concatenate", "stack", "where",
    "no_grad", "is_grad_enabled", "GraphConsumedError",
    "SortedSegments",
    "gather", "scatter_add", "scatter_mean", "scatter_softmax",
    "linear_relu", "mlp_forward", "fused_edge_mlp", "fused_node_mlp",
    "CompiledChain", "compile_tape",
    "functional", "fused",
]
