"""Linear layers and the MLP block used throughout GNS / MeshNet.

The paper's encoder, processor and decoder are all built from 2-hidden-layer
ReLU MLPs followed (except the decoder) by LayerNorm, matching
Sanchez-Gonzalez et al. (2020).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..autodiff.fused import mlp_forward, mlp_forward_numpy
from ..autodiff.functional import layer_norm
from .init import kaiming_uniform, xavier_uniform
from .module import Module, Parameter

__all__ = ["Linear", "LayerNorm", "MLP", "Sequential"]


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, activation: str = "relu"):
        super().__init__()
        init = kaiming_uniform if activation == "relu" else xavier_uniform
        self.weight = Parameter(init(in_features, out_features, rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float64))
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def arrays(self, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
        """Weight/bias as plain arrays in ``dtype``.

        Non-float64 casts are cached and invalidated by the identity of
        both arrays: the optimizers rebind ``p.data`` on every step, so a
        stale cache is detected without version counters.
        """
        if dtype == np.float64:
            return self.weight.data, self.bias.data
        cache = getattr(self, "_cast_cache", None)
        if (cache is None or cache[0] is not self.weight.data
                or cache[1] is not self.bias.data
                or cache[2].dtype != dtype):
            # Fortran order: sgemm with a column-major B runs ~9% faster
            # here than with row-major (measured on the fp32 fast path)
            cache = (self.weight.data, self.bias.data,
                     np.asfortranarray(self.weight.data.astype(dtype)),
                     self.bias.data.astype(dtype))
            object.__setattr__(self, "_cast_cache", cache)
        return cache[2], cache[3]


class LayerNorm(Module):
    """LayerNorm over the last axis with learnable scale/shift."""

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(features, dtype=np.float64))
        self.beta = Parameter(np.zeros(features, dtype=np.float64))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, eps=self.eps)

    def arrays(self, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
        """Gamma/beta as plain arrays in ``dtype`` (identity-cached cast,
        same scheme as :meth:`Linear.arrays`)."""
        if dtype == np.float64:
            return self.gamma.data, self.beta.data
        cache = getattr(self, "_cast_cache", None)
        if (cache is None or cache[0] is not self.gamma.data
                or cache[1] is not self.beta.data
                or cache[2].dtype != dtype):
            cache = (self.gamma.data, self.beta.data,
                     self.gamma.data.astype(dtype),
                     self.beta.data.astype(dtype))
            object.__setattr__(self, "_cast_cache", cache)
        return cache[2], cache[3]


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU hidden activations.

    Parameters
    ----------
    sizes:
        ``[in, hidden..., out]`` layer widths.
    layer_norm:
        Append LayerNorm after the output (GNS encoder/processor style).
    rng:
        NumPy Generator for weight init.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 layer_norm: bool = False):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.linears = [
            Linear(sizes[i], sizes[i + 1], rng,
                   activation="relu" if i + 2 < len(sizes) else "linear")
            for i in range(len(sizes) - 1)
        ]
        self.norm = LayerNorm(sizes[-1]) if layer_norm else None
        self.sizes = list(sizes)

    def forward(self, x: Tensor) -> Tensor:
        # single fused tape node for the whole MLP (one VJP closure
        # instead of ~4 per layer); shares numpy kernels with
        # forward_numpy, so both paths are bitwise-identical in float64
        gamma, beta, eps = (None, None, 1e-5)
        if self.norm is not None:
            gamma, beta, eps = self.norm.gamma, self.norm.beta, self.norm.eps
        return mlp_forward(x, [lin.weight for lin in self.linears],
                           [lin.bias for lin in self.linears],
                           gamma, beta, eps)

    def fused_params(self) -> tuple:
        """(weights, biases, gamma, beta, eps) for the fused tape ops."""
        gamma, beta, eps = (None, None, 1e-5)
        if self.norm is not None:
            gamma, beta, eps = self.norm.gamma, self.norm.beta, self.norm.eps
        return ([lin.weight for lin in self.linears],
                [lin.bias for lin in self.linears], gamma, beta, eps)

    def arrays(self, dtype=np.float64) -> tuple:
        """Per-layer ``(weights, biases, gamma, beta, eps)`` plain arrays
        in ``dtype`` for the no-grad kernels (casts are cached)."""
        ws, bs = [], []
        for lin in self.linears:
            w, b = lin.arrays(dtype)
            ws.append(w)
            bs.append(b)
        gamma = beta = None
        eps = 1e-5
        if self.norm is not None:
            gamma, beta = self.norm.arrays(dtype)
            eps = self.norm.eps
        return ws, bs, gamma, beta, eps

    def forward_numpy(self, x: np.ndarray, getbuf=None, tag: str = "mlp",
                      backend=None) -> np.ndarray:
        """Tape-free inference path (no autodiff overhead).

        Runs in ``x.dtype`` — pass float32 inputs for ~2× faster CPU
        inference (the precision the paper's GPU models use anyway).
        Numerically identical to :meth:`forward` in float64. ``getbuf``
        optionally supplies reusable output buffers (see
        :class:`repro.utils.buffers.Workspace`); ``backend`` (see
        :func:`repro.backend.get_backend`) says whether the MLP tail may
        use the compiled kernels.
        """
        ws, bs, gamma, beta, eps = self.arrays(x.dtype.type)
        return mlp_forward_numpy(x, ws, bs, gamma, beta, eps,
                                 getbuf=getbuf, tag=tag, backend=backend)
