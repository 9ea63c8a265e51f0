"""The NumPy backend: host arrays, reference semantics.

This is the determinism reference every other backend is tested
against — its primitives *are* the NumPy calls the rest of the codebase
used to make directly, so selecting it reproduces pre-registry numbers
bit for bit. It never dispatches to compiled kernels
(:meth:`float32_kernels` is ``None``), which is what makes
``REPRO_BACKEND=numpy`` the single kill switch for all acceleration.
"""
# repro-lint: fp32-ok — capability flags name the fp32 inference mode

from __future__ import annotations

import numpy as np

from .registry import CAP_REFERENCE, ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Pure-NumPy reference backend (the default determinism anchor)."""

    name = "numpy"
    capabilities = frozenset({CAP_REFERENCE, "float64", "float32"})

    @property
    def xp(self):
        return np

    def to_host(self, a, dtype=None) -> np.ndarray:
        out = np.asarray(a)
        if dtype is not None and out.dtype != np.dtype(dtype):
            out = out.astype(dtype)
        return out
