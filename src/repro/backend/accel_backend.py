"""The ``accel`` backend: NumPy semantics + compiled C kernels.

:mod:`repro.accel.cpu` is registered here as just another backend — its
runtime-compiled C kernels attach through :meth:`float32_kernels`, and
every dispatch site (the segment plans, the fused MLP tails, the MPM
step) asks the backend handle instead of importing ``repro.accel``
directly.

Float64 results are byte-for-byte the NumPy backend's: the float32
kernels only ever see no-grad float32 arrays, and the float64 MPM
kernels repeat the NumPy step's operations in its order (compiled with
``-ffp-contract=off``, pinned by the frozen oracle in
``tests/test_mpm_transfer.py``). So this is the process default: it
degrades to pure NumPy wherever the toolchain, dtype, layout, or tape
mode rules the C kernels out.
"""

from __future__ import annotations

from .numpy_backend import NumpyBackend
from .registry import CAP_FLOAT32_KERNELS

__all__ = ["AccelCpuBackend"]


class AccelCpuBackend(NumpyBackend):
    """NumPy backend with the cffi-compiled float32 CPU kernels."""

    name = "accel"

    @property
    def capabilities(self) -> frozenset:
        caps = set(NumpyBackend.capabilities)
        if self.float32_kernels() is not None:
            caps.add(CAP_FLOAT32_KERNELS)
        return frozenset(caps)

    def float32_kernels(self):
        from ..accel import kernels
        return kernels()
