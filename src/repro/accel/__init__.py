"""Optional CPU acceleration kernels: the float32 inference fast path,
the float64 MPM step and the float64 tape's elementwise glue.

The package compiles a small set of C kernels at runtime (via cffi + the
system C compiler) and exposes them behind a feature gate: every call
site keeps a pure-NumPy fallback, so the kernels are a strict speed-up,
never a requirement. See :mod:`repro.accel.cpu`.
"""

from .cpu import (
    CpuKernels, available, build_error, kernels, toolchain_missing,
)

__all__ = ["CpuKernels", "available", "build_error", "kernels",
           "toolchain_missing"]
