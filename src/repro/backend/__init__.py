"""Pluggable array backends for the autodiff primitive layer.

See :mod:`repro.backend.registry` for the dispatch model,
``docs/architecture.md`` for the seam diagram, and
``tests/test_backend_conformance.py`` for the contract a new backend
must pass.
"""

from .accel_backend import AccelCpuBackend
from .numpy_backend import NumpyBackend
from .registry import (
    CAP_FLOAT32_KERNELS, CAP_REFERENCE, DEFAULT_BACKEND, ArrayBackend,
    UnknownBackendError, active, active_xp, default_backend_name,
    get_backend, register_backend, registered_backends, reset_backends,
    set_active_backend, use_backend,
)

__all__ = [
    "ArrayBackend", "NumpyBackend", "AccelCpuBackend", "UnknownBackendError",
    "CAP_REFERENCE", "CAP_FLOAT32_KERNELS", "DEFAULT_BACKEND",
    "active", "active_xp", "default_backend_name", "get_backend",
    "register_backend", "registered_backends",
    "reset_backends", "set_active_backend", "use_backend",
]

register_backend("numpy", NumpyBackend)
register_backend("accel", AccelCpuBackend)
