"""The acceleration switch: ``accel`` or ``numpy``.

Every array operation is NumPy. The switch decides one thing: whether
the compiled C kernels of :mod:`repro.accel` (the fused float32
inference kernels, the float64 MPM step and the float64 tape's
elementwise glue) may run.
:func:`get_backend` resolves a name, a handle or ``None`` to one of two
frozen handles:

* ``accel`` (the default) runs the kernels wherever dtype and layout
  allow them and the toolchain could build them;
* ``numpy`` never runs them and never builds them: it is the reference
  every kernel is gated against.

Precedence is a ``backend=`` keyword, then ``REPRO_BACKEND``, then
``accel``. :class:`~repro.gns.engine.InferenceEngine` and
:class:`~repro.mpm.MPMSolver` resolve their handle once, at
construction; the tape reads the switch at each op. Float64 results
are bitwise-equal on both: a float64 kernel repeats NumPy's operations
in its order (compiled with ``-ffp-contract=off``, pinned by the frozen
MPM oracle in ``tests/test_mpm_transfer.py`` and the tape kernels'
bit-pattern tests in ``tests/test_accel_cpu.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .accel import kernels

__all__ = ["Backend", "DEFAULT_BACKEND", "UnknownBackendError",
           "get_backend"]

#: backend used when neither a keyword nor ``REPRO_BACKEND`` names one
DEFAULT_BACKEND = "accel"


class UnknownBackendError(ValueError):
    """The requested backend is neither ``accel`` nor ``numpy``."""


@dataclass(frozen=True)
class Backend:
    """One value of the switch; obtain it from :func:`get_backend`."""

    name: str

    def float32_kernels(self):
        """The compiled kernels (:class:`repro.accel.CpuKernels`: the
        float32 inference kernels, the float64 MPM step and tape glue),
        or ``None`` on ``numpy`` and where the toolchain cannot build
        them."""
        return kernels() if self.name == "accel" else None


_BACKENDS = {name: Backend(name) for name in ("accel", "numpy")}


def get_backend(backend: str | Backend | None = None) -> Backend:
    """The handle for ``backend``: a handle passes through, a name is
    looked up, and ``None`` reads ``REPRO_BACKEND`` (live, on every
    call), else :data:`DEFAULT_BACKEND`. Any other name raises
    :class:`UnknownBackendError`."""
    if isinstance(backend, Backend):
        return backend
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() \
            or DEFAULT_BACKEND
    handle = _BACKENDS.get(str(backend).strip().lower())
    if handle is None:
        raise UnknownBackendError(
            f"unknown backend {backend!r}; choose accel or numpy")
    return handle
