"""Array-backend registry: one seam under the autodiff primitive layer.

Every hot path — tensor ops and their VJPs, the CSR segment plans, the
fused MLP kernels, the MPM transfer loops — dispatches through an
:class:`ArrayBackend` handle instead of calling ``np.*`` directly. A
backend bundles

* an array namespace (:attr:`ArrayBackend.xp` — NumPy for both
  registered backends),
* the scatter/segment primitives whose semantics the conformance suite
  pins (``index_add``, ``index_max``, ``segment_sum``),
* explicit host-boundary transfers (:meth:`ArrayBackend.to_host` /
  :meth:`ArrayBackend.from_host`) so device arrays cross into the
  float64 integration / IO world at named points only, and
* an optional handle to compiled kernels — the float32 inference
  kernels and the float64 MPM step (:meth:`ArrayBackend.float32_kernels`).

Selection
---------
``REPRO_BACKEND=<name>`` selects the process-wide default;
``backend=`` keyword arguments on :class:`~repro.gns.engine.InferenceEngine`,
:meth:`~repro.gns.simulator.LearnedSimulator.rollout` and
:class:`~repro.mpm.solver.MPMSolver` take precedence over the
environment. The default is ``"accel"`` — NumPy semantics plus the
compiled CPU kernels when the toolchain allows. ``"numpy"`` is
the determinism reference: pure NumPy everywhere, and it also implies
``REPRO_NO_CKERNELS`` (one knob disables all acceleration).

Registering a new backend does not require touching core modules::

    class MyBackend(NumpyBackend):
        name = "mine"
    register_backend("mine", MyBackend)

and the conformance suite (``tests/test_backend_conformance.py``)
parametrizes over every registered backend, which is the contract a
new backend must pass.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable

import numpy as np

__all__ = [
    "ArrayBackend", "UnknownBackendError",
    "CAP_REFERENCE", "CAP_FLOAT32_KERNELS", "DEFAULT_BACKEND",
    "active", "active_xp", "default_backend_name", "get_backend",
    "register_backend", "registered_backends",
    "reset_backends", "set_active_backend", "use_backend",
]

#: capability flags a backend may advertise
CAP_REFERENCE = "reference"            # the bitwise-determinism reference
CAP_FLOAT32_KERNELS = "float32-kernels"  # compiled fp32 kernels attached

#: backend used when ``REPRO_BACKEND`` is unset
DEFAULT_BACKEND = "accel"

#: environment variable holding the process-wide backend name
ENV_VAR = "REPRO_BACKEND"


class UnknownBackendError(ValueError):
    """Requested backend name was never registered."""


class ArrayBackend:
    """Base class: NumPy-semantics primitives over :attr:`xp`.

    Subclasses override :attr:`xp` (the array namespace) and any
    primitive whose device implementation differs; everything here is
    written against the NumPy API surface, so an API-compatible
    namespace (CuPy) inherits working — if unoptimized — behavior.
    """

    #: registry name; also what ``REPRO_BACKEND`` matches against
    name: str = "abstract"
    #: capability flags (see module constants)
    capabilities: frozenset = frozenset()

    @property
    def xp(self):
        """The array-API namespace (``numpy``, ``cupy``, ...)."""
        raise NotImplementedError

    # -- host boundary -------------------------------------------------
    def asarray(self, data, dtype=None):
        """Coerce ``data`` to this backend's array type."""
        return self.xp.asarray(data) if dtype is None \
            else self.xp.asarray(data, dtype=dtype)

    def to_host(self, a, dtype=None) -> np.ndarray:
        """Return ``a`` as a host ``np.ndarray`` (the explicit boundary
        crossing; engines call this exactly once per step)."""
        out = np.asarray(a)
        if dtype is not None and out.dtype != np.dtype(dtype):
            out = out.astype(dtype)
        return out

    def from_host(self, a: np.ndarray, dtype=None):
        """Move a host array onto this backend."""
        return self.asarray(a, dtype=dtype)

    # -- allocation ----------------------------------------------------
    def empty(self, shape, dtype):
        return self.xp.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype):
        return self.xp.zeros(shape, dtype=dtype)

    # -- scatter/segment primitives ------------------------------------
    def index_add(self, target, index, values) -> None:
        """``target[index[k]] += values[k]`` with duplicate indices
        accumulating (``np.add.at`` semantics)."""
        self.xp.add.at(target, index, values)

    def index_max(self, target, index, values) -> None:
        """``target[index[k]] = max(target[index[k]], values[k])``
        (``np.maximum.at`` semantics; NaNs propagate)."""
        self.xp.maximum.at(target, index, values)

    def segment_sum(self, values, index, num_segments: int, plan=None):
        """``out[i] = Σ_{k: index[k]==i} values[k]`` — the reference
        implementation is :func:`repro.autodiff.scatter.segment_sum`."""
        from ..autodiff.scatter import segment_sum as _ref
        return _ref(values, index, num_segments, plan=plan)

    # -- compiled kernels ----------------------------------------------
    def float32_kernels(self):
        """Handle to the compiled kernels (:class:`repro.accel.CpuKernels`:
        fused float32 inference kernels and the float64 MPM step), or
        ``None``. A float64 kernel must be bitwise-equal to the NumPy path
        it replaces: compiled with ``-ffp-contract=off`` and pinned by a
        frozen NumPy oracle (``tests/test_mpm_transfer.py``). The float64
        GNS inference path has no kernels; tape mode never consults this
        (the VJPs need the NumPy intermediates)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


# ----------------------------------------------------------------------
# registry state
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: dict[str, ArrayBackend] = {}
_EXPLICIT: ArrayBackend | None = None
_ENV_CACHE: tuple[str, ArrayBackend] | None = None


def register_backend(name: str, factory: Callable[[], ArrayBackend],
                     replace: bool = False) -> None:
    """Register a backend factory (a zero-arg callable — typically the
    backend class itself). The factory runs lazily on first resolution."""
    if not replace and name in _FACTORIES:
        raise ValueError(f"backend {name!r} already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def get_backend(name: str | ArrayBackend | None = None) -> ArrayBackend:
    """Resolve a backend by name (or pass an instance through).

    ``None`` returns the active backend. Unknown names raise
    :class:`UnknownBackendError`.
    """
    if name is None:
        return active()
    if isinstance(name, ArrayBackend):
        return name
    key = str(name).strip().lower()
    inst = _INSTANCES.get(key)
    if inst is not None:
        return inst
    factory = _FACTORIES.get(key)
    if factory is None:
        raise UnknownBackendError(
            f"unknown array backend {name!r}; registered backends: "
            f"{', '.join(registered_backends())}")
    inst = factory()
    _INSTANCES[key] = inst
    return inst


def default_backend_name() -> str:
    """Backend name the environment selects (``REPRO_BACKEND``, else
    :data:`DEFAULT_BACKEND`)."""
    return os.environ.get(ENV_VAR, "").strip().lower() or DEFAULT_BACKEND


def active() -> ArrayBackend:
    """The active backend: an explicit :func:`set_active_backend` /
    :func:`use_backend` override, else the environment selection (read
    live, so tests can monkeypatch ``REPRO_BACKEND``)."""
    if _EXPLICIT is not None:
        return _EXPLICIT
    global _ENV_CACHE
    envname = default_backend_name()
    if _ENV_CACHE is None or _ENV_CACHE[0] != envname:
        _ENV_CACHE = (envname, get_backend(envname))
    return _ENV_CACHE[1]


def active_xp():
    """Array namespace of the active backend (the per-op dispatch read
    in :mod:`repro.autodiff`)."""
    return active().xp


def set_active_backend(backend: str | ArrayBackend | None) -> None:
    """Pin the active backend explicitly; ``None`` reverts to the
    environment selection."""
    global _EXPLICIT
    _EXPLICIT = None if backend is None else get_backend(backend)


@contextlib.contextmanager
def use_backend(backend: str | ArrayBackend):
    """Scoped :func:`set_active_backend` (conformance suite / tests)."""
    global _EXPLICIT
    prev = _EXPLICIT
    _EXPLICIT = get_backend(backend)
    try:
        yield _EXPLICIT
    finally:
        _EXPLICIT = prev


def reset_backends() -> None:
    """Drop cached instances and the active selection (test isolation).
    Registered factories survive."""
    global _EXPLICIT, _ENV_CACHE
    _EXPLICIT = None
    _ENV_CACHE = None
    _INSTANCES.clear()
