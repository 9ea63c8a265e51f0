"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the substrate that replaces PyTorch's autograd in the paper:
it provides a tape-based :class:`Tensor` whose operations record a dynamic
computation graph, and a :meth:`Tensor.backward` pass that propagates
gradients to every leaf with ``requires_grad=True`` (or only to the leaves
passed as ``inputs=``) and consumes the graph it sweeps.

Design notes
------------
* All forward arithmetic is vectorized array code dispatched through the
  active :mod:`repro.backend` handle (``xp`` — plain NumPy on the default
  backends, so the reference numerics are unchanged bit for bit); the
  tape only stores closures over the arrays needed by each op's
  vector-Jacobian product. Each op captures ``xp`` once at construction,
  so its backward replays on the same backend it ran forward on.
* Gradients w.r.t. *inputs* are first-class: the inverse problem in
  Section 5 of the paper differentiates a 30-step GNS rollout with respect
  to a scalar material property that enters the graph as a node feature.
* Broadcasting follows NumPy semantics; :func:`_unbroadcast` reduces an
  upstream gradient back to the shape of the operand that was broadcast.
* A graph is differentiated once per forward: the sweep drops each
  node's VJP closure (and the arrays it saved) and parent links as it
  goes, so tape memory is released during the backward, not when the
  caller lets go of the loss. Reaching a consumed node raises
  :class:`GraphConsumedError`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from ..backend import active as _active_backend, active_xp as _xp

__all__ = ["Tensor", "GraphConsumedError", "no_grad", "is_grad_enabled",
           "as_tensor", "set_tape_hook"]


class _GradMode(threading.local):
    """Whether ops record the tape, per thread: ``repro.serve`` runs
    inversions on worker threads, and one worker's ``no_grad()`` must not
    stop another's forward from recording."""

    enabled = True


_GRAD_MODE = _GradMode()

# Optional tape-dispatch hooks, called with (out_data, backward_fn) for
# every tape op created through Tensor._make. Hooks live in named slots
# (runtime sanitizers use "sanitize", the op profiler uses "profile") so
# independent subsystems can coexist; the dispatched callable is kept
# pre-composed in _TAPE_HOOK, which stays None in normal operation — the
# per-op cost of the disarmed state is one attribute read and a branch.
_TAPE_HOOKS: dict[str, Callable[[np.ndarray, Callable], None]] = {}
_TAPE_HOOK: Callable[[np.ndarray, Callable], None] | None = None


def _rebuild_tape_hook() -> None:
    global _TAPE_HOOK
    if not _TAPE_HOOKS:
        _TAPE_HOOK = None
    elif len(_TAPE_HOOKS) == 1:
        _TAPE_HOOK = next(iter(_TAPE_HOOKS.values()))
    else:
        hooks = tuple(_TAPE_HOOKS[k] for k in sorted(_TAPE_HOOKS))

        def _dispatch(data: np.ndarray, backward_fn: Callable) -> None:
            for hook in hooks:
                hook(data, backward_fn)

        _TAPE_HOOK = _dispatch


def set_tape_hook(hook: Callable[[np.ndarray, Callable], None] | None,
                  slot: str = "sanitize") -> None:
    """Install (or clear, with ``None``) one tape-dispatch hook slot.

    The default slot keeps backward compatibility with the sanitizer
    API; other subsystems (e.g. the op-level profiler) pass their own
    ``slot`` so arming one never disarms the other.
    """
    if hook is None:
        _TAPE_HOOKS.pop(slot, None)
    else:
        _TAPE_HOOKS[slot] = hook
    _rebuild_tape_hook()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)
    in the calling thread."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


def is_grad_enabled() -> bool:
    """Return True when operations in this thread record the tape."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class GraphConsumedError(RuntimeError):
    """A backward pass reached a tape node an earlier backward consumed.

    Raised while the graph is traversed, before any VJP runs, so no
    ``.grad`` changes. Recompute the forward to differentiate again.
    """


def _consumed(g, grads) -> None:
    """Stands in for the VJP of a node a backward pass has consumed."""
    raise GraphConsumedError("tape node already consumed by a backward pass")


class _Gradients(dict):
    """Pending gradients of one backward sweep, keyed by tensor identity.

    ``wanted`` holds the ids of the tensors on a path to the requested
    inputs (every tensor the sweep reached, for a full backward); VJPs
    ask :meth:`wants` before computing a parent's gradient. The state
    belongs to the sweep, not the module, so backward passes on
    different threads never prune each other's gradients.
    """

    __slots__ = ("wanted",)

    def __init__(self, wanted: set[int]):
        super().__init__()
        self.wanted = wanted

    def wants(self, t: "Tensor") -> bool:
        """Whether this sweep differentiates with respect to ``t``."""
        return id(t) in self.wanted


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, or scalar) to a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A NumPy-backed array node in a dynamic reverse-mode autodiff graph.

    Parameters
    ----------
    data:
        Array-like forward value. Stored as ``float64`` unless it already
        is a floating ndarray.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents", "name")
    __array_priority__ = 100.0  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data, requires_grad: bool = False, *, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = _active_backend().asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(_xp().zeros(shape, dtype=np.float64),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(_xp().ones(shape, dtype=np.float64),
                      requires_grad=requires_grad)

    @classmethod
    def _make(cls, data: np.ndarray, parents: Sequence["Tensor"],
              backward_fn: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a non-leaf tensor, recording the tape edge when enabled."""
        if _TAPE_HOOK is not None:
            _TAPE_HOOK(data, backward_fn)
        requires = _GRAD_MODE.enabled and any(p.requires_grad
                                              for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the forward value as a NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | float | None = None,
                 inputs: Iterable["Tensor"] | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        The pass consumes the graph: once a node's VJP has run, or the
        node got no gradient, its closure and parent links are dropped,
        so the arrays the tape saved are freed during the sweep. A
        second backward that reaches a consumed node raises
        :class:`GraphConsumedError` before any VJP runs.

        Parameters
        ----------
        grad:
            Seed gradient. Defaults to 1 for scalar outputs; required for
            non-scalar outputs.
        inputs:
            Leaf tensors to differentiate with respect to. Only nodes on
            a path to them are swept, only they receive ``.grad``, and
            ops skip the gradients of every other parent (weight GEMMs,
            bias sums, LayerNorm reductions). The requested gradients
            are bitwise-equal to those of a full backward. ``None``
            differentiates every leaf with ``requires_grad=True``.
        """
        xp = _xp()
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() on non-scalar output requires an explicit seed gradient")
            grad = xp.ones_like(self.data)
        grad = xp.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = xp.broadcast_to(grad, self.data.shape).copy()
        if inputs is not None:
            inputs = list(inputs)
            for t in inputs:
                if (not isinstance(t, Tensor) or not t.requires_grad
                        or t._backward_fn is not None):
                    raise ValueError("backward(inputs=...) takes leaf "
                                     "tensors with requires_grad=True")

        topo, visited = self._topological_order()
        if inputs is None:
            wanted = visited
        else:
            # topo lists parents before children: a node is on a path to
            # the inputs when it is one or one of its parents is
            targets = {id(t) for t in inputs}
            wanted = set()
            for node in topo:
                if id(node) in targets or any(id(p) in wanted
                                              for p in node._parents):
                    wanted.add(id(node))

        grads = _Gradients(wanted)
        if id(self) in wanted:
            grads[id(self)] = grad
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            fn = node._backward_fn
            if fn is None:
                if g is not None:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            node._backward_fn = _consumed
            node._parents = ()
            if g is not None:
                fn(g, grads)

    def _topological_order(self) -> tuple[list["Tensor"], set[int]]:
        """Nodes reachable from ``self`` through ``requires_grad`` edges,
        parents before children (iterative: no recursion limit on deep
        rollouts), and the set of their ids."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_fn is _consumed:
                raise GraphConsumedError(
                    "backward() reached a tape node an earlier backward "
                    "consumed; recompute the forward to differentiate again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        return topo, visited

    @staticmethod
    def _add_grad(grads: _Gradients, parent: "Tensor",
                  g: np.ndarray) -> None:
        key = id(parent)
        if key not in grads.wanted:
            return
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(g, grads):
            Tensor._add_grad(grads, a, _unbroadcast(g, a.shape))
            Tensor._add_grad(grads, b, _unbroadcast(g, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(g, grads):
            Tensor._add_grad(grads, a, _unbroadcast(g, a.shape))
            Tensor._add_grad(grads, b, _unbroadcast(-g, b.shape))

        return Tensor._make(a.data - b.data, (a, b), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        a_data, b_data = a.data, b.data

        def backward(g, grads):
            Tensor._add_grad(grads, a, _unbroadcast(g * b_data, a.shape))
            Tensor._add_grad(grads, b, _unbroadcast(g * a_data, b.shape))

        return Tensor._make(a_data * b_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        a_data, b_data = a.data, b.data
        out = a_data / b_data

        def backward(g, grads):
            Tensor._add_grad(grads, a, _unbroadcast(g / b_data, a.shape))
            Tensor._add_grad(grads, b, _unbroadcast(-g * a_data / (b_data * b_data), b.shape))

        return Tensor._make(out, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g, grads):
            Tensor._add_grad(grads, a, -g)

        return Tensor._make(-a.data, (a,), backward)

    def __pow__(self, exponent) -> "Tensor":
        if isinstance(exponent, Tensor):
            # general power via exp/log; restrict to positive base
            return (self.log() * exponent).exp()
        a = self
        p = float(exponent)
        out = a.data ** p

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * p * a.data ** (p - 1.0))

        return Tensor._make(out, (a,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        a_data, b_data = a.data, b.data
        xp = _xp()

        def backward(g, grads):
            if grads.wants(a):
                if b_data.ndim == 1:
                    ga = xp.outer(g, b_data) if a_data.ndim == 2 else g * b_data
                else:
                    ga = g @ b_data.swapaxes(-1, -2)
                    if a_data.ndim == 1:
                        ga = ga.reshape(a_data.shape)
                Tensor._add_grad(grads, a, _unbroadcast(xp.asarray(ga), a.shape))
            if grads.wants(b):
                if a_data.ndim == 1:
                    gb = xp.outer(a_data, g) if b_data.ndim == 2 else g * a_data
                else:
                    gb = a_data.swapaxes(-1, -2) @ g
                    if b_data.ndim == 1:
                        gb = gb.reshape(b_data.shape)
                Tensor._add_grad(grads, b, _unbroadcast(xp.asarray(gb), b.shape))

        return Tensor._make(a_data @ b_data, (a, b), backward)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out = _xp().exp(a.data)

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * out)

        return Tensor._make(out, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g, grads):
            Tensor._add_grad(grads, a, g / a.data)

        return Tensor._make(_xp().log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        a = self
        out = _xp().sqrt(a.data)

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * 0.5 / out)

        return Tensor._make(out, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out = _xp().tanh(a.data)

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * (1.0 - out * out))

        return Tensor._make(out, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        out = 1.0 / (1.0 + _xp().exp(-a.data))

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * out * (1.0 - out))

        return Tensor._make(out, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        xp = _xp()
        mask = a.data > 0

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * mask)

        return Tensor._make(xp.where(mask, a.data, 0.0), (a,), backward)

    def abs(self) -> "Tensor":
        a = self
        xp = _xp()
        sign = xp.sign(a.data)

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * sign)

        return Tensor._make(xp.abs(a.data), (a,), backward)

    def sin(self) -> "Tensor":
        a = self
        xp = _xp()

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * xp.cos(a.data))

        return Tensor._make(xp.sin(a.data), (a,), backward)

    def cos(self) -> "Tensor":
        a = self
        xp = _xp()

        def backward(g, grads):
            Tensor._add_grad(grads, a, -g * xp.sin(a.data))

        return Tensor._make(xp.cos(a.data), (a,), backward)

    def clip(self, lo: float | None, hi: float | None) -> "Tensor":
        a = self
        xp = _xp()
        out = xp.clip(a.data, lo, hi)
        mask = xp.ones_like(a.data, dtype=bool)
        if lo is not None:
            mask &= a.data >= lo
        if hi is not None:
            mask &= a.data <= hi

        def backward(g, grads):
            Tensor._add_grad(grads, a, g * mask)

        return Tensor._make(out, (a,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        xp = _xp()
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, grads):
            gg = xp.asarray(g)
            if axis is not None and not keepdims:
                gg = xp.expand_dims(gg, axis)
            Tensor._add_grad(grads, a, xp.broadcast_to(gg, a.shape).copy())

        return Tensor._make(out, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        xp = _xp()
        out = a.data.mean(axis=axis, keepdims=keepdims)
        out_size = xp.asarray(out).size
        denom = a.data.size / out_size if out_size else 1.0

        def backward(g, grads):
            gg = xp.asarray(g) / denom
            if axis is not None and not keepdims:
                gg = xp.expand_dims(gg, axis)
            Tensor._add_grad(grads, a, xp.broadcast_to(gg, a.shape).copy())

        return Tensor._make(out, (a,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        xp = _xp()
        out = a.data.max(axis=axis, keepdims=keepdims)

        def backward(g, grads):
            gg = xp.asarray(g)
            out_b = xp.asarray(out)
            if axis is not None and not keepdims:
                gg = xp.expand_dims(gg, axis)
                out_b = xp.expand_dims(out_b, axis)
            mask = a.data == out_b
            # split gradient evenly among ties for a well-defined subgradient
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            Tensor._add_grad(grads, a, xp.where(mask, gg / counts, 0.0))

        return Tensor._make(out, (a,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return (-self).max(axis=axis, keepdims=keepdims).__neg__()

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.shape

        def backward(g, grads):
            Tensor._add_grad(grads, a, g.reshape(orig))

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g, grads):
            Tensor._add_grad(grads, a, g.transpose(inv))

        return Tensor._make(a.data.transpose(axes), (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        a = self
        b = _active_backend()
        out = a.data[idx]

        def backward(g, grads):
            full = b.xp.zeros_like(a.data)
            b.index_add(full, idx, g)
            Tensor._add_grad(grads, a, full)

        return Tensor._make(out, (a,), backward)

    def squeeze(self, axis=None) -> "Tensor":
        a = self
        orig = a.shape

        def backward(g, grads):
            Tensor._add_grad(grads, a, g.reshape(orig))

        return Tensor._make(_xp().squeeze(a.data, axis=axis), (a,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        a = self
        orig = a.shape

        def backward(g, grads):
            Tensor._add_grad(grads, a, g.reshape(orig))

        return Tensor._make(_xp().expand_dims(a.data, axis), (a,), backward)

    # ------------------------------------------------------------------
    # comparisons (non-differentiable; return plain bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]  # host-side offsets
    xp = _xp()

    def backward(g, grads):
        parts = xp.split(g, splits, axis=axis)
        for t, p in zip(tensors, parts):
            Tensor._add_grad(grads, t, p)

    return Tensor._make(xp.concatenate(datas, axis=axis), tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    xp = _xp()

    def backward(g, grads):
        parts = xp.split(g, len(datas), axis=axis)
        for t, p in zip(tensors, parts):
            Tensor._add_grad(grads, t, xp.squeeze(p, axis=axis))

    return Tensor._make(xp.stack(datas, axis=axis), tensors, backward)


def where(cond, a, b) -> Tensor:
    """Differentiable select: ``cond`` is a boolean array (not a Tensor)."""
    xp = _xp()
    cond = xp.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    a = as_tensor(a)
    b = as_tensor(b)

    def backward(g, grads):
        Tensor._add_grad(grads, a, _unbroadcast(xp.where(cond, g, 0.0), a.shape))
        Tensor._add_grad(grads, b, _unbroadcast(xp.where(cond, 0.0, g), b.shape))

    return Tensor._make(xp.where(cond, a.data, b.data), (a, b), backward)
