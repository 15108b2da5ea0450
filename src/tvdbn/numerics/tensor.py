"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A :class:`Tensor` wraps an ndarray and, when gradients are enabled, records
the operation that produced it. Calling :meth:`Tensor.backward` on a result
walks the recorded graph once in reverse topological order, accumulates
gradients into every reachable leaf with ``requires_grad=True`` and frees
the graph behind it.

All operations broadcast like numpy and reduce gradients back to the input
shapes, so parameters can be biases of shape ``(H,)`` applied to batched
activations of shape ``(B, N, H)``. Everything is double precision.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["Tensor", "Params", "concat", "no_grad", "glorot_uniform"]

_grad_enabled: bool = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A float64 ndarray with an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------ #
    # tape plumbing
    # ------------------------------------------------------------------ #

    def _accum(self, g: np.ndarray) -> None:
        g = _unbroadcast(g, self.data.shape)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf, releasing the graph.

        `grad` seeds the output gradient and defaults to ones, so calling
        ``loss.backward()`` on a scalar loss does the usual thing.

        The walk frees the graph as it goes: once a node's backward rule has
        run, the node drops the rule (and with it the activations the rule
        saved), its parent links and its gradient, so a step's tape is gone
        when this returns. Leaves keep their gradients, and every tensor
        keeps its `data`. A released graph cannot be walked again: calling
        backward a second time, or on a new graph that reaches one of its
        non-leaf tensors, raises RuntimeError before any gradient changes.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _released:
                _released()
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accum(np.asarray(grad, dtype=np.float64))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _released, (), None

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    def __add__(self, other) -> "Tensor":
        other = _lift(other)
        out_data = self.data + other.data
        if not _tracking(self, other):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(g)

        return _from_op(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _lift(other)
        out_data = self.data - other.data
        if not _tracking(self, other):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(-g)

        return _from_op(out_data, (self, other), backward_fn)

    def __rsub__(self, other) -> "Tensor":
        return _lift(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = _lift(other)
        out_data = self.data * other.data
        if not _tracking(self, other):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)

        return _from_op(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _lift(other)
        out_data = self.data / other.data
        if not _tracking(self, other):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accum(g / other.data)
            if other.requires_grad:
                other._accum(-g * self.data / (other.data * other.data))

        return _from_op(out_data, (self, other), backward_fn)

    def __matmul__(self, other) -> "Tensor":
        other = _lift(other)
        a_vec = self.data.ndim == 1
        b_vec = other.data.ndim == 1
        # Promote 1-D operands to matrices so the transpose-based backward
        # rule applies uniformly, then strip the synthetic axes again.
        a = self.data[None, :] if a_vec else self.data
        b = other.data[:, None] if b_vec else other.data
        out_data = np.matmul(a, b)
        if b_vec:
            out_data = out_data[..., 0]
        if a_vec:
            out_data = out_data[..., 0] if b_vec else out_data[..., 0, :]
        if not _tracking(self, other):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            gp = g
            if b_vec:
                gp = gp[..., None]
            if a_vec:
                gp = gp[..., None, :]
            if self.requires_grad:
                ga = np.matmul(gp, np.swapaxes(b, -1, -2))
                if a_vec:
                    ga = ga[..., 0, :]
                self._accum(ga)
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(a, -1, -2), gp)
                if b_vec:
                    gb = gb[..., 0]
                other._accum(gb)

        return _from_op(out_data, (self, other), backward_fn)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)
        if not _tracking(self):
            return Tensor(out_data)
        active = self.data > 0.0

        def backward_fn(g: np.ndarray) -> None:
            self._accum(g * active)

        return _from_op(out_data, (self,), backward_fn)

    def sigmoid(self) -> "Tensor":
        out_data = _stable_sigmoid(self.data)
        if not _tracking(self):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            self._accum(g * out_data * (1.0 - out_data))

        return _from_op(out_data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not _tracking(self):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            self._accum(g * (1.0 - out_data * out_data))

        return _from_op(out_data, (self,), backward_fn)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if not _tracking(self):
            return Tensor(out_data)
        sign = np.sign(self.data)

        def backward_fn(g: np.ndarray) -> None:
            self._accum(g * sign)

        return _from_op(out_data, (self,), backward_fn)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _tracking(self):
            return Tensor(out_data)
        shape = self.data.shape

        def backward_fn(g: np.ndarray) -> None:
            gg = g
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(shape) for a in axes)
                gg = np.expand_dims(gg, axes)
            self._accum(np.broadcast_to(gg, shape))

        return _from_op(out_data, (self,), backward_fn)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not _tracking(self):
            return Tensor(out_data)
        orig = self.data.shape

        def backward_fn(g: np.ndarray) -> None:
            self._accum(g.reshape(orig))

        return _from_op(out_data, (self,), backward_fn)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        out_data = self.data.transpose(axes)
        if not _tracking(self):
            return Tensor(out_data)
        inverse = tuple(np.argsort(axes))

        def backward_fn(g: np.ndarray) -> None:
            self._accum(g.transpose(inverse))

        return _from_op(out_data, (self,), backward_fn)

    def swap_last(self) -> "Tensor":
        """Transpose the trailing two axes, keeping any batch axes in place."""
        nd = self.data.ndim
        axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        """Basic indexing only (ints, slices and tuples of them); the result views the data.

        The backward writes the slice's gradient into zeros of this tensor's
        shape. Iteration falls back on indexing, so it walks the axis-0 slices.
        """
        out_data = self.data[index]
        if not _tracking(self):
            return Tensor(out_data)

        def backward_fn(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            full[index] = g
            self._accum(full)

        return _from_op(out_data, (self,), backward_fn)


class Params:
    """Mixin for dataclasses of trainable weights; names come from the fields.

    Fields are walked in declaration order: a Tensor is a parameter named
    after its field, a nested Params adds ``field.`` to the prefix, a list
    numbers its tensors (``theta0``, ``theta1``, ...), and anything else
    (dimensions, temperatures, an absent ``None`` branch) is skipped.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                yield prefix + f.name, value
            elif isinstance(value, Params):
                yield from value.named_parameters(f"{prefix}{f.name}.")
            elif isinstance(value, list):
                for i, t in enumerate(value):
                    yield f"{prefix}{f.name}{i}", t

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _tracking(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _released(g: np.ndarray | None = None) -> None:
    """Backward rule of a tensor whose graph an earlier backward() freed."""
    raise RuntimeError(
        "backward() through a graph that an earlier backward() released; run the forward pass again"
    )


def _from_op(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    out = Tensor(data)
    out.requires_grad = True
    out._parents = tuple(p for p in parents if p.requires_grad)
    out._backward = backward_fn
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)): branch-free, finite everywhere."""
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along `axis`, differentiable in every input."""
    tensors = [_lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _tracking(*tensors):
        return Tensor(out_data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g: np.ndarray) -> None:
        pieces = np.split(g, offsets, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accum(piece)

    return _from_op(out_data, tuple(tensors), backward_fn)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)
