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
    # operations: each gives its value and one gradient rule per input
    # ------------------------------------------------------------------ #

    def __add__(self, other) -> "Tensor":
        other = _lift(other)
        return _record(self.data + other.data, (self, other), (_same, _same))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _lift(other)
        return _record(self.data - other.data, (self, other), (_same, np.negative))

    def __rsub__(self, other) -> "Tensor":
        return _lift(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = _lift(other)
        rules = (lambda g: g * other.data, lambda g: g * self.data)
        return _record(self.data * other.data, (self, other), rules)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _lift(other)
        rules = (lambda g: g / other.data, lambda g: -g * self.data / (other.data * other.data))
        return _record(self.data / other.data, (self, other), rules)

    def __matmul__(self, other) -> "Tensor":
        other = _lift(other)
        a_vec = self.data.ndim == 1
        b_vec = other.data.ndim == 1
        # Promote 1-D operands to matrices so the transpose-based gradient
        # rules apply uniformly, then strip the synthetic axes again.
        a = self.data[None, :] if a_vec else self.data
        b = other.data[:, None] if b_vec else other.data
        out_data = np.matmul(a, b)
        if b_vec:
            out_data = out_data[..., 0]
        if a_vec:
            out_data = out_data[..., 0] if b_vec else out_data[..., 0, :]

        def promoted(g: np.ndarray) -> np.ndarray:
            g = g[..., None] if b_vec else g
            return g[..., None, :] if a_vec else g

        def grad_a(g: np.ndarray) -> np.ndarray:
            ga = np.matmul(promoted(g), np.swapaxes(b, -1, -2))
            return ga[..., 0, :] if a_vec else ga

        def grad_b(g: np.ndarray) -> np.ndarray:
            gb = np.matmul(np.swapaxes(a, -1, -2), promoted(g))
            return gb[..., 0] if b_vec else gb

        return _record(out_data, (self, other), (grad_a, grad_b))

    def relu(self) -> "Tensor":
        return _record(np.maximum(self.data, 0.0), (self,), (lambda g: g * (self.data > 0.0),))

    def sigmoid(self) -> "Tensor":
        out = _stable_sigmoid(self.data)
        return _record(out, (self,), (lambda g: g * out * (1.0 - out),))

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return _record(out, (self,), (lambda g: g * (1.0 - out * out),))

    def abs(self) -> "Tensor":
        return _record(np.abs(self.data), (self,), (lambda g: g * np.sign(self.data),))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def rule(g: np.ndarray) -> np.ndarray:
            shape = self.data.shape
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
            return np.broadcast_to(g, shape)

        return _record(self.data.sum(axis=axis, keepdims=keepdims), (self,), (rule,))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _record(self.data.reshape(shape), (self,), (lambda g: g.reshape(self.data.shape),))

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        return _record(
            self.data.transpose(axes), (self,), (lambda g: g.transpose(tuple(np.argsort(axes))),)
        )

    def swap_last(self) -> "Tensor":
        """Transpose the trailing two axes, keeping any batch axes in place."""
        nd = self.data.ndim
        axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        """Basic indexing only (ints, slices and tuples of them); the result views the data.

        Iteration falls back on indexing, so it walks the axis-0 slices.
        """

        def rule(g: np.ndarray) -> np.ndarray:
            full = np.zeros_like(self.data)
            full[index] = g
            return full

        return _record(self.data[index], (self,), (rule,))


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


def _record(data: np.ndarray, parents: tuple[Tensor, ...], rules: Sequence[Callable]) -> Tensor:
    """Result of a composed op: `rules[i]` maps the output gradient to `parents[i]`'s.

    Nothing is recorded unless some parent requires grad. The backward pass
    runs the rule of each parent that does, in parent order.
    """
    if not _tracking(*parents):
        return Tensor(data)

    def backward_fn(g: np.ndarray) -> None:
        for parent, rule in zip(parents, rules):
            if parent.requires_grad:
                parent._accum(rule(g))

    return _from_op(data, parents, backward_fn)


def _same(g: np.ndarray) -> np.ndarray:
    return g


def _stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)): branch-free, finite everywhere."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along `axis`, differentiable in every input."""
    tensors = [_lift(t) for t in tensors]
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    # Each rule hands on a view of g: BLAS rounds products over a strided
    # operand differently from a contiguous copy's.
    rules = [lambda g, i=i: np.split(g, offsets, axis=axis)[i] for i in range(len(tensors))]
    return _record(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), rules)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)
