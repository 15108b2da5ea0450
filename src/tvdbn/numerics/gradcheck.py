"""Gradient verification against central finite differences.

Every trainable operation in the package is expected to pass
``grad_check`` at double precision: max relative error below 1e-4 with
eps = 1e-5 on small random inputs. Non-finite analytic gradients are
reported as failures (infinite error), never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, no_grad

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4
_REL_FLOOR = 1e-8


@dataclass
class GradReport:
    """Result of one gradient check.

    max_rel_error is the worst elementwise relative error across all checked
    inputs, with relative error |a - n| / max(|a|, |n|, 1e-8). (A report
    that compares two analytic gradients, such as the gradient suite's
    `grcsl_loss_float32`, defines its own error.)
    """

    op_name: str
    max_rel_error: float

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.isfinite(self.max_rel_error) and self.max_rel_error < tol)

    def __str__(self) -> str:
        status = "ok" if self.ok() else "FAIL"
        return f"grad_check[{self.op_name}]: max_rel_error={self.max_rel_error:.3e} ({status})"


def grad_check(
    op: Callable[..., Tensor],
    inputs: Sequence[np.ndarray | Tensor],
    eps: float = DEFAULT_EPS,
    name: str | None = None,
) -> GradReport:
    """Compare reverse-mode gradients of ``sum(op(*inputs))`` to central differences.

    `op` maps Tensors to a Tensor of any shape; the check reduces it by
    summation. Each input is perturbed elementwise by +/- eps. An array
    input is copied into a fresh Tensor. A Tensor input, such as a live
    model parameter that `op` reads through its model, is checked in place:
    its grad is reset, its data made contiguous so that every perturbation
    reaches the model, and each entry is restored exactly afterwards.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    tensors = [_checked_input(x) for x in inputs]
    out = op(*tensors)
    out.sum().backward()

    per_input: list[float] = []
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(analytic)):
            per_input.append(float("inf"))
            continue
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = _evaluate(op, tensors)
            flat[i] = orig - eps
            f_minus = _evaluate(op, tensors)
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
        per_input.append(float(np.max(np.abs(analytic - numeric) / denom)))

    worst = max(per_input) if per_input else 0.0
    return GradReport(op_name=name or getattr(op, "__name__", "op"), max_rel_error=worst)


def _checked_input(x: np.ndarray | Tensor) -> Tensor:
    if isinstance(x, Tensor):
        x.grad = None
        x.data = np.ascontiguousarray(x.data)
        return x
    return Tensor(np.array(x, dtype=np.float64), requires_grad=True)


def _evaluate(op: Callable[..., Tensor], tensors: list[Tensor]) -> float:
    with no_grad():
        value = op(*tensors).data.sum()
    return float(value)
