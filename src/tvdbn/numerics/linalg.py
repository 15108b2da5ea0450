"""Matrix exponential via scaling-and-squaring of a truncated power series.

The structure learner's acyclicity penalty (``constraint.notears_h``)
only ever needs ``trace(expm(M))`` and its gradient ``expm(M)^T``, and the
matrices it sees are small (N <= a few hundred) with moderate norms, so a
Taylor series with adaptive termination plus repeated squaring is both
simple and accurate. Scaling is skipped when the 1-norm is small; nilpotent
inputs then terminate exactly because the series hits a zero term.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _lift, _record

# Direct series below this 1-norm; above it, scale down to ~0.5 and square.
_DIRECT_NORM = 4.0
_MAX_TERMS = 64


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of the trailing two axes of `a` (batched).

    Raises ShapeError unless the trailing axes are square.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"expm needs square trailing axes, got shape {a.shape}")
    n = a.shape[-1]
    # Max L1 (column-sum) norm across the batch decides a single scaling.
    norm = float(np.abs(a).sum(axis=-2).max()) if a.size else 0.0
    squarings = 0
    work = a
    if norm > _DIRECT_NORM:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        work = a / (2.0**squarings)
    eye = np.broadcast_to(np.eye(n), work.shape).copy()
    result = eye.copy()
    term = eye
    for k in range(1, _MAX_TERMS + 1):
        term = np.matmul(term, work) / k
        result = result + term
        if np.abs(term).max() <= 1e-17 * max(np.abs(result).max(), 1.0):
            break
    for _ in range(squarings):
        result = np.matmul(result, result)
    return result


def trace_expm(m: Tensor) -> Tensor:
    """Differentiable ``trace(expm(M))`` over the trailing square axes.

    The output drops the trailing two axes (a scalar per batch element).
    Gradient: d trace(expm(M)) / dM = expm(M)^T, reusing the forward expm.
    """
    m = _lift(m)
    e = expm(m.data)
    return _record(
        np.trace(e, axis1=-2, axis2=-1), (m,), (lambda g: g[..., None, None] * np.swapaxes(e, -1, -2),)
    )
