"""Graph convolutions over sensor graphs.

Two flavors are used throughout the package:

* spectral: symmetric degree normalization of an undirected prior graph,
  for features that should respect physical proximity;
* spatial: row normalization of a directed (possibly generated, hence
  differentiable) graph, aggregating each node's parents.

Both stack residual layers ``H^(l) = ReLU(A_hat @ H^(l-1) @ Theta^(l)) + H^(l-1)``
on top of an input projection ``H^(0) = X @ Theta^(0)``. No biases anywhere;
the projection weights carry the scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numerics import Params, Tensor, glorot_uniform


@dataclass
class GconvParams(Params):
    """Weights of one graph-convolution stack.

    theta[0] maps the input width to the hidden width; every later theta is
    square (hidden to hidden), one per residual layer.
    """

    theta: list[Tensor]

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, width: int, layers: int) -> "GconvParams":
        if layers < 0:
            raise ShapeError("layer count must be non-negative")
        theta = [Tensor(glorot_uniform(rng, d_in, width), requires_grad=True)]
        for _ in range(layers):
            theta.append(Tensor(glorot_uniform(rng, width, width), requires_grad=True))
        return cls(theta=theta)


def normalize_symmetric(a: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self-loops: D~^-1/2 (A + I) D~^-1/2.

    The prior graph is non-negative, so degrees are >= 1 after the identity
    is added and the inverse square root is always finite.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    if np.any(a < 0):
        raise ValueError("symmetric normalization expects non-negative weights")
    a_tilde = a + np.eye(a.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def normalize_row(a: Tensor | np.ndarray) -> Tensor:
    """Row normalization A_ij / sum_j A_ij, differentiable, zero rows stay zero."""
    if not isinstance(a, Tensor):
        a = Tensor(a)
    row_sums = a.sum(axis=-1, keepdims=True)
    # Indicator is data-dependent but constant w.r.t. the tape: rows that sum
    # to zero are exactly zero everywhere, so the quotient (and its gradient
    # through the numerator) is zero there regardless.
    safe = row_sums + Tensor((row_sums.data == 0.0).astype(np.float64))
    return a / safe


def _residual_stack(h: Tensor, a_hat: Tensor, params: GconvParams) -> Tensor:
    for theta in params.theta[1:]:
        h = (a_hat @ h @ theta).relu() + h
    return h


def gconv_spectral(x: Tensor, a: np.ndarray, params: GconvParams) -> Tensor:
    """Graph convolution of node features against a fixed undirected prior.

    `x` is (..., N, D_in); `a` is the raw N x N prior adjacency, normalized
    symmetrically (with self-loops) inside the call.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    a_hat = Tensor(normalize_symmetric(a))
    h = x @ params.theta[0]
    return _residual_stack(h, a_hat, params)


def gconv_spatial(x: Tensor, a: Tensor | np.ndarray, params: GconvParams) -> Tensor:
    """Graph convolution against a directed graph, differentiable in the graph.

    Rows of `a` index receivers: entry (i, j) weights the edge j -> i, so
    row normalization makes each node average over its parents. Zero rows
    (no parents) aggregate nothing and pass the residual through.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if np.any(a.data < 0):
        raise ValueError("spatial normalization expects non-negative weights")
    a_hat = normalize_row(a)
    h = x @ params.theta[0]
    return _residual_stack(h, a_hat, params)


def dygconv(
    x_prev: Tensor,
    intra: Tensor,
    inter: Tensor,
    params_inter: GconvParams,
    params_intra: GconvParams,
) -> Tensor:
    """Two-stage propagation through a lagged graph pair.

    The previous step's features first flow along the lag-1 graph, then the
    result flows along the lag-0 graph. Self-loops are added to both graphs
    before row normalization so every node keeps its own signal.
    """
    if not isinstance(intra, Tensor):
        intra = Tensor(intra)
    if not isinstance(inter, Tensor):
        inter = Tensor(inter)
    n = intra.shape[-1]
    if np.any(np.abs(np.diagonal(intra.data, axis1=-2, axis2=-1)) > 0):
        raise ValueError("lag-0 graph must have a zero diagonal")
    eye = Tensor(np.eye(n))
    carried = gconv_spatial(x_prev, inter + eye, params_inter)
    return gconv_spatial(carried, intra + eye, params_intra)
