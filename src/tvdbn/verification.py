"""Gradient-check suite covering every trainable operation.

Each entry builds a small random instance (node counts <= 8), runs the
reverse-mode gradients against central finite differences, and returns a
GradReport. One entry, `grcsl_loss_float32`, checks the float32 pair
kernels that training runs against the float64 path instead. The suite backs both the `gradcheck` CLI command and the
acceptance tests, so the two can never drift apart.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .constraint import auglag_objective, constraint_sum, grcsl_loss, notears_h
from .dgcpm import DgcpmDims, DgcpmParams, dgcpm_forward_batch, masked_mae_loss
from .graphops import GconvParams, dygconv, gconv_spatial, gconv_spectral
from .grcsl import (
    AttnParams,
    GraphHeads,
    GrcslDims,
    GrcslParams,
    GruCells,
    SemParams,
    graph_head,
    grcsl_forward_batch,
    gru_step,
    msdot,
    sem_reconstruct,
)
from .numerics import GradReport, Tensor, grad_check


def _symmetric_prior(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.random((n, n))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return a


def _positive_graph(rng: np.random.Generator, shape, zero_diag: bool = False) -> np.ndarray:
    g = rng.uniform(0.05, 0.95, size=shape)
    if zero_diag:
        eye = np.eye(shape[-1], dtype=bool)
        g[..., eye] = 0.0
    return g


def _check_msdot(rng: np.random.Generator) -> GradReport:
    q, k0, k1 = rng.standard_normal((3, 2, 4, 3))  # one query set, one key set per lag
    w_q, w_k = rng.standard_normal((2, 2, 3, 2))  # (heads, d_in, d_att) each

    def op(q_t, k0_t, k1_t, wq, wk):
        return msdot(q_t, [k0_t, k1_t], AttnParams(w_q=wq, w_k=wk))

    return grad_check(op, [q, k0, k1, w_q, w_k], name="msdot")


def _check_gru_step(rng: np.random.Generator) -> GradReport:
    c = rng.standard_normal((2, 3, 2, 5, 3))  # two lags, three steps of a (2, 5) batch of pairs
    h = rng.standard_normal((2, 2, 5, 4))
    shapes = [(3, 4), (4, 4), (4,)] * 3
    # Each lag's w_cr, w_hr, b_r, w_cz, w_hz, b_z, w_ch, w_hh, b_h, then stacked as GruCells holds them.
    lags = [[rng.standard_normal(s) * 0.5 for s in shapes] for _ in range(2)]
    cells = [np.array([lag[i] for lag in lags]) for i in (slice(0, 9, 3), slice(1, 5, 3), 7, slice(2, 9, 3))]

    def op(c_t, h_t, *cell_arrays):
        return gru_step(c_t, h_t, GruCells(*cell_arrays))

    return grad_check(op, [c, h, *cells], name="gru_step")


def _graph_head_case(rng: np.random.Generator, n: int, hid: int) -> list[np.ndarray]:
    """Hidden states of two lags (two steps of one window each), then the heads' weights stacked over the lags."""
    shapes = [(hid, hid), (hid,), (hid, hid), (hid,), (hid, 1), (1,)]
    lags = [[rng.standard_normal(s) * (0.5 if len(s) == 2 else 0.2) for s in shapes] for _ in range(2)]
    return [rng.standard_normal((2, 2, 1, n * n, hid)), *map(np.array, zip(*lags))]


def _check_graph_head(rng: np.random.Generator) -> GradReport:
    n, hid = 3, 4

    def op(h_t, *arrays):
        return graph_head(h_t, GraphHeads(*arrays), n, tau=0.5)

    return grad_check(op, _graph_head_case(rng, n, hid), name="graph_head_logits")


def _check_graph_head_train(rng: np.random.Generator) -> GradReport:
    n, hid = 3, 4
    noise = rng.logistic(size=(2, 2, 1, n, n))  # a difference of two standard Gumbels is logistic

    def op(h_t, *arrays):
        return graph_head(h_t, GraphHeads(*arrays), n, tau=0.5, noise=noise)

    return grad_check(op, _graph_head_case(rng, n, hid), name="graph_head_train")


def _check_gconv_spectral(rng: np.random.Generator) -> GradReport:
    prior = _symmetric_prior(rng, 4)
    x = rng.standard_normal((2, 4, 3))
    thetas = [rng.standard_normal((3, 5)) * 0.5] + [
        rng.standard_normal((5, 5)) * 0.4 for _ in range(2)
    ]

    def op(x_t, t0, t1, t2):
        return gconv_spectral(x_t, prior, GconvParams(theta=[t0, t1, t2]))

    return grad_check(op, [x, *thetas], name="gconv_spectral")


def _check_gconv_spatial(rng: np.random.Generator) -> GradReport:
    x = rng.standard_normal((2, 4, 3))
    a = _positive_graph(rng, (2, 4, 4))
    thetas = [rng.standard_normal((3, 4)) * 0.5, rng.standard_normal((4, 4)) * 0.4]

    def op(x_t, a_t, t0, t1):
        return gconv_spatial(x_t, a_t, GconvParams(theta=[t0, t1]))

    return grad_check(op, [x, a, *thetas], name="gconv_spatial")


def _check_dygconv(rng: np.random.Generator) -> GradReport:
    x = rng.standard_normal((1, 4, 2))
    intra = _positive_graph(rng, (1, 4, 4), zero_diag=True)
    inter = _positive_graph(rng, (1, 4, 4))
    t_inter = [rng.standard_normal((2, 3)) * 0.5, rng.standard_normal((3, 3)) * 0.4]
    t_intra = [rng.standard_normal((3, 3)) * 0.5, rng.standard_normal((3, 3)) * 0.4]

    mask = Tensor(1.0 - np.eye(4))

    def op(x_t, a0, a1, ti0, ti1, tj0, tj1):
        # Mask before the call: the generator zeroes the diagonal the same way,
        # and finite differencing must be free to perturb every entry.
        return dygconv(
            x_t, a0 * mask, a1, GconvParams(theta=[ti0, ti1]), GconvParams(theta=[tj0, tj1])
        )

    return grad_check(op, [x, intra, inter, *t_inter, *t_intra], name="dygconv")


def _check_sem_reconstruct(rng: np.random.Generator) -> GradReport:
    n, width, h_m = 4, 4, 5
    x_prev = rng.standard_normal((1, n, 1))
    x_cur = rng.standard_normal((1, n, 1))
    intra = _positive_graph(rng, (1, n, n), zero_diag=True)
    inter = _positive_graph(rng, (1, n, n))
    arrays = [
        rng.standard_normal((1, width)) * 0.5,
        rng.standard_normal((1, width)) * 0.5,
        rng.standard_normal((width, h_m)) * 0.5,
        rng.standard_normal(h_m) * 0.2,
        rng.standard_normal((h_m, 1)) * 0.5,
        rng.standard_normal(1) * 0.2,
    ]

    mask = Tensor(1.0 - np.eye(n))

    def op(xp, xc, a0, a1, w_intra, w_inter, w1, b1, w2, b2):
        sem = SemParams(w_intra=w_intra, w_inter=w_inter, w1=w1, b1=b1, w2=w2, b2=b2)
        return sem_reconstruct(xp, xc, a0 * mask, a1, sem)

    return grad_check(op, [x_prev, x_cur, intra, inter, *arrays], name="sem_reconstruct")


def _check_notears_h(rng: np.random.Generator) -> GradReport:
    b = rng.uniform(0.05, 0.8, size=(5, 5))

    def op(b_t):
        return notears_h(b_t)

    return grad_check(op, [b], name="notears_h")


def _check_grcsl_loss(rng: np.random.Generator) -> GradReport:
    dims = GrcslDims(
        heads=2, d_att=2, h_r=3, d_s=2, h_m=3, sem_width=3, gconv_layers=1, tau=0.3
    )
    params = GrcslParams.init(rng, dims)
    for t in params.parameters():
        # Zero-initialized biases park ReLU pre-activations exactly on the
        # kink, where finite differences are meaningless; check at a generic
        # point instead.
        if not t.data.any():
            t.data += rng.uniform(-0.3, 0.3, size=t.shape)
    n, t_in = 3, 3
    values = rng.standard_normal((1, t_in, n, 1))
    tod = rng.random((1, t_in, n, 1))
    prior = _symmetric_prior(rng, n)

    def op(*_):
        fwd = grcsl_forward_batch(values, tod, prior, params, train=False)
        f = grcsl_loss(fwd, None, lam=1e-3)
        s = constraint_sum(fwd)
        return auglag_objective(f, s, alpha=0.7, rho=1.3)

    return grad_check(op, params.parameters(), name="grcsl_loss_full")


def _check_grcsl_loss_float32(rng: np.random.Generator) -> GradReport:
    """The full objective's parameter gradients on float32 windows against those on float64 windows.

    Float32 windows run the GRUs and graph heads in float32, as training
    does. Both passes are train mode over the same windows and Gumbel draws.
    The error is each gradient's largest deviation relative to its largest
    entry: float32 rounding is relative to a gradient's scale, not to each
    of its entries, some of which cancel to nearly zero.
    """
    dims = GrcslDims(heads=2, d_att=4, h_r=8, d_s=2, h_m=4, sem_width=4, gconv_layers=1)
    params = GrcslParams.init(rng, dims)
    b, t_in, n = 4, 6, 5
    values = rng.standard_normal((b, t_in, n, 1))
    tod = rng.random((b, t_in, n, 1))
    prior = _symmetric_prior(rng, n)
    noise_seed = int(rng.integers(2**32))

    def gradients(dtype) -> list[np.ndarray]:
        for t in params.parameters():
            t.grad = None
        draws = np.random.default_rng(noise_seed)
        fwd = grcsl_forward_batch(values.astype(dtype), tod.astype(dtype), prior, params, train=True, rng=draws)
        auglag_objective(grcsl_loss(fwd, None, lam=1e-3), constraint_sum(fwd), alpha=0.7, rho=1.3).backward()
        return [t.grad for t in params.parameters()]

    pairs = zip(gradients(np.float32), gradients(np.float64))
    worst = max(float(np.max(np.abs(g32 - g64)) / max(np.max(np.abs(g64)), 1e-8)) for g32, g64 in pairs)
    return GradReport(op_name="grcsl_loss_float32", max_rel_error=worst)


def _check_dgcpm_forward(rng: np.random.Generator) -> GradReport:
    dims = DgcpmDims(t_in=3, t_out=2, dy_width=2, prior_width=2, gconv_layers=1)
    params = DgcpmParams.init(rng, dims)
    n = 3
    values = rng.standard_normal((2, dims.t_in, n, 1))
    tod = rng.random((2, dims.t_in, n, 1))
    intra = _positive_graph(rng, (2, dims.t_in - 1, n, n), zero_diag=True)
    inter = _positive_graph(rng, (2, dims.t_in - 1, n, n))
    prior = _symmetric_prior(rng, n)

    def op(*_):
        return dgcpm_forward_batch(values, tod, intra, inter, prior, params)

    return grad_check(op, params.parameters(), name="dgcpm_forward")


def _check_masked_mae(rng: np.random.Generator) -> GradReport:
    pred = rng.standard_normal((2, 3, 4, 1))
    target = rng.standard_normal((2, 3, 4, 1))
    mask = rng.random((2, 3, 4, 1)) < 0.8

    def op(p):
        return masked_mae_loss(p, target, mask, horizon_limit=2)

    return grad_check(op, [pred], name="masked_mae_loss")


_CHECKS: list[Callable[[np.random.Generator], GradReport]] = [
    _check_msdot, _check_gru_step, _check_graph_head, _check_gconv_spectral, _check_gconv_spatial, _check_dygconv,
    _check_sem_reconstruct, _check_notears_h, _check_grcsl_loss, _check_dgcpm_forward, _check_masked_mae,
    _check_graph_head_train, _check_grcsl_loss_float32,
]


def gradient_suite(seed: int = 7) -> list[GradReport]:
    """Run every gradient check on small seeded instances."""
    return [check(np.random.default_rng(seed + i)) for i, check in enumerate(_CHECKS)]
