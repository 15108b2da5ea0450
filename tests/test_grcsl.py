"""Graph-generator tests: closed-form fixtures, sampling statistics, causality."""

import csv
import functools
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdbn import grcsl
from tvdbn.constraint import auglag_objective, constraint_sum, grcsl_loss, notears_h
from tvdbn.errors import ConfigError, ShapeError
from tvdbn.grcsl import (
    AttnParams,
    CausalGraphSeq,
    GraphHeads,
    GrcslDims,
    GrcslParams,
    GruCells,
    export_graph_edges,
    extract_features,
    SemParams,
    _gumbel,
    graph_head,
    graph_stacks,
    grcsl_forward_batch,
    gru_step,
    msdot,
    sem_reconstruct,
)
from tvdbn.numerics import Adam, Tensor, concat, glorot_uniform, no_grad
from tvdbn.numerics import tensor as tensor_module

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_dims(**overrides):
    base = dict(heads=2, d_att=4, h_r=6, d_s=3, h_m=5, sem_width=4, use_prior=False)
    base.update(overrides)
    return GrcslDims(**base)


def zero_logit_head(hidden):
    """One lag's head whose output logit is identically zero."""
    z = lambda *shape: Tensor(np.zeros((1,) + shape), requires_grad=True)
    return GraphHeads(
        w1=z(hidden, hidden), b1=z(hidden),
        w2=z(hidden, hidden), b2=z(hidden),
        w3=z(hidden, 1), b3=z(1),
    )


# ------------------------------------------------------------------ #
# pairwise correlation scores
# ------------------------------------------------------------------ #


def test_msdot_identity_projection_is_gram_matrix():
    # w_q = w_k = I, d_att = 1: score(i, j) = x_i * x_j / sqrt(1).
    attn = AttnParams(w_q=Tensor(np.eye(1)[None]), w_k=Tensor(np.eye(1)[None]))
    x = Tensor(np.array([[1.0], [2.0]]))
    scores = msdot(x, [x], attn)
    assert scores.shape == (1, 2, 2, 1)
    np.testing.assert_allclose(scores.data[0, ..., 0], [[1.0, 2.0], [2.0, 4.0]])


def test_msdot_scales_by_sqrt_of_projection_width():
    # Ones-projections of width 4 give q.k = 4 * x_i * x_j, then / sqrt(4).
    attn = AttnParams(w_q=Tensor(np.ones((1, 1, 4))), w_k=Tensor(np.ones((1, 1, 4))))
    x = Tensor(np.array([[1.0], [2.0]]))
    scores = msdot(x, [x], attn)
    np.testing.assert_allclose(scores.data[0, ..., 0], [[2.0, 4.0], [4.0, 8.0]])


def test_msdot_stacks_heads_on_last_axis():
    attn = AttnParams(w_q=Tensor(np.array([[[1.0]], [[2.0]]])), w_k=Tensor(np.ones((2, 1, 1))))
    x = Tensor(np.array([[1.0], [3.0]]))
    scores = msdot(x, [x], attn)
    assert scores.shape == (1, 2, 2, 2)
    np.testing.assert_allclose(scores.data[..., 1], 2.0 * scores.data[..., 0])


def test_msdot_stacks_key_sets_on_first_axis():
    # Key set l gives slice l, the query set's scores against that set alone.
    rng = np.random.default_rng(4)
    attn = AttnParams.init(rng, d_in=3, d_att=4, heads=2)
    q, k0, k1 = (Tensor(rng.normal(size=(2, 5, 3))) for _ in range(3))
    scores = msdot(q, [k0, k1], attn).data
    assert scores.shape == (2, 2, 5, 5, 2)
    np.testing.assert_array_equal(scores[0], msdot(q, [k0], attn).data[0])
    np.testing.assert_array_equal(scores[1], msdot(q, [k1], attn).data[0])


def test_stacked_heads_keep_the_per_head_init_and_scores(rng):
    attn = AttnParams.init(np.random.default_rng(0), d_in=3, d_att=4, heads=2)
    ref = np.random.default_rng(0)
    per_head = [glorot_uniform(ref, 3, 4) for _ in range(4)]  # every w_q head, then every w_k head
    np.testing.assert_array_equal(attn.w_q.data, np.stack(per_head[:2]))
    np.testing.assert_array_equal(attn.w_k.data, np.stack(per_head[2:]))
    q = rng.normal(size=(5, 6, 3))
    k = rng.normal(size=(5, 6, 3))
    scores = msdot(Tensor(q), [Tensor(k)], attn).data[0]
    assert scores.shape == (5, 6, 6, 2)
    for m in range(2):
        want = (q @ per_head[m]) @ np.swapaxes(k @ per_head[2 + m], -1, -2) / 2.0
        np.testing.assert_allclose(scores[..., m], want, rtol=0, atol=1e-12)


def test_msdot_is_asymmetric_between_query_and_key():
    rng = np.random.default_rng(3)
    attn = AttnParams.init(rng, d_in=3, d_att=4, heads=1)
    q = Tensor(rng.normal(size=(5, 3)))
    k = Tensor(rng.normal(size=(5, 3)))
    ab = msdot(q, [k], attn).data
    ba = msdot(k, [q], attn).data
    assert not np.allclose(ab, ba)


# ------------------------------------------------------------------ #
# recurrence
# ------------------------------------------------------------------ #


def naive_gru(c, h, cells, lag=0):
    w_c, w_h, w_hh, b = (p.data[lag] for p in cells.parameters())
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    r = sig(c @ w_c[0] + h @ w_h[0] + b[0])
    z = sig(c @ w_c[1] + h @ w_h[1] + b[1])
    h_tilde = np.tanh(c @ w_c[2] + (r * h) @ w_hh + b[2])
    return z * h + (1.0 - z) * h_tilde


def test_gru_step_matches_naive_numpy(rng):
    cells = GruCells.init(rng, lags=2, d_in=3, hidden=5)
    c = rng.normal(size=(2, 3, 4, 7, 3))
    h0 = rng.normal(size=(2, 4, 7, 5))
    out = gru_step(Tensor(c), Tensor(h0), cells)
    assert out.shape == (2, 3, 4, 7, 5)
    for lag in range(2):
        h = h0[lag]
        for j in range(3):
            h = naive_gru(c[lag, j], h, cells, lag)
            np.testing.assert_allclose(out.data[lag, j], h, atol=1e-12)


def test_lag_stacked_cells_and_heads_keep_the_per_lag_init():
    # Every lag's cell, drawn w_cr, w_hr, w_cz, w_hz, w_ch, w_hh, then every
    # lag's head, drawn w1, w2, w3: the order that fixes every trained model's bits.
    rng = np.random.default_rng(0)
    cells, heads = GruCells.init(rng, lags=2, d_in=3, hidden=4), GraphHeads.init(rng, lags=2, hidden=4)
    ref = np.random.default_rng(0)
    for lag in range(2):
        w_cr, w_hr, w_cz, w_hz, w_ch, w_hh = (glorot_uniform(ref, fan_in, 4) for fan_in in (3, 4) * 3)
        np.testing.assert_array_equal(cells.w_c.data[lag], np.stack([w_cr, w_cz, w_ch]))
        np.testing.assert_array_equal(cells.w_h.data[lag], np.stack([w_hr, w_hz]))
        np.testing.assert_array_equal(cells.w_hh.data[lag], w_hh)
    for lag in range(2):
        for w, width in ((heads.w1, 4), (heads.w2, 4), (heads.w3, 1)):
            np.testing.assert_array_equal(w.data[lag], glorot_uniform(ref, 4, width))
    assert not cells.b.data.any() and not heads.b1.data.any() and not heads.b2.data.any()
    np.testing.assert_array_equal(heads.b3.data, -1.0)


def test_gru_zero_state_zero_input_is_fixed_point(rng):
    # Fresh cells have zero biases, so gates sit at 1/2 and the candidate at 0.
    cells = GruCells.init(rng, lags=1, d_in=3, hidden=4)
    out = gru_step(Tensor(np.zeros((1, 3, 2, 3))), Tensor(np.zeros((1, 2, 4))), cells)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-15)


def test_gru_saturated_update_gate_copies_previous_state(rng):
    cells = GruCells.init(rng, lags=1, d_in=3, hidden=4)
    cells.b.data[0, 1] = 50.0  # z -> 1
    c = rng.normal(size=(3, 2, 3))
    h = rng.normal(size=(2, 4))
    out = gru_step(Tensor(c[None]), Tensor(h[None]), cells)
    np.testing.assert_allclose(out.data[0], np.broadcast_to(h, (3, 2, 4)), atol=1e-8)


# Per-step bodies built from elementary tape ops on 2-D rows, in the window
# kernels' operation order: the references the kernels must reproduce.


def composed_gru_step(c, h_prev, cells, lag):
    """One GRU update of `h_prev` (..., P, H) under features `c` (..., P, d_in) by lag `lag`'s cell."""
    hid = h_prev.shape[-1]
    w_c, w_h, w_hh, b = (p[lag] for p in cells.parameters())
    c2, h2 = c.reshape(-1, c.shape[-1]), h_prev.reshape(-1, hid)
    a_c = c2 @ concat([w_c[0], w_c[1], w_c[2]], axis=1)
    a_h = h2 @ concat([w_h[0], w_h[1]], axis=1)
    r = (a_c[:, :hid] + a_h[:, :hid] + b[0]).sigmoid()
    z = (a_c[:, hid : 2 * hid] + a_h[:, hid:] + b[1]).sigmoid()
    h_tilde = (a_c[:, 2 * hid :] + (r * h2) @ w_hh + b[2]).tanh()
    return (z * h2 + (1.0 - z) * h_tilde).reshape(h_prev.shape)


def composed_msdot(q, k, attn):
    """Scores (..., N, N, heads) of one key set, from elementary tape ops in msdot's operation order."""
    scale = 1.0 / float(np.sqrt(attn.w_q.shape[-1]))
    qp = q.reshape(q.shape[:-2] + (1,) + q.shape[-2:]) @ attn.w_q  # (..., heads, N, d_att)
    kp = k.reshape(k.shape[:-2] + (1,) + k.shape[-2:]) @ attn.w_k
    scores = (qp @ kp.swap_last()) * scale  # (..., heads, N, N)
    nd = scores.ndim
    return scores.transpose(tuple(range(nd - 3)) + (nd - 2, nd - 1, nd - 3))


def composed_graph_head(h, heads, lag, n, tau, noise=None):
    """Lag `lag`'s graphs (..., N, N) of one step from hidden states (..., N*N, H); `noise` as in graph_head."""
    w1, b1, w2, b2, w3, b3 = (p[lag] for p in heads.parameters())
    h2 = h.reshape(-1, h.shape[-1])
    y = (h2 @ w1 + b1).relu()
    y = (y @ w2 + b2).relu()
    logits = (y @ w3 + b3).reshape(h.shape[:-2] + (n, n))
    if noise is not None:
        logits = logits + Tensor(noise)
    graph = (logits * (1.0 / tau)).sigmoid()
    if lag == 0:
        graph = graph * Tensor(1.0 - np.eye(n))
    return graph


def gumbel_difference(rng, shape):
    """One step's train-mode noise, drawn the way a step-by-step pass draws it."""
    return _gumbel(rng.random(shape)) - _gumbel(rng.random(shape))


def stack_steps(outs):
    return concat([out.reshape((1,) + out.shape) for out in outs], axis=0)


def composed_gru(c, h0, cells, lag):
    states, h = [], h0
    for j in range(c.shape[0]):
        h = composed_gru_step(c[j], h, cells, lag)
        states.append(h)
    return stack_steps(states)


def composed_head(h, heads, lag, n, tau, noise=None):
    step_noise = [None] * h.shape[0] if noise is None else noise
    return stack_steps(
        [composed_graph_head(h[j], heads, lag, n, tau, step_noise[j]) for j in range(h.shape[0])]
    )


def run_with_grads(fn, arrays, seed_grad):
    """Apply fn to fresh leaves over `arrays`, backpropagate seed_grad; return value and grads."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    out.backward(seed_grad)
    return out.data, [leaf.grad for leaf in leaves]


def assert_same_value_and_grads(fused, reference, names):
    np.testing.assert_allclose(fused[0], reference[0], rtol=0, atol=1e-12)
    for name, got, want in zip(names, fused[1], reference[1]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def test_msdot_kernel_matches_composed_reference(rng):
    # One query set against two key sets, each scored by the composed body.
    q, k0, k1 = (rng.normal(size=(3, 2, 5, 4)) for _ in range(3))
    w_q, w_k = rng.normal(size=(2, 3, 4, 2))  # (heads, d_in, d_att) each
    seed_grad = rng.normal(size=(2, 3, 2, 5, 5, 3))

    def kernel(q_t, k0_t, k1_t, wq, wk):
        return msdot(q_t, [k0_t, k1_t], AttnParams(w_q=wq, w_k=wk))

    def composed(q_t, k0_t, k1_t, wq, wk):
        attn = AttnParams(w_q=wq, w_k=wk)
        return stack_steps([composed_msdot(q_t, k, attn) for k in (k0_t, k1_t)])

    runs = [run_with_grads(op, [q, k0, k1, w_q, w_k], seed_grad) for op in (kernel, composed)]
    assert_same_value_and_grads(*runs, ["q", "k0", "k1", "w_q", "w_k"])
    assert all(np.abs(grad).max() > 0.0 for grad in runs[0][1])


@pytest.mark.parametrize("lead", [(7,), (3, 7), (3, 25)])
def test_gru_step_kernel_matches_composed_reference(rng, lead):
    # Both lags, each with its own cell, features and initial state, against
    # the composed per-step body run one lag at a time. (3, 25) is B = 3,
    # N = 5: 75 rows per lag, which the row partitions do not split evenly.
    steps, d_in, hidden = 4, 3, 5
    shapes = [(2, 3, d_in, hidden), (2, 2, hidden, hidden), (2, hidden, hidden), (2, 3, hidden)]
    arrays = [rng.normal(size=s) * 0.5 for s in shapes]
    c = rng.normal(size=(2, steps) + lead + (d_in,))
    h0 = rng.normal(size=(2,) + lead + (hidden,))
    seed_grad = rng.normal(size=(2, steps) + lead + (hidden,))

    def composed(c_t, h_t, cells):
        return stack_steps([composed_gru(c_t[lag], h_t[lag], cells, lag) for lag in range(2)])

    runs = [
        run_with_grads(lambda c_t, h_t, *w: op(c_t, h_t, GruCells(*w)), [c, h0, *arrays], seed_grad)
        for op in (gru_step, composed)
    ]
    assert_same_value_and_grads(*runs, ["c", "h0", "w_c", "w_h", "w_hh", "b"])
    assert all(np.abs(grad).max() > 0.0 for grad in runs[0][1])


def test_gru_step_rejects_mismatched_pair_axes(rng):
    cells = GruCells.init(rng, lags=2, d_in=3, hidden=4)
    with pytest.raises(ShapeError):
        gru_step(Tensor(np.zeros((2, 2, 5, 3))), Tensor(np.zeros((2, 6, 4))), cells)
    with pytest.raises(ShapeError):  # one lag axis entry per cell, on both inputs
        gru_step(Tensor(np.zeros((1, 2, 5, 3))), Tensor(np.zeros((2, 5, 4))), cells)
    with pytest.raises(ShapeError):
        gru_step(Tensor(np.zeros((2, 2, 5, 3))), Tensor(np.zeros((1, 5, 4))), cells)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gru_state_stays_in_unit_box(seed):
    # |h'| <= z|h| + (1-z)|tanh| <= max(|h|, 1): the unit box is invariant.
    rng = np.random.default_rng(seed)
    cells = GruCells.init(rng, lags=1, d_in=2, hidden=3)
    c = rng.normal(0.0, 3.0, size=(4, 5, 2))
    h = rng.uniform(-1.0, 1.0, size=(5, 3))
    out = gru_step(Tensor(c[None]), Tensor(h[None]), cells)
    assert np.all(np.abs(out.data) <= 1.0 + 1e-12)


# ------------------------------------------------------------------ #
# edge sampling
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("lead, n", [((), 3), ((2,), 3), ((3,), 5)], ids=["lead0", "lead1", "lead2"])
@pytest.mark.parametrize("train", [False, True])
def test_graph_head_kernel_matches_composed_reference(rng, lead, n, train):
    # Both lags, each with its own head and noise, against the composed
    # per-step body run one lag at a time; the mask is lag 0's only.
    # B = 3, N = 5 gives 75 rows per lag, which the row partitions do not split evenly.
    steps, hidden, tau = 3, 4, 0.7
    shapes = [(hidden, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, 1), (1,)]
    arrays = [rng.normal(size=(2,) + s) * 0.5 for s in shapes]
    h = rng.normal(size=(2, steps) + lead + (n * n, hidden))
    seed_grad = rng.normal(size=(2, steps) + lead + (n, n))
    noise = gumbel_difference(rng, (2, steps) + lead + (n, n)) if train else None

    def kernel(h_t, heads):
        return graph_head(h_t, heads, n, tau, noise)

    def composed(h_t, heads):
        lag_noise = [None, None] if noise is None else noise
        return stack_steps([composed_head(h_t[lag], heads, lag, n, tau, lag_noise[lag]) for lag in range(2)])

    fused, reference = (
        run_with_grads(lambda h_t, *w: fn(h_t, GraphHeads(*w)), [h, *arrays], seed_grad) for fn in (kernel, composed)
    )
    assert_same_value_and_grads(fused, reference, ["h", "w1", "b1", "w2", "b2", "w3", "b3"])
    np.testing.assert_array_equal(np.diagonal(fused[0][0], axis1=-2, axis2=-1), 0.0)
    assert np.all(np.diagonal(fused[0][1], axis1=-2, axis2=-1) > 0.0)  # lag 1 keeps its self-loops


def test_kernels_record_nothing_without_grad(rng):
    attn = AttnParams.init(rng, d_in=2, d_att=2, heads=1)
    cells = GruCells.init(rng, lags=1, d_in=2, hidden=3)
    head = GraphHeads.init(rng, lags=1, hidden=3)
    c = Tensor(rng.normal(size=(1, 2, 4, 2)), requires_grad=True)
    h = Tensor(rng.normal(size=(1, 2, 4, 3)), requires_grad=True)
    with no_grad():
        outs = [
            msdot(c[0], [c[0]], attn),
            gru_step(c, h[:, 0], cells),
            graph_head(h, head, n=2, tau=0.2),
            graph_head(h, head, n=2, tau=0.2, noise=np.zeros((1, 2, 2, 2))),
        ]
    for out in outs:
        assert out._parents == () and out._backward is None and not out.requires_grad


def tape_size(root):
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


TAPE_DIMS = dict(heads=2, d_att=4, h_r=6, d_s=3, h_m=6, sem_width=6, gconv_layers=1)


def train_objective(rng, dims, b, t_in, n):
    params = GrcslParams.init(rng, dims)
    values, tod = window_inputs(rng, b=b, t_in=t_in, n=n)
    prior = np.ones((n, n)) - np.eye(n)
    fwd = grcsl_forward_batch(values, tod, prior, params, train=True, rng=rng)
    return auglag_objective(grcsl_loss(fwd, None, lam=1e-3), constraint_sum(fwd), alpha=0.5, rho=1.0)


def test_train_step_tape_stays_small(rng):
    # One train-mode objective at n=4, B=3 with the benchmark's tiny widths
    # takes 87 nodes: every op covers the whole window and both lags, so the
    # tape does not grow with the window length. Per-step GRU and head ops
    # would add six nodes per step (two slices, two GRU steps, two heads).
    short = tape_size(train_objective(rng, GrcslDims(**TAPE_DIMS), b=3, t_in=6, n=4))
    long = tape_size(train_objective(rng, GrcslDims(**TAPE_DIMS), b=3, t_in=12, n=4))
    assert short == long
    assert short <= 150


def test_train_step_memory_stays_bounded(rng):
    # tracemalloc sees every numpy buffer: one training step (forward, loss,
    # backward, Adam) at N=10, B=8, T_in=12 with default widths keeps only
    # the states and one gate stack per lag, not every step's activations.
    params = GrcslParams.init(rng, GrcslDims())
    values, tod = window_inputs(rng, b=8, t_in=12, n=10)
    prior = np.ones((10, 10)) - np.eye(10)
    opt = Adam(params.parameters(), lr=1e-3)
    tracemalloc.start()
    try:
        fwd = grcsl_forward_batch(values, tod, prior, params, train=True, rng=rng)
        loss = auglag_objective(grcsl_loss(fwd, None, lam=1e-3), constraint_sum(fwd), alpha=0.5, rho=1.0)
        opt.zero_grad()
        loss.backward()
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6, f"one training step peaked at {peak / 1e6:.1f} MB"


def off_lag0_diagonal(graphs):
    """Every edge of (L, ..., N, N) graphs but lag 0's self-loops, which graph_head zeroes."""
    n = graphs.shape[-1]
    return np.concatenate([graphs[0][..., ~np.eye(n, dtype=bool)].ravel(), graphs[1:].ravel()])


def test_graph_head_eval_mode_is_deterministic_sigmoid(rng):
    head = GraphHeads.init(rng, lags=2, hidden=6)
    h = Tensor(rng.normal(size=(2, 2, 9, 6)))
    g1 = graph_head(h, head, n=3, tau=0.2)
    g2 = graph_head(h, head, n=3, tau=0.2)
    assert g1.shape == (2, 2, 3, 3)
    np.testing.assert_array_equal(g1.data, g2.data)
    edges = off_lag0_diagonal(g1.data)
    assert np.all((edges > 0.0) & (edges < 1.0))


def test_graph_head_fresh_init_leans_sparse(rng):
    # Final bias -1 at tau = 0.2 puts near-zero-hidden edges at sigmoid(-5).
    head = GraphHeads.init(rng, lags=2, hidden=6)
    h = Tensor(np.zeros((2, 1, 4, 6)))
    g = graph_head(h, head, n=2, tau=0.2)
    np.testing.assert_allclose(off_lag0_diagonal(g.data), 1.0 / (1.0 + np.exp(5.0)), rtol=1e-12)


def test_graph_head_train_mode_is_symmetric_around_half_at_zero_logit():
    # logit 0: the Gumbel difference is logistic and symmetric, so the
    # sampled edge mean converges to 1/2 (SE ~ 0.0022 at the 5e4 draws off
    # the diagonal, which this one lag-0 head zeroes).
    head = zero_logit_head(hidden=1)
    h = Tensor(np.zeros((1, 1, 25000, 4, 1)))
    noise = gumbel_difference(np.random.default_rng(42), (1, 1, 25000, 2, 2))
    g = graph_head(h, head, n=2, tau=0.2, noise=noise)
    assert g.data.shape == (1, 1, 25000, 2, 2)
    edges = off_lag0_diagonal(g.data)
    assert abs(edges.mean() - 0.5) < 0.01
    # near-binary at low temperature: mass piles up near the ends
    assert ((edges < 0.1) | (edges > 0.9)).mean() > 0.7


def test_train_mode_forward_requires_rng(rng):
    params = GrcslParams.init(rng, small_dims())
    values, tod = window_inputs(rng)
    with pytest.raises(ConfigError):
        grcsl_forward_batch(values, tod, None, params, train=True)


def test_graph_head_rejects_states_without_a_step_axis_or_pairs(rng):
    head = GraphHeads.init(rng, lags=1, hidden=3)
    with pytest.raises(ShapeError):
        graph_head(Tensor(np.zeros((1, 9, 3))), head, n=3, tau=0.2)
    with pytest.raises(ShapeError):
        graph_head(Tensor(np.zeros((1, 2, 8, 3))), head, n=3, tau=0.2)
    with pytest.raises(ShapeError):  # one lag axis entry per head
        graph_head(Tensor(np.zeros((2, 2, 9, 3))), head, n=3, tau=0.2)


def test_graph_head_rejects_non_positive_temperature(rng):
    with pytest.raises(ConfigError):
        GrcslParams.init(rng, small_dims(tau=0.0))
    head = GraphHeads.init(rng, lags=1, hidden=3)
    for tau in (0.0, -1.0):
        with pytest.raises(ConfigError):
            graph_head(Tensor(np.zeros((1, 1, 4, 3))), head, n=2, tau=tau)


# ------------------------------------------------------------------ #
# features
# ------------------------------------------------------------------ #


def test_extract_features_without_prior_concatenates_reading_and_tod(rng):
    params = GrcslParams.init(rng, small_dims())
    values = np.array([[[1.0], [2.0]]])
    tod = np.array([[[0.25], [0.25]]])
    feats = extract_features(Tensor(values), Tensor(tod), None, params)
    assert feats.shape == (1, 2, 2)
    np.testing.assert_allclose(feats.data, [[[1.0, 0.25], [2.0, 0.25]]])


def test_extract_features_with_prior_adds_smoothed_channels(rng):
    params = GrcslParams.init(rng, small_dims(use_prior=True))
    prior = np.eye(2)
    feats = extract_features(
        Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 1))), prior, params
    )
    assert feats.shape == (2, 2 + 3)


def test_extract_features_missing_prior_is_a_config_error(rng):
    params = GrcslParams.init(rng, small_dims(use_prior=True))
    with pytest.raises(ConfigError):
        extract_features(Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 1))), None, params)


# ------------------------------------------------------------------ #
# full forward
# ------------------------------------------------------------------ #


def window_inputs(rng, b=2, t_in=5, n=3):
    values = rng.normal(size=(b, t_in, n, 1))
    tod = np.tile(np.linspace(0.1, 0.2, t_in)[None, :, None, None], (b, 1, n, 1))
    return values, tod


def test_forward_emits_one_graph_pair_per_step(rng):
    params = GrcslParams.init(rng, small_dims())
    values, tod = window_inputs(rng)
    fwd = grcsl_forward_batch(values, tod, None, params)
    assert fwd.readings.shape == (5, 2, 3, 1)
    assert fwd.intra.shape == fwd.inter.shape == (4, 2, 3, 3)
    assert fwd.reconstructions.shape == (4, 2, 3, 1)  # one reconstructed reading per node
    for g in fwd.intra:
        assert g.shape == (2, 3, 3)
        assert np.all((g.data >= 0.0) & (g.data < 1.0))
        np.testing.assert_array_equal(np.diagonal(g.data, axis1=-2, axis2=-1), 0.0)
    for g in fwd.inter:
        assert np.all((g.data > 0.0) & (g.data < 1.0))


def test_forward_pairs_rows_row_major_and_lag_one_with_the_previous_tick(rng, monkeypatch):
    # One head, d_att = 1 and projections that pick the reading: row i * N + j
    # of step t's lag-0 features must be x_t[i] * x_t[j], and lag 1 must pair
    # tick t's query with tick t - 1's key, x_t[i] * x_{t-1}[j], in every window.
    params = GrcslParams.init(rng, small_dims(heads=1, d_att=1))
    pick = np.array([[[1.0], [0.0]]])  # (heads, d_feat, d_att): the reading, not the time of day
    params.attn = AttnParams(w_q=Tensor(pick), w_k=Tensor(pick))
    seen = {0: [], 1: []}
    window_op = grcsl.gru_step

    def recording_op(c, h0, cells):
        for lag in range(cells.w_c.shape[0]):
            seen[lag].append(c.data[lag].copy())
        return window_op(c, h0, cells)

    monkeypatch.setattr(grcsl, "gru_step", recording_op)
    b, t_in, n = 2, 4, 3
    values, tod = window_inputs(rng, b=b, t_in=t_in, n=n)
    grcsl_forward_batch(values, tod, None, params)
    x = values[..., 0]  # (B, T_in, N)
    for lag in (0, 1):
        (feats,) = seen[lag]  # one call for both lags, over the whole window
        assert feats.shape == (t_in - 1, b, n * n, 1)
        for j, c in enumerate(feats):
            t = j + 1  # 0-based tick of window step j + 2
            c = c.reshape(b, n * n)
            for i in range(n):
                for k in range(n):
                    want = x[:, t, i] * x[:, t - lag, k]
                    np.testing.assert_allclose(c[:, i * n + k], want, rtol=1e-12, atol=0)


# The per-step forward, loss and constraint that the whole-window ones replaced,
# kept as the reference they must reproduce: per-tick features, and composed
# correlation scores, GRU updates and graph heads per step and lag (the Gumbel
# noise drawn per step and lag), and lists of per-step graphs and reconstructions.


def loop_forward(values, tod, prior, params, train=False, rng=None):
    b, t_in, n, _ = values.shape
    heads, hidden = params.dims.heads, params.dims.h_r
    readings = [Tensor(values[:, t]) for t in range(t_in)]
    xs = [extract_features(readings[t], Tensor(tod[:, t]), prior, params) for t in range(t_in)]
    h_intra = Tensor(np.zeros((b, n * n, hidden)))
    h_inter = Tensor(np.zeros((b, n * n, hidden)))
    intra, inter, recons = [], [], []
    for t in range(1, t_in):
        c0 = composed_msdot(xs[t], xs[t], params.attn).reshape(b, n * n, heads)
        c1 = composed_msdot(xs[t], xs[t - 1], params.attn).reshape(b, n * n, heads)
        h_intra = composed_gru_step(c0, h_intra, params.gru, 0)
        h_inter = composed_gru_step(c1, h_inter, params.gru, 1)
        noise = [gumbel_difference(rng, (b, n, n)) if train else None for _ in range(2)]
        intra.append(composed_graph_head(h_intra, params.head, 0, n, params.dims.tau, noise[0]))
        inter.append(composed_graph_head(h_inter, params.head, 1, n, params.dims.tau, noise[1]))
        recons.append(sem_reconstruct(readings[t - 1], readings[t], intra[-1], inter[-1], params.sem))
    return readings, intra, inter, recons


def loop_loss(readings, intra, inter, recons, masks, lam):
    total = None
    for j, x_hat in enumerate(recons):
        diff = (x_hat - readings[j + 1]) * Tensor(masks[:, j + 1].astype(np.float64))
        term = (diff * diff).sum() * 0.5 + lam * (intra[j].abs().sum() + inter[j].abs().sum())
        total = term if total is None else total + term
    return total * (1.0 / (len(recons) * recons[0].shape[0]))


def loop_constraint(intra):
    total = None
    for g in intra:
        h = notears_h(g)
        total = h if total is None else total + h
    return total.sum() * (1.0 / intra[0].shape[0])


@pytest.mark.parametrize("train", [False, True])
def test_whole_window_forward_matches_the_per_step_reference(rng, train):
    dims = small_dims(use_prior=True)
    values, tod = window_inputs(rng, b=3, t_in=5, n=4)
    prior = rng.uniform(0.0, 1.0, (4, 4)) * (1.0 - np.eye(4))
    masks = (rng.random(values.shape) > 0.2).astype(np.float64)

    def run(per_step):
        params = GrcslParams.init(np.random.default_rng(5), dims)
        gen = np.random.default_rng(6)
        if per_step:
            readings, intra, inter, recons = loop_forward(values, tod, prior, params, train, gen)
            f = loop_loss(readings, intra, inter, recons, masks, 1e-3)
            s = loop_constraint(intra)
            graphs = np.stack([g.data for g in intra]), np.stack([g.data for g in inter])
        else:
            fwd = grcsl_forward_batch(values, tod, prior, params, train, gen)
            f, s = grcsl_loss(fwd, masks, 1e-3), constraint_sum(fwd)
            graphs = fwd.intra.data, fwd.inter.data
        auglag_objective(f, s, alpha=0.5, rho=1.0).backward()
        return params, graphs, float(f.data), float(s.data)

    params, graphs, f, s = run(per_step=False)
    ref_params, ref_graphs, ref_f, ref_s = run(per_step=True)
    np.testing.assert_array_equal(graphs[0], ref_graphs[0])
    np.testing.assert_array_equal(graphs[1], ref_graphs[1])
    assert s > 0.0
    assert f == pytest.approx(ref_f, rel=1e-12, abs=1e-12)
    assert s == pytest.approx(ref_s, rel=1e-12, abs=1e-12)
    for (name, got), (_, want) in zip(params.named_parameters(), ref_params.named_parameters()):
        scale = np.abs(want.grad).max()
        assert scale > 0.0, name
        np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


# ------------------------------------------------------------------ #
# kernel tasks
# ------------------------------------------------------------------ #


def train_and_eval_bits(b, n):
    """Eval and train graphs, f, S and every parameter gradient of one train-mode objective."""
    rng = np.random.default_rng(11)
    params = GrcslParams.init(rng, GrcslDims())
    values, tod = window_inputs(rng, b=b, t_in=6, n=n)
    prior = rng.uniform(0.0, 1.0, (n, n)) * (1.0 - np.eye(n))
    bits = dict(zip(("eval_intra", "eval_inter"), graph_stacks(values, tod, prior, params, batch_size=b)))
    fwd = grcsl_forward_batch(values, tod, prior, params, train=True, rng=rng)
    f, s = grcsl_loss(fwd, None, lam=1e-3), constraint_sum(fwd)
    auglag_objective(f, s, alpha=0.5, rho=1.0).backward()
    bits.update(train_intra=fwd.intra.data, train_inter=fwd.inter.data, f=f.data, S=s.data)
    bits.update((name, p.grad) for name, p in params.named_parameters())
    return bits


@pytest.mark.parametrize("b, n", [(3, 4), (8, 10)])
def test_pooled_and_inline_lag_maps_give_the_same_bits(monkeypatch, b, n):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        pooled = train_and_eval_bits(b, n)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(grcsl, "_run", lambda tasks: [task() for task in tasks])
    inline = train_and_eval_bits(b, n)
    assert pooled.keys() == inline.keys()
    for key, value in pooled.items():
        np.testing.assert_array_equal(value, inline[key], err_msg=key)


# The row-major GRU and graph-head kernels that the gate-major ones replaced, kept
# as the reference they must reproduce bit for bit: the gate products land in
# (rows, 3H) and (rows, 2H) arrays whose column slices the gate arithmetic reads,
# and every step makes fresh temporaries. Same partitions, same operation order.


def row_major_gru_step(c, h0, cells):
    lags, steps, hid = cells.w_c.shape[0], c.shape[1], h0.shape[-1]
    params = cells.parameters()
    c3, h02 = c.data.reshape(lags, steps, -1, c.shape[-1]), h0.data.reshape(lags, -1, hid)
    w_c = [np.concatenate([w_cr, w_cz, w_ch], axis=1) for w_cr, w_cz, w_ch in cells.w_c.data]
    w_h = [np.concatenate([w_hr, w_hz], axis=1) for w_hr, w_hz in cells.w_h.data]
    w_hh_b = [(w_hh, b_r, b_z, b_h) for w_hh, (b_r, b_z, b_h) in zip(cells.w_hh.data, cells.b.data)]
    states, rows = np.empty((lags, steps) + h02.shape[1:]), h02.shape[1]

    def forward(lag, k):
        part = grcsl._part(rows, k)
        (w_hh, b_r, b_z, b_h), h, gates = w_hh_b[lag], h02[lag, part], []
        for j in range(steps):
            gates.append(np.empty((3,) + h.shape))
            r, z, h_tilde = gate = gates[-1]
            a_cr, a_cz, a_ch = np.split(c3[lag, j, part] @ w_c[lag], 3, axis=1)
            a_hr, a_hz = np.split(h @ w_h[lag], 2, axis=1)
            np.add(a_cr, a_hr, out=r)
            r += b_r
            np.add(a_cz, a_hz, out=z)
            z += b_z
            tensor_module._stable_sigmoid(gate[:2], out=gate[:2])
            np.add(a_ch, (r * h) @ w_hh, out=h_tilde)
            h_tilde += b_h
            np.tanh(h_tilde, out=h_tilde)
            h = np.multiply(z, h, out=states[lag, j, part])
            h += (1.0 - z) * h_tilde
        return gates

    gates = grcsl._map_rows(forward, lags)

    def backward_fn(grad):
        grad = grad.reshape(states.shape)
        d_c, d_h0 = np.empty(c3.shape), np.empty(h02.shape)

        def backward(lag, k):
            part = grcsl._part(rows, k)
            w_hh, h_0, blocks = w_hh_b[lag][0], h02[lag, part], gates[lag][k]
            d_rzh = np.empty(h_0.shape[:-1] + (3 * hid,))
            d_r, d_z, d_h = np.split(d_rzh, 3, axis=1)
            d_rz, carry, d_rh = d_rzh[:, : 2 * hid], d_h0[lag, part], np.empty(h_0.shape)
            g_wc, g_wh, g_whh, g_b = 0.0, 0.0, 0.0, 0.0
            for j in reversed(range(steps)):
                g = grad[lag, j, part] if j == steps - 1 else np.add(grad[lag, j, part], carry, out=carry)
                h_prev = states[lag, j - 1, part] if j else h_0
                r, z, h_tilde = blocks.pop()
                np.multiply(g, 1.0 - z, out=d_h)
                d_h *= 1.0 - h_tilde * h_tilde
                np.multiply(g, h_prev - h_tilde, out=d_z)
                d_z *= z
                d_z *= 1.0 - z
                np.matmul(d_h, w_hh.T, out=d_rh)
                np.multiply(d_rh, h_prev, out=d_r)
                d_r *= r
                d_r *= 1.0 - r
                g_wc = g_wc + c3[lag, j, part].T @ d_rzh
                g_wh = g_wh + h_prev.T @ d_rz
                g_whh = g_whh + (r * h_prev).T @ d_h
                g_b = g_b + d_rzh.sum(axis=0)
                np.matmul(d_rzh, w_c[lag].T, out=d_c[lag, j, part])
                np.multiply(g, z, out=carry)
                d_rh *= r
                carry += d_rh
                carry += np.matmul(d_rz, w_h[lag].T, out=d_rh)
            return g_wc, g_wh, g_whh, g_b

        sums = [[sum(grads) for grads in zip(*parts)] for parts in grcsl._map_rows(backward, lags)]
        g_wc, g_wh, g_whh, g_b = (np.stack(grads) for grads in zip(*sums))
        per_gate = [np.stack(np.split(g_wc, 3, axis=2), axis=1), np.stack(np.split(g_wh, 2, axis=2), axis=1)]
        for param, grad in zip(params, per_gate + [g_whh, np.stack(np.split(g_b, 3, axis=1), axis=1)]):
            param._accum(grad)
        c._accum(d_c.reshape(c.shape))
        h0._accum(d_h0.reshape(h0.shape))

    return tensor_module._from_op(states.reshape((lags, steps) + h0.shape[1:]), (c, h0, *params), backward_fn)


def row_major_graph_head(h, heads, n, tau, noise):
    lags, params = heads.w1.shape[0], heads.parameters()
    weights = [[p.data[lag] for p in params] for lag in range(lags)]
    h3 = h.data.reshape(lags, h.shape[1], -1, h.shape[-1])
    steps, rows = h3.shape[1:3]
    graph = np.empty(h.shape[:-2] + (n, n))
    inv_tau = 1.0 / tau

    def hidden(lag, j, part):
        w1, b1, w2, b2 = weights[lag][:4]
        y1 = h3[lag, j, part] @ w1
        y1 += b1
        y2 = np.maximum(y1, 0.0, out=y1) @ w2
        y2 += b2
        return y1, np.maximum(y2, 0.0, out=y2)

    def forward(lag, k):
        part, (w3, b3), logits = grcsl._part(rows, k), weights[lag][4:], graph.reshape(lags, steps, rows, 1)
        for j in range(steps):
            np.add(hidden(lag, j, part)[1] @ w3, b3, out=logits[lag, j, part])

    grcsl._map_rows(forward, lags)
    graph += noise
    graph *= inv_tau
    tensor_module._stable_sigmoid(graph, out=graph)
    graph[0] *= 1.0 - np.eye(n)

    def backward_fn(g):
        d_h = np.empty(h3.shape)
        d_logits = (g * graph * (1.0 - graph) * inv_tau).reshape(lags, steps, rows, 1)

        def backward(lag, k):
            part, (w1, _, w2, _, w3, _), sums = grcsl._part(rows, k), weights[lag], [0.0] * 6
            for j in range(steps):
                d_logit = d_logits[lag, j, part]
                y1, y2 = hidden(lag, j, part)
                d_y2 = d_logit @ w3.T
                d_y2 *= y2 > 0.0
                d_y1 = d_y2 @ w2.T
                d_y1 *= y1 > 0.0
                grads = (
                    h3[lag, j, part].T @ d_y1, d_y1.sum(axis=0),
                    y1.T @ d_y2, d_y2.sum(axis=0),
                    y2.T @ d_logit, d_logit.sum(axis=0),
                )
                sums = [total + grad for total, grad in zip(sums, grads)]
                np.matmul(d_y1, w1.T, out=d_h[lag, j, part])
            return sums

        sums = [[sum(grads) for grads in zip(*parts)] for parts in grcsl._map_rows(backward, lags)]
        for param, grads in zip(params, zip(*sums)):
            param._accum(np.stack(grads))
        h._accum(d_h.reshape(h.shape))

    return tensor_module._from_op(graph, (h, *params), backward_fn)


def recurrence_bits(gru, head, b, n, hidden, steps=5, d_in=4, track=True):
    """States, graphs and all input and parameter gradients of gru then head, random non-zero biases and h0.

    Without `track`, the states and graphs of an untracked pass only.
    """
    rng = np.random.default_rng(7)
    cells = GruCells.init(rng, 2, d_in, hidden)
    heads = GraphHeads.init(rng, 2, hidden)
    for p in (cells.b, heads.b1, heads.b2, heads.b3):
        p.data[...] = rng.normal(size=p.shape)
    c = Tensor(rng.normal(size=(2, steps, b, n * n, d_in)), requires_grad=True)
    h0 = Tensor(rng.uniform(-1.0, 1.0, size=(2, b, n * n, hidden)), requires_grad=True)
    noise = gumbel_difference(rng, (2, steps, b, n, n))
    if not track:
        with no_grad():
            states = gru(c, h0, cells)
            return {"states": states.data, "graphs": head(states, heads, n, 0.3, noise).data}
    states = gru(c, h0, cells)
    graphs = head(states, heads, n, 0.3, noise)
    graphs.backward(rng.normal(size=graphs.shape))
    params = [*cells.named_parameters("gru."), *heads.named_parameters("head.")]
    names = ["states", "graphs", "c", "h0", *(name for name, _ in params)]
    return dict(zip(names, [states.data, graphs.data, c.grad, h0.grad, *(p.grad for _, p in params)]))


@pytest.mark.parametrize("b, n, hidden", [(32, 10, 32), (7, 5, 32), (16, 4, 6)])
def test_gate_major_kernels_match_the_row_major_reference_bit_for_bit(b, n, hidden):
    got = recurrence_bits(gru_step, graph_head, b, n, hidden)
    want = recurrence_bits(row_major_gru_step, row_major_graph_head, b, n, hidden)
    for name, value in want.items():
        assert np.abs(value).max() > 0.0, name
        np.testing.assert_array_equal(got[name], value, err_msg=name)
    for name, value in recurrence_bits(gru_step, graph_head, b, n, hidden, track=False).items():
        np.testing.assert_array_equal(value, want[name], err_msg=f"untracked {name}")


def test_gate_major_kernels_match_the_row_major_reference_on_one_row_partitions():
    # B * N^2 = 4 < 2 * PARTS rows per lag: every partition is one row or none.
    # numpy's matmul takes its vector path for a one-row product, and a
    # gate-major (1, d) @ (d, H) product there may round its last bit unlike
    # the row-major (1, d) @ (d, 3H) one, so this shape agrees to 1e-15, not
    # bit for bit.
    assert 1 * 2 * 2 < 2 * grcsl.PARTS
    got = recurrence_bits(gru_step, graph_head, 1, 2, 5)
    want = recurrence_bits(row_major_gru_step, row_major_graph_head, 1, 2, 5)
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, rtol=1e-15, atol=1e-15, err_msg=name)


def test_run_returns_after_every_task_even_when_one_raises():
    # Task 1 raises first in time; the error raised is task 0's, the first in task order.
    finished = []

    def task(k):
        if k == 0:
            time.sleep(0.05)
        if k < 2:
            raise ValueError(f"task {k} failed")
        time.sleep(0.05)
        finished.append(k)

    with pytest.raises(ValueError, match="task 0 failed"):
        grcsl._run([lambda k=k: task(k) for k in range(4)])
    assert sorted(finished) == [2, 3]


def test_run_runs_tasks_on_two_threads_at_once_and_returns_them_in_task_order():
    # Both tasks wait at a barrier, so each must run on its own pool thread.
    barrier, threads = threading.Barrier(2, timeout=10), {}

    def task(k):
        threads[k] = threading.get_ident()
        barrier.wait()
        return k * 10

    assert grcsl._run([lambda k=k: task(k) for k in range(2)]) == [0, 10]
    assert len({threads[0], threads[1], threading.get_ident()}) == 3


def test_a_stalled_task_holds_back_only_itself_and_results_stay_in_order():
    # Task 0 blocks until every other task has run: the other pool thread
    # must run them all while it waits, and the results come back in task order.
    tasks, lock, threads, others_done = 2 * grcsl.PARTS, threading.Lock(), {}, threading.Event()

    def task(k):
        if k == 0:
            assert others_done.wait(timeout=10)
        with lock:
            threads[k] = threading.get_ident()
            if len(threads) == tasks - 1 and 0 not in threads:
                others_done.set()
        return k

    assert grcsl._run([lambda k=k: task(k) for k in range(tasks)]) == list(range(tasks))
    assert len({threads[k] for k in range(1, tasks)}) == 1
    assert threads[0] != threads[1]


def test_lag_workers_never_touch_the_tape(rng, monkeypatch):
    # Every tape node and every gradient accumulation of a train step and an
    # eval batch comes from the calling thread; the kernels' tasks run only on
    # the pool's threads, every lag and partition of every kernel call.
    tape_threads, task_threads, batches = set(), set(), []
    from_op, accum, run = grcsl._from_op, Tensor._accum, grcsl._run

    def recording_from_op(*args):
        tape_threads.add(threading.get_ident())
        return from_op(*args)

    def recording_accum(self, g):
        tape_threads.add(threading.get_ident())
        return accum(self, g)

    def recording_run(tasks):
        batches.append(len(tasks))

        def recorded(task):
            task_threads.add(threading.get_ident())
            return task()

        return run([functools.partial(recorded, task) for task in tasks])

    for module in (tensor_module, grcsl):
        monkeypatch.setattr(module, "_from_op", recording_from_op)
    monkeypatch.setattr(Tensor, "_accum", recording_accum)
    monkeypatch.setattr(grcsl, "_run", recording_run)
    params = GrcslParams.init(rng, GrcslDims(**TAPE_DIMS))
    values, tod = window_inputs(rng, b=4, t_in=5, n=4)
    prior = np.ones((4, 4)) - np.eye(4)
    opt = Adam(params.parameters(), lr=1e-3)
    fwd = grcsl_forward_batch(values, tod, prior, params, train=True, rng=rng)
    loss = auglag_objective(grcsl_loss(fwd, None, lam=1e-3), constraint_sum(fwd), alpha=0.5, rho=1.0)
    opt.zero_grad()
    loss.backward()
    opt.step()
    graph_stacks(values, tod, prior, params, batch_size=2)
    caller = threading.get_ident()
    assert tape_threads == {caller}
    # GRU and head, forward and backward, then two eval batches of GRU and head.
    assert batches == [grcsl.LAGS * grcsl.PARTS] * 8
    assert caller not in task_threads and len(task_threads) <= grcsl.WORKERS


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork here")
def test_a_forked_child_runs_both_lags_after_its_parent_did(rng):
    params = GrcslParams.init(rng, small_dims())
    values, tod = window_inputs(rng)
    want = grcsl_forward_batch(values, tod, None, params).intra.data  # the parent's pool now has its thread

    def child(queue):
        queue.put(grcsl_forward_batch(values, tod, None, params).intra.data)

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    process = ctx.Process(target=child, args=(queue,))
    process.start()
    try:
        got = queue.get(timeout=30)
    finally:
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
    assert process.exitcode == 0
    np.testing.assert_array_equal(got, want)


def test_importing_the_package_starts_no_thread():
    code = "import threading, tvdbn, tvdbn.cli, tvdbn.grcsl; print(threading.active_count())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "1"


def test_forward_rejects_bad_rank_and_short_windows(rng):
    params = GrcslParams.init(rng, small_dims())
    with pytest.raises(ShapeError):
        grcsl_forward_batch(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), None, params)
    with pytest.raises(ShapeError):
        grcsl_forward_batch(np.zeros((1, 1, 3, 1)), np.zeros((1, 1, 3, 1)), None, params)


def test_forward_is_causal_in_the_tick_index(rng):
    # Graphs at step t see ticks 1..t only; changing tick p must leave
    # every pair emitted before p untouched and every later pair perturbed.
    params = GrcslParams.init(rng, small_dims())
    values, tod = window_inputs(rng, b=1, t_in=6)
    base = grcsl_forward_batch(values, tod, None, params)
    bumped = values.copy()
    bumped[0, 3] += 1.0
    alt = grcsl_forward_batch(bumped, tod, None, params)
    for j in range(5):
        same = np.array_equal(base.intra[j].data, alt.intra[j].data) and np.array_equal(
            base.inter[j].data, alt.inter[j].data
        )
        assert same == (j + 1 < 3), f"step index {j}"


def test_forward_same_seed_same_graphs(rng):
    dims = small_dims()
    p1 = GrcslParams.init(np.random.default_rng(7), dims)
    p2 = GrcslParams.init(np.random.default_rng(7), dims)
    for (n1, t1), (n2, t2) in zip(p1.named_parameters(), p2.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
    values, tod = window_inputs(rng)
    intra1, inter1 = graph_stacks(values, tod, None, p1, batch_size=len(values))
    intra2, inter2 = graph_stacks(values, tod, None, p2, batch_size=len(values))
    np.testing.assert_array_equal(intra1, intra2)
    np.testing.assert_array_equal(inter1, inter2)


def test_graph_stacks_are_the_eval_forward_in_any_batching(rng):
    params = GrcslParams.init(rng, small_dims())
    values, tod = window_inputs(rng, b=5)
    with no_grad():
        fwd = grcsl_forward_batch(values, tod, None, params, train=False)
    intra, inter = graph_stacks(values, tod, None, params, batch_size=5)
    assert intra.shape == inter.shape == (5, 4, 3, 3)
    np.testing.assert_array_equal(intra, np.stack([g.data for g in fwd.intra], axis=1))
    np.testing.assert_array_equal(inter, np.stack([g.data for g in fwd.inter], axis=1))
    for batch in (1, 2, 3, 8):
        got_intra, got_inter = graph_stacks(values, tod, None, params, batch_size=batch)
        np.testing.assert_allclose(got_intra, intra, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got_inter, inter, rtol=1e-12, atol=1e-15)


def test_forward_train_mode_draws_fresh_noise(rng):
    params = GrcslParams.init(rng, small_dims())
    values, tod = window_inputs(rng, b=1)
    gen = np.random.default_rng(0)
    a = grcsl_forward_batch(values, tod, None, params, train=True, rng=gen)
    b = grcsl_forward_batch(values, tod, None, params, train=True, rng=gen)
    assert not np.array_equal(a.inter[0].data, b.inter[0].data)


def test_sem_reconstruct_sees_only_a_nodes_parents(rng):
    # Node 0's lag-0 parent is node 1; its lag-1 parent is node 2. With the
    # graphs fixed, node 0's own current reading must not reach row 0, and
    # only parents may move it.
    n = 4
    sem = SemParams.init(rng, width=5, h_m=6)
    sem.b1 = Tensor(np.full(6, 0.3))  # keep some hidden units active
    intra = np.zeros((1, n, n))
    intra[0, 0, 1] = 0.9
    intra[0, 2, 0] = 0.7  # node 0 is itself a lag-0 parent of node 2
    inter = np.zeros((1, n, n))
    inter[0, 0, 2] = 0.8
    x_prev = rng.normal(size=(1, n, 1))
    x_cur = rng.normal(size=(1, n, 1))

    def recon(prev, cur):
        return sem_reconstruct(Tensor(prev), Tensor(cur), Tensor(intra), Tensor(inter), sem).data

    base = recon(x_prev, x_cur)
    own = x_cur.copy()
    own[0, 0, 0] += 3.0
    moved = recon(x_prev, own)
    np.testing.assert_array_equal(moved[0, 0], base[0, 0])
    assert not np.array_equal(moved[0, 2], base[0, 2])  # the child of node 0 does see it
    parent = x_cur.copy()
    parent[0, 1, 0] += 3.0
    assert not np.array_equal(recon(x_prev, parent)[0, 0], base[0, 0])
    stranger = x_cur.copy()
    stranger[0, 3, 0] += 3.0
    np.testing.assert_array_equal(recon(x_prev, stranger)[0, 0], base[0, 0])
    lagged = x_prev.copy()
    lagged[0, 2, 0] += 3.0
    assert not np.array_equal(recon(lagged, x_cur)[0, 0], base[0, 0])


def test_parameter_names_are_unique(rng):
    params = GrcslParams.init(rng, small_dims(use_prior=True))
    names = [name for name, _ in params.named_parameters()]
    assert len(names) == len(set(names))
    assert all(t.requires_grad for t in params.parameters())


# ------------------------------------------------------------------ #
# emitted sequences and export
# ------------------------------------------------------------------ #


def test_graph_seq_validates_ranges_and_diagonal():
    ok = np.zeros((2, 3, 3))
    with pytest.raises(ValueError):
        CausalGraphSeq(intra=ok, inter=ok + 1.5)
    for bad in (np.nan, np.inf):  # NaN compares false both ways; it is not in [0, 1]
        with pytest.raises(ValueError):
            CausalGraphSeq(intra=ok, inter=np.full_like(ok, bad))
        nan_one = ok.copy()
        nan_one[1, 0, 2] = bad
        with pytest.raises(ValueError):
            CausalGraphSeq(intra=nan_one, inter=ok)
    bad_diag = ok.copy()
    bad_diag[0, 1, 1] = 0.4
    with pytest.raises(ValueError):
        CausalGraphSeq(intra=bad_diag, inter=ok)
    with pytest.raises(ShapeError):
        CausalGraphSeq(intra=np.zeros((2, 3, 3)), inter=np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        CausalGraphSeq(intra=np.zeros((2, 3, 2)), inter=np.zeros((2, 3, 2)))
    seq = CausalGraphSeq(intra=ok, inter=ok, start_index=5, start_ts=100)
    assert seq.steps == 2 and seq.num_nodes == 3


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_export_graph_edges_writes_thresholded_rows(tmp_path):
    intra = np.zeros((1, 2, 2, 2))
    inter = np.zeros((1, 2, 2, 2))
    intra[0, 0, 0, 1] = 0.9  # step 2, lag 0, edge b -> a
    inter[0, 1, 1, 0] = 0.7  # step 3, lag 1, edge a -> b
    inter[0, 1, 0, 1] = 0.4  # below threshold, must not appear
    path = tmp_path / "edges.csv"
    count = export_graph_edges(str(path), intra, inter, np.array([1000]), ["a", "b"], threshold=0.5)
    assert count == 2
    rows = read_rows(path)
    assert rows[0] == ["window_start_ts", "step", "lag", "src_id", "dst_id", "weight"]
    assert rows[1] == ["1000", "2", "0", "b", "a", "0.9"]
    assert rows[2] == ["1000", "3", "1", "a", "b", "0.7"]


def test_export_graph_edges_orders_rows_by_window_then_step_then_lag(tmp_path):
    intra = np.zeros((2, 2, 2, 2))
    inter = np.zeros((2, 2, 2, 2))
    # Filled in an order unrelated to the expected row order.
    inter[1, 0, 0, 0] = 0.61  # window 2, step 2, lag 1, a -> a
    intra[1, 0, 1, 0] = 0.62  # window 2, step 2, lag 0, a -> b
    inter[0, 1, 1, 1] = 0.63  # window 1, step 3, lag 1, b -> b
    inter[0, 0, 1, 0] = 0.64  # window 1, step 2, lag 1, a -> b
    intra[0, 1, 0, 1] = 0.65  # window 1, step 3, lag 0, b -> a
    intra[0, 0, 0, 1] = 0.66  # window 1, step 2, lag 0, b -> a
    path = tmp_path / "edges.csv"
    start_ts = np.array([100, 400])
    assert export_graph_edges(str(path), intra, inter, start_ts, ["a", "b"]) == 6
    assert read_rows(path)[1:] == [
        ["100", "2", "0", "b", "a", "0.66"],
        ["100", "2", "1", "a", "b", "0.64"],
        ["100", "3", "0", "b", "a", "0.65"],
        ["100", "3", "1", "b", "b", "0.63"],
        ["400", "2", "0", "a", "b", "0.62"],
        ["400", "2", "1", "a", "a", "0.61"],
    ]


def test_export_graph_edges_empty_sequence_writes_header_only(tmp_path):
    empty = np.zeros((1, 1, 2, 2))
    path = tmp_path / "edges.csv"
    assert export_graph_edges(str(path), empty, empty, np.array([0]), ["a", "b"]) == 0
    assert path.read_text().strip().count("\n") == 0


# ------------------------------------------------------------------ #
# dimension validation
# ------------------------------------------------------------------ #


def test_dims_feature_width_depends_on_prior_branch():
    assert small_dims(use_prior=False).d_feat == 2
    assert small_dims(use_prior=True).d_feat == 5


def test_dims_validation_rejects_bad_widths():
    with pytest.raises(ConfigError):
        small_dims(tau=0.0).validate()
    with pytest.raises(ConfigError):
        small_dims(heads=0).validate()
    with pytest.raises(ConfigError):
        small_dims(use_prior=True, d_s=0).validate()
