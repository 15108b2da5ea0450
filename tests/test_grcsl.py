"""Graph-generator tests: closed-form fixtures, sampling statistics, causality."""

import csv

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
    GraphHead,
    GrcslDims,
    GrcslParams,
    GruCell,
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
from tvdbn.numerics import Tensor, glorot_uniform, no_grad


def small_dims(**overrides):
    base = dict(heads=2, d_att=4, h_r=6, d_s=3, h_m=5, sem_width=4, use_prior=False)
    base.update(overrides)
    return GrcslDims(**base)


def zero_logit_head(hidden, tau=0.2):
    """Head whose output logit is identically zero."""
    z = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
    return GraphHead(
        w1=z(hidden, hidden), b1=z(hidden),
        w2=z(hidden, hidden), b2=z(hidden),
        w3=z(hidden, 1), b3=z(1), tau=tau,
    )


# ------------------------------------------------------------------ #
# pairwise correlation scores
# ------------------------------------------------------------------ #


def test_msdot_identity_projection_is_gram_matrix():
    # w_q = w_k = I, d_att = 1: score(i, j) = x_i * x_j / sqrt(1).
    attn = AttnParams(w_q=Tensor(np.eye(1)[None]), w_k=Tensor(np.eye(1)[None]))
    x = Tensor(np.array([[1.0], [2.0]]))
    scores = msdot(x, x, attn)
    assert scores.shape == (2, 2, 1)
    np.testing.assert_allclose(scores.data[..., 0], [[1.0, 2.0], [2.0, 4.0]])


def test_msdot_scales_by_sqrt_of_projection_width():
    # Ones-projections of width 4 give q.k = 4 * x_i * x_j, then / sqrt(4).
    attn = AttnParams(w_q=Tensor(np.ones((1, 1, 4))), w_k=Tensor(np.ones((1, 1, 4))))
    x = Tensor(np.array([[1.0], [2.0]]))
    scores = msdot(x, x, attn)
    np.testing.assert_allclose(scores.data[..., 0], [[2.0, 4.0], [4.0, 8.0]])


def test_msdot_stacks_heads_on_last_axis():
    attn = AttnParams(w_q=Tensor(np.array([[[1.0]], [[2.0]]])), w_k=Tensor(np.ones((2, 1, 1))))
    x = Tensor(np.array([[1.0], [3.0]]))
    scores = msdot(x, x, attn)
    assert scores.shape == (2, 2, 2)
    np.testing.assert_allclose(scores.data[..., 1], 2.0 * scores.data[..., 0])


def test_stacked_heads_keep_the_per_head_init_and_scores(rng):
    attn = AttnParams.init(np.random.default_rng(0), d_in=3, d_att=4, heads=2)
    ref = np.random.default_rng(0)
    per_head = [glorot_uniform(ref, 3, 4) for _ in range(4)]  # every w_q head, then every w_k head
    np.testing.assert_array_equal(attn.w_q.data, np.stack(per_head[:2]))
    np.testing.assert_array_equal(attn.w_k.data, np.stack(per_head[2:]))
    q = rng.normal(size=(5, 6, 3))
    k = rng.normal(size=(5, 6, 3))
    scores = msdot(Tensor(q), Tensor(k), attn).data
    assert scores.shape == (5, 6, 6, 2)
    for m in range(2):
        want = (q @ per_head[m]) @ np.swapaxes(k @ per_head[2 + m], -1, -2) / 2.0
        np.testing.assert_allclose(scores[..., m], want, rtol=0, atol=1e-12)


def test_msdot_is_asymmetric_between_query_and_key():
    rng = np.random.default_rng(3)
    attn = AttnParams.init(rng, d_in=3, d_att=4, heads=1)
    q = Tensor(rng.normal(size=(5, 3)))
    k = Tensor(rng.normal(size=(5, 3)))
    ab = msdot(q, k, attn).data
    ba = msdot(k, q, attn).data
    assert not np.allclose(ab, ba)


# ------------------------------------------------------------------ #
# recurrence
# ------------------------------------------------------------------ #


def naive_gru(c, h, cell):
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    r = sig(c @ cell.w_cr.data + h @ cell.w_hr.data + cell.b_r.data)
    z = sig(c @ cell.w_cz.data + h @ cell.w_hz.data + cell.b_z.data)
    h_tilde = np.tanh(c @ cell.w_ch.data + (r * h) @ cell.w_hh.data + cell.b_h.data)
    return z * h + (1.0 - z) * h_tilde


def test_gru_step_matches_naive_numpy(rng):
    cell = GruCell.init(rng, d_in=3, hidden=5)
    c = rng.normal(size=(4, 7, 3))
    h = rng.normal(size=(4, 7, 5))
    out = gru_step(Tensor(c), Tensor(h), cell)
    np.testing.assert_allclose(out.data, naive_gru(c, h, cell), atol=1e-12)


def test_gru_zero_state_zero_input_is_fixed_point(rng):
    # Fresh cells have zero biases, so gates sit at 1/2 and the candidate at 0.
    cell = GruCell.init(rng, d_in=3, hidden=4)
    out = gru_step(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), cell)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-15)


def test_gru_saturated_update_gate_copies_previous_state(rng):
    cell = GruCell.init(rng, d_in=3, hidden=4)
    cell.b_z = Tensor(np.full(4, 50.0), requires_grad=True)  # z -> 1
    c = rng.normal(size=(2, 3))
    h = rng.normal(size=(2, 4))
    out = gru_step(Tensor(c), Tensor(h), cell)
    np.testing.assert_allclose(out.data, h, atol=1e-8)


def composed_gru_step(c, h_prev, cell):
    """The GRU update built from elementary tape ops: the reference for the fused kernel."""
    r = (c @ cell.w_cr + h_prev @ cell.w_hr + cell.b_r).sigmoid()
    z = (c @ cell.w_cz + h_prev @ cell.w_hz + cell.b_z).sigmoid()
    h_tilde = (c @ cell.w_ch + (r * h_prev) @ cell.w_hh + cell.b_h).tanh()
    return z * h_prev + (1.0 - z) * h_tilde


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


@pytest.mark.parametrize("lead", [(7,), (3, 7)])
def test_gru_step_kernel_matches_composed_reference(rng, lead):
    d_in, hidden = 3, 5
    arrays = [rng.normal(size=s) * 0.5 for s in [(d_in, hidden), (hidden, hidden), (hidden,)] * 3]
    c = rng.normal(size=lead + (d_in,))
    h = rng.normal(size=lead + (hidden,))
    seed_grad = rng.normal(size=lead + (hidden,))
    names = ["c", "h_prev", *(name for name, _ in GruCell(*map(Tensor, arrays)).named_parameters())]
    runs = [
        run_with_grads(lambda c_t, h_t, *cell: step(c_t, h_t, GruCell(*cell)), [c, h, *arrays], seed_grad)
        for step in (gru_step, composed_gru_step)
    ]
    assert_same_value_and_grads(*runs, names)


def test_gru_step_rejects_mismatched_pair_axes(rng):
    cell = GruCell.init(rng, d_in=3, hidden=4)
    with pytest.raises(ShapeError):
        gru_step(Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros((5, 4))), cell)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gru_state_stays_in_unit_box(seed):
    # |h'| <= z|h| + (1-z)|tanh| <= max(|h|, 1): the unit box is invariant.
    rng = np.random.default_rng(seed)
    cell = GruCell.init(rng, d_in=2, hidden=3)
    c = rng.normal(0.0, 3.0, size=(5, 2))
    h = rng.uniform(-1.0, 1.0, size=(5, 3))
    out = gru_step(Tensor(c), Tensor(h), cell)
    assert np.all(np.abs(out.data) <= 1.0 + 1e-12)


# ------------------------------------------------------------------ #
# edge sampling
# ------------------------------------------------------------------ #


def composed_graph_head(h, head, n, train=False, rng=None, mask_diag=False):
    """The graph head built from elementary tape ops: the reference for the fused kernel."""
    y = (h @ head.w1 + head.b1).relu()
    y = (y @ head.w2 + head.b2).relu()
    logits = y @ head.w3 + head.b3
    logits = logits.reshape(logits.shape[:-2] + (n, n))
    if train:
        noise = _gumbel(rng, logits.shape) - _gumbel(rng, logits.shape)
        graph = ((logits + Tensor(noise)) * (1.0 / head.tau)).sigmoid()
    else:
        graph = (logits * (1.0 / head.tau)).sigmoid()
    if mask_diag:
        graph = graph * Tensor(1.0 - np.eye(n))
    return graph


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("mask_diag", [False, True])
def test_graph_head_kernel_matches_composed_reference(rng, lead, train, mask_diag):
    n, hidden, tau = 3, 4, 0.7
    shapes = [(hidden, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, 1), (1,)]
    arrays = [rng.normal(size=s) * 0.5 for s in shapes]
    h = rng.normal(size=lead + (n * n, hidden))
    seed_grad = rng.normal(size=lead + (n, n))

    def apply(fn):
        def op(h_t, w1, b1, w2, b2, w3, b3):
            head = GraphHead(w1=w1, b1=b1, w2=w2, b2=b2, w3=w3, b3=b3, tau=tau)
            noise = np.random.default_rng(5) if train else None
            return fn(h_t, head, n, train=train, rng=noise, mask_diag=mask_diag)

        return run_with_grads(op, [h, *arrays], seed_grad)

    fused, reference = apply(graph_head), apply(composed_graph_head)
    assert_same_value_and_grads(fused, reference, ["h", "w1", "b1", "w2", "b2", "w3", "b3"])
    if mask_diag:
        np.testing.assert_array_equal(np.diagonal(fused[0], axis1=-2, axis2=-1), 0.0)


def test_kernels_record_nothing_without_grad(rng):
    cell = GruCell.init(rng, d_in=2, hidden=3)
    head = GraphHead.init(rng, hidden=3, tau=0.2)
    c = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
    h = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    with no_grad():
        outs = [
            gru_step(c, h, cell),
            graph_head(h, head, n=2),
            graph_head(h, head, n=2, train=True, rng=np.random.default_rng(0), mask_diag=True),
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


def test_train_step_tape_stays_small(rng):
    # One train-mode objective at n=4, T_in=6, B=3 with the benchmark's tiny
    # widths takes 131 nodes: each step adds only its two feature slices, two
    # GRU steps and two graph heads. Features, scores, reconstruction, loss
    # and constraint computed per step instead would add about 40 per step.
    dims = GrcslDims(heads=2, d_att=4, h_r=6, d_s=3, h_m=6, sem_width=6, gconv_layers=1)
    params = GrcslParams.init(rng, dims)
    values, tod = window_inputs(rng, b=3, t_in=6, n=4)
    prior = np.ones((4, 4)) - np.eye(4)
    fwd = grcsl_forward_batch(values, tod, prior, params, train=True, rng=rng)
    loss = auglag_objective(grcsl_loss(fwd, None, lam=1e-3), constraint_sum(fwd), alpha=0.5, rho=1.0)
    assert tape_size(loss) <= 150


def test_graph_head_eval_mode_is_deterministic_sigmoid(rng):
    head = GraphHead.init(rng, hidden=6, tau=0.2)
    h = Tensor(rng.normal(size=(9, 6)))
    g1 = graph_head(h, head, n=3)
    g2 = graph_head(h, head, n=3)
    assert g1.shape == (3, 3)
    np.testing.assert_array_equal(g1.data, g2.data)
    assert np.all((g1.data > 0.0) & (g1.data < 1.0))


def test_graph_head_fresh_init_leans_sparse(rng):
    # Final bias -1 at tau = 0.2 puts near-zero-hidden edges at sigmoid(-5).
    head = GraphHead.init(rng, hidden=6, tau=0.2)
    h = Tensor(np.zeros((4, 6)))
    g = graph_head(h, head, n=2)
    np.testing.assert_allclose(g.data, 1.0 / (1.0 + np.exp(5.0)), rtol=1e-12)


def test_graph_head_train_mode_is_symmetric_around_half_at_zero_logit():
    # logit 0: the Gumbel difference is logistic and symmetric, so the
    # sampled edge mean converges to 1/2 (SE ~ 0.0016 at 1e5 draws).
    head = zero_logit_head(hidden=1)
    h = Tensor(np.zeros((25000, 4, 1)))
    g = graph_head(h, head, n=2, train=True, rng=np.random.default_rng(42))
    assert g.data.shape == (25000, 2, 2)
    assert abs(g.data.mean() - 0.5) < 0.01
    # near-binary at low temperature: mass piles up near the ends
    assert ((g.data < 0.1) | (g.data > 0.9)).mean() > 0.7


def test_graph_head_train_mode_requires_rng(rng):
    head = GraphHead.init(rng, hidden=3, tau=0.2)
    with pytest.raises(ConfigError):
        graph_head(Tensor(np.zeros((4, 3))), head, n=2, train=True)


def test_graph_head_masks_diagonal_when_asked(rng):
    head = GraphHead.init(rng, hidden=3, tau=0.2)
    h = Tensor(rng.normal(size=(2, 9, 3)))
    g = graph_head(h, head, n=3, mask_diag=True)
    np.testing.assert_array_equal(np.diagonal(g.data, axis1=-2, axis2=-1), 0.0)


def test_graph_head_rejects_non_positive_temperature(rng):
    with pytest.raises(ConfigError):
        GraphHead.init(rng, hidden=3, tau=0.0)
    head = GraphHead.init(rng, hidden=3, tau=0.2)
    head.tau = -1.0
    with pytest.raises(ConfigError):
        graph_head(Tensor(np.zeros((4, 3))), head, n=2)


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
    seen = {id(params.gru_intra): [], id(params.gru_inter): []}
    step = grcsl.gru_step

    def recording_step(c, h, cell):
        seen[id(cell)].append(c.data.copy())
        return step(c, h, cell)

    monkeypatch.setattr(grcsl, "gru_step", recording_step)
    b, t_in, n = 2, 4, 3
    values, tod = window_inputs(rng, b=b, t_in=t_in, n=n)
    grcsl_forward_batch(values, tod, None, params)
    x = values[..., 0]  # (B, T_in, N)
    for lag, cell in ((0, params.gru_intra), (1, params.gru_inter)):
        feats = seen[id(cell)]
        assert len(feats) == t_in - 1
        for j, c in enumerate(feats):
            t = j + 1  # 0-based tick of window step j + 2
            c = c.reshape(b, n * n)
            for i in range(n):
                for k in range(n):
                    want = x[:, t, i] * x[:, t - lag, k]
                    np.testing.assert_allclose(c[:, i * n + k], want, rtol=1e-12, atol=0)


# The per-step forward, loss and constraint that the whole-window ones replaced,
# kept as the reference they must reproduce: per-tick features, correlation
# scores per step, and lists of per-step graphs and reconstructions.


def loop_forward(values, tod, prior, params, train=False, rng=None):
    b, t_in, n, _ = values.shape
    heads, hidden = params.dims.heads, params.dims.h_r
    readings = [Tensor(values[:, t]) for t in range(t_in)]
    xs = [extract_features(readings[t], Tensor(tod[:, t]), prior, params) for t in range(t_in)]
    h_intra = Tensor(np.zeros((b, n * n, hidden)))
    h_inter = Tensor(np.zeros((b, n * n, hidden)))
    intra, inter, recons = [], [], []
    for t in range(1, t_in):
        c0 = msdot(xs[t], xs[t], params.attn).reshape(b, n * n, heads)
        c1 = msdot(xs[t], xs[t - 1], params.attn).reshape(b, n * n, heads)
        h_intra = gru_step(c0, h_intra, params.gru_intra)
        h_inter = gru_step(c1, h_inter, params.gru_inter)
        intra.append(graph_head(h_intra, params.head_intra, n, train, rng, mask_diag=True))
        inter.append(graph_head(h_inter, params.head_inter, n, train, rng, mask_diag=False))
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
