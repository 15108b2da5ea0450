"""Acyclicity-constraint tests: DFS oracle, closed forms, multiplier bookkeeping."""

import csv
import logging
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import reference_backward, without_measurements
from tvdbn import constraint
from tvdbn.constraint import (
    AugLagState,
    GrcslTrainConfig,
    auglag_objective,
    auglag_update,
    constraint_sum,
    grcsl_loss,
    notears_h,
    save_history,
    train_grcsl,
)
from tvdbn.data import WindowSet, make_windows, zscore_fit_apply
from tvdbn.errors import ConfigError, ShapeError
from tvdbn.grcsl import GrcslDims, GrcslForward, GrcslParams, graph_stacks, grcsl_forward_batch
from tvdbn.numerics import Tensor
from tvdbn.numerics.tensor import _released
from tvdbn.synth import sample_tvdbn, simulate_linear_sem, to_speed_series


def has_cycle(support):
    """Independent DFS cycle check on entry (i, j) = edge j -> i."""
    n = support.shape[0]
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done

    def visit(j):
        color[j] = 1
        for i in range(n):
            if support[i, j]:
                if color[i] == 1:
                    return True
                if color[i] == 0 and visit(i):
                    return True
        color[j] = 2
        return False

    return any(color[j] == 0 and visit(j) for j in range(n))


# ------------------------------------------------------------------ #
# the acyclicity measure
# ------------------------------------------------------------------ #


def test_h_is_zero_exactly_on_acyclic_supports_exhaustively():
    # All 64 binary digraphs on 3 nodes (off-diagonal slots).
    slots = [(i, j) for i in range(3) for j in range(3) if i != j]
    for bits in range(64):
        b = np.zeros((3, 3))
        for k, (i, j) in enumerate(slots):
            if bits >> k & 1:
                b[i, j] = 1.0
        h = notears_h(b)
        if has_cycle(b != 0):
            assert h > 1e-3, f"bits={bits}"
        else:
            assert h < 1e-10, f"bits={bits}"


def test_h_agrees_with_dfs_on_random_weighted_graphs(rng):
    for _ in range(200):
        b = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.25)
        np.fill_diagonal(b, 0.0)
        if has_cycle(b != 0):
            assert notears_h(b) > 1e-12
        else:
            assert notears_h(b) < 1e-10


def test_h_of_two_cycle_is_twice_cosh_one_minus_two():
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert notears_h(b) == pytest.approx(2.0 * math.cosh(1.0) - 2.0, abs=1e-6)


def test_h_accepts_batches_and_tensors():
    stack = np.stack([np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])])
    h = notears_h(stack)
    assert h.shape == (2,)
    assert h[0] == pytest.approx(0.0, abs=1e-12)
    assert h[1] == pytest.approx(2.0 * math.cosh(1.0) - 2.0, abs=1e-10)
    ht = notears_h(Tensor(stack))
    np.testing.assert_allclose(ht.data, h, atol=1e-12)


def test_h_rejects_non_square():
    with pytest.raises(ShapeError):
        notears_h(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        notears_h(Tensor(np.ones(3)))


def test_h_gradient_matches_the_closed_form(rng):
    # d h / d B = 2 * expm(B o B)^T o B wherever h > 0.
    b = rng.normal(size=(4, 4))
    np.fill_diagonal(b, 0.0)
    t = Tensor(b, requires_grad=True)
    notears_h(t).backward()
    expected = 2.0 * scipy.linalg.expm(b * b).T * b
    np.testing.assert_allclose(t.grad, expected, rtol=1e-9, atol=1e-12)


# ------------------------------------------------------------------ #
# objective pieces
# ------------------------------------------------------------------ #


def fake_forward(readings, recons, intra, inter=None):
    """A forward pass of given step-major stacks; `inter` defaults to empty graphs."""
    inter = np.zeros_like(intra) if inter is None else inter
    return GrcslForward(*(Tensor(a) for a in (readings, intra, inter, recons)))


def test_loss_averages_over_steps_and_batch():
    # One batch entry, two steps, scalar features. Step errors 1 and 2:
    # 0.5*(1^2) + 0.5*(2^2) = 2.5, divided by steps*batch = 2.
    recons = np.array([1.0, 2.0]).reshape(2, 1, 1, 1)
    fwd = fake_forward(np.zeros((3, 1, 1, 1)), recons, np.zeros((2, 1, 1, 1)))
    loss = grcsl_loss(fwd, None, lam=0.0)
    assert float(loss.data) == pytest.approx(1.25)


def test_loss_adds_l1_of_both_graphs():
    intra = np.full((1, 1, 1, 1), 0.25)
    inter = np.full((1, 1, 1, 1), 0.5)
    fwd = fake_forward(np.zeros((2, 1, 1, 1)), np.zeros((1, 1, 1, 1)), intra, inter)
    # lam * (0.25 + 0.5) / (1 step * 1 batch)
    assert float(grcsl_loss(fwd, None, lam=2.0).data) == pytest.approx(1.5)


def test_loss_mask_excludes_missing_rows():
    readings = np.array([[[0.0], [0.0]], [[1.0], [5.0]]]).reshape(2, 1, 2, 1)
    fwd = fake_forward(readings, np.zeros((1, 1, 2, 1)), np.zeros((1, 1, 2, 2)))
    full = grcsl_loss(fwd, None, lam=0.0)
    assert float(full.data) == pytest.approx(0.5 * (1.0 + 25.0))
    mask = np.ones((1, 2, 2, 1))
    mask[0, 1, 1, 0] = 0.0  # hide the node whose error is 5
    masked = grcsl_loss(fwd, mask, lam=0.0)
    assert float(masked.data) == pytest.approx(0.5)


def test_loss_mask_hides_each_windows_own_cell():
    # Two windows, two steps, two nodes, and a different error in every cell.
    # The mask is batch-major like the windows; the stacks are step-major.
    # Window 0 hides node 0 at tick 3, window 1 hides node 1 at tick 2: read
    # with window and step swapped, the mask would hide errors 3 and 6 instead.
    errors = np.arange(1.0, 9.0).reshape(2, 2, 2, 1)  # (S, B, N, 1)
    fwd = fake_forward(np.zeros((3, 2, 2, 1)), errors, np.zeros((2, 2, 2, 2)))
    mask = np.ones((2, 3, 2, 1))
    mask[0, 2, 0, 0] = 0.0
    mask[1, 1, 1, 0] = 0.0
    hidden = errors[1, 0, 0, 0] ** 2 + errors[0, 1, 1, 0] ** 2  # 25 + 16
    want = 0.5 * (np.sum(errors**2) - hidden) / (2 * 2)
    assert float(grcsl_loss(fwd, mask, lam=0.0).data) == pytest.approx(want, rel=1e-15)


def test_loss_rejects_empty_forward():
    empty = np.zeros((0, 1, 1, 1))
    with pytest.raises(ShapeError):
        grcsl_loss(fake_forward(np.zeros((1, 1, 1, 1)), empty, empty), None, 0.0)


def test_constraint_sum_adds_steps_and_averages_batch():
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    acyclic = np.zeros((2, 2))
    # batch of 2: entry 0 has a 2-cycle at both steps, entry 1 is empty.
    intra = np.stack([np.stack([two_cycle, acyclic])] * 2)  # (S, B, N, N)
    fwd = fake_forward(np.zeros((3, 2, 2, 1)), np.zeros((2, 2, 2, 1)), intra)
    s = constraint_sum(fwd)
    expected = 2.0 * (2.0 * math.cosh(1.0) - 2.0) / 2.0
    assert float(s.data) == pytest.approx(expected, abs=1e-10)


def test_objective_fixture():
    f, s = Tensor(1.0), Tensor(2.0)
    # 1 + 0.5*2 + (1/2)*1*4 = 4
    assert float(auglag_objective(f, s, alpha=0.5, rho=1.0).data) == pytest.approx(4.0)


def test_objective_gradient_flows_through_both_terms():
    s = Tensor(2.0, requires_grad=True)
    auglag_objective(Tensor(0.0), s, alpha=0.5, rho=1.0).backward()
    # d/dS [alpha*S + rho/2 * S^2] = alpha + rho*S = 2.5
    assert s.grad == pytest.approx(2.5)


# ------------------------------------------------------------------ #
# multiplier updates
# ------------------------------------------------------------------ #


def test_first_update_never_escalates_rho():
    state = AugLagState(alpha=0.0, rho=1e-3)
    nxt = auglag_update(state, s_new=1.0)
    assert nxt.alpha == pytest.approx(1e-3)
    assert nxt.rho == pytest.approx(1e-3)
    assert nxt.last_s == 1.0


def test_rho_escalates_exactly_on_slow_progress():
    state = AugLagState(alpha=1e-3, rho=1e-3, last_s=1.0)
    slow = auglag_update(state, s_new=0.6, eta=10.0, gamma=0.5)  # 0.6 > 0.5
    assert slow.rho == pytest.approx(1e-2)
    assert slow.alpha == pytest.approx(1e-3 + 1e-3 * 0.6)
    fast = auglag_update(state, s_new=0.4, eta=10.0, gamma=0.5)  # 0.4 <= 0.5
    assert fast.rho == pytest.approx(1e-3)
    assert fast.alpha == pytest.approx(1e-3 + 1e-3 * 0.4)


def test_alpha_absorbs_rho_times_s_after_escalation():
    # Escalation applies to the next round: alpha uses the pre-update rho.
    state = AugLagState(alpha=0.0, rho=1.0, last_s=0.1)
    nxt = auglag_update(state, s_new=0.09, eta=10.0, gamma=0.5)
    assert nxt.alpha == pytest.approx(0.09)
    assert nxt.rho == pytest.approx(10.0)


def test_update_rejects_negative_constraint():
    with pytest.raises(ValueError):
        auglag_update(AugLagState(alpha=0.0, rho=1.0), s_new=-1e-9)


def test_train_config_validation():
    GrcslTrainConfig()
    for bad in (
        dict(eta=1.0),
        dict(gamma=0.0),
        dict(gamma=1.0),
        dict(xi=0.0),
        dict(rho0=0.0),
        dict(lr=0.0),
        dict(lam=-1.0),
        dict(alpha0=-0.1),
        dict(inner_epochs=-1),
        dict(max_outer_iters=0),
        dict(batch_size=0),
    ):
        with pytest.raises(ConfigError):
            GrcslTrainConfig(**bad)


# ------------------------------------------------------------------ #
# the training loop
# ------------------------------------------------------------------ #


def tiny_windows(seed=0, n=3, t=80, t_in=6):
    truth = sample_tvdbn(n=n, t=t, num_regimes=1, density=0.3, noise_std=0.5, seed=seed)
    series = to_speed_series(simulate_linear_sem(truth))
    _, normed = zscore_fit_apply(series)
    return make_windows(normed, t_in=t_in, t_out=2, stride=4)


def tiny_dims():
    return GrcslDims(heads=2, d_att=4, h_r=6, d_s=2, h_m=5, sem_width=4, use_prior=False)


def test_zero_inner_epochs_leaves_parameters_at_init():
    windows = tiny_windows()
    cfg = GrcslTrainConfig(inner_epochs=0, max_outer_iters=1, seed=5, xi=1e-30)
    result = train_grcsl(windows, None, tiny_dims(), cfg)
    init_seed, _ = np.random.SeedSequence(5).spawn(2)
    fresh = GrcslParams.init(np.random.default_rng(init_seed), tiny_dims())
    for (name, got), (_, want) in zip(
        result.params.named_parameters(), fresh.named_parameters()
    ):
        np.testing.assert_array_equal(got.data, want.data, err_msg=name)
    assert len(result.history) == 1
    row = result.history[0]
    # alpha after one update is rho0 * S_eval; rho never escalates first time.
    assert row["alpha"] == pytest.approx(1e-3 * row["S"])
    assert row["rho"] == pytest.approx(1e-3)


def test_loop_stops_when_constraint_is_satisfied(caplog):
    windows = tiny_windows()
    cfg = GrcslTrainConfig(inner_epochs=0, max_outer_iters=10, xi=1e30)
    result = train_grcsl(windows, None, tiny_dims(), cfg)
    assert result.converged
    assert len(result.history) == 1
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert result.final_s == result.history[-1]["S"] < 1e30


def test_loop_exhaustion_returns_best_with_warning(caplog):
    windows = tiny_windows()
    cfg = GrcslTrainConfig(inner_epochs=0, max_outer_iters=2, xi=1e-300)
    result = train_grcsl(windows, None, tiny_dims(), cfg)
    assert not result.converged
    assert len(result.history) == 2
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1 and "2 outer iterations" in warned[0], warned
    assert result.final_s == min(row["S"] for row in result.history)


def test_training_history_obeys_the_escalation_rule():
    windows = tiny_windows()
    cfg = GrcslTrainConfig(
        inner_epochs=1, max_outer_iters=4, xi=1e-300, seed=1, batch_size=8
    )
    result = train_grcsl(windows, None, tiny_dims(), cfg)
    rows = result.history
    assert [r["outer_iter"] for r in rows] == list(range(1, len(rows) + 1))
    assert rows[0]["rho"] == pytest.approx(cfg.rho0)  # never escalates first
    for prev, cur in zip(rows, rows[1:]):
        factor = cfg.eta if cur["S"] > cfg.gamma * prev["S"] else 1.0
        assert cur["rho"] == pytest.approx(prev["rho"] * factor)
        assert cur["alpha"] == pytest.approx(prev["alpha"] + prev["rho"] * cur["S"])
    assert all(c["rho"] >= p["rho"] for p, c in zip(rows, rows[1:]))
    assert all(c["alpha"] >= p["alpha"] for p, c in zip(rows, rows[1:]))


def test_training_improves_the_fit_term():
    windows = tiny_windows()
    cfg = GrcslTrainConfig(inner_epochs=2, max_outer_iters=3, xi=1e-300, batch_size=8)
    result = train_grcsl(windows, None, tiny_dims(), cfg)
    assert result.history[-1]["f"] < result.history[0]["f"]


def test_training_is_reproducible_for_a_fixed_seed():
    windows = tiny_windows()
    cfg = GrcslTrainConfig(inner_epochs=1, max_outer_iters=2, xi=1e-300, batch_size=8)
    r1 = train_grcsl(windows, None, tiny_dims(), cfg)
    r2 = train_grcsl(windows, None, tiny_dims(), cfg)
    assert without_measurements(r1.history) == without_measurements(r2.history)
    for (_, a), (_, b) in zip(r1.params.named_parameters(), r2.params.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_training_rejects_empty_window_sets():
    windows = tiny_windows()
    arrays = ("values", "mask", "tod", "target", "target_mask", "start_index", "start_ts")
    empty = replace(windows, **{name: getattr(windows, name)[:0] for name in arrays})
    assert len(empty) == 0
    with pytest.raises(ConfigError):
        train_grcsl(empty, None, tiny_dims(), GrcslTrainConfig())


def test_oversized_run_is_refused_before_it_allocates(monkeypatch):
    # 64 windows of 30 nodes at batch 32 need about 0.3 GB of tape and 19 MB
    # for the two graph stack pairs the loop holds; with 200 MB free the
    # largest batch that fits is 16, and the refusal comes before any tape.
    z = np.zeros((64, 12, 30, 1))
    windows = replace(
        tiny_windows(), values=z, mask=z + 1.0, tod=z, target=z[:, :2], target_mask=z[:, :2] + 1.0,
        start_index=np.arange(64), start_ts=np.arange(64),
    )
    monkeypatch.setattr(constraint, "available_mb", lambda: 200.0)
    assert constraint.grcsl_peak_mb(32, 30, 12, GrcslDims()) > 300.0
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"needs about 331 MB \(19 MB of graph stacks for 64 windows\), "
                                              r"more than the 200 MB .* fits is 16$"):
            train_grcsl(windows, None, GrcslDims(), GrcslTrainConfig(batch_size=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"the refusal allocated {peak} bytes"
    monkeypatch.setattr(constraint, "available_mb", lambda: None)  # no readout, no refusal
    cfg = GrcslTrainConfig(batch_size=32, inner_epochs=0, max_outer_iters=1)
    assert train_grcsl(tiny_windows(), None, tiny_dims(), cfg).history


def test_graph_stacks_of_a_metr_la_length_run_are_refused_before_it_allocates(monkeypatch):
    # METR-LA's 34,272 ticks, 70% for training, in 12 + 12 tick windows at
    # stride 1 over 50 nodes: one (W, 11, N, N) stack pair is about 10.5 GB,
    # and the loop holds two. Its tape alone would fit in 8 GB, so only the
    # stacks refuse it. The windows are broadcast views: nothing is allocated.
    w = int(0.7 * 34_272) - 12 - 12 + 1
    z, one = np.broadcast_to(0.0, (w, 12, 50, 1)), np.broadcast_to(1.0, (w, 12, 50, 1))
    windows = WindowSet(
        values=z, mask=one, tod=z, target=z, target_mask=one, start_index=np.arange(w), start_ts=np.arange(w),
    )
    assert 2 * w * 11 * 50 * 50 * 8 > 10.5e9  # bytes of one lag-0 and lag-1 stack pair
    assert constraint.grcsl_peak_mb(32, 50, 12, GrcslDims()) < 8_000.0
    monkeypatch.setattr(constraint, "available_mb", lambda: 8_000.0)

    def build(*_):
        raise AssertionError("parameters built before the refusal")

    monkeypatch.setattr(GrcslParams, "init", build)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=rf"needs about 20906 MB \(20114 MB of graph stacks for {w} windows\), "
                                              r"more than the 8000 MB .* fits is 0$"):
            train_grcsl(windows, None, GrcslDims(), GrcslTrainConfig(batch_size=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"the refusal allocated {peak} bytes"


def test_eval_mode_constraint_drives_termination(rng):
    # The S recorded in history must equal a deterministic recomputation,
    # not a Gumbel-sampled value.
    windows = tiny_windows()
    cfg = GrcslTrainConfig(inner_epochs=0, max_outer_iters=1, xi=1e-30, seed=9)
    result = train_grcsl(windows, None, tiny_dims(), cfg)
    intra, _ = graph_stacks(windows.values, windows.tod, None, result.params, cfg.batch_size)
    s_per_window = notears_h(intra).sum(axis=1)
    assert result.history[0]["S"] == pytest.approx(s_per_window.mean(), rel=1e-12)


@pytest.mark.parametrize(
    "cfg",
    [
        # converges at outer iteration 1 with lag-0 edges
        GrcslTrainConfig(inner_epochs=3, max_outer_iters=3, xi=1e30, lr=0.1, batch_size=8, seed=1),
        # never converges; the best S is outer iteration 2's, with lag-1 edges
        GrcslTrainConfig(inner_epochs=2, max_outer_iters=3, xi=1e-300, lr=0.1, batch_size=8, seed=0),
    ],
    ids=["converged", "best-parameters"],
)
def test_returned_stacks_are_the_returned_parameters_graphs(cfg):
    windows = tiny_windows()
    result = train_grcsl(windows, None, tiny_dims(), cfg)
    assert result.converged == (cfg.xi > 1.0)
    if not result.converged:
        assert result.history[-1]["S"] > result.final_s  # the best is not the last iteration
    intra, inter = graph_stacks(windows.values, windows.tod, None, result.params, cfg.batch_size)
    np.testing.assert_array_equal(result.intra, intra)
    np.testing.assert_array_equal(result.inter, inter)
    best = min(result.history, key=lambda row: row["S"])
    graphs = intra.shape[0] * intra.shape[1]
    assert best["edges_lag0"] == np.count_nonzero(intra > 0.5) / graphs
    assert best["edges_lag1"] == np.count_nonzero(inter > 0.5) / graphs


def test_history_csv_round_trip(tmp_path):
    # The edge columns show a lag-0 collapse in the run's own file; the timings,
    # which differ from run to run, stay out of it.
    timings = {"seconds": 1.25, "peak_rss_mb": 97.5}
    rows = [
        {"outer_iter": 1, "f": 1.5, "S": 2e-4, "alpha": 0.0, "rho": 1e-3, "edges_lag0": 0.0, "edges_lag1": 29.125,
         **timings},
        {"outer_iter": 2, "f": 1.25, "S": 5e-5, "alpha": 2e-7, "rho": 1e-2, "edges_lag0": 4.8, "edges_lag1": 1 / 3,
         **timings},
    ]
    path = tmp_path / "history.csv"
    save_history(str(path), rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["outer_iter", "f", "S", "alpha", "rho", "edges_lag0", "edges_lag1"]
    assert got[1] == ["1", "1.5", "0.0002", "0", "0.001", "0", "29.125"]
    assert [float(x) for x in got[2][1:]] == [1.25, 5e-5, 2e-7, 1e-2, 4.8, float(f"{1 / 3:.10g}")]


# ------------------------------------------------------------------ #
# memory: one step's graph at a time
# ------------------------------------------------------------------ #


def first_windows(windows, k):
    arrays = ("values", "mask", "tod", "target", "target_mask", "start_index", "start_ts")
    return replace(windows, **{name: getattr(windows, name)[:k] for name in arrays})


def test_objective_backward_releases_the_step_and_keeps_leaf_grads_bit_identical():
    windows = tiny_windows()

    def objective():
        params = GrcslParams.init(np.random.default_rng(3), tiny_dims())
        fwd = grcsl_forward_batch(
            windows.values[:4], windows.tod[:4], None, params, train=True, rng=np.random.default_rng(4)
        )
        f = grcsl_loss(fwd, windows.mask[:4], 1e-3)
        return params, fwd, auglag_objective(f, constraint_sum(fwd), alpha=0.5, rho=0.1)

    ref_params, _, ref_loss = objective()
    reference_backward(ref_loss)
    params, fwd, loss = objective()
    loss.backward()
    for (name, got), (_, want) in zip(params.named_parameters(), ref_params.named_parameters()):
        assert np.array_equal(got.grad, want.grad), name
    for t in (fwd.intra, fwd.inter, fwd.reconstructions, loss):
        assert t.grad is None and t._parents == () and t._backward is _released


def test_training_keeps_one_step_graph_at_a_time(monkeypatch):
    """Step k's forward pass and loss are freed before step k + 1's forward pass starts."""
    live = []  # weak references to the graph of every step so far
    forward, objective = constraint.grcsl_forward_batch, constraint.auglag_objective

    def checked_forward(*args, **kwargs):
        assert all(ref() is None for ref in live), "an earlier step's graph is still alive"
        fwd = forward(*args, **kwargs)
        live.extend(weakref.ref(obj) for obj in (fwd, fwd.intra, fwd.reconstructions))
        return fwd

    def recorded_objective(*args, **kwargs):
        loss = objective(*args, **kwargs)
        live.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(constraint, "grcsl_forward_batch", checked_forward)
    monkeypatch.setattr(constraint, "auglag_objective", recorded_objective)
    cfg = GrcslTrainConfig(inner_epochs=2, max_outer_iters=2, xi=1e-300, batch_size=6)
    train_grcsl(tiny_windows(), None, tiny_dims(), cfg)
    assert len(live) == 4 * 2 * 2 * 4  # 4 steps per epoch, 2 epochs, 2 outer iterations
    assert all(ref() is None for ref in live)


def test_an_eval_epoch_holds_only_the_best_earlier_stacks(monkeypatch):
    """Each eval epoch starts with the best earlier pair alive and every other earlier pair freed."""
    s_values = iter([3.0, 1.0, 2.0, 4.0, 0.5])  # S per outer iteration: iteration 2 stays best until 5
    pairs = []  # (S, weak references to the stacks) of every eval epoch so far

    def eval_epoch(values, *args):
        best = min(s for s, _ in pairs) if pairs else None
        for s, refs in pairs:
            assert all((ref() is not None) == (s == best) for ref in refs), f"stacks of S={s}"
        s, shape = next(s_values), (values.shape[0], values.shape[1] - 1, values.shape[2], values.shape[2])
        intra, inter = np.zeros(shape), np.zeros(shape)
        pairs.append((s, [weakref.ref(intra), weakref.ref(inter)]))
        return 1.0, s, intra, inter

    monkeypatch.setattr(constraint, "_eval_epoch", eval_epoch)
    cfg = GrcslTrainConfig(inner_epochs=0, max_outer_iters=5, xi=1e-300)
    result = train_grcsl(tiny_windows(), None, tiny_dims(), cfg)
    assert len(pairs) == 5 and result.final_s == 0.5
    assert pairs[-1][1][0]() is result.intra and pairs[-1][1][1]() is result.inter
    assert all(ref() is None for _, refs in pairs[:-1] for ref in refs)


def test_three_training_steps_peak_about_as_high_as_one():
    windows = tiny_windows()
    cfg = GrcslTrainConfig(inner_epochs=1, max_outer_iters=1, xi=1e-300, batch_size=6)

    def traced_peak(steps):
        tracemalloc.start()
        try:
            train_grcsl(first_windows(windows, steps * cfg.batch_size), None, tiny_dims(), cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)  # first-call allocations stay out of the comparison
    one, three = traced_peak(1), traced_peak(3)
    assert three <= 1.3 * one, f"three steps peak at {three / one:.2f}x one step"


def test_history_and_log_carry_time_and_peak_rss(caplog):
    cfg = GrcslTrainConfig(inner_epochs=1, max_outer_iters=2, xi=1e-300, batch_size=8)
    with caplog.at_level(logging.INFO, logger="tvdbn.constraint"):
        result = train_grcsl(tiny_windows(), None, tiny_dims(), cfg)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("outer")]
    assert len(lines) == len(result.history) == 2
    for row, line in zip(result.history, lines):
        assert row["seconds"] > 0 and row["peak_rss_mb"] > 0
        assert line.endswith(f"{row['seconds']:.2f} s, peak RSS {row['peak_rss_mb']:.0f} MB")
