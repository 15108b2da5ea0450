"""Forecaster tests: composition oracle, masked loss fixtures, curriculum."""

import csv
import ctypes
import logging
import resource
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import without_measurements
from tvdbn import dgcpm
from tvdbn.data import NormStats, SpeedSeries, make_windows, zscore_fit_apply
from tvdbn.dgcpm import (
    DgcpmDims,
    DgcpmParams,
    DgcpmTrainConfig,
    SplitArrays,
    baseline_masked_mae,
    curriculum_train,
    dgcpm_forward_batch,
    export_forecasts,
    masked_mae_loss,
    node_mean_baseline,
    predict,
)
from tvdbn.errors import ConfigError, NumericalError, ShapeError
from tvdbn.graphops import dygconv, gconv_spectral
from tvdbn.numerics import Tensor, no_grad
from tvdbn.synth import sample_tvdbn, simulate_linear_sem, to_speed_series


def small_dims(**overrides):
    base = dict(t_in=4, t_out=3, dy_width=3, prior_width=2, gconv_layers=2, use_prior=True)
    base.update(overrides)
    return DgcpmDims(**base)


def forward_inputs(rng, b=2, t_in=4, n=3):
    values = rng.normal(size=(b, t_in, n, 1))
    tod = rng.uniform(0.0, 1.0, size=(b, t_in, n, 1))
    intra = rng.uniform(0.0, 1.0, size=(b, t_in - 1, n, n))
    for j in range(t_in - 1):
        intra[:, j] *= 1.0 - np.eye(n)
    inter = rng.uniform(0.0, 1.0, size=(b, t_in - 1, n, n))
    prior = rng.uniform(0.0, 1.0, size=(n, n))
    prior = (prior + prior.T) / 2.0
    np.fill_diagonal(prior, 0.0)
    return values, tod, intra, inter, prior


# ------------------------------------------------------------------ #
# forward pass
# ------------------------------------------------------------------ #


def test_forward_matches_a_stepwise_composition(rng):
    # Recompose the forecast from the already-tested building blocks: per
    # step, propagate (reading, tod) of the earlier tick through the step's
    # graph pair, smooth the later reading over the prior, stack, and apply
    # the shared readout per node.
    dims = small_dims()
    params = DgcpmParams.init(rng, dims)
    values, tod, intra, inter, prior = forward_inputs(rng)
    out = dgcpm_forward_batch(values, tod, intra, inter, prior, params)
    assert out.shape == (2, 3, 3, 1)

    b, n = 2, 3
    with no_grad():
        per_step = []
        for j in range(dims.t_in - 1):
            x_prev = np.concatenate([values[:, j], tod[:, j]], axis=-1)
            h = dygconv(
                Tensor(x_prev), Tensor(intra[:, j]), Tensor(inter[:, j]),
                params.dy_inter, params.dy_intra,
            ).data
            smoothed = gconv_spectral(Tensor(values[:, j + 1]), prior, params.prior_gconv).data
            per_step.append(np.concatenate([h, smoothed], axis=-1))
    stacked = np.stack(per_step, axis=1)  # (B, S, N, H_f)
    per_node = stacked.transpose(0, 2, 1, 3).reshape(b, n, -1)
    expected = (per_node @ params.w_out.data).transpose(0, 2, 1)[..., None]
    np.testing.assert_array_equal(out.data, expected)


def test_forward_without_prior_branch(rng):
    dims = small_dims(use_prior=False)
    params = DgcpmParams.init(rng, dims)
    values, tod, intra, inter, _ = forward_inputs(rng)
    out = dgcpm_forward_batch(values, tod, intra, inter, None, params)
    assert out.shape == (2, 3, 3, 1)
    assert dims.fused_width == 3


def test_forward_validates_shapes_and_prior(rng):
    dims = small_dims()
    params = DgcpmParams.init(rng, dims)
    values, tod, intra, inter, prior = forward_inputs(rng)
    with pytest.raises(ShapeError):
        dgcpm_forward_batch(values[:, :3], tod[:, :3], intra, inter, prior, params)
    with pytest.raises(ShapeError):
        dgcpm_forward_batch(values, tod, intra[:, :2], inter, prior, params)
    with pytest.raises(ShapeError):
        dgcpm_forward_batch(values[..., 0], tod[..., 0], intra, inter, prior, params)
    with pytest.raises(ConfigError):
        dgcpm_forward_batch(values, tod, intra, inter, None, params)


def test_later_graphs_do_not_leak_into_earlier_steps(rng):
    # The readout mixes steps, so perturbing graph j changes the forecast;
    # but the per-step embeddings themselves must stay step-local. Check
    # through the composition: identical inputs except graph at step 2
    # change the output, while zeroing w_out rows of step 2 restores it.
    dims = small_dims()
    params = DgcpmParams.init(rng, dims)
    values, tod, intra, inter, prior = forward_inputs(rng)
    bumped = intra.copy()
    bumped[:, 2] = 0.0
    base = dgcpm_forward_batch(values, tod, intra, inter, prior, params)
    alt = dgcpm_forward_batch(values, tod, bumped, inter, prior, params)
    assert not np.allclose(base.data, alt.data)
    # silence the readout rows fed by step 2's embedding
    w = params.w_out.data.copy()
    w[2 * dims.fused_width : 3 * dims.fused_width] = 0.0
    params.w_out = Tensor(w, requires_grad=True)
    base2 = dgcpm_forward_batch(values, tod, intra, inter, prior, params)
    alt2 = dgcpm_forward_batch(values, tod, bumped, inter, prior, params)
    np.testing.assert_allclose(base2.data, alt2.data, atol=1e-12)


def test_dims_validation():
    with pytest.raises(ConfigError):
        small_dims(t_in=1).validate()
    with pytest.raises(ConfigError):
        small_dims(t_out=0).validate()
    with pytest.raises(ConfigError):
        small_dims(dy_width=0).validate()
    assert small_dims().fused_width == 5


# ------------------------------------------------------------------ #
# masked loss
# ------------------------------------------------------------------ #


def test_masked_mae_fixture():
    pred = Tensor(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))  # (1, 2, 2, 1)
    target = np.array([[[[2.0], [2.0]], [[1.0], [8.0]]]])
    mask = np.ones((1, 2, 2, 1), dtype=bool)
    # errors: 1, 0, 2, 4 -> mean 7/4
    assert float(masked_mae_loss(pred, target, mask).data) == pytest.approx(1.75)
    mask[0, 1, 1, 0] = False  # drop the error-4 cell -> mean 1
    assert float(masked_mae_loss(pred, target, mask).data) == pytest.approx(1.0)


def test_masked_mae_horizon_limit_cuts_later_steps():
    pred = Tensor(np.zeros((1, 3, 1, 1)))
    target = np.array([[[[1.0]], [[2.0]], [[3.0]]]])
    mask = np.ones((1, 3, 1, 1), dtype=bool)
    assert float(masked_mae_loss(pred, target, mask, horizon_limit=1).data) == pytest.approx(1.0)
    assert float(masked_mae_loss(pred, target, mask, horizon_limit=2).data) == pytest.approx(1.5)
    assert float(masked_mae_loss(pred, target, mask, horizon_limit=3).data) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        masked_mae_loss(pred, target, mask, horizon_limit=0)


def test_masked_mae_all_masked_returns_zero_not_nan():
    pred = Tensor(np.ones((1, 2, 1, 1)))
    target = np.zeros((1, 2, 1, 1))
    mask = np.zeros((1, 2, 1, 1), dtype=bool)
    assert float(masked_mae_loss(pred, target, mask).data) == 0.0


def test_masked_mae_shape_mismatch():
    with pytest.raises(ShapeError):
        masked_mae_loss(Tensor(np.zeros((1, 2, 1, 1))), np.zeros((1, 3, 1, 1)), np.ones((1, 3, 1, 1), bool))


def test_masked_mae_gradient_is_sign_over_count():
    raw = np.array([[[[2.0], [-3.0]], [[0.5], [1.0]]]])
    pred = Tensor(raw, requires_grad=True)
    target = np.zeros((1, 2, 2, 1))
    mask = np.ones((1, 2, 2, 1), dtype=bool)
    mask[0, 0, 1, 0] = False
    masked_mae_loss(pred, target, mask).backward()
    expected = np.sign(raw) * mask / 3.0
    np.testing.assert_allclose(pred.grad, expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_masked_mae_never_exceeds_max_error(seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(2, 3, 2, 1))
    target = rng.normal(size=(2, 3, 2, 1))
    mask = rng.random((2, 3, 2, 1)) < 0.7
    if not mask.any():
        return
    loss = float(masked_mae_loss(Tensor(pred), target, mask).data)
    assert 0.0 <= loss <= np.abs(pred - target)[mask].max() + 1e-12


# ------------------------------------------------------------------ #
# training
# ------------------------------------------------------------------ #


def build_split(seed=0, n=3, t=120, t_in=4, t_out=3, stride=2):
    truth = sample_tvdbn(n=n, t=t, num_regimes=1, density=0.3, noise_std=0.3, seed=seed)
    series = to_speed_series(simulate_linear_sem(truth))
    stats, normed = zscore_fit_apply(series)
    windows = make_windows(normed, t_in=t_in, t_out=t_out, stride=stride)
    w = len(windows)
    rng = np.random.default_rng(seed + 1)
    steps = t_in - 1
    intra = rng.uniform(0.0, 0.4, size=(w, steps, n, n)) * (1.0 - np.eye(n))
    inter = rng.uniform(0.0, 0.4, size=(w, steps, n, n))
    return SplitArrays.from_windows(windows, intra, inter), stats, series, windows


def test_curriculum_schedule_grows_one_step_at_a_time():
    split, stats, _, _ = build_split()
    val, _, _, _ = build_split(seed=3)
    cfg = DgcpmTrainConfig(max_epochs=8, curriculum_step=2, patience=50, seed=0)
    result = curriculum_train(split, val, None, small_dims(use_prior=False), stats, cfg)
    horizons = [row["horizon_limit"] for row in result.history]
    assert horizons == [1, 1, 2, 2, 3, 3, 3, 3]


def test_best_parameters_track_the_validation_minimum():
    split, stats, _, _ = build_split()
    val, _, _, _ = build_split(seed=3)
    cfg = DgcpmTrainConfig(max_epochs=6, curriculum_step=1, patience=50, seed=0)
    result = curriculum_train(split, val, None, small_dims(use_prior=False), stats, cfg)
    assert result.best_val_mae == pytest.approx(min(r["val_mae"] for r in result.history))
    # returned parameters reproduce the recorded best validation MAE
    w = val.values.shape[0]
    total, count = 0.0, 0.0
    with no_grad():
        pred = dgcpm_forward_batch(val.values, val.tod, val.intra, val.inter, None, result.params)
    m = val.target_mask
    total = float((np.abs(pred.data - val.target) * m).sum())
    count = float(m.sum())
    assert stats.std * total / count == pytest.approx(result.best_val_mae, rel=1e-12)


def test_training_reduces_train_loss():
    split, stats, _, _ = build_split()
    cfg = DgcpmTrainConfig(max_epochs=10, curriculum_step=1, patience=50, seed=0)
    result = curriculum_train(split, split, None, small_dims(use_prior=False), stats, cfg)
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_a_diverging_run_fails_naming_the_epoch_instead_of_returning_its_initial_weights():
    split, stats, _, _ = build_split(t=200)
    assert split.values.shape[0] >= 40
    cfg = DgcpmTrainConfig(max_epochs=3, lr=1e300, seed=0)
    with pytest.raises(NumericalError, match="epoch 1: .* is not finite"):
        curriculum_train(split, split, None, small_dims(use_prior=False), stats, cfg)


def test_training_is_reproducible():
    split, stats, _, _ = build_split()
    cfg = DgcpmTrainConfig(max_epochs=3, seed=4)
    r1 = curriculum_train(split, split, None, small_dims(use_prior=False), stats, cfg)
    r2 = curriculum_train(split, split, None, small_dims(use_prior=False), stats, cfg)
    assert without_measurements(r1.history) == without_measurements(r2.history)
    for (_, a), (_, b) in zip(r1.params.named_parameters(), r2.params.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_training_keeps_one_step_graph_at_a_time(monkeypatch):
    """Step k's prediction and loss are freed before step k + 1's forward pass starts."""
    live = []  # weak references to the graph of every step so far
    forward, mae = dgcpm.dgcpm_forward_batch, dgcpm.masked_mae_loss

    def checked_forward(*args):
        assert all(ref() is None for ref in live), "an earlier step's graph is still alive"
        pred = forward(*args)
        if pred.requires_grad:  # evaluation passes build no graph
            live.append(weakref.ref(pred))
        return pred

    def recorded_mae(*args):
        loss = mae(*args)
        live.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(dgcpm, "dgcpm_forward_batch", checked_forward)
    monkeypatch.setattr(dgcpm, "masked_mae_loss", recorded_mae)
    split, stats, _, _ = build_split()
    cfg = DgcpmTrainConfig(max_epochs=2, batch_size=16, seed=1)
    curriculum_train(split, split, None, small_dims(use_prior=False), stats, cfg)
    steps = -(-len(split.values) // cfg.batch_size) * cfg.max_epochs
    assert steps > 2 and len(live) == 2 * steps
    assert all(ref() is None for ref in live)


def test_history_and_log_carry_time_and_peak_rss(caplog):
    split, stats, _, _ = build_split()
    cfg = DgcpmTrainConfig(max_epochs=2, seed=1)
    with caplog.at_level(logging.INFO, logger="tvdbn.dgcpm"):
        result = curriculum_train(split, split, None, small_dims(use_prior=False), stats, cfg)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch")]
    assert len(lines) == len(result.history) == 2
    for row, line in zip(result.history, lines):
        assert row["seconds"] > 0 and row["peak_rss_mb"] > 0
        assert line.endswith(f"{row['seconds']:.2f} s, peak RSS {row['peak_rss_mb']:.0f} MB")


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt")
def test_second_epoch_reuses_the_first_epochs_pages(monkeypatch):
    """Freed tapes stay in the process, so a second epoch faults in (almost) no new pages."""
    rng = np.random.default_rng(0)
    w, t_in, n = 106, 12, 12  # 32-window batches of 0.5 MB activations
    values = rng.standard_normal((w, t_in, n, 1))
    target = rng.standard_normal((w, 3, n, 1))
    intra = rng.uniform(0.0, 0.4, (w, t_in - 1, n, n)) * (1.0 - np.eye(n))
    split = SplitArrays(
        values=values, tod=rng.uniform(0.0, 1.0, values.shape), target=target,
        target_mask=np.ones(target.shape, dtype=bool), intra=intra,
        inter=rng.uniform(0.0, 0.4, (w, t_in - 1, n, n)),
    )
    faults = []  # minor faults so far, at the end of each epoch
    val_mae = dgcpm._val_mae

    def counted_val_mae(*args):
        mae = val_mae(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return mae

    monkeypatch.setattr(dgcpm, "_val_mae", counted_val_mae)
    dims = DgcpmDims(t_in=t_in, t_out=3, use_prior=False)
    cfg = DgcpmTrainConfig(max_epochs=2, batch_size=32, seed=0)
    curriculum_train(split, split, None, dims, NormStats(mean=0.0, std=1.0), cfg)
    assert faults[1] - faults[0] < 1000


def test_training_config_validation():
    with pytest.raises(ConfigError):
        DgcpmTrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        DgcpmTrainConfig(curriculum_step=0).validate()
    with pytest.raises(ConfigError):
        DgcpmTrainConfig(patience=0).validate()
    split, stats, _, _ = build_split()
    split.values = split.values[:0]
    with pytest.raises(ConfigError):
        curriculum_train(split, split, None, small_dims(use_prior=False), stats, DgcpmTrainConfig())


# ------------------------------------------------------------------ #
# prediction and baselines
# ------------------------------------------------------------------ #


def test_predict_returns_original_units(rng):
    split, _, _, _ = build_split()
    dims = small_dims(use_prior=False)
    params = DgcpmParams.init(rng, dims)
    raw = predict(split, None, params, NormStats(mean=0.0, std=1.0))
    shifted = predict(split, None, params, NormStats(mean=5.0, std=2.0))
    assert raw.shape == (split.values.shape[0], 3, 3)
    np.testing.assert_allclose(shifted, 5.0 + 2.0 * raw, atol=1e-12)


def test_node_mean_baseline_ignores_missing_cells():
    values = np.array([[10.0, 1.0], [20.0, 2.0], [30.0, 999.0]])
    mask = np.array([[True, True], [True, True], [True, False]])
    series = SpeedSeries(
        sensor_ids=["a", "b"],
        timestamps=np.array([0, 300, 600]),
        values=values,
        mask=mask,
    )
    np.testing.assert_allclose(node_mean_baseline(series), [20.0, 1.5])


def test_node_mean_baseline_all_missing_node_falls_back_to_global_mean():
    values = np.array([[10.0, 0.0], [20.0, 0.0]])
    mask = np.array([[True, False], [True, False]])
    series = SpeedSeries(
        sensor_ids=["a", "b"], timestamps=np.array([0, 300]), values=values, mask=mask
    )
    np.testing.assert_allclose(node_mean_baseline(series), [15.0, 15.0])


def test_baseline_masked_mae_hand_computed():
    _, stats, series, windows = build_split()
    baseline = node_mean_baseline(series)
    got = baseline_masked_mae(baseline, windows, stats)
    total, count = 0.0, 0.0
    for k in range(len(windows)):
        actual = stats.mean + stats.std * windows.target[k, ..., 0]
        m = windows.target_mask[k, ..., 0]
        total += float((np.abs(baseline[None, :] - actual) * m).sum())
        count += float(m.sum())
    assert got == pytest.approx(total / count)


def test_export_forecasts_round_trips(tmp_path):
    # Two windows, two horizon steps, two sensors: rows run by window, then horizon step, then sensor.
    preds = np.array([[[1.5, 2.5], [3.5, 4.5]], [[5.5, 6.5], [7.5, 8.5]]])  # (2, 2, 2)
    actuals = preds - 0.5
    valid = np.array([[[True, False], [True, True]], [[False, True], [True, False]]])
    path = tmp_path / "forecasts.csv"
    export_forecasts(str(path), [7000, 7300], preds, actuals, valid, ["a", "b"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["window_start_ts", "horizon_step", "sensor_id", "predicted", "actual", "valid"]
    assert rows[1:] == [
        ["7000", "1", "a", "1.5", "1", "1"],
        ["7000", "1", "b", "2.5", "2", "0"],
        ["7000", "2", "a", "3.5", "3", "1"],
        ["7000", "2", "b", "4.5", "4", "1"],
        ["7300", "1", "a", "5.5", "5", "0"],
        ["7300", "1", "b", "6.5", "6", "1"],
        ["7300", "2", "a", "7.5", "7", "1"],
        ["7300", "2", "b", "8.5", "8", "0"],
    ]
