"""
End-to-end forecasting with learned dynamic graphs
==================================================

Runs the whole pipeline on a small simulated network: learn per-step causal
graphs, feed them to the dynamic graph-convolution forecaster trained under a
growing-horizon curriculum, and score the forecasts against the per-node-mean
baseline.
"""

from tvdbn.constraint import GrcslTrainConfig, train_grcsl
from tvdbn.data import (
    apply_zscore,
    build_distance_graph,
    make_windows,
    split_chronological,
    zscore_fit_apply,
)
from tvdbn.dgcpm import (
    DgcpmDims,
    DgcpmTrainConfig,
    SplitArrays,
    baseline_masked_mae,
    curriculum_train,
    node_mean_baseline,
    predict,
)
from tvdbn.grcsl import GrcslDims, graph_stacks
from tvdbn.metrics import evaluate, render_report
from tvdbn.synth import planar_distance_rows, sample_tvdbn, simulate_linear_sem, to_speed_series

T_IN, T_OUT = 8, 4

# 1. Simulated readings from a 5-sensor network with one regime change.
truth = sample_tvdbn(n=5, t=800, num_regimes=2, density=0.3, noise_std=0.1, seed=9)
series = to_speed_series(simulate_linear_sem(truth))
train_s, val_s, test_s = split_chronological(series)
stats, train_n = zscore_fit_apply(train_s)
val_n = apply_zscore(stats, val_s)
win_tr = make_windows(train_n, T_IN, T_OUT, stride=2)
win_va = make_windows(val_n, T_IN, T_OUT, stride=2)
prior = build_distance_graph(planar_distance_rows(series.sensor_ids, seed=10), series.sensor_ids)

# 2. Structure pass (kept short here; the graphs feed the forecaster next).
g_cfg = GrcslTrainConfig(inner_epochs=2, max_outer_iters=4, batch_size=32, seed=9)
g_run = train_grcsl(win_tr, prior.weights, GrcslDims(), g_cfg)
print(f"structure: converged={g_run.converged}, final S={g_run.final_s:.2e}")


def split_arrays(winset):
    # Deterministic graphs, one (T_in - 1, N, N) pair per window, all windows in one batch.
    stacks = graph_stacks(winset.values, winset.tod, prior.weights, g_run.params, len(winset))
    return SplitArrays.from_windows(winset, *stacks)


train_split = split_arrays(win_tr)
val_split = split_arrays(win_va)

# 3. Curriculum training: the loss horizon grows one step per epoch, and
#    early stopping only starts once the full horizon is reached.
f_cfg = DgcpmTrainConfig(max_epochs=12, batch_size=32, curriculum_step=1, patience=4, seed=9)
dims = DgcpmDims(t_in=T_IN, t_out=T_OUT)
f_run = curriculum_train(train_split, val_split, prior.weights, dims, stats, f_cfg)
print("\nepoch  horizon  train-loss  val-MAE")
for row in f_run.history:
    print(f"{row['epoch']:>5}  {row['horizon_limit']:>7}  {row['train_loss']:<10.4f}  {row['val_mae']:.4f}")

# 4. The bar to clear: a constant per-node mean carried from training data.
base_mae = baseline_masked_mae(node_mean_baseline(train_s), win_va, stats)
print(f"\nbest val MAE {f_run.best_val_mae:.4f} vs per-node-mean baseline {base_mae:.4f}")

# 5. Full evaluation report on the validation windows, original units.
preds = predict(val_split, prior.weights, f_run.params, stats, batch_size=32)
actuals = stats.mean + stats.std * win_va.target[..., 0]
valid = win_va.target_mask[..., 0]
report = evaluate(preds, actuals, valid, horizons=[1, 2, 4])
print()
print(render_report(report))
