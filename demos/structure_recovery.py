"""
Recovering time-varying causal graphs from a simulated sensor network
=====================================================================

Samples a ground-truth time-varying DBN, simulates a linear SEM from it,
trains the graph generator under the acyclicity-constrained augmented
Lagrangian, and scores the recovered edges against the truth.
"""

import numpy as np

from tvdbn.constraint import GrcslTrainConfig, train_grcsl
from tvdbn.data import build_distance_graph, make_windows, split_chronological, zscore_fit_apply
from tvdbn.grcsl import CausalGraphSeq, GrcslDims, graph_stacks
from tvdbn.synth import (
    planar_distance_rows,
    random_recovery_baseline,
    sample_tvdbn,
    score_recovery,
    simulate_linear_sem,
    to_speed_series,
)

# 1. Ground truth: 6 sensors, two regimes, sparse graphs with known weights.
truth = sample_tvdbn(n=6, t=600, num_regimes=2, density=0.25, noise_std=0.1, seed=3)
print("regime boundaries:", truth.boundaries.tolist())
print("lag-0 edges per regime:", [(truth.intra[r] != 0).sum() for r in range(2)])
print("lag-1 edges per regime:", [(truth.inter[r] != 0).sum() for r in range(2)])

# 2. Simulate readings and dress them up as speed-like values.
series = to_speed_series(simulate_linear_sem(truth))
train_s, _, _ = split_chronological(series)
stats, train_n = zscore_fit_apply(train_s)
windows = make_windows(train_n, t_in=8, t_out=4, stride=4)
prior = build_distance_graph(planar_distance_rows(series.sensor_ids, seed=4), series.sensor_ids)
print(f"\n{len(windows)} training windows of 8 ticks each")

# 3. Train the generator: each outer iteration tightens the acyclicity
#    penalty; the history shows the multiplier bookkeeping at work.
cfg = GrcslTrainConfig(inner_epochs=2, max_outer_iters=6, batch_size=32, seed=3)
result = train_grcsl(windows, prior.weights, GrcslDims(), cfg)
print("\nouter  fit-term     constraint-S  alpha        rho")
for row in result.history:
    print(f"{row['outer_iter']:>5}  {row['f']:<11.4g}  {row['S']:<12.3e}  {row['alpha']:<11.4g}  {row['rho']:.1e}")
print(f"converged={result.converged}  final S={result.final_s:.2e}")

# 4. Deterministic (eval-mode) graphs for every window, then edge scoring.
intra, inter = graph_stacks(windows.values, windows.tod, prior.weights, result.params, len(windows))
seqs = [
    CausalGraphSeq(intra=a, inter=b, start_index=k, start_ts=ts)
    for a, b, k, ts in zip(intra, inter, windows.start_index.tolist(), windows.start_ts.tolist())
]
score = score_recovery(seqs, truth, threshold=0.5)

# 5. Context: how well random guessing with the same edge budget scores.
budget = {
    0: float(np.mean([(truth.intra[r] != 0).sum() for r in range(2)])),
    1: float(np.mean([(truth.inter[r] != 0).sum() for r in range(2)])),
}
base = random_recovery_baseline(truth, budget, draws=100, seed=5)
print(f"\nlag-0: precision={score.lag0.precision:.2f} recall={score.lag0.recall:.2f} "
      f"F1={score.lag0.f1:.2f} (random-budget baseline {base[0]:.2f})")
print(f"lag-1: precision={score.lag1.precision:.2f} recall={score.lag1.recall:.2f} "
      f"F1={score.lag1.f1:.2f} (random-budget baseline {base[1]:.2f})")
print(f"structural Hamming distance: lag-0 {score.lag0.shd:.1f}, lag-1 {score.lag1.shd:.1f}")
