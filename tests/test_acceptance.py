"""Release gates, one numbered test per gate.

The gates pin down end-to-end behavior at fixed tolerances: the acyclicity
functional against a DFS oracle, the gradient suite, structure recovery and
augmented-Lagrangian mechanics on a 10-sensor benchmark, forecaster quality
against the per-node-mean baseline on a persistent 10-sensor series whose
predictability ceiling clears the bar, operator equivalence against naive
loop-nest references, metric fixtures, and bit-level determinism of the CLI
artifacts. Both datasets and the training runs on them are module-scoped:
they are the dominant cost and several gates share them.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tvdbn.cli import main
from tvdbn.constraint import GrcslTrainConfig, notears_h, train_grcsl
from tvdbn.data import (
    apply_zscore,
    build_distance_graph,
    make_windows,
    split_chronological,
    zscore_fit_apply,
)
from tvdbn.dgcpm import (
    DgcpmDims,
    DgcpmParams,
    DgcpmTrainConfig,
    SplitArrays,
    baseline_masked_mae,
    curriculum_train,
    dgcpm_forward_batch,
    node_mean_baseline,
)
from tvdbn.graphops import GconvParams, dygconv, gconv_spatial, gconv_spectral
from tvdbn.grcsl import CausalGraphSeq, GrcslDims, GruCells, graph_stacks, gru_step
from tvdbn.metrics import evaluate
from tvdbn.numerics import Tensor
from tvdbn.synth import (
    GroundTruthTvdbn,
    planar_distance_rows,
    random_recovery_baseline,
    sample_tvdbn,
    score_recovery,
    simulate_linear_sem,
    to_speed_series,
)
from tvdbn.verification import gradient_suite

BENCH_SEED = 0
T_IN = 12
T_OUT = 12
STRIDE = 4  # benchmark window stride; dense striding only adds near-duplicate windows
XI = 1e-8
PERSISTENCE = 0.9  # lag-1 self-weight of every sensor in the forecasting series
CEILING_FLOOR = 0.35  # the oracle must clear the 30% forecasting gate by this much


# ------------------------------------------------------------------ #
# independent oracles
# ------------------------------------------------------------------ #


def has_cycle(adj: np.ndarray) -> bool:
    """DFS three-color cycle detection on the nonzero support."""
    n = adj.shape[0]
    color = [0] * n  # 0 white, 1 on stack, 2 done

    def visit(u: int) -> bool:
        color[u] = 1
        for v in range(n):
            if adj[v, u] == 0:  # entry (v, u) is the edge u -> v
                continue
            if color[v] == 1 or (color[v] == 0 and visit(v)):
                return True
        color[u] = 2
        return False

    return any(color[u] == 0 and visit(u) for u in range(n))


def loop_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for k in range(a.shape[1]):
            for j in range(b.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def loop_sym_norm(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    a_tilde = a + np.eye(n)
    deg = a_tilde.sum(axis=1)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = a_tilde[i, j] / math.sqrt(deg[i] * deg[j])
    return out


def loop_row_norm(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for i in range(a.shape[0]):
        s = a[i].sum()
        if s != 0.0:
            out[i] = a[i] / s
    return out


def loop_stack(h: np.ndarray, a_hat: np.ndarray, thetas: list[np.ndarray]) -> np.ndarray:
    for theta in thetas[1:]:
        h = np.maximum(loop_mm(loop_mm(a_hat, h), theta), 0.0) + h
    return h


def loop_spectral(x: np.ndarray, a: np.ndarray, thetas: list[np.ndarray]) -> np.ndarray:
    return loop_stack(loop_mm(x, thetas[0]), loop_sym_norm(a), thetas)


def loop_spatial(x: np.ndarray, a: np.ndarray, thetas: list[np.ndarray]) -> np.ndarray:
    return loop_stack(loop_mm(x, thetas[0]), loop_row_norm(a), thetas)


def loop_dygconv(x, intra, inter, th_inter, th_intra):
    n = intra.shape[0]
    carried = loop_spatial(x, inter + np.eye(n), th_inter)
    return loop_spatial(carried, intra + np.eye(n), th_intra)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def loop_gru(c: np.ndarray, h: np.ndarray, w) -> np.ndarray:
    w_cr, w_hr, b_r, w_cz, w_hz, b_z, w_ch, w_hh, b_h = w
    r = sigmoid(loop_mm(c, w_cr) + loop_mm(h, w_hr) + b_r)
    z = sigmoid(loop_mm(c, w_cz) + loop_mm(h, w_hz) + b_z)
    h_tilde = np.tanh(loop_mm(c, w_ch) + loop_mm(r * h, w_hh) + b_h)
    return z * h + (1.0 - z) * h_tilde


def loop_dgcpm(values, tod, intra, inter, prior, params: DgcpmParams) -> np.ndarray:
    """Forecast one window with explicit loops; mirrors the batched forward."""
    dims = params.dims
    steps = dims.t_in - 1
    n = values.shape[1]
    th = lambda g: [t.data for t in g.theta]
    embeddings = []
    for j in range(steps):
        x_prev = np.concatenate([values[j], tod[j]], axis=-1)
        h = loop_dygconv(x_prev, intra[j], inter[j], th(params.dy_inter), th(params.dy_intra))
        if dims.use_prior:
            smoothed = loop_spectral(values[j + 1], prior, th(params.prior_gconv))
            h = np.concatenate([h, smoothed], axis=-1)
        embeddings.append(h)
    w_out = params.w_out.data
    out = np.zeros((dims.t_out, n, 1))
    for i in range(n):
        flat = np.concatenate([embeddings[j][i] for j in range(steps)])
        for t in range(dims.t_out):
            out[t, i, 0] = sum(flat[k] * w_out[k, t] for k in range(flat.size))
    return out


# ------------------------------------------------------------------ #
# shared benchmark runs
# ------------------------------------------------------------------ #


@dataclass
class Benchmark:
    truth: object
    series: object
    train_series: object
    stats: object
    prior: np.ndarray
    win_train: object
    win_val: object


@dataclass
class StructureRun:
    result: object
    seqs: list
    elapsed: float


def make_benchmark(truth) -> Benchmark:
    series = to_speed_series(simulate_linear_sem(truth))
    train_s, val_s, _ = split_chronological(series)
    stats, train_n = zscore_fit_apply(train_s)
    val_n = apply_zscore(stats, val_s)
    prior = build_distance_graph(
        planar_distance_rows(series.sensor_ids, seed=truth.seed + 1), series.sensor_ids
    )
    return Benchmark(
        truth=truth,
        series=series,
        train_series=train_s,
        stats=stats,
        prior=prior.weights,
        win_train=make_windows(train_n, T_IN, T_OUT, stride=STRIDE),
        win_val=make_windows(val_n, T_IN, T_OUT, stride=STRIDE),
    )


@pytest.fixture(scope="module")
def bench():
    return make_benchmark(
        sample_tvdbn(n=10, t=2000, num_regimes=4, density=0.2, noise_std=0.1, seed=BENCH_SEED)
    )


def persistent_truth(seed: int) -> GroundTruthTvdbn:
    """Forecasting series: two regimes alternating over eight 250-tick segments.

    Every regime of the validation ticks also drives training ticks. Lag-1
    self-weights of PERSISTENCE over weak cross-sensor weights keep each
    reading predictable many ticks ahead, as traffic speeds are; the gate-04
    series forgets its state within about four ticks.
    """
    two = sample_tvdbn(
        n=10, t=2000, num_regimes=2, density=0.2, noise_std=0.1,
        weight_range=(0.02, 0.05), seed=seed,
    )
    inter = two.inter.copy()
    for graph in inter:
        np.fill_diagonal(graph, PERSISTENCE)
    order = [k % 2 for k in range(8)]
    return GroundTruthTvdbn(
        intra=two.intra[order],
        inter=inter[order],
        boundaries=np.arange(9) * 250,
        noise_std=two.noise_std,
        seed=seed,
    )


@pytest.fixture(scope="module")
def forecast_bench():
    return make_benchmark(persistent_truth(BENCH_SEED))


def train_structure(b: Benchmark):
    cfg = GrcslTrainConfig(batch_size=64, seed=BENCH_SEED)
    return train_grcsl(b.win_train, b.prior, GrcslDims(), cfg)


@pytest.fixture(scope="module")
def structure(bench):
    start = time.perf_counter()
    result = train_structure(bench)
    elapsed = time.perf_counter() - start
    win = bench.win_train
    seqs = [
        CausalGraphSeq(intra=a, inter=b, start_index=k, start_ts=ts)
        for a, b, k, ts in zip(result.intra, result.inter, win.start_index.tolist(), win.start_ts.tolist())
    ]
    return StructureRun(result=result, seqs=seqs, elapsed=elapsed)


@pytest.fixture(scope="module")
def forecast(forecast_bench):
    b = forecast_bench
    run = train_structure(b)
    train = SplitArrays.from_windows(b.win_train, run.intra, run.inter)
    w = b.win_val
    val = SplitArrays.from_windows(w, *graph_stacks(w.values, w.tod, b.prior, run.params, 64))
    cfg = DgcpmTrainConfig(max_epochs=25, batch_size=32, curriculum_step=1, patience=10, seed=BENCH_SEED)
    result = curriculum_train(train, val, b.prior, DgcpmDims(t_in=T_IN, t_out=T_OUT), b.stats, cfg)
    base_mae = baseline_masked_mae(node_mean_baseline(b.train_series), b.win_val, b.stats)
    return result, base_mae, cfg


def oracle_improvement(b: Benchmark, base_mae: float) -> float:
    """Validation gain over the per-node-mean baseline of the conditional-mean oracle.

    The oracle knows the true generating graphs and regime switches. No
    learned model can beat it on expected absolute error (Gaussian
    conditionals: mean = median), so this is the predictability ceiling.
    """
    truth, n = b.truth, len(b.series.sensor_ids)
    total = count = 0.0
    for start in b.win_val.start_index.tolist():
        last = start + T_IN - 1  # absolute tick of the last input
        x = (b.series.values[last] - 50.0) / 10.0
        for h in range(1, T_OUT + 1):
            r = truth.regime_at(last + h)
            x = np.linalg.solve(np.eye(n) - truth.intra[r], truth.inter[r] @ x)
            actual = b.series.values[last + h]
            total += np.abs(50.0 + 10.0 * x - actual).sum()
            count += n
    return 1.0 - (total / count) / base_mae


# ------------------------------------------------------------------ #
# gates
# ------------------------------------------------------------------ #


def test_01_acyclicity_functional_agrees_with_dfs_oracle():
    start = time.perf_counter()
    off_diag = [(i, j) for i in range(3) for j in range(3) if i != j]
    for bits in itertools.product((0.0, 1.0), repeat=6):
        b = np.zeros((3, 3))
        for (i, j), bit in zip(off_diag, bits):
            b[i, j] = bit
        h = notears_h(b)
        if has_cycle(b):
            assert h >= 1e-4, f"cyclic 3-node support scored h={h:.3e}"
        else:
            assert h <= 1e-9, f"acyclic 3-node support scored h={h:.3e}"
    rng = np.random.default_rng(17)
    for _ in range(200):
        b = (rng.random((6, 6)) < rng.uniform(0.1, 0.5)).astype(float)
        np.fill_diagonal(b, 0.0)
        h = notears_h(b)
        if has_cycle(b):
            assert h >= 1e-4, f"cyclic 6-node support scored h={h:.3e}"
        else:
            assert h <= 1e-9, f"acyclic 6-node support scored h={h:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"acyclicity sweep took {elapsed:.2f}s, budget 5s"


def test_02_two_cycle_constraint_matches_analytic_value():
    expected = 2.0 * math.cosh(1.0) - 2.0
    assert abs(notears_h(np.array([[0.0, 1.0], [1.0, 0.0]])) - expected) < 1e-6


def test_03_gradient_suite_passes_on_every_trainable_operation():
    start = time.perf_counter()
    reports = gradient_suite()
    elapsed = time.perf_counter() - start
    names = {r.op_name for r in reports}
    required = {
        "msdot",
        "gru_step",
        "graph_head_logits",
        "graph_head_train",
        "gconv_spectral",
        "gconv_spatial",
        "sem_reconstruct",
        "notears_h",
        "grcsl_loss_full",
        "grcsl_loss_float32",
    }
    assert required <= names, f"missing checks: {sorted(required - names)}"
    worst = max(reports, key=lambda r: r.max_rel_error)
    assert all(r.ok(1e-4) for r in reports), (
        f"worst gradient check {worst.op_name}: max rel error {worst.max_rel_error:.3e}"
    )
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s, budget 2 min"


def test_04a_structure_training_drives_constraint_sum_below_tolerance(structure):
    assert structure.elapsed < 1800.0, f"structure training took {structure.elapsed:.0f}s"
    assert structure.result.final_s < XI, (
        f"constraint sum at termination {structure.result.final_s:.3e} >= {XI:.0e}"
    )


def test_04b_thresholded_intra_graphs_are_dags_on_all_windows(structure):
    total = cyclic = 0
    for seq in structure.seqs:
        for step in range(seq.intra.shape[0]):
            total += 1
            if has_cycle((seq.intra[step] > 0.5).astype(float)):
                cyclic += 1
    assert total > 0
    assert cyclic == 0, f"{cyclic}/{total} thresholded lag-0 graphs contain a cycle"


def test_04c_per_lag_edge_f1_beats_three_times_random_baseline(bench, structure):
    score = score_recovery(structure.seqs, bench.truth, threshold=0.5)
    regimes = bench.truth.intra.shape[0]
    budget = {
        0: float(np.mean([(bench.truth.intra[r] != 0).sum() for r in range(regimes)])),
        1: float(np.mean([(bench.truth.inter[r] != 0).sum() for r in range(regimes)])),
    }
    base = random_recovery_baseline(bench.truth, budget, draws=100, seed=7)
    detail = (
        f"lag-0 F1 {score.lag0.f1:.3f} vs bar {3 * base[0]:.3f} "
        f"(baseline {base[0]:.3f}, mean predicted edges {score.lag0.mean_predicted_edges:.1f}); "
        f"lag-1 F1 {score.lag1.f1:.3f} vs bar {3 * base[1]:.3f} "
        f"(baseline {base[1]:.3f}, mean predicted edges {score.lag1.mean_predicted_edges:.1f})"
    )
    assert score.lag0.f1 >= 3 * base[0] and score.lag1.f1 >= 3 * base[1], detail


def test_05_augmented_lagrangian_history_follows_escalation_rule(structure):
    history = structure.result.history
    assert history, "empty training history"
    assert history[0]["rho"] == pytest.approx(1e-3)  # first update never escalates
    for prev, cur in zip(history, history[1:]):
        assert cur["rho"] >= prev["rho"], "penalty shrank"
        assert cur["alpha"] >= prev["alpha"], "multiplier shrank"
        expected = prev["rho"] * (10.0 if cur["S"] > 0.5 * prev["S"] else 1.0)
        assert cur["rho"] == pytest.approx(expected), (
            f"outer {cur['outer_iter']}: rho {cur['rho']:.3e} after S "
            f"{prev['S']:.3e} -> {cur['S']:.3e}, expected {expected:.3e}"
        )
    assert history[-1]["S"] < XI


def test_06a_curriculum_schedule_reaches_full_horizon(forecast):
    result, _, cfg = forecast
    horizons = [row["horizon_limit"] for row in result.history]
    for row in result.history:
        expected = min(T_OUT, 1 + (row["epoch"] - 1) // cfg.curriculum_step)
        assert row["horizon_limit"] == expected
    assert max(horizons) == T_OUT, f"curriculum stopped at horizon {max(horizons)}"


def test_06b_forecaster_beats_node_mean_baseline_by_thirty_percent(forecast_bench, forecast):
    result, base_mae, _ = forecast
    ceiling = oracle_improvement(forecast_bench, base_mae)
    assert ceiling >= CEILING_FLOOR, (
        f"the conditional-mean oracle improves on the per-node-mean baseline by only "
        f"{ceiling:+.1%} on the forecasting series, below {CEILING_FLOOR:.0%}: the series "
        f"leaves too little predictable signal to test a 30% gate"
    )
    improvement = 1.0 - result.best_val_mae / base_mae
    assert improvement >= 0.30, (
        f"validation masked MAE {result.best_val_mae:.4f} vs per-node-mean baseline "
        f"{base_mae:.4f}: improvement {improvement:+.1%} is below the 30% gate "
        f"(conditional-mean oracle ceiling {ceiling:+.1%})"
    )


def test_07_operators_match_naive_loop_nest_references():
    rng = np.random.default_rng(23)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 6))
        d_in = int(rng.integers(1, 5))
        width = int(rng.integers(2, 6))
        layers = int(rng.integers(0, 3))
        gp = GconvParams.init(rng, d_in, width, layers)
        thetas = [t.data for t in gp.theta]
        x = rng.standard_normal((n, d_in))
        sym = rng.random((n, n))
        sym = 0.5 * (sym + sym.T)
        directed = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        got = gconv_spectral(Tensor(x), sym, gp).data
        worst = max(worst, float(np.abs(got - loop_spectral(x, sym, thetas)).max()))
        got = gconv_spatial(Tensor(x), Tensor(directed), gp).data
        worst = max(worst, float(np.abs(got - loop_spatial(x, directed, thetas)).max()))

        gp2 = GconvParams.init(rng, width, width, layers)  # consumes the carried features
        intra = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(intra, 0.0)
        inter = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        got = dygconv(Tensor(x), Tensor(intra), Tensor(inter), gp, gp2).data
        naive = loop_dygconv(x, intra, inter, thetas, [t.data for t in gp2.theta])
        worst = max(worst, float(np.abs(got - naive).max()))

        d_c, d_h, pairs = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        steps = int(rng.integers(2, 5))
        shapes = [(d_c, d_h), (d_h, d_h), (d_h,)] * 3
        arrays = [[rng.standard_normal(s) for s in shapes] for _ in range(2)]  # one cell per lag
        c = rng.standard_normal((2, steps, pairs, d_c))
        hidden = rng.standard_normal((2, pairs, d_h))
        gates = (slice(0, 9, 3), slice(1, 5, 3), 7, slice(2, 9, 3))  # GruCells' w_c, w_h, w_hh and b
        cells = GruCells(*(Tensor(np.array([lag[i] for lag in arrays])) for i in gates))
        got = gru_step(Tensor(c), Tensor(hidden), cells).data
        for lag in range(2):
            h = hidden[lag]
            for j in range(steps):
                h = loop_gru(c[lag, j], h, arrays[lag])
                worst = max(worst, float(np.abs(got[lag, j] - h).max()))

        t_in, t_out = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        dims = DgcpmDims(
            t_in=t_in,
            t_out=t_out,
            dy_width=int(rng.integers(2, 5)),
            prior_width=int(rng.integers(2, 5)),
            gconv_layers=int(rng.integers(0, 3)),
            use_prior=bool(case % 2),
        )
        params = DgcpmParams.init(rng, dims)
        b = 2
        values = rng.standard_normal((b, t_in, n, 1))
        tod = rng.random((b, t_in, n, 1))
        g_intra = rng.random((b, t_in - 1, n, n)) * 0.5
        g_intra[..., np.arange(n), np.arange(n)] = 0.0
        g_inter = rng.random((b, t_in - 1, n, n)) * 0.5
        prior = sym if dims.use_prior else None
        got = dgcpm_forward_batch(values, tod, g_intra, g_inter, prior, params).data
        for k in range(b):
            naive = loop_dgcpm(values[k], tod[k], g_intra[k], g_inter[k], prior, params)
            worst = max(worst, float(np.abs(got[k] - naive).max()))
    assert worst <= 1e-12, f"worst operator deviation {worst:.3e} exceeds 1e-12"


def test_08_error_metrics_match_hand_computed_fixture():
    preds = np.array([[[1.0], [2.0], [9.0]]])
    actuals = np.array([[[2.0], [4.0], [1.0]]])
    valid = np.array([[[True], [True], [False]]])
    report = evaluate(preds, actuals, valid, horizons=[1, 2])
    assert report.overall.mae == pytest.approx(1.5)
    assert report.overall.rmse == pytest.approx(math.sqrt(2.5))
    assert report.overall.mape == pytest.approx(50.0)
    # invalid cells must not influence anything
    perturbed = preds.copy()
    perturbed[0, 2, 0] = -4444.0
    again = evaluate(perturbed, actuals, valid, horizons=[1, 2])
    assert again.overall.mae == report.overall.mae
    assert again.overall.rmse == report.overall.rmse
    assert again.overall.mape == report.overall.mape
    for h in (1, 2):
        assert again.per_horizon[h].mae == report.per_horizon[h].mae


TINY = """
out_dir={out}
synth_n=4
synth_t=240
synth_regimes=2
synth_density=0.3
synth_noise_std=0.1
t_in=6
t_out=3
stride=3
heads=2
d_att=4
h_r=6
d_s=3
h_m=6
sem_width=6
gconv_layers=1
dy_width=4
prior_width=4
inner_epochs=1
max_outer_iters=2
structure_batch=16
forecast_epochs=3
forecast_batch=16
patience=10
horizons=1,2,3
seed=11
"""


def test_09_fixed_seed_reproduces_byte_identical_artifacts(tmp_path):
    def run(out):
        out.mkdir()
        cfg = out / "run.cfg"
        cfg.write_text(TINY.format(out=out))
        base = ["--config", str(cfg)]
        data = ["--speed-csv", str(out / "speed.csv"), "--dist-csv", str(out / "dist.csv")]
        for command in ("synth", "train-structure", "export-graphs", "train-forecast", "predict"):
            flags = base if command == "synth" else base + data
            assert main([command, *flags]) == 0, command
        return out

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    for name in ("history.csv", "graphs.csv", "forecast_history.csv", "forecasts.csv"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between identically-seeded runs"
