"""Synthetic-truth generator and recovery-scoring tests."""

import csv

import numpy as np
import pytest

from tvdbn.data import TICK_SECONDS
from tvdbn.errors import ConfigError, DataError
from tvdbn.grcsl import CausalGraphSeq
from tvdbn.synth import (
    GroundTruthTvdbn,
    LagScore,
    RecoveryScore,
    export_truth_edges,
    load_truth,
    planar_distance_rows,
    random_recovery_baseline,
    sample_tvdbn,
    save_truth,
    score_recovery,
    simulate_linear_sem,
    structural_hamming_distance,
    to_speed_series,
    topological_order,
)


def single_regime(b0, b1, t=10, noise_std=0.0, seed=0):
    b0 = np.asarray(b0, dtype=float)
    return GroundTruthTvdbn(
        intra=b0[None],
        inter=np.asarray(b1, dtype=float)[None],
        boundaries=np.array([0, t]),
        noise_std=noise_std,
        seed=seed,
    )


# ------------------------------------------------------------------ #
# sampling
# ------------------------------------------------------------------ #


def test_sampled_edge_counts_match_the_density():
    # Lag 0 draws over the n(n-1)/2 strictly-triangular slots, lag 1 over
    # all n^2. Means over 100 seeds sit within ~4 sigma of the binomial
    # expectation (stability redraws can shave extreme draws).
    n, density = 10, 0.2
    counts0, counts1 = [], []
    for seed in range(100):
        truth = sample_tvdbn(n=n, t=50, num_regimes=1, density=density, noise_std=0.1, seed=seed)
        counts0.append(int((truth.intra[0] != 0).sum()))
        counts1.append(int((truth.inter[0] != 0).sum()))
    assert abs(np.mean(counts0) - density * 45) < 1.2
    assert abs(np.mean(counts1) - density * 100) < 1.7


def test_sampled_lag0_graphs_are_acyclic_with_zero_diagonal():
    for seed in range(20):
        truth = sample_tvdbn(n=8, t=40, num_regimes=2, density=0.3, noise_std=0.1, seed=seed)
        for r in range(truth.num_regimes):
            np.testing.assert_array_equal(np.diag(truth.intra[r]), 0.0)
            topological_order(truth.intra[r])  # raises on a cycle


def test_sampled_weights_stay_in_the_magnitude_band():
    truth = sample_tvdbn(
        n=10, t=50, num_regimes=2, density=0.4, noise_std=0.1,
        weight_range=(0.3, 0.8), seed=3,
    )
    for stack in (truth.intra, truth.inter):
        mags = np.abs(stack[stack != 0])
        assert mags.size > 0
        assert mags.min() >= 0.3 and mags.max() <= 0.8
        # signs are mixed
    assert (truth.inter > 0).any() and (truth.inter < 0).any()


def test_sampled_regimes_obey_the_companion_radius_bound():
    for seed in range(20):
        truth = sample_tvdbn(
            n=8, t=40, num_regimes=2, density=0.4, noise_std=0.1, seed=seed, max_radius=0.95
        )
        eye = np.eye(8)
        for r in range(truth.num_regimes):
            companion = np.linalg.solve(eye - truth.intra[r], truth.inter[r])
            # Gelfand estimate ||A^512||^(1/512) >= rho(A), independent of
            # eigvals; the slack absorbs the non-normal transient factor.
            power = companion.copy()
            for _ in range(9):
                power = power @ power
            radius = float(np.linalg.norm(power, 2)) ** (1.0 / 512.0)
            assert radius <= 0.97


def test_sampler_validation():
    with pytest.raises(ConfigError):
        sample_tvdbn(n=0, t=10, num_regimes=1, density=0.2, noise_std=0.1)
    with pytest.raises(ConfigError):
        sample_tvdbn(n=3, t=10, num_regimes=1, density=1.5, noise_std=0.1)
    with pytest.raises(ConfigError):
        sample_tvdbn(n=3, t=10, num_regimes=1, density=0.2, noise_std=-1.0)
    with pytest.raises(ConfigError):
        sample_tvdbn(n=3, t=10, num_regimes=1, density=0.2, noise_std=0.1, weight_range=(0.0, 0.5))
    with pytest.raises(ConfigError):
        sample_tvdbn(n=3, t=2, num_regimes=3, density=0.2, noise_std=0.1)


def test_regime_boundaries_split_the_horizon_evenly():
    truth = sample_tvdbn(n=3, t=100, num_regimes=4, density=0.2, noise_std=0.1)
    np.testing.assert_array_equal(truth.boundaries, [0, 25, 50, 75, 100])
    assert truth.regime_at(0) == 0
    assert truth.regime_at(24) == 0
    assert truth.regime_at(25) == 1
    assert truth.regime_at(99) == 3
    with pytest.raises(DataError):
        truth.regime_at(100)
    with pytest.raises(DataError):
        truth.regime_at(-1)


def test_regime_lookup_takes_an_array_of_ticks():
    truth = sample_tvdbn(n=3, t=100, num_regimes=4, density=0.2, noise_std=0.1)
    ticks = np.array([[99, 0, 25], [24, 50, 74]])
    regimes = truth.regime_at(ticks)
    np.testing.assert_array_equal(regimes, [[3, 0, 1], [0, 2, 2]])
    assert regimes.tolist() == [[truth.regime_at(int(t)) for t in row] for row in ticks]
    assert isinstance(truth.regime_at(25), int)
    assert truth.regime_at(np.arange(0)).shape == (0,)
    with pytest.raises(DataError, match="tick 100"):
        truth.regime_at(np.array([3, 100, 7]))
    with pytest.raises(DataError, match="tick -2"):
        truth.regime_at([-2, 5])


def test_boundaries_must_start_at_zero_and_strictly_increase(tmp_path):
    graphs = np.zeros((3, 2, 2))
    for boundaries in ([0, 10, 5, 20], [3, 10, 20, 30], [0, 10, 10, 20]):
        with pytest.raises(DataError, match="boundaries"):
            GroundTruthTvdbn(intra=graphs, inter=graphs, boundaries=boundaries, noise_std=0.1)
    # A truth file on disk is checked the same way when it is read back.
    path = tmp_path / "truth.npz"
    save_truth(str(path), GroundTruthTvdbn(graphs, graphs, np.array([0, 5, 10, 20]), noise_std=0.1))
    with np.load(str(path)) as blob:
        bad = {k: blob[k] for k in blob.files}
    bad["boundaries"] = np.array([0, 10, 5, 20])
    np.savez(str(path), **bad)
    with pytest.raises(DataError, match="boundaries"):
        load_truth(str(path))


# ------------------------------------------------------------------ #
# simulation
# ------------------------------------------------------------------ #


def test_topological_order_puts_parents_before_children():
    # diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 with entry (child, parent)
    b = np.zeros((4, 4))
    b[1, 0] = b[2, 0] = b[3, 1] = b[3, 2] = 1.0
    order = topological_order(b)
    assert sorted(order) == [0, 1, 2, 3]
    pos = {node: k for k, node in enumerate(order)}
    for child, parent in zip(*np.nonzero(b)):
        assert pos[parent] < pos[child]


def test_topological_order_rejects_cycles():
    with pytest.raises(DataError):
        topological_order(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_empty_truth_reproduces_the_noise_exactly():
    truth = single_regime(np.zeros((3, 3)), np.zeros((3, 3)), t=7)
    noise = np.arange(21, dtype=float).reshape(7, 3)
    x = simulate_linear_sem(truth, noise=noise)
    np.testing.assert_array_equal(x, noise)


def test_empty_truth_long_run_noise_std():
    truth = sample_tvdbn(n=5, t=10_000, num_regimes=1, density=0.0, noise_std=0.1, seed=2)
    x = simulate_linear_sem(truth)
    assert abs(x.std() - 0.1) < 0.005  # within 5%


def test_single_lag1_edge_closed_form():
    # only B1[2][1] = 0.5 with unit noise: node 1 stays 1, node 2 becomes
    # 1 + 0.5 * 1 = 1.5 from t=1 on.
    b1 = np.zeros((3, 3))
    b1[2, 1] = 0.5
    truth = single_regime(np.zeros((3, 3)), b1, t=5)
    x = simulate_linear_sem(truth, noise=np.ones((5, 3)))
    np.testing.assert_array_equal(x[:, 0], 1.0)
    np.testing.assert_array_equal(x[:, 1], 1.0)
    np.testing.assert_array_equal(x[0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(x[1:, 2], 1.5)


def test_single_lag0_edge_closed_form():
    # only B0[1][0] = 0.7: within each tick from t=1 on, node 1 reads
    # 0.7 * node0 + noise. The first tick is raw noise.
    b0 = np.zeros((2, 2))
    b0[1, 0] = 0.7
    truth = single_regime(b0, np.zeros((2, 2)), t=4)
    x = simulate_linear_sem(truth, noise=np.ones((4, 2)))
    np.testing.assert_array_equal(x[0], [1.0, 1.0])
    np.testing.assert_allclose(x[1:], np.tile([1.0, 1.7], (3, 1)))


def test_chained_lag0_edges_substitute_in_topological_order():
    # 0 -> 1 -> 2 within the tick: x2 = 0.5 * (0.5 * 1 + 1) + 1 = 1.75.
    b0 = np.zeros((3, 3))
    b0[1, 0] = 0.5
    b0[2, 1] = 0.5
    truth = single_regime(b0, np.zeros((3, 3)), t=3)
    x = simulate_linear_sem(truth, noise=np.ones((3, 3)))
    np.testing.assert_allclose(x[1:], np.tile([1.0, 1.5, 1.75], (2, 1)))


def test_simulation_rejects_cyclic_truth_and_bad_noise_shape():
    cyclic = single_regime([[0.0, 0.5], [0.5, 0.0]], np.zeros((2, 2)), t=3)
    with pytest.raises(DataError):
        simulate_linear_sem(cyclic)
    ok = single_regime(np.zeros((2, 2)), np.zeros((2, 2)), t=3)
    with pytest.raises(DataError):
        simulate_linear_sem(ok, noise=np.ones((2, 2)))


def test_regime_switch_changes_the_generating_graph():
    intra = np.zeros((2, 2, 2))
    inter = np.zeros((2, 2, 2))
    inter[1, 1, 0] = 0.5  # second regime only: node 1 gets 0.5 * prev node 0
    truth = GroundTruthTvdbn(
        intra=intra, inter=inter, boundaries=np.array([0, 3, 6]), noise_std=0.0
    )
    x = simulate_linear_sem(truth, noise=np.ones((6, 2)))
    np.testing.assert_array_equal(x[:3, 1], 1.0)  # regime 0: no edge
    np.testing.assert_array_equal(x[3:, 1], 1.5)  # regime 1: edge active


def test_long_simulation_stays_bounded():
    truth = sample_tvdbn(n=6, t=5000, num_regimes=2, density=0.3, noise_std=0.1, seed=1)
    x = simulate_linear_sem(truth)
    assert np.isfinite(x).all()
    assert np.abs(x).max() < 10.0


# ------------------------------------------------------------------ #
# packaging
# ------------------------------------------------------------------ #


def test_to_speed_series_applies_the_affine_map():
    x = np.array([[0.0, 1.0], [-1.0, 2.0]])
    series = to_speed_series(x, start_ts=1000, offset=50.0, scale=10.0)
    np.testing.assert_array_equal(series.values, [[50.0, 60.0], [40.0, 70.0]])
    np.testing.assert_array_equal(series.timestamps, [1000, 1000 + TICK_SECONDS])
    assert series.sensor_ids == ["s000", "s001"]
    assert series.mask.all()


def test_planar_distances_are_symmetric_with_zero_diagonal():
    rows = planar_distance_rows(["a", "b", "c"], seed=1)
    assert len(rows) == 9
    d = {(src, dst): w for src, dst, w in rows}
    for i in "abc":
        assert d[(i, i)] == 0.0
        for j in "abc":
            assert d[(i, j)] == pytest.approx(d[(j, i)])


# ------------------------------------------------------------------ #
# scoring
# ------------------------------------------------------------------ #


def test_shd_counts_insertions_deletions_and_reversals():
    true = np.zeros((3, 3), dtype=bool)
    true[1, 0] = True  # edge 0 -> 1
    same = true.copy()
    assert structural_hamming_distance(same, true) == 0
    extra = true.copy()
    extra[2, 0] = True
    assert structural_hamming_distance(extra, true) == 1
    missing = np.zeros((3, 3), dtype=bool)
    assert structural_hamming_distance(missing, true) == 1
    reversed_ = np.zeros((3, 3), dtype=bool)
    reversed_[0, 1] = True  # 1 -> 0: one reversal, not two errors
    assert structural_hamming_distance(reversed_, true) == 1
    both = reversed_.copy()
    both[2, 1] = True
    assert structural_hamming_distance(both, true) == 2


def seq_from(intra, inter, start_index=0, start_ts=0):
    return CausalGraphSeq(
        intra=np.asarray(intra, dtype=float),
        inter=np.asarray(inter, dtype=float),
        start_index=start_index,
        start_ts=start_ts,
    )


def test_perfect_recovery_scores_one():
    b0 = np.zeros((3, 3))
    b0[0, 1] = 0.6
    b1 = np.zeros((3, 3))
    b1[2, 2] = -0.4
    truth = single_regime(b0, b1, t=10)
    est0 = (b0 != 0).astype(float)
    est1 = (b1 != 0).astype(float)
    seq = seq_from(np.stack([est0, est0]), np.stack([est1, est1]))
    score = score_recovery([seq], truth)
    for lag in (score.lag0, score.lag1):
        assert lag.precision == lag.recall == lag.f1 == 1.0
        assert lag.shd == 0.0
        assert lag.graphs == 2
    assert score.aggregate_f1 == 1.0
    assert score.lag0.mean_predicted_edges == 1.0


def test_empty_prediction_has_vacuous_precision_and_zero_recall():
    b0 = np.zeros((3, 3))
    b0[0, 1] = b0[0, 2] = 0.5
    truth = single_regime(b0, np.zeros((3, 3)), t=10)
    seq = seq_from(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))
    score = score_recovery([seq], truth)
    assert score.lag0.precision == 1.0  # no predictions, no false alarms
    assert score.lag0.recall == 0.0
    assert score.lag0.f1 == 0.0
    assert score.lag0.shd == 2.0  # both true edges missing, per graph
    # lag 1 truth is empty too: empty prediction is exactly right
    assert score.lag1.f1 == 1.0 and score.lag1.shd == 0.0


def test_scores_average_over_regimes():
    intra = np.zeros((2, 2, 2))
    intra[0, 1, 0] = 0.5  # regime 0 has the edge, regime 1 does not
    truth = GroundTruthTvdbn(
        intra=intra, inter=np.zeros((2, 2, 2)), boundaries=np.array([0, 5, 10]),
        noise_std=0.0,
    )
    est = np.zeros((1, 2, 2))
    est[0, 1, 0] = 1.0
    # window steps index ticks start_index + 1 + j
    in_r0 = seq_from(est, np.zeros((1, 2, 2)), start_index=2)  # tick 3
    in_r1 = seq_from(est, np.zeros((1, 2, 2)), start_index=6)  # tick 7
    score = score_recovery([in_r0, in_r1], truth)
    # regime 0: f1 = 1; regime 1: the edge is a false alarm, f1 = 0
    assert score.per_regime[(0, 0)].f1 == 1.0
    assert score.per_regime[(1, 0)].f1 == 0.0
    assert score.lag0.f1 == 0.5


def test_scoring_validates_alignment_and_node_count():
    truth = single_regime(np.zeros((3, 3)), np.zeros((3, 3)), t=4)
    beyond = seq_from(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), start_index=2)
    with pytest.raises(DataError):
        score_recovery([beyond], truth)  # tick 5 outside the horizon
    wrong_n = seq_from(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(DataError):
        score_recovery([wrong_n], truth)
    with pytest.raises(DataError):
        score_recovery([], truth)


def test_threshold_binarizes_estimates():
    b0 = np.zeros((2, 2))
    b0[1, 0] = 0.9
    truth = single_regime(b0, np.zeros((2, 2)), t=5)
    est = np.zeros((1, 2, 2))
    est[0, 1, 0] = 0.45
    seq = seq_from(est, np.zeros((1, 2, 2)))
    assert score_recovery([seq], truth, threshold=0.5).lag0.recall == 0.0
    assert score_recovery([seq], truth, threshold=0.4).lag0.recall == 1.0


def reference_score(seqs, truth, threshold=0.5):
    """The per-(window, step, lag) loop that score_recovery's array form replaced."""

    def counts(tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp > 0 else 1.0
        recall = tp / (tp + fn) if tp + fn > 0 else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return precision, recall, f1

    buckets = {}
    for seq in seqs:
        for j in range(seq.steps):
            regime = truth.regime_at(seq.start_index + 1 + j)
            for lag, est_graph, true_graph in (
                (0, seq.intra[j], truth.intra[regime]),
                (1, seq.inter[j], truth.inter[regime]),
            ):
                est, true = est_graph > threshold, true_graph != 0
                b = buckets.setdefault((regime, lag), dict.fromkeys(("tp", "fp", "fn", "shd", "n", "e"), 0))
                b["tp"] += int((est & true).sum())
                b["fp"] += int((est & ~true).sum())
                b["fn"] += int((~est & true).sum())
                b["shd"] += structural_hamming_distance(est, true)
                b["e"] += int(est.sum())
                b["n"] += 1
    per_regime = {
        key: LagScore(*counts(b["tp"], b["fp"], b["fn"]), b["shd"] / b["n"], b["e"] / b["n"], b["n"])
        for key, b in buckets.items()
    }
    heads = []
    for lag in (0, 1):
        scores = [s for (_, l), s in per_regime.items() if l == lag]
        heads.append(LagScore(
            precision=float(np.mean([s.precision for s in scores])),
            recall=float(np.mean([s.recall for s in scores])),
            f1=float(np.mean([s.f1 for s in scores])),
            shd=float(np.mean([s.shd for s in scores])),
            mean_predicted_edges=float(np.mean([s.mean_predicted_edges for s in scores])),
            graphs=int(sum(s.graphs for s in scores)),
        ))
    return RecoveryScore(lag0=heads[0], lag1=heads[1], per_regime=per_regime)


@pytest.mark.parametrize("seed", range(6))
def test_array_scoring_equals_the_per_graph_loop(seed):
    # Truths of one to five regimes; windows out of chronological order, and on
    # odd seeds mixed step counts, empty sequences included.
    rng = np.random.default_rng(seed)
    n, t, regimes = int(rng.integers(3, 9)), 120, int(rng.integers(1, 6))
    truth = sample_tvdbn(n=n, t=t, num_regimes=regimes, density=0.3, noise_std=0.1, seed=seed)
    seqs = []
    for start in rng.permutation(np.arange(0, t - 12, int(rng.integers(1, 5)))):
        steps = int(rng.integers(0, 12)) if seed % 2 else 11
        intra, inter = rng.random((steps, n, n)), rng.random((steps, n, n))
        intra[:, np.arange(n), np.arange(n)] = 0.0
        seqs.append(seq_from(intra, inter, start_index=int(start)))
    for threshold in (0.3, 0.5, 0.9):
        got, want = score_recovery(seqs, truth, threshold), reference_score(seqs, truth, threshold)
        assert got == want
        # repr also pins the per_regime key order and plain floats over numpy scalars
        assert repr(got) == repr(want)


def test_random_baseline_sits_near_the_density():
    # At an edge budget matching the truth's density, the expected F1 of a
    # uniform random graph is close to the density itself.
    truth = sample_tvdbn(n=10, t=100, num_regimes=1, density=0.2, noise_std=0.1, seed=0)
    true0 = int((truth.intra[0] != 0).sum())
    true1 = int((truth.inter[0] != 0).sum())
    base = random_recovery_baseline(truth, {0: float(true0), 1: float(true1)}, draws=200, seed=1)
    assert 0.04 < base[0] < 0.18
    assert 0.12 < base[1] < 0.30


def test_random_baseline_is_pinned_at_a_fixed_truth_and_seed():
    # The values of the slot-list implementation this one replaced: the same
    # rng.choice call per draw picks the same slots, so 04c's bars stay put.
    truth = sample_tvdbn(n=6, t=60, num_regimes=2, density=0.3, noise_std=0.1, seed=4)
    base = random_recovery_baseline(truth, {0: 4.4, 1: 9.0}, draws=25, seed=3)
    assert base == {0: 0.1442857142857143, 1: 0.26152173913043475}


def test_random_baseline_zero_budget_draws_nothing_from_the_stream():
    # A lag-0 budget of 0 makes no rng.choice call, so lag 1 scores exactly as it
    # does alone; values of the per-draw loop this one replaced.
    truth = sample_tvdbn(n=6, t=60, num_regimes=2, density=0.3, noise_std=0.1, seed=4)
    base = random_recovery_baseline(truth, {0: 0.0, 1: 9.0}, draws=25, seed=3)
    assert base == {0: 0.0, 1: 0.22793478260869565}
    assert random_recovery_baseline(truth, {1: 9.0}, draws=25, seed=3) == {1: base[1]}


def test_random_baseline_zero_budget_scores_zero():
    truth = sample_tvdbn(n=5, t=50, num_regimes=1, density=0.3, noise_std=0.1, seed=0)
    base = random_recovery_baseline(truth, {0: 0.0, 1: 0.0}, draws=10)
    assert base[0] == 0.0 and base[1] == 0.0


# ------------------------------------------------------------------ #
# persistence
# ------------------------------------------------------------------ #


def test_truth_round_trips_through_npz(tmp_path):
    truth = sample_tvdbn(n=4, t=30, num_regimes=2, density=0.3, noise_std=0.2, seed=9)
    path = tmp_path / "truth.npz"
    save_truth(str(path), truth)
    back = load_truth(str(path))
    np.testing.assert_array_equal(back.intra, truth.intra)
    np.testing.assert_array_equal(back.inter, truth.inter)
    np.testing.assert_array_equal(back.boundaries, truth.boundaries)
    assert back.noise_std == truth.noise_std
    assert back.seed == truth.seed
    assert [p.name for p in tmp_path.iterdir()] == ["truth.npz"]  # no temporary left behind


def test_missing_or_truncated_truth_file_is_a_data_error_naming_it(tmp_path):
    path = tmp_path / "truth.npz"
    with pytest.raises(DataError, match="truth.npz"):
        load_truth(str(path))
    save_truth(str(path), sample_tvdbn(n=3, t=20, num_regimes=1, density=0.2, noise_std=0.1))
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(DataError, match="truth.npz"):
        load_truth(str(path))


def test_truth_loader_rejects_unknown_versions(tmp_path):
    truth = sample_tvdbn(n=3, t=20, num_regimes=1, density=0.2, noise_std=0.1)
    path = tmp_path / "truth.npz"
    save_truth(str(path), truth)
    with np.load(str(path)) as blob:
        bad = {k: blob[k] for k in blob.files}
    bad["version"] = np.array(999)
    np.savez(str(path), **bad)
    with pytest.raises(DataError):
        load_truth(str(path))


def test_export_truth_edges_lists_signed_weights(tmp_path):
    b0 = np.zeros((2, 2))
    b0[1, 0] = -0.5
    b1 = np.zeros((2, 2))
    b1[0, 0] = 0.7
    truth = single_regime(b0, b1, t=6)
    path = tmp_path / "truth_edges.csv"
    export_truth_edges(str(path), truth, ["a", "b"], start_ts=2000)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["window_start_ts", "step", "lag", "src_id", "dst_id", "weight"]
    assert rows[1] == ["2000", "0", "0", "a", "b", "-0.5"]
    assert rows[2] == ["2000", "0", "1", "a", "a", "0.7"]
