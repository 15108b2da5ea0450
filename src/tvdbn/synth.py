"""Synthetic ground-truth generators and structure-recovery scoring.

A ground truth is a piecewise-constant pair of weighted graphs: per regime,
a lag-0 DAG (drawn as a strictly triangular matrix under a random node
permutation) and an unconstrained lag-1 graph. Simulation substitutes in
topological order within each tick, then carries lag-1 effects forward.
Regimes split the horizon into equal segments.

Weights are signed with magnitudes bounded away from zero, and each regime
is redrawn until the companion matrix (I - B0)^-1 B1 has spectral radius at
most `max_radius`, so trajectories never blow up.

Scoring binarizes estimated graphs at a threshold and compares per-lag
supports against the active regime's truth, reporting precision, recall,
F1, and structural Hamming distance averaged over regimes, plus a
matched-density Monte-Carlo random baseline to calibrate F1 against.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .checkpoint import _read, _write
from .data import SpeedSeries, TICK_SECONDS, write_table
from .errors import ConfigError, DataError
from .grcsl import EDGE_CSV_HEADER, CausalGraphSeq


@dataclass
class GroundTruthTvdbn:
    """Per-regime weighted graph pairs plus the regime schedule.

    intra[r] / inter[r] are (N, N); entry (i, j) is the weight of edge
    j -> i. boundaries has R + 1 entries: regime r is active on ticks
    [boundaries[r], boundaries[r+1]).
    """

    intra: np.ndarray  # (R, N, N)
    inter: np.ndarray  # (R, N, N)
    boundaries: np.ndarray  # (R + 1,) int
    noise_std: float
    seed: int = 0

    def __post_init__(self):
        self.intra = np.asarray(self.intra, dtype=np.float64)
        self.inter = np.asarray(self.inter, dtype=np.float64)
        self.boundaries = np.asarray(self.boundaries, dtype=np.int64)
        if self.intra.shape != self.inter.shape or self.intra.ndim != 3:
            raise DataError("truth graph stacks must share shape (R, N, N)")
        b = self.boundaries
        if b.shape != (self.intra.shape[0] + 1,) or b[0] != 0 or np.any(np.diff(b) <= 0):
            raise DataError(f"boundaries must be R + 1 ticks rising strictly from 0, got {b}")

    @property
    def num_regimes(self) -> int:
        return self.intra.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.intra.shape[-1]

    @property
    def length(self) -> int:
        return int(self.boundaries[-1])

    def regime_at(self, t: int | np.ndarray) -> int | np.ndarray:
        """Regime active at tick t: an int for one tick, an int array for an array of ticks."""
        ticks = np.asarray(t)
        outside = (ticks < 0) | (ticks >= self.length)
        if outside.any():
            raise DataError(f"tick {ticks[outside][0]} outside the truth's horizon [0, {self.length})")
        regimes = np.searchsorted(self.boundaries, ticks, side="right") - 1
        return int(regimes) if regimes.ndim == 0 else regimes


def topological_order(adjacency: np.ndarray) -> list[int]:
    """Kahn's algorithm on entry (i, j) = edge j -> i; raises on cycles."""
    support = np.asarray(adjacency) != 0
    n = support.shape[0]
    in_degree = support.sum(axis=1)
    ready = sorted(np.flatnonzero(in_degree == 0).tolist())
    order: list[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for child in np.flatnonzero(support[:, node]):
            in_degree[child] -= 1
            if in_degree[child] == 0:
                ready.append(int(child))
    if len(order) != n:
        raise DataError("lag-0 graph contains a cycle; cannot simulate by substitution")
    return order


def _spectral_radius(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(m)).max()) if m.size else 0.0


def sample_tvdbn(
    n: int,
    t: int,
    num_regimes: int,
    density: float,
    noise_std: float,
    weight_range: tuple[float, float] = (0.3, 0.8),
    seed: int = 0,
    max_radius: float = 0.95,
) -> GroundTruthTvdbn:
    """Draw a random ground truth with acyclic lag-0 supports per regime.

    Lag-0: a random node permutation orients Bernoulli(density) edges from
    earlier to later nodes, so the support is a DAG by construction. Lag-1:
    Bernoulli(density) over all slots. Weight magnitudes are uniform in
    weight_range with random signs; a regime is redrawn until its companion
    spectral radius is at most max_radius.
    """
    if n < 1 or t < 2 or num_regimes < 1:
        raise ConfigError("need n >= 1, t >= 2, num_regimes >= 1")
    if not 0.0 <= density <= 1.0:
        raise ConfigError(f"density must be in [0, 1], got {density}")
    lo, hi = weight_range
    if not 0.0 < lo <= hi:
        raise ConfigError(f"weight range must satisfy 0 < lo <= hi, got {weight_range}")
    if not 0.0 < max_radius < 1.0:
        raise ConfigError(f"max_radius must be in (0, 1), got {max_radius}")
    if noise_std < 0:
        raise ConfigError("noise_std must be non-negative")
    if t < num_regimes:
        raise ConfigError("horizon shorter than the regime count")

    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    intra = np.zeros((num_regimes, n, n))
    inter = np.zeros((num_regimes, n, n))
    for r in range(num_regimes):
        for attempt in range(1000):
            perm = rng.permutation(n)
            lower = np.tril(np.ones((n, n)), k=-1)  # child (later) row, parent (earlier) col
            support0 = (rng.random((n, n)) < density) * lower
            signs0 = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
            weights0 = rng.uniform(lo, hi, (n, n)) * signs0
            b0_ordered = support0 * weights0
            b0 = np.zeros((n, n))
            b0[np.ix_(perm, perm)] = b0_ordered
            support1 = rng.random((n, n)) < density
            signs1 = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
            b1 = support1 * rng.uniform(lo, hi, (n, n)) * signs1
            companion = np.linalg.solve(eye - b0, b1)
            if _spectral_radius(companion) <= max_radius:
                intra[r] = b0
                inter[r] = b1
                break
        else:
            raise ConfigError(
                f"could not draw a stable regime within 1000 attempts "
                f"(n={n}, density={density}, weights={weight_range})"
            )
    boundaries = np.array([(r * t) // num_regimes for r in range(num_regimes)] + [t], dtype=np.int64)
    return GroundTruthTvdbn(
        intra=intra, inter=inter, boundaries=boundaries, noise_std=noise_std, seed=seed
    )


def simulate_linear_sem(
    truth: GroundTruthTvdbn,
    seed: int | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate the piecewise linear SEM; returns (T, N) values.

    X_0 is pure noise; for t >= 1 each node is filled in topological order
    of the active regime's lag-0 DAG on top of the lag-1 carryover. Pass
    `noise` (T, N) to override the Gaussian draws (oracle tests).
    """
    t_len, n = truth.length, truth.num_nodes
    if noise is None:
        rng = np.random.default_rng(truth.seed + 1 if seed is None else seed)
        noise = rng.normal(0.0, truth.noise_std, size=(t_len, n))
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (t_len, n):
            raise DataError(f"noise must be (T, N) = ({t_len}, {n}), got {noise.shape}")
    orders = [topological_order(truth.intra[r]) for r in range(truth.num_regimes)]
    regimes = truth.regime_at(np.arange(t_len))
    x = np.zeros((t_len, n))
    x[0] = noise[0]
    for t in range(1, t_len):
        r = regimes[t]
        b0, b1 = truth.intra[r], truth.inter[r]
        drive = b1 @ x[t - 1] + noise[t]
        row = x[t]
        for i in orders[r]:
            row[i] = b0[i] @ row + drive[i]
    return x


# --------------------------------------------------------------------- #
# packaging into the data pipeline
# --------------------------------------------------------------------- #


def to_speed_series(
    values: np.ndarray,
    start_ts: int = 1330560000,  # 2012-03-01 00:00:00
    offset: float = 50.0,
    scale: float = 10.0,
) -> SpeedSeries:
    """Wrap simulated values as a speed-like series at 5-minute ticks.

    The affine map offset + scale * x keeps readings in a plausible speed
    range, clear of the literal-0.0 missing marker and of the relative-error
    denominator floor.
    """
    values = np.asarray(values, dtype=np.float64)
    t, n = values.shape
    speeds = offset + scale * values
    if np.any(speeds == 0.0):  # vanishing odds; nudge off the missing marker
        speeds = np.where(speeds == 0.0, 1e-9, speeds)
    ids = [f"s{i:03d}" for i in range(n)]
    timestamps = start_ts + TICK_SECONDS * np.arange(t, dtype=np.int64)
    return SpeedSeries(
        sensor_ids=ids,
        timestamps=timestamps,
        values=speeds,
        mask=np.ones((t, n), dtype=bool),
    )


def planar_distance_rows(
    sensor_ids: list[str], seed: int = 0, extent: float = 1000.0
) -> list[tuple[str, str, float]]:
    """Random planar sensor coordinates turned into all-pairs distances."""
    x, y = np.random.default_rng(seed).uniform(0.0, extent, size=(len(sensor_ids), 2)).T
    dist = np.hypot(x[:, None] - x, y[:, None] - y).tolist()
    return [(src, dst, d) for src, row in zip(sensor_ids, dist) for dst, d in zip(sensor_ids, row)]


# --------------------------------------------------------------------- #
# recovery scoring
# --------------------------------------------------------------------- #


@dataclass
class LagScore:
    precision: float
    recall: float
    f1: float
    shd: float
    mean_predicted_edges: float
    graphs: int


@dataclass
class RecoveryScore:
    """Per-lag recovery quality, averaged over regimes."""

    lag0: LagScore
    lag1: LagScore
    per_regime: dict = field(default_factory=dict)  # (regime, lag) -> LagScore

    @property
    def aggregate_f1(self) -> float:
        return 0.5 * (self.lag0.f1 + self.lag1.f1)


def structural_hamming_distance(est: np.ndarray, true: np.ndarray) -> int:
    """Edge insertions + deletions, a reversed pair counting once, summed over any leading axes."""
    est = np.asarray(est, dtype=bool)
    true = np.asarray(true, dtype=bool)
    extra = est & ~true
    missing = true & ~est
    reversals = int((extra & np.swapaxes(missing, -1, -2)).sum())
    return int(extra.sum()) + int(missing.sum()) - reversals


def _edge_scores(est: np.ndarray, true: np.ndarray, axis) -> tuple[np.ndarray, ...]:
    """Predicted edges, precision, recall and F1 of boolean graphs; no prediction is precision 1."""
    tp, fp, fn = ((a & b).sum(axis=axis) for a, b in ((est, true), (est, ~true), (~est, true)))
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 1.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 1.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    return tp + fp, precision, recall, f1


def score_recovery(
    seqs: list[CausalGraphSeq],
    truth: GroundTruthTvdbn,
    threshold: float = 0.5,
) -> RecoveryScore:
    """Compare estimated graph sequences against the active regime's truth.

    The graph pair at window step j describes the tick start_index + 1 + j;
    that tick's regime supplies the reference support. Counts are summed per
    (regime, lag), keyed in order of first appearance over windows then steps,
    and the headline numbers average the per-regime scores.
    """
    if not sum(seq.steps for seq in seqs):
        raise DataError("no estimated graphs to score")
    if any(seq.num_nodes != truth.num_nodes for seq in seqs):
        raise DataError("estimate and truth disagree on node count")
    # est[g, lag]: graph g's thresholded pair, over windows then steps.
    est = np.concatenate([np.stack([seq.intra > threshold, seq.inter > threshold], 1) for seq in seqs])
    ticks = np.concatenate([seq.start_index + 1 + np.arange(seq.steps) for seq in seqs])
    regimes = truth.regime_at(ticks)  # raises when misaligned
    per_regime: dict[tuple[int, int], LagScore] = {}
    first = np.sort(np.unique(regimes, return_index=True)[1])  # each regime's first graph, in list order
    for r in regimes[first].tolist():
        e, t = est[regimes == r], np.stack([truth.intra[r], truth.inter[r]]) != 0
        edges, precision, recall, f1 = _edge_scores(e, t, axis=(0, 2, 3))
        for lag in (0, 1):
            shd = structural_hamming_distance(e[:, lag], t[lag])
            per_regime[(r, lag)] = LagScore(
                float(precision[lag]), float(recall[lag]), float(f1[lag]),
                shd=shd / len(e), mean_predicted_edges=int(edges[lag]) / len(e), graphs=len(e),
            )

    def _average(lag: int) -> LagScore:
        scores = (s for (_, l), s in per_regime.items() if l == lag)
        *means, graphs = zip(*(astuple(s) for s in scores))  # one tuple per LagScore field
        return LagScore(*(float(np.mean(m)) for m in means), graphs=sum(graphs))

    return RecoveryScore(lag0=_average(0), lag1=_average(1), per_regime=per_regime)


def random_recovery_baseline(
    truth: GroundTruthTvdbn,
    edges_per_graph: dict[int, float],
    draws: int = 100,
    seed: int = 0,
) -> dict[int, float]:
    """Monte-Carlo F1 of random graphs matched to the estimate's edge budget.

    For each lag, draws random binary graphs with round(edges_per_graph[lag])
    edges placed uniformly over that lag's admissible slots (off-diagonal
    for lag 0) and scores them against each regime's truth. Returns the mean
    F1 per lag; at matched density this lands near the density itself.
    """
    rng = np.random.default_rng(seed)
    n = truth.num_nodes
    out: dict[int, float] = {}
    for lag, mean_edges in edges_per_graph.items():
        # Flat indices i * n + j of the admissible slots, in row-major order.
        slots = np.flatnonzero(~np.eye(n, dtype=bool)) if lag == 0 else np.arange(n * n)
        budget = max(0, min(int(round(mean_edges)), len(slots)))
        f1s = []
        for true in ((truth.intra if lag == 0 else truth.inter) != 0).reshape(-1, 1, n * n):
            est = np.zeros((draws, n * n), dtype=bool)  # one regime's draws, a flat graph per row
            if budget:
                for row in est:
                    row[slots[rng.choice(len(slots), size=budget, replace=False)]] = True
            f1s.append(_edge_scores(est, true, axis=1)[3])
        out[lag] = float(np.mean(np.concatenate(f1s)))
    return out


# --------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------- #


def export_truth_edges(
    path: str, truth: GroundTruthTvdbn, sensor_ids: list[str], start_ts: int
) -> None:
    """Write true edges in the estimated-graph CSV format, one row per edge.

    window_start_ts carries the regime's first tick timestamp and `step` the
    regime index; weights are the signed true coefficients.
    """
    regime_ts = start_ts + TICK_SECONDS * truth.boundaries
    rows = (
        (int(regime_ts[r]), r, lag, sensor_ids[j], sensor_ids[i], f"{graph[i, j]:.10g}")
        for r in range(truth.num_regimes)
        for lag, graph in ((0, truth.intra[r]), (1, truth.inter[r]))
        for i, j in zip(*np.nonzero(graph))
    )
    write_table(path, EDGE_CSV_HEADER, rows)


def save_truth(path: str, truth: GroundTruthTvdbn) -> None:
    """Write the ground truth atomically to exactly `path`, as a `truth` archive."""
    _write(
        path,
        "truth",
        intra=truth.intra,
        inter=truth.inter,
        boundaries=truth.boundaries,
        noise_std=np.array(truth.noise_std),
        seed=np.array(truth.seed),
    )


def load_truth(path: str) -> GroundTruthTvdbn:
    """Read a truth file; a missing, unreadable or foreign file is a DataError naming it."""
    blob = _read(path, "truth", "intra", "inter", "boundaries", "noise_std", "seed")
    return GroundTruthTvdbn(
        intra=blob["intra"],
        inter=blob["inter"],
        boundaries=blob["boundaries"],
        noise_std=float(blob["noise_std"]),
        seed=int(blob["seed"]),
    )
