"""Dynamic graph-convolutional forecaster over learned causal graphs.

Each window step propagates the previous tick's features (reading and time
of day) through the step's lag-1 then lag-0 graph (self-loops added), and
in parallel smooths the current reading over the fixed prior graph. The
per-step embeddings lie along the window's step axis, which every graph
convolution runs over in one pass, and a single shared readout matrix maps
every node's stacked history to its full forecast horizon.

Training is curricular: the masked-MAE loss sees one horizon step at first
and one more every few epochs until the full horizon is covered, after
which early stopping on validation MAE takes over. That MAE is the overall
MAE of `metrics.evaluate` on `predict`'s forecast of the validation split,
so early stopping minimizes exactly what the report shows. The graph
generator is frozen throughout: graphs are produced once, in eval mode, per
window.
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .data import NormStats, SpeedSeries, WindowSet, check_window_geometry, invert_zscore, read_table, write_table
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .graphops import GconvParams, dygconv, gconv_spectral
from .metrics import evaluate
from .numerics import Adam, Params, Tensor, concat, glorot_uniform, no_grad, peak_rss_mb

log = logging.getLogger(__name__)

FORECAST_CSV_HEADER = ["window_start_ts", "horizon_step", "sensor_id", "predicted", "actual", "valid"]
_FORECAST_CELL = np.dtype(
    [("ts", "i8"), ("h", "i8"), ("sensor", "i8"), ("pred", "f8"), ("actual", "f8"), ("valid", "?")]
)


@dataclass(frozen=True)
class DgcpmDims:
    """Width configuration of the forecaster, checked when built."""

    t_in: int = 12
    t_out: int = 12
    dy_width: int = 16
    prior_width: int = 16
    gconv_layers: int = 2
    use_prior: bool = True

    @property
    def fused_width(self) -> int:
        return self.dy_width + (self.prior_width if self.use_prior else 0)

    def __post_init__(self) -> None:
        check_window_geometry(self.t_in, self.t_out)
        if self.dy_width < 1 or (self.use_prior and self.prior_width < 1):
            raise ConfigError("widths must be >= 1")


@dataclass
class DgcpmParams(Params):
    """All trainable weights of the forecaster."""

    dims: DgcpmDims
    dy_inter: GconvParams
    dy_intra: GconvParams
    w_out: Tensor
    prior_gconv: GconvParams | None = None

    @classmethod
    def init(cls, rng: np.random.Generator, dims: DgcpmDims) -> "DgcpmParams":
        steps = dims.t_in - 1
        fan_in = steps * dims.fused_width
        prior = (
            GconvParams.init(rng, 1, dims.prior_width, dims.gconv_layers)
            if dims.use_prior
            else None
        )
        return cls(
            dims=dims,
            dy_inter=GconvParams.init(rng, 2, dims.dy_width, dims.gconv_layers),
            dy_intra=GconvParams.init(rng, dims.dy_width, dims.dy_width, dims.gconv_layers),
            w_out=Tensor(glorot_uniform(rng, fan_in, dims.t_out), requires_grad=True),
            prior_gconv=prior,
        )


def dgcpm_forward_batch(
    values: np.ndarray,
    tod: np.ndarray,
    intra: np.ndarray,
    inter: np.ndarray,
    prior: np.ndarray | None,
    params: DgcpmParams,
) -> Tensor:
    """Forecast a batch of windows; returns (B, T_out, N, 1).

    `values`/`tod` are (B, T_in, N, 1); `intra`/`inter` are the window's
    graph stacks (B, T_in - 1, N, N) aligned so slice j belongs to window
    step j + 2 and propagates the features of step j + 1.
    """
    dims = params.dims
    if values.ndim != 4 or values.shape != tod.shape:
        raise ShapeError(f"expected (B, T, N, 1) inputs, got {values.shape} and {tod.shape}")
    b, t_in, n, _ = values.shape
    steps = t_in - 1
    if t_in != dims.t_in:
        raise ShapeError(f"window has {t_in} ticks but the model expects {dims.t_in}")
    if intra.shape != (b, steps, n, n) or inter.shape != (b, steps, n, n):
        raise ShapeError(
            f"graph stacks must be (B, {steps}, N, N), got {intra.shape} and {inter.shape}"
        )
    if dims.use_prior and (prior is None or params.prior_gconv is None):
        raise ConfigError("prior branch enabled but no prior graph given")

    # Steps do not depend on one another, so every step is one slice of the
    # step axis: the features of ticks 0..T_in-2 flow through the step graphs,
    # the readings of ticks 1..T_in-1 are smoothed over the prior.
    x_prev = np.concatenate([values[:, :-1], tod[:, :-1]], axis=-1)  # (B, S, N, 2)
    h = dygconv(x_prev, intra, inter, params.dy_inter, params.dy_intra)
    if dims.use_prior:
        h = concat([h, gconv_spectral(values[:, 1:], prior, params.prior_gconv)], axis=-1)
    per_node = h.transpose((0, 2, 1, 3)).reshape(b, n, steps * dims.fused_width)
    out = per_node @ params.w_out  # (B, N, T_out)
    return out.transpose((0, 2, 1)).reshape(b, dims.t_out, n, 1)


def masked_mae_loss(
    pred: Tensor,
    target: np.ndarray,
    mask: np.ndarray,
    horizon_limit: int | None = None,
) -> Tensor:
    """Mean absolute error over valid cells within the first horizon steps.

    Returns 0 (with a warning) when no cell is valid, so a fully missing
    batch cannot poison training with NaNs.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if pred.shape != target.shape or mask.shape != target.shape:
        raise ShapeError(
            f"prediction {pred.shape}, target {target.shape}, mask {mask.shape} must match"
        )
    effective = mask.copy()
    if horizon_limit is not None:
        if horizon_limit < 1:
            raise ConfigError("horizon_limit must be >= 1")
        effective[:, horizon_limit:] = False
    count = float(effective.sum())
    if count == 0.0:
        log.warning("masked MAE over zero valid cells; returning 0")
        return Tensor(0.0)
    weights = Tensor(effective.astype(np.float64))
    return ((pred - Tensor(target)).abs() * weights).sum() * (1.0 / count)


# --------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class DgcpmTrainConfig:
    lr: float = 1e-3
    max_epochs: int = 60
    batch_size: int = 32
    curriculum_step: int = 1  # epochs per unit of horizon growth
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.max_epochs < 1:
            raise ConfigError("bad optimizer settings")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.curriculum_step < 1 or self.patience < 1:
            raise ConfigError("curriculum_step and patience must be >= 1")


@dataclass
class DgcpmTrainResult:
    params: DgcpmParams
    history: list[dict] = field(default_factory=list)
    best_val_mae: float = float("inf")


@dataclass
class SplitArrays:
    """Window tensors of one split, graphs already generated (eval mode)."""

    values: np.ndarray  # (W, T_in, N, 1)
    tod: np.ndarray
    target: np.ndarray  # (W, T_out, N, 1) normalized
    target_mask: np.ndarray
    intra: np.ndarray  # (W, T_in - 1, N, N)
    inter: np.ndarray

    @classmethod
    def from_windows(cls, windows: WindowSet, intra: np.ndarray, inter: np.ndarray) -> "SplitArrays":
        return cls(
            values=windows.values,
            tod=windows.tod,
            target=windows.target,
            target_mask=windows.target_mask,
            intra=intra,
            inter=inter,
        )


def curriculum_train(
    train: SplitArrays,
    val: SplitArrays,
    prior: np.ndarray | None,
    dims: DgcpmDims,
    stats: NormStats,
    cfg: DgcpmTrainConfig,
) -> DgcpmTrainResult:
    """Train the forecaster under a growing-horizon curriculum.

    The loss horizon starts at 1 and grows by one every `curriculum_step`
    epochs until it reaches t_out; validation MAE (full horizon, original
    units, scored by `metrics.evaluate`) is recorded every epoch, with the
    epoch's wall time (`seconds`) and the process's peak RSS so far
    (`peak_rss_mb`); once the schedule is complete, early stopping with the
    configured patience returns the best-on-validation parameters. A
    validation split without one observed target cell is a `DataError`.
    """
    w = train.values.shape[0]
    if w == 0:
        raise ConfigError("no training windows")
    if not val.target_mask.any():
        raise DataError("the validation split has no observed target cell to score")
    seq = np.random.SeedSequence(cfg.seed)
    init_seed, shuffle_seed = seq.spawn(2)
    params = DgcpmParams.init(np.random.default_rng(init_seed), dims)
    rng = np.random.default_rng(shuffle_seed)
    opt = Adam(params.parameters(), lr=cfg.lr)

    history: list[dict] = []
    best_mae = float("inf")
    best_params = copy.deepcopy(params)
    stale = 0
    for epoch in range(cfg.max_epochs):
        start = time.perf_counter()
        horizon = min(dims.t_out, 1 + epoch // cfg.curriculum_step)
        order = rng.permutation(w)
        loss_total = 0.0
        batches = 0
        for lo in range(0, w, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            pred = dgcpm_forward_batch(
                train.values[idx], train.tod[idx], train.intra[idx], train.inter[idx],
                prior, params,
            )
            loss = masked_mae_loss(pred, train.target[idx], train.target_mask[idx], horizon)
            opt.zero_grad()
            loss.backward()
            opt.step()
            loss_total += float(loss.data)
            batches += 1
            del pred, loss  # free this step's graph before the next step builds its own
        val_mae = evaluate(
            predict(val, prior, params, stats, cfg.batch_size),
            invert_zscore(stats, val.target[..., 0]), val.target_mask[..., 0], [],
        ).overall.mae
        row = {
            "epoch": epoch + 1,
            "horizon_limit": horizon,
            "train_loss": loss_total / max(batches, 1),
            "val_mae": val_mae,
            "seconds": time.perf_counter() - start,
            "peak_rss_mb": peak_rss_mb(),
        }
        history.append(row)
        log.info(
            "epoch %d: horizon=%d train_loss=%.6g val_mae=%.6g %.2f s, peak RSS %.0f MB",
            epoch + 1, horizon, row["train_loss"], val_mae, row["seconds"], row["peak_rss_mb"],
        )
        if not (np.isfinite(row["train_loss"]) and np.isfinite(val_mae)):
            raise NumericalError(
                f"epoch {epoch + 1}: train loss {row['train_loss']} or validation MAE {val_mae} is not finite"
            )
        if val_mae < best_mae:
            best_mae = val_mae
            best_params = copy.deepcopy(params)
            stale = 0
        elif horizon == dims.t_out:
            stale += 1
            if stale >= cfg.patience:
                break
    return DgcpmTrainResult(params=best_params, history=history, best_val_mae=best_mae)


# --------------------------------------------------------------------- #
# inference and baselines
# --------------------------------------------------------------------- #


def predict(
    split: SplitArrays,
    prior: np.ndarray | None,
    params: DgcpmParams,
    stats: NormStats,
    batch_size: int,
) -> np.ndarray:
    """Eval-mode forecast of every window, `batch_size` at a time; returns (W, T_out, N) in original units."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    outputs = []
    with no_grad():
        for lo in range(0, split.values.shape[0], batch_size):
            rows = slice(lo, lo + batch_size)
            pred = dgcpm_forward_batch(
                split.values[rows], split.tod[rows], split.intra[rows], split.inter[rows], prior, params
            )
            outputs.append(pred.data[..., 0])
    return invert_zscore(stats, np.concatenate(outputs, axis=0))


def node_mean_baseline(train_series: SpeedSeries) -> np.ndarray:
    """Per-node mean of observed training readings, in original units.

    Nodes with no observed training cell fall back to the global mean.
    """
    values, mask = train_series.values, train_series.mask
    observed = mask.sum(axis=0)
    sums = (values * mask).sum(axis=0)
    global_mean = values[mask].mean() if mask.any() else 0.0
    return np.where(observed > 0, sums / np.maximum(observed, 1), global_mean)


def baseline_masked_mae(baseline: np.ndarray, windows: WindowSet, stats: NormStats) -> float | None:
    """Masked MAE of the constant per-node predictor, original units; None when no target cell is observed."""
    actual = invert_zscore(stats, windows.target[..., 0])
    forecast = np.broadcast_to(baseline, actual.shape)
    return evaluate(forecast, actual, windows.target_mask[..., 0], []).overall.mae


def export_forecasts(
    path: str,
    start_ts: list[int],
    predictions: np.ndarray,
    actuals: np.ndarray,
    valid: np.ndarray,
    sensor_ids: list[str],
) -> None:
    """Write per-cell forecasts: window_start_ts,horizon_step,sensor_id,predicted,actual,valid.

    Rows run by window, then horizon step, then sensor. Cells become Python
    values one window at a time, so the rows never exist all at once.
    """

    def rows():
        for t, p_w, a_w, v_w in zip(start_ts, predictions, actuals, valid):
            for h, cells in enumerate(zip(p_w.tolist(), a_w.tolist(), v_w.astype(int).tolist()), start=1):
                for sid, p, a, v in zip(sensor_ids, *cells):
                    yield t, h, sid, f"{p:.10g}", f"{a:.10g}", v

    write_table(path, FORECAST_CSV_HEADER, rows())


def load_forecasts(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a forecast CSV as `export_forecasts` writes it into (W, T_out, N) predictions, actuals and flags.

    Windows are ordered by start time and sensors by first appearance; a
    cell the file does not list is an invalid zero.
    """
    sensor_index: dict[str, int] = {}  # in order of first appearance
    rows = read_table(path)
    if next(rows)[1] != FORECAST_CSV_HEADER:
        raise DataError(f"{path}: expected forecast CSV header {','.join(FORECAST_CSV_HEADER)}")

    def cells():
        for line_no, (ts, step, sid, pred, actual, valid) in rows:
            try:
                window, h = int(ts), int(step)
                cell = (float(pred), float(actual), bool(int(valid)))
            except ValueError:
                raise DataError(f"{path} line {line_no}: malformed cell") from None
            if h < 1:
                raise DataError(f"{path} line {line_no}: horizon_step must be >= 1, got {h}")
            yield (window, h, sensor_index.setdefault(sid, len(sensor_index)), *cell)

    try:
        table = np.fromiter(cells(), dtype=_FORECAST_CELL)
    except OverflowError:
        raise DataError(f"{path}: a window_start_ts or horizon_step does not fit in 64 bits") from None
    if not table.size:
        raise DataError(f"{path}: no forecast rows")
    starts, win = np.unique(table["ts"], return_inverse=True)
    shape = (len(starts), int(table["h"].max()), len(sensor_index))
    flat = np.ravel_multi_index((win, table["h"] - 1, table["sensor"]), shape)
    if len(np.unique(flat)) < len(flat):
        raise DataError(f"{path}: a (window, horizon_step, sensor_id) cell appears more than once")
    preds, actuals, valid = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    for out, column in ((preds, "pred"), (actuals, "actual"), (valid, "valid")):
        np.put(out, flat, table[column])
    return preds, actuals, valid
