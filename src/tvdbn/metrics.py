"""Masked forecast metrics and evaluation reports.

All metrics ignore cells whose validity flag is off (missing readings).
MAPE additionally skips cells whose actual magnitude is below a floor of
1.0, so near-zero readings cannot blow up the relative error; it is
reported in percent. A horizon with no valid cells reports absent metrics,
never a fake 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import write_table
from .errors import ConfigError, ShapeError

MAPE_FLOOR = 1.0

# Published full-scale benchmark numbers (207-sensor highway network,
# horizon 3). Desk-scale runs are not comparable; these are recorded in
# reports as non-binding references only.
REFERENCE_FULL_SCALE = {"mae": 2.73, "mape": 7.04, "rmse": 5.23}
REFERENCE_SUBSET_20 = {"mae": 2.72}


@dataclass
class HorizonMetrics:
    mae: float | None
    rmse: float | None
    mape: float | None
    valid_cells: int


@dataclass
class EvalReport:
    per_horizon: dict[int, HorizonMetrics]
    overall: HorizonMetrics
    horizons: list[int] = field(default_factory=list)

    def rows(self) -> list[tuple[int | str, HorizonMetrics]]:
        """(label, metrics) per requested horizon, then ("overall", metrics): the rows of both reports."""
        return [(h, self.per_horizon[h]) for h in self.horizons] + [("overall", self.overall)]


def _metrics_over(pred: np.ndarray, actual: np.ndarray, valid: np.ndarray) -> HorizonMetrics:
    count = int(valid.sum())
    if count == 0:
        return HorizonMetrics(mae=None, rmse=None, mape=None, valid_cells=0)
    err = pred[valid] - actual[valid]
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err**2).mean()))
    mape_mask = valid & (np.abs(actual) >= MAPE_FLOOR)
    if mape_mask.any():
        rel = np.abs(pred[mape_mask] - actual[mape_mask]) / np.abs(actual[mape_mask])
        mape = float(rel.mean() * 100.0)
    else:
        mape = None
    return HorizonMetrics(mae=mae, rmse=rmse, mape=mape, valid_cells=count)


def evaluate(
    predictions: np.ndarray,
    actuals: np.ndarray,
    valid: np.ndarray,
    horizons: list[int],
) -> EvalReport:
    """Score (W, T_out, N) forecasts at per-step horizons plus overall.

    Horizon h scores step h alone (1-based), not an average of steps up to
    h. The overall row pools every step.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if predictions.shape != actuals.shape or predictions.shape != valid.shape:
        raise ShapeError(
            f"predictions {predictions.shape}, actuals {actuals.shape}, "
            f"valid {valid.shape} must share a shape"
        )
    if predictions.ndim != 3:
        raise ShapeError(f"expected (W, T_out, N) arrays, got {predictions.shape}")
    t_out = predictions.shape[1]
    for h in horizons:
        if not 1 <= h <= t_out:
            raise ConfigError(f"horizon {h} outside the forecast range 1..{t_out}")
    per_horizon = {
        h: _metrics_over(predictions[:, h - 1], actuals[:, h - 1], valid[:, h - 1])
        for h in horizons
    }
    overall = _metrics_over(predictions, actuals, valid)
    return EvalReport(per_horizon=per_horizon, overall=overall, horizons=horizons)


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.4f}"


def render_report(report: EvalReport) -> str:
    """Plain-text table plus the non-binding full-scale reference footer."""
    lines = [
        f"{'horizon':>8} {'MAE':>10} {'RMSE':>10} {'MAPE%':>10} {'cells':>8}",
    ]
    for label, m in report.rows():
        lines.append(
            f"{label:>8} {_fmt(m.mae):>10} {_fmt(m.rmse):>10} {_fmt(m.mape):>10} {m.valid_cells:>8}"
        )
    lines.append("")
    lines.append(
        "reference (non-binding, full-scale 207-sensor benchmark, horizon 3): "
        f"MAE {REFERENCE_FULL_SCALE['mae']:.2f}, MAPE {REFERENCE_FULL_SCALE['mape']:.2f}%, "
        f"RMSE {REFERENCE_FULL_SCALE['rmse']:.2f}"
    )
    lines.append(
        "reference (non-binding, 20-sensor subset, horizon 3): "
        f"MAE {REFERENCE_SUBSET_20['mae']:.2f}"
    )
    lines.append("desk-scale results are not comparable to these references.")
    return "\n".join(lines)


def write_report_csv(path: str, report: EvalReport) -> None:
    """CSV mirror of the text table: horizon,mae,rmse,mape,valid_cells."""

    def _cell(x: float | None) -> str:
        return "" if x is None else f"{x:.10g}"

    rows = ((label, _cell(m.mae), _cell(m.rmse), _cell(m.mape), m.valid_cells) for label, m in report.rows())
    write_table(path, ["horizon", "mae", "rmse", "mape", "valid_cells"], rows)
