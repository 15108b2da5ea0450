"""Masked forecast-metric tests against hand-computed fixtures."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdbn.errors import ConfigError, ShapeError
from tvdbn.metrics import (
    MAPE_FLOOR,
    evaluate,
    render_report,
    write_report_csv,
)


def as3d(rows):
    """(T_out, N) fixture -> (1, T_out, N)."""
    return np.asarray(rows, dtype=float)[None]


def test_error_metric_fixture():
    # errors 1 and 2 on actuals 2 and 4: MAE 1.5, RMSE sqrt(2.5), MAPE 50%.
    report = evaluate(
        as3d([[1.0, 2.0]]), as3d([[2.0, 4.0]]), as3d([[1, 1]]).astype(bool), horizons=[1]
    )
    m = report.per_horizon[1]
    assert m.mae == pytest.approx(1.5)
    assert m.rmse == pytest.approx(math.sqrt(2.5))
    assert m.rmse == pytest.approx(1.5811388300841898)
    assert m.mape == pytest.approx(50.0)
    assert m.valid_cells == 2


def test_mape_floor_skips_near_zero_actuals():
    assert MAPE_FLOOR == 1.0
    report = evaluate(
        as3d([[1.0, 3.0]]), as3d([[0.5, 2.0]]), as3d([[1, 1]]).astype(bool), horizons=[1]
    )
    m = report.per_horizon[1]
    # MAE sees both cells, MAPE only the one at |actual| >= 1
    assert m.mae == pytest.approx(0.75)
    assert m.mape == pytest.approx(50.0)


def test_mape_absent_when_every_actual_is_below_the_floor():
    report = evaluate(
        as3d([[1.0]]), as3d([[0.25]]), as3d([[1]]).astype(bool), horizons=[1]
    )
    m = report.per_horizon[1]
    assert m.mae == pytest.approx(0.75)
    assert m.mape is None


def test_invalid_cells_do_not_influence_metrics(rng):
    pred = rng.normal(size=(3, 4, 5))
    actual = rng.normal(size=(3, 4, 5)) + 2.0
    valid = rng.random((3, 4, 5)) < 0.6
    base = evaluate(pred, actual, valid, horizons=[2])
    poisoned = pred.copy()
    poisoned[~valid] = 1e9
    alt = evaluate(poisoned, actual, valid, horizons=[2])
    assert alt.overall.mae == base.overall.mae
    assert alt.overall.rmse == base.overall.rmse
    assert alt.overall.mape == base.overall.mape
    assert alt.per_horizon[2].mae == base.per_horizon[2].mae


def test_horizon_rows_score_single_steps_not_prefixes():
    pred = as3d([[0.0], [0.0], [0.0]])
    actual = as3d([[1.0], [2.0], [4.0]])
    valid = np.ones((1, 3, 1), dtype=bool)
    report = evaluate(pred, actual, valid, horizons=[1, 2, 3])
    assert report.per_horizon[1].mae == pytest.approx(1.0)
    assert report.per_horizon[2].mae == pytest.approx(2.0)
    assert report.per_horizon[3].mae == pytest.approx(4.0)
    assert report.overall.mae == pytest.approx(7.0 / 3.0)
    assert report.overall.valid_cells == 3


def test_no_valid_cells_reports_absent_metrics():
    report = evaluate(
        as3d([[1.0]]), as3d([[2.0]]), np.zeros((1, 1, 1), dtype=bool), horizons=[1]
    )
    m = report.per_horizon[1]
    assert m.mae is None and m.rmse is None and m.mape is None
    assert m.valid_cells == 0
    assert report.overall.mae is None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rmse_dominates_mae(seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(2, 3, 4))
    actual = rng.normal(size=(2, 3, 4))
    valid = rng.random((2, 3, 4)) < 0.8
    if not valid.any():
        return
    m = evaluate(pred, actual, valid, horizons=[1]).overall
    assert m.rmse >= m.mae - 1e-12


def test_evaluate_validation():
    ones = np.ones((1, 2, 1))
    with pytest.raises(ShapeError):
        evaluate(ones, np.ones((1, 3, 1)), np.ones((1, 3, 1), bool), horizons=[1])
    with pytest.raises(ShapeError):
        evaluate(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1), bool), horizons=[1])
    with pytest.raises(ConfigError):
        evaluate(ones, ones, np.ones((1, 2, 1), bool), horizons=[3])
    with pytest.raises(ConfigError):
        evaluate(ones, ones, np.ones((1, 2, 1), bool), horizons=[0])


def test_report_rendering_includes_reference_footer():
    report = evaluate(
        as3d([[1.0], [1.0]]), as3d([[2.0], [0.5]]), np.ones((1, 2, 1), bool), horizons=[1, 2]
    )
    text = render_report(report)
    lines = text.splitlines()
    assert "horizon" in lines[0] and "MAE" in lines[0]
    assert any(line.strip().startswith("overall") for line in lines)
    assert "reference (non-binding" in text
    assert "2.73" in text and "7.04" in text and "5.23" in text and "2.72" in text
    assert "not comparable" in text
    # horizon 2's actual sits below the MAPE floor: rendered as '-'
    row2 = next(line for line in lines if line.strip().startswith("2 "))
    assert "-" in row2


def test_report_csv_round_trip(tmp_path):
    report = evaluate(
        as3d([[1.0], [1.0]]), as3d([[2.0], [0.5]]), np.ones((1, 2, 1), bool), horizons=[1, 2]
    )
    path = tmp_path / "report.csv"
    write_report_csv(str(path), report)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["horizon", "mae", "rmse", "mape", "valid_cells"]
    assert rows[1][0] == "1" and float(rows[1][1]) == 1.0 and float(rows[1][3]) == 50.0
    assert rows[2][0] == "2" and rows[2][3] == ""  # absent MAPE -> empty cell
    assert rows[3][0] == "overall" and int(rows[3][4]) == 2
