"""Command-line interface.

Commands:

* ``synth``: generate a synthetic ground truth, its simulated speed table,
  a planar distance table, and the true edges;
* ``train-structure``: learn per-step causal graphs on the training split
  and write a checkpoint plus the outer-loop history;
* ``export-graphs``: write the learned graphs of a split as edge rows;
* ``train-forecast``: train the forecaster on top of a frozen structure
  checkpoint;
* ``predict``: forecast the test split and write per-cell rows;
* ``evaluate``: score forecasts (freshly computed or from a forecast CSV)
  and write text and CSV reports;
* ``gradcheck``: run the analytic-vs-numeric gradient suite.

Configuration is a flat ``key=value`` file (``#`` starts a comment line);
any key can be overridden by the matching ``--key`` flag. Unknown config
keys are rejected. The environment variable ``TVDBN_SEED`` overrides the
seed for every command. Logs go to stderr; machine-readable output goes to
files and stdout. Exit codes: 0 success, 1 usage or configuration error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .constraint import GrcslTrainConfig, save_history, train_grcsl
from .data import (
    NormStats,
    SpeedSeries,
    WindowSet,
    build_distance_graph,
    load_distance_rows,
    load_manifest,
    load_speed_table,
    make_windows,
    read_table,
    save_manifest,
    save_speed_table,
    split_chronological,
    write_table,
    zscore_fit_apply,
    apply_zscore,
    invert_zscore,
)
from .dgcpm import (
    FORECAST_CSV_HEADER,
    DgcpmDims,
    DgcpmTrainConfig,
    SplitArrays,
    baseline_masked_mae,
    curriculum_train,
    export_forecasts,
    node_mean_baseline,
    predict as dgcpm_predict,
)
from .errors import ConfigError, DataError, NumericalError, ShapeError, TvdbnError
from .grcsl import EDGE_CSV_HEADER, GrcslDims, GrcslParams, export_graph_edges, graph_stacks
from .metrics import evaluate as evaluate_metrics, render_report, write_report_csv
from .synth import (
    export_truth_edges,
    planar_distance_rows,
    sample_tvdbn,
    save_truth,
    simulate_linear_sem,
    to_speed_series,
)
from .verification import gradient_suite

log = logging.getLogger("tvdbn")

@dataclass
class RunConfig:
    """Every tunable of the pipeline, flat so config files stay trivial."""

    # paths
    speed_csv: str = ""
    dist_csv: str = ""
    out_dir: str = "out"
    structure_checkpoint: str = ""
    forecast_checkpoint: str = ""
    forecast_csv: str = ""
    static_graph_file: str = ""
    # windows and split
    t_in: int = 12
    t_out: int = 12
    stride: int = 1
    train_ratio: float = 0.7
    val_ratio: float = 0.1
    kappa: float = 0.1
    # model widths
    heads: int = 4
    d_att: int = 16
    h_r: int = 32
    d_s: int = 8
    h_m: int = 32
    sem_width: int = 16
    gconv_layers: int = 2
    tau: float = 0.2
    dy_width: int = 16
    prior_width: int = 16
    use_prior: bool = True
    graph_source: str = "grcsl"  # grcsl | distance | static-dbn-file
    # structure training
    lam: float = 2e-5
    eta: float = 10.0
    gamma: float = 0.5
    xi: float = 1e-8
    alpha0: float = 0.0
    rho0: float = 1e-3
    inner_epochs: int = 5
    max_outer_iters: int = 30
    structure_lr: float = 1e-3
    structure_batch: int = 32
    # forecast training
    forecast_lr: float = 1e-3
    forecast_epochs: int = 60
    forecast_batch: int = 32
    curriculum_step: int = 1
    patience: int = 10
    # synthetic data
    synth_n: int = 10
    synth_t: int = 2000
    synth_regimes: int = 4
    synth_density: float = 0.2
    synth_noise_std: float = 0.1
    synth_weight_min: float = 0.3
    synth_weight_max: float = 0.8
    synth_max_radius: float = 0.95
    synth_offset: float = 50.0
    synth_scale: float = 10.0
    synth_start_ts: int = 1330560000
    # misc
    seed: int = 0
    graph_threshold: float = 0.5
    horizons: str = "3,6,12"
    export_split: str = "train"  # which split export-graphs writes

    def horizon_list(self) -> list[int]:
        try:
            return [int(tok) for tok in self.horizons.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"bad horizons list {self.horizons!r}") from None

    def _build(self, cls, **renames: str):
        """An instance of dataclass `cls` whose fields take this config's keys of the same name.

        `renames` maps a field of `cls` to the config key it takes instead.
        """
        fields = dataclasses.fields(cls)
        return cls(**{f.name: getattr(self, renames.get(f.name, f.name)) for f in fields})

    def grcsl_dims(self) -> GrcslDims:
        return self._build(GrcslDims)

    def dgcpm_dims(self) -> DgcpmDims:
        return self._build(DgcpmDims)

    def grcsl_train_config(self) -> GrcslTrainConfig:
        return self._build(GrcslTrainConfig, lr="structure_lr", batch_size="structure_batch")

    def dgcpm_train_config(self) -> DgcpmTrainConfig:
        return self._build(
            DgcpmTrainConfig, lr="forecast_lr", max_epochs="forecast_epochs", batch_size="forecast_batch"
        )


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    field = _FIELDS.get(key)
    if field is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    if field.type in ("bool", bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        if field.type in ("int", int):
            return int(raw)
        if field.type in ("float", float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {field.type}") from None
    return raw


def parse_config_file(path: str) -> dict:
    """Flat key=value lines as `load_manifest` reads them, coerced to their fields' types."""
    try:
        entries = load_manifest(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return {key: _coerce(key, raw) for key, raw in entries.items()}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file, then CLI flags, then TVDBN_SEED."""
    merged: dict = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in _FIELDS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = _coerce(key, str(flag_value)) if isinstance(flag_value, str) else flag_value
    cfg = RunConfig(**merged)
    env_seed = os.environ.get("TVDBN_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"TVDBN_SEED must be an integer, got {env_seed!r}") from None
        log.info("seed overridden by TVDBN_SEED=%d", cfg.seed)
    return cfg


# --------------------------------------------------------------------- #
# shared pipeline pieces
# --------------------------------------------------------------------- #


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"configuration key {key!r} is required for this command")


def _load_series(cfg: RunConfig) -> SpeedSeries:
    _require(cfg, "speed_csv")
    return load_speed_table(cfg.speed_csv)


def _load_prior(cfg: RunConfig, sensor_ids: list[str]) -> np.ndarray | None:
    """The distance prior's (N, N) weights; None when neither the prior branch nor the distance source uses them."""
    if not cfg.use_prior and cfg.graph_source != "distance":
        return None
    _require(cfg, "dist_csv")
    rows = load_distance_rows(cfg.dist_csv, sensor_ids)
    return build_distance_graph(rows, sensor_ids, kappa=cfg.kappa).weights


def _split_windows(
    cfg: RunConfig, series: SpeedSeries
) -> tuple[NormStats, dict[str, WindowSet], dict[str, SpeedSeries]]:
    """Normalization stats, the windows of each split, and each split's raw series."""
    raw = dict(zip(("train", "val", "test"), split_chronological(series, cfg.train_ratio, cfg.val_ratio)))
    stats, _ = zscore_fit_apply(raw["train"])
    keys = {"train": "train_ratio", "val": "val_ratio", "test": "1 - train_ratio - val_ratio"}
    sets = {}
    for name, part in raw.items():
        try:
            sets[name] = make_windows(apply_zscore(stats, part), cfg.t_in, cfg.t_out, cfg.stride)
        except DataError as exc:
            raise DataError(f"{name} split ({keys[name]}): {exc}") from None
    return stats, sets, raw


def _make_out_dirs(cfg: RunConfig, *files: str) -> None:
    """Create `out_dir` and the directory of every file a stage will write."""
    for path in (cfg.out_dir, *map(os.path.dirname, files)):
        if path:
            os.makedirs(path, exist_ok=True)


def _structure_ckpt_path(cfg: RunConfig) -> str:
    return cfg.structure_checkpoint or os.path.join(cfg.out_dir, "grcsl.npz")


def _forecast_ckpt_path(cfg: RunConfig) -> str:
    return cfg.forecast_checkpoint or os.path.join(cfg.out_dir, "dgcpm.npz")


def _static_graphs_from_file(path: str, sensor_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Constant graph pair from an edge CSV in the export format."""
    n = len(sensor_ids)
    index = {sid: i for i, sid in enumerate(sensor_ids)}
    graphs = {"0": np.zeros((n, n)), "1": np.zeros((n, n))}
    rows = read_table(path)
    if next(rows)[1] != EDGE_CSV_HEADER:
        raise DataError(f"{path}: expected graph edge CSV header {','.join(EDGE_CSV_HEADER)}")
    for line_no, (_, _, lag, src, dst, weight) in rows:
        where = f"{path} line {line_no}"
        if src not in index or dst not in index:
            missing = src if src not in index else dst
            raise DataError(f"{where}: unknown sensor {missing!r}")
        target = graphs.get(lag.strip())
        if target is None:
            raise DataError(f"{where}: lag must be 0 or 1, got {lag!r}")
        try:
            w = float(weight)
        except ValueError:
            raise DataError(f"{where}: non-numeric weight {weight!r}") from None
        if not np.isfinite(w):
            raise DataError(f"{where}: non-finite weight {weight!r}")
        # Aggregation needs non-negative strengths in [0, 1].
        target[index[dst], index[src]] = max(target[index[dst], index[src]], min(abs(w), 1.0))
    np.fill_diagonal(graphs["0"], 0.0)
    return graphs["0"], graphs["1"]


def _graph_path(cfg: RunConfig, split: str) -> str:
    return os.path.join(cfg.out_dir, f"graphs-{split}.npz")


def _graph_stacks(
    cfg: RunConfig,
    split: str,
    windows: WindowSet,
    prior: np.ndarray | None,
    params: GrcslParams | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window graph stacks (W, T_in - 1, N, N) of one split for the forecaster.

    Learned graphs come from the split's graph file when its key matches
    them; otherwise they are generated and the file is (re)written.
    """
    if cfg.graph_source == "grcsl":
        if params is None:
            raise ConfigError("graph_source=grcsl needs a structure checkpoint")
        path = _graph_path(cfg, split)
        key = ckpt.graph_key(params, windows.values, windows.tod, prior, cfg.structure_batch)
        w, t_in, n, _ = windows.values.shape
        try:
            stored_key, intra, inter = ckpt.load_graphs(path)
            if stored_key == key and intra.shape == inter.shape == (w, t_in - 1, n, n):
                return intra, inter
            log.info("%s holds other graphs; regenerating the %s split", path, split)
        except DataError as exc:
            log.info("%s; generating the %s split", exc, split)
        intra, inter = graph_stacks(windows.values, windows.tod, prior, params, cfg.structure_batch)
        ckpt.save_graphs(path, key, intra, inter)
        return intra, inter
    if cfg.graph_source == "distance":
        if prior is None:
            raise ConfigError("graph_source=distance needs a distance file")
        intra0, inter0 = prior.copy(), prior
        np.fill_diagonal(intra0, 0.0)
    elif cfg.graph_source == "static-dbn-file":
        _require(cfg, "static_graph_file")
        intra0, inter0 = _static_graphs_from_file(cfg.static_graph_file, windows.sensor_ids)
    else:
        raise ConfigError(f"unknown graph_source {cfg.graph_source!r}")
    # One constant pair serves every window and step: read-only views, no copies.
    shape = (len(windows), cfg.t_in - 1) + intra0.shape
    return np.broadcast_to(intra0, shape), np.broadcast_to(inter0, shape)


def _write_manifest(cfg: RunConfig, stats: NormStats, raw: dict[str, SpeedSeries]) -> None:
    test = raw["test"]
    save_manifest(
        os.path.join(cfg.out_dir, "manifest.txt"),
        {
            "mean": stats.mean,
            "std": stats.std,
            "rows": test.offset + test.length,
            "train_end": raw["val"].offset,
            "val_end": test.offset,
            "t_in": cfg.t_in,
            "t_out": cfg.t_out,
            "stride": cfg.stride,
            "seed": cfg.seed,
        },
    )


# --------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------- #


def cmd_synth(cfg: RunConfig) -> int:
    _require(cfg, "out_dir")
    _make_out_dirs(cfg)
    truth = sample_tvdbn(
        n=cfg.synth_n,
        t=cfg.synth_t,
        num_regimes=cfg.synth_regimes,
        density=cfg.synth_density,
        noise_std=cfg.synth_noise_std,
        weight_range=(cfg.synth_weight_min, cfg.synth_weight_max),
        seed=cfg.seed,
        max_radius=cfg.synth_max_radius,
    )
    values = simulate_linear_sem(truth)
    series = to_speed_series(
        values, start_ts=cfg.synth_start_ts, offset=cfg.synth_offset, scale=cfg.synth_scale
    )
    speed_path = os.path.join(cfg.out_dir, "speed.csv")
    dist_path = os.path.join(cfg.out_dir, "dist.csv")
    save_speed_table(speed_path, series)
    rows = planar_distance_rows(series.sensor_ids, seed=cfg.seed + 1)
    write_table(dist_path, ["from", "to", "dist"], ((src, dst, f"{d:.6f}") for src, dst, d in rows))
    save_truth(os.path.join(cfg.out_dir, "truth.npz"), truth)
    export_truth_edges(
        os.path.join(cfg.out_dir, "truth_edges.csv"), truth, series.sensor_ids, cfg.synth_start_ts
    )
    log.info(
        "synth: wrote %s (%d ticks x %d sensors), %s, truth.npz, truth_edges.csv",
        speed_path, series.length, series.num_sensors, dist_path,
    )
    return 0


def cmd_train_structure(cfg: RunConfig) -> int:
    _require(cfg, "speed_csv", "out_dir")
    _make_out_dirs(cfg, _structure_ckpt_path(cfg))
    series = _load_series(cfg)
    prior = _load_prior(cfg, series.sensor_ids)
    stats, sets, raw = _split_windows(cfg, series)
    train = sets["train"]
    result = train_grcsl(train, prior, cfg.grcsl_dims(), cfg.grcsl_train_config())
    ckpt.save_grcsl(_structure_ckpt_path(cfg), result.params)
    # The eval epoch already generated the training split's graphs.
    key = ckpt.graph_key(result.params, train.values, train.tod, prior, cfg.structure_batch)
    ckpt.save_graphs(_graph_path(cfg, "train"), key, result.intra, result.inter)
    save_history(os.path.join(cfg.out_dir, "history.csv"), result.history)
    _write_manifest(cfg, stats, raw)
    if result.converged:
        log.info("structure training converged: S=%.3e", result.final_s)
    else:
        log.warning("structure training did not converge: %s", result.warning)
    return 0


def cmd_export_graphs(cfg: RunConfig) -> int:
    _require(cfg, "speed_csv", "out_dir")
    _make_out_dirs(cfg)
    series = _load_series(cfg)
    prior = _load_prior(cfg, series.sensor_ids)
    _, sets, _ = _split_windows(cfg, series)
    if cfg.export_split not in sets:
        raise ConfigError(f"export_split must be one of train/val/test, got {cfg.export_split!r}")
    windows = sets[cfg.export_split]
    params = ckpt.load_grcsl(_structure_ckpt_path(cfg)) if cfg.graph_source == "grcsl" else None
    intra, inter = _graph_stacks(cfg, cfg.export_split, windows, prior, params)
    path = os.path.join(cfg.out_dir, "graphs.csv")
    edge_count = export_graph_edges(
        path, intra, inter, windows.start_ts, windows.sensor_ids, cfg.graph_threshold
    )
    log.info("exported %d edges over %d windows to %s", edge_count, len(intra), path)
    return 0


def cmd_train_forecast(cfg: RunConfig) -> int:
    _require(cfg, "speed_csv", "out_dir")
    _make_out_dirs(cfg, _forecast_ckpt_path(cfg))
    series = _load_series(cfg)
    prior = _load_prior(cfg, series.sensor_ids)
    stats, sets, raw = _split_windows(cfg, series)
    params = ckpt.load_grcsl(_structure_ckpt_path(cfg)) if cfg.graph_source == "grcsl" else None
    splits = {}
    for name in ("train", "val"):
        intra, inter = _graph_stacks(cfg, name, sets[name], prior, params)
        splits[name] = SplitArrays.from_windows(sets[name], intra, inter)
    result = curriculum_train(
        splits["train"],
        splits["val"],
        prior if cfg.use_prior else None,
        cfg.dgcpm_dims(),
        stats,
        cfg.dgcpm_train_config(),
    )
    ckpt.save_dgcpm(_forecast_ckpt_path(cfg), result.params)
    with open(os.path.join(cfg.out_dir, "forecast_history.csv"), "w") as fh:
        fh.write("epoch,horizon_limit,train_loss,val_mae\n")
        for row in result.history:
            fh.write(
                f"{row['epoch']},{row['horizon_limit']},"
                f"{row['train_loss']:.10g},{row['val_mae']:.10g}\n"
            )
    baseline = node_mean_baseline(raw["train"])
    base_mae = baseline_masked_mae(baseline, sets["val"], stats)
    log.info(
        "forecast training done: best val MAE %.4f (constant per-node baseline %.4f)",
        result.best_val_mae, base_mae,
    )
    return 0


def _predict_test(cfg: RunConfig):
    series = _load_series(cfg)
    prior = _load_prior(cfg, series.sensor_ids)
    stats, sets, _ = _split_windows(cfg, series)
    g_params = ckpt.load_grcsl(_structure_ckpt_path(cfg)) if cfg.graph_source == "grcsl" else None
    f_params = ckpt.load_dgcpm(_forecast_ckpt_path(cfg))
    windows = sets["test"]
    intra, inter = _graph_stacks(cfg, "test", windows, prior, g_params)
    split = SplitArrays.from_windows(windows, intra, inter)
    preds = dgcpm_predict(
        split,
        prior if cfg.use_prior else None,
        f_params,
        stats,
        batch_size=cfg.forecast_batch,
    )
    actual_norm = split.target[..., 0]
    valid = split.target_mask[..., 0]
    actuals = np.where(valid, invert_zscore(stats, actual_norm), 0.0)
    return windows, preds, actuals, valid


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "speed_csv", "out_dir")
    _make_out_dirs(cfg)
    windows, preds, actuals, valid = _predict_test(cfg)
    path = os.path.join(cfg.out_dir, "forecasts.csv")
    export_forecasts(path, windows.start_ts.tolist(), preds, actuals, valid, windows.sensor_ids)
    log.info("wrote %d window forecasts to %s", preds.shape[0], path)
    return 0


def _load_forecast_csv(path: str):
    cells: dict[tuple[int, int, int], tuple[float, float, bool]] = {}  # by (window ts, step, sensor)
    sensor_index: dict[str, int] = {}  # in order of first appearance
    rows = read_table(path)
    if next(rows)[1] != FORECAST_CSV_HEADER:
        raise DataError(f"{path}: expected forecast CSV header {','.join(FORECAST_CSV_HEADER)}")
    for line_no, (ts, step, sid, pred, actual, valid) in rows:
        try:
            window, h = int(ts), int(step)
            cell = (float(pred), float(actual), bool(int(valid)))
        except ValueError:
            raise DataError(f"{path} line {line_no}: malformed cell") from None
        if h < 1:
            raise DataError(f"{path} line {line_no}: horizon_step must be >= 1, got {h}")
        cells[window, h, sensor_index.setdefault(sid, len(sensor_index))] = cell
    if not cells:
        raise DataError(f"{path}: no forecast rows")
    windows = {ts: k for k, ts in enumerate(sorted({ts for ts, _, _ in cells}))}
    shape = (len(windows), max(h for _, h, _ in cells), len(sensor_index))
    preds = np.zeros(shape)
    actuals = np.zeros(shape)
    valid = np.zeros(shape, dtype=bool)
    for (ts, h, i), (p, a, v) in cells.items():
        preds[windows[ts], h - 1, i] = p
        actuals[windows[ts], h - 1, i] = a
        valid[windows[ts], h - 1, i] = v
    return preds, actuals, valid


def cmd_evaluate(cfg: RunConfig) -> int:
    _require(cfg, "out_dir")
    _make_out_dirs(cfg)
    if cfg.forecast_csv:
        preds, actuals, valid = _load_forecast_csv(cfg.forecast_csv)
    else:
        _, preds, actuals, valid = _predict_test(cfg)
    horizons = [h for h in cfg.horizon_list() if h <= preds.shape[1]]
    if not horizons:
        raise ConfigError(
            f"no requested horizon fits the forecast range 1..{preds.shape[1]}"
        )
    report = evaluate_metrics(preds, actuals, valid, horizons)
    text = render_report(report)
    write_report_csv(os.path.join(cfg.out_dir, "report.csv"), report)
    with open(os.path.join(cfg.out_dir, "report.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    # Fixed battery at its canonical seed: kink-free check points are part
    # of the suite definition, so the run seed must not move them.
    reports = gradient_suite()
    failed = [r for r in reports if not r.ok()]
    for r in reports:
        print(str(r))
    if failed:
        raise NumericalError(f"{len(failed)} gradient check(s) failed")
    return 0


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


_HANDLERS = {
    "synth": cmd_synth,
    "train-structure": cmd_train_structure,
    "train-forecast": cmd_train_forecast,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "export-graphs": cmd_export_graphs,
    "gradcheck": cmd_gradcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvdbn",
        description="Learn time-varying causal graphs from sensor series and forecast with them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for field in dataclasses.fields(RunConfig):
            flag = "--" + field.name.replace("_", "-")
            p.add_argument(flag, dest=field.name, default=None, help=f"override {field.name}")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("TVDBN_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code == 0 else 1
    try:
        cfg = resolve_config(args)
        return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 1
    except (DataError, ShapeError) as exc:
        log.error("data error: %s", exc)
        return 2
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return 3
    except TvdbnError as exc:  # pragma: no cover - safety net
        log.error("error: %s", exc)
        return 1
