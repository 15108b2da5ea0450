"""The benchmark's three workloads, each built only from the workload seed.

* ``structure-train``: the structure learner (GRCSL) on the gate-04 data
  shape, then an eval-mode generator pass scored against the truth.
* ``forecast-train``: the forecaster (DGCPM) on distance-prior graphs at
  N=20, then ``predict`` over every split. No structure learner runs.
* ``cli-pipeline``: the ``tvdbn`` command, one process per stage, as a user
  runs it.

A workload builds its inputs in ``setup()`` and does one pass of its task in
``unit()``. A pass repeats exactly for a fixed seed and code: its digest
covers the deterministic outputs, so a pass that differs from the first is a
failure, and a later change can say whether it left the arithmetic alone.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tvdbn import constraint, data, dgcpm, grcsl, numerics, synth

STAGE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stage.py")
CLI_STAGES = ("train-structure", "export-graphs", "train-forecast", "predict", "evaluate")

# Structure-learner peak memory grows with batch x N^2 (per-pair GRU tapes).
# Fitted to two measured peaks: 1270 MB at N=10, B=32 and 640 MB at N=40, B=1.
GRCSL_BASE_MB = 10.0
GRCSL_MB_PER_BN2 = 0.394


@dataclass(frozen=True)
class Shapes:
    """Input sizes of one workload."""

    n: int
    t: int
    density: float
    stride: int
    epochs: int  # structure inner epochs (one outer pass), or forecaster epochs
    regimes: int = 4
    t_in: int = 12
    t_out: int = 12
    batch: int = 32
    grcsl_dims: tuple = ()  # GrcslDims overrides as (field, value) pairs
    dgcpm_dims: tuple = ()  # DgcpmDims overrides as (field, value) pairs


FULL = {
    "structure-train": Shapes(n=10, t=2000, density=0.2, stride=4, epochs=1),
    # sample_tvdbn cannot draw a stable 20-node regime at density 0.2.
    "forecast-train": Shapes(n=20, t=2000, density=0.08, stride=1, epochs=4),
    "cli-pipeline": Shapes(n=10, t=2000, density=0.2, stride=4, epochs=2),
}

# Shapes of the smoke test: every layer still runs, in about a second per pass.
TINY = Shapes(
    n=4, t=240, density=0.3, stride=3, epochs=1, regimes=2, t_in=6, t_out=3, batch=16,
    grcsl_dims=(("heads", 2), ("d_att", 4), ("h_r", 6), ("d_s", 3), ("h_m", 6),
                ("sem_width", 6), ("gconv_layers", 1)),
    dgcpm_dims=(("dy_width", 4), ("prior_width", 4), ("gconv_layers", 1)),
)


@dataclass
class Tally:
    """Operations attempted and failed: training steps, windows, stages."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


@dataclass
class Pass:
    """What one unit of work measured."""

    pipeline_s: float
    samples: dict[str, list[float]]  # end-to-end rates measured within the pass
    digest: str
    layer: dict[str, float] = field(default_factory=dict)  # per-layer values known without tracing
    peak_rss_mb: float | None = None  # set when the work ran in child processes


def estimate_peak_mb(name: str, shapes: Shapes) -> float:
    """Expected peak RSS of a workload, from its shapes alone."""
    if name == "forecast-train":
        # Three copies at most of the (W, T_in - 1, N, N) graph stack pair over all windows.
        stacks = 2 * (shapes.t // shapes.stride) * (shapes.t_in - 1) * shapes.n**2 * 8
        return 64.0 + 3 * stacks / 2**20
    return GRCSL_BASE_MB + GRCSL_MB_PER_BN2 * shapes.batch * shapes.n**2


def _log_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _stack(windows: data.WindowSet, attr: str) -> np.ndarray:
    return np.stack([getattr(win, attr) for win in windows.windows])


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #


def has_cycle(adj: np.ndarray) -> bool:
    """Depth-first search for a directed cycle; adj[i, j] is the edge j -> i."""
    n = adj.shape[0]
    children = [np.flatnonzero(adj[:, j]) for j in range(n)]
    state = [0] * n  # 0 unvisited, 1 on the current path, 2 finished
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        path = [(root, iter(children[root]))]
        while path:
            node, todo = path[-1]
            child = next(todo, None)
            if child is None:
                state[node] = 2
                path.pop()
            elif state[child] == 1:
                return True
            elif state[child] == 0:
                state[child] = 1
                path.append((child, iter(children[child])))
    return False


def graph_window_ok(intra: np.ndarray, inter: np.ndarray, threshold: float = 0.5) -> bool:
    """One window's (S, N, N) graph stacks: finite, in [0, 1], zero lag-0 diagonal, acyclic lag 0."""
    for g in (intra, inter):
        if not np.all(np.isfinite(g)) or g.min() < 0.0 or g.max() > 1.0:
            return False
    if np.any(np.diagonal(intra, axis1=-2, axis2=-1) != 0.0):
        return False
    return not any(has_cycle(step > threshold) for step in intra)


# --------------------------------------------------------------------- #
# in-process workloads
# --------------------------------------------------------------------- #


@dataclass
class Dataset:
    truth: synth.GroundTruthTvdbn
    stats: data.NormStats
    prior: np.ndarray
    windows: dict[str, data.WindowSet]


def make_dataset(seed: int, shapes: Shapes, splits: tuple[str, ...]) -> Dataset:
    truth = synth.sample_tvdbn(
        n=shapes.n, t=shapes.t, num_regimes=shapes.regimes, density=shapes.density,
        noise_std=0.1, seed=seed,
    )
    series = synth.to_speed_series(synth.simulate_linear_sem(truth))
    train_s, val_s, test_s = data.split_chronological(series)
    stats, train_n = data.zscore_fit_apply(train_s)
    normed = {"train": train_n, "val": data.apply_zscore(stats, val_s), "test": data.apply_zscore(stats, test_s)}
    rows = synth.planar_distance_rows(series.sensor_ids, seed=seed + 1)
    prior = data.build_distance_graph(rows, series.sensor_ids).weights
    windows = {s: data.make_windows(normed[s], shapes.t_in, shapes.t_out, shapes.stride) for s in splits}
    return Dataset(truth=truth, stats=stats, prior=prior, windows=windows)


def generate_graphs(values, tod, prior, params, batch: int, rates: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode graph stacks (W, T_in - 1, N, N) of every window; appends windows/s per batch to `rates`."""
    intra, inter = [], []
    with numerics.no_grad():
        for lo in range(0, len(values), batch):
            start = time.perf_counter()
            fwd = grcsl.grcsl_forward_batch(
                values[lo : lo + batch], tod[lo : lo + batch], prior, params, train=False
            )
            intra.append(np.stack([g.data for g in fwd.intra], axis=1))
            inter.append(np.stack([g.data for g in fwd.inter], axis=1))
            rates.append(len(intra[-1]) / (time.perf_counter() - start))
    return np.concatenate(intra), np.concatenate(inter)


class StructureTrain:
    """One outer augmented-Lagrangian pass of GRCSL, then eval-mode graph generation."""

    name = "structure-train"
    in_process = True

    def __init__(self, seed: int, shapes: Shapes, work_dir: str):
        self.seed, self.shapes = seed, shapes

    def setup(self) -> None:
        self.ds = None  # release the previous inputs before building new ones
        self.ds = make_dataset(self.seed, self.shapes, ("train",))
        win = self.ds.windows["train"]
        self.values, self.tod = _stack(win, "values"), _stack(win, "tod")

    def unit(self, tally: Tally) -> Pass:
        sh, win = self.shapes, self.ds.windows["train"]
        w = len(win)
        cfg = constraint.GrcslTrainConfig(
            batch_size=sh.batch, seed=self.seed, inner_epochs=sh.epochs, max_outer_iters=1
        )
        steps = math.ceil(w / sh.batch) * sh.epochs
        start = time.perf_counter()
        try:
            result = constraint.train_grcsl(win, self.ds.prior, grcsl.GrcslDims(**dict(sh.grcsl_dims)), cfg)
        except Exception:
            _log_failure("train_grcsl")
            tally.add(steps + w, steps + w)
            return Pass(time.perf_counter() - start, {}, "train_grcsl failed")
        train_s = time.perf_counter() - start
        finite = all(np.isfinite(row["f"]) and np.isfinite(row["S"]) for row in result.history)
        tally.add(steps, 0 if finite else steps)

        start, rates = time.perf_counter(), []
        intra, inter = generate_graphs(self.values, self.tod, self.ds.prior, result.params, sh.batch, rates)
        gen_s = time.perf_counter() - start
        ok = [graph_window_ok(intra[k], inter[k]) for k in range(w)]
        tally.add(w, ok.count(False))

        layer = {}
        if all(ok):
            seqs = [
                grcsl.CausalGraphSeq(intra=intra[k], inter=inter[k], start_index=win.windows[k].start_index)
                for k in range(w)
            ]
            layer["grcsl.edge_f1"] = synth.score_recovery(seqs, self.ds.truth).aggregate_f1
        return Pass(
            pipeline_s=train_s + gen_s,
            samples={
                "train_windows_per_s": [len(result.history) * sh.epochs * w / train_s],
                "infer_windows_per_s": rates,
            },
            digest=_sha(intra.tobytes(), inter.tobytes()),
            layer=layer,
        )


def distance_stacks(prior: np.ndarray, windows: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The graph_source=distance stacks: the prior every step, lag 0 without self-loops."""
    n = prior.shape[0]
    intra0 = prior.copy()
    np.fill_diagonal(intra0, 0.0)
    intra = np.broadcast_to(intra0, (windows, steps, n, n)).copy()
    inter = np.broadcast_to(prior, (windows, steps, n, n)).copy()
    return intra, inter


class ForecastTrain:
    """DGCPM curriculum training on distance-prior graphs, then predict over every split."""

    name = "forecast-train"
    in_process = True
    PREDICT_PASSES = 3  # one predict call is too short to time on its own

    def __init__(self, seed: int, shapes: Shapes, work_dir: str):
        if shapes.epochs > shapes.t_out:
            raise ValueError("forecast epochs beyond t_out would let patience end training early")
        self.seed, self.shapes = seed, shapes

    def setup(self) -> None:
        self.splits = self.ds = None
        self.ds = make_dataset(self.seed, self.shapes, ("train", "val", "test"))
        steps = self.shapes.t_in - 1
        self.splits = {
            name: dgcpm.SplitArrays.from_windows(win, *distance_stacks(self.ds.prior, len(win), steps))
            for name, win in self.ds.windows.items()
        }

    def unit(self, tally: Tally) -> Pass:
        sh, splits = self.shapes, self.splits
        dims = dgcpm.DgcpmDims(t_in=sh.t_in, t_out=sh.t_out, **dict(sh.dgcpm_dims))
        cfg = dgcpm.DgcpmTrainConfig(max_epochs=sh.epochs, batch_size=sh.batch, seed=self.seed)
        w_train, w_val = len(splits["train"].values), len(splits["val"].values)
        w_all = sum(len(s.values) for s in splits.values())
        steps = math.ceil(w_train / sh.batch) * sh.epochs
        start = time.perf_counter()
        try:
            result = dgcpm.curriculum_train(splits["train"], splits["val"], self.ds.prior, dims, self.ds.stats, cfg)
        except Exception:
            _log_failure("curriculum_train")
            tally.add(steps + w_all, steps + w_all)
            return Pass(time.perf_counter() - start, {}, "curriculum_train failed")
        train_s = time.perf_counter() - start
        finite = all(np.isfinite(r["train_loss"]) and np.isfinite(r["val_mae"]) for r in result.history)
        tally.add(steps, 0 if finite else steps)

        rates, pass_s, first = [], [], []
        for rep in range(self.PREDICT_PASSES):
            elapsed = 0.0
            for split in splits.values():
                start = time.perf_counter()
                try:
                    preds = dgcpm.predict(split, self.ds.prior, result.params, self.ds.stats, batch_size=sh.batch)
                except Exception:
                    _log_failure("predict")
                    tally.add(len(split.values), len(split.values))
                    continue
                elapsed += time.perf_counter() - start
                w = len(split.values)
                if preds.shape != (w, sh.t_out, sh.n):
                    tally.add(w, w)
                    continue
                tally.add(w, int((~np.isfinite(preds).reshape(w, -1).all(axis=1)).sum()))
                if rep == 0:
                    first.append(preds.tobytes())
            pass_s.append(elapsed)
            rates.append(w_all / elapsed if elapsed > 0 else 0.0)
        return Pass(
            pipeline_s=train_s + statistics.median(pass_s),
            samples={
                "train_windows_per_s": [len(result.history) * (w_train + w_val) / train_s],
                "infer_windows_per_s": rates,
            },
            digest=_sha(*first),
            layer={"dgcpm.best_val_mae": result.best_val_mae},
        )


# --------------------------------------------------------------------- #
# the command-line pipeline, one process per stage
# --------------------------------------------------------------------- #


def _read_csv(path: str, header: list[str], numeric: list[str], optional: tuple[str, ...] = ()) -> list[dict]:
    """Rows of a stage artifact; raises ValueError unless every numeric cell is finite."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"{path}: unexpected header")
        rows = [dict(zip(header, row)) for row in reader]
    for row in rows:
        for key in numeric:
            if row[key] == "" and key in optional:
                continue
            if not math.isfinite(float(row[key])):
                raise ValueError(f"{path}: non-finite {key}")
    return rows


class CliPipeline:
    """``python -m tvdbn`` stages from train-structure to evaluate, on synth CSVs."""

    name = "cli-pipeline"
    in_process = False

    def __init__(self, seed: int, shapes: Shapes, work_dir: str):
        self.seed, self.shapes, self.work_dir = seed, shapes, work_dir
        self.data_dir = os.path.join(work_dir, "data")
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), TVDBN_LOG="WARNING")
        self.trace_summaries: list[str] = []  # summary files written by traced stages
        self.counts: dict[str, int] = {}

    def _config(self, out_dir: str) -> str:
        sh = self.shapes
        entries = {
            "out_dir": out_dir,
            "speed_csv": os.path.join(self.data_dir, "speed.csv"),
            "dist_csv": os.path.join(self.data_dir, "dist.csv"),
            "synth_n": sh.n, "synth_t": sh.t, "synth_regimes": sh.regimes,
            "synth_density": sh.density, "t_in": sh.t_in, "t_out": sh.t_out,
            "stride": sh.stride, "inner_epochs": 1, "max_outer_iters": 1,
            "structure_batch": sh.batch, "forecast_batch": sh.batch,
            "forecast_epochs": sh.epochs, "seed": self.seed,
            "horizons": ",".join(str(h) for h in (3, 6, 12) if h <= sh.t_out),
            **dict(sh.grcsl_dims), **dict(sh.dgcpm_dims),
        }
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "run.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in entries.items())
        return path

    def run_stage(self, stage: str, config: str, trace_to: str | None) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS (MB) of one stage process."""
        if trace_to is None:
            cmd = [sys.executable, "-m", "tvdbn", stage, "--config", config]
        else:
            cmd = [sys.executable, STAGE_SCRIPT, trace_to, stage, "--config", config]
            self.trace_summaries.append(trace_to + ".summary.json")
        with open(os.path.join(os.path.dirname(config), f"{stage}.log"), "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup(self, trace_to: str | None = None) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        code, _, _ = self.run_stage("synth", self._config(self.data_dir), trace_to)
        if code != 0:
            raise RuntimeError(f"synth exited {code}")

    def window_counts(self) -> dict[str, int]:
        """Windows per split, counted with the program's own loader and windowing."""
        sh = self.shapes
        series = data.load_speed_table(os.path.join(self.data_dir, "speed.csv"))
        parts = data.split_chronological(series)
        return {
            name: len(data.make_windows(part, sh.t_in, sh.t_out, sh.stride))
            for name, part in zip(("train", "val", "test"), parts)
        }

    def check_artifacts(self, out: str) -> tuple[int, int]:
        """Failed artifact checks, and the number of forecast windows in forecasts.csv."""
        checks = (
            ("graphs.csv", ["window_start_ts", "step", "lag", "src_id", "dst_id", "weight"],
             ["window_start_ts", "step", "lag", "weight"], ()),
            ("forecasts.csv", ["window_start_ts", "horizon_step", "sensor_id", "predicted", "actual", "valid"],
             ["window_start_ts", "horizon_step", "predicted", "actual", "valid"], ()),
            ("report.csv", ["horizon", "mae", "rmse", "mape", "valid_cells"],
             ["mae", "rmse", "mape", "valid_cells"], ("mape",)),  # mape is blank when undefined
        )
        failed, forecast_windows = 0, 0
        for name, header, numeric, optional in checks:
            try:
                rows = _read_csv(os.path.join(out, name), header, numeric, optional)
            except (OSError, ValueError, KeyError):
                _log_failure(f"artifact {name}")
                failed += 1
                continue
            if name == "forecasts.csv":
                forecast_windows = len({row["window_start_ts"] for row in rows})
        return failed, forecast_windows

    def unit(self, tally: Tally, trace_to: str | None = None) -> Pass:
        out = os.path.join(self.work_dir, "run")
        shutil.rmtree(out, ignore_errors=True)
        config = self._config(out)
        walls, peaks, layer = {}, {}, {}
        for i, stage in enumerate(CLI_STAGES):
            code, walls[stage], peaks[stage] = self.run_stage(
                stage, config, None if trace_to is None else f"{trace_to}-{stage}"
            )
            if code != 0:
                print(f"perfbench: stage {stage} exited {code}", file=sys.stderr)
                tally.add(len(CLI_STAGES) - i, len(CLI_STAGES) - i)
                return Pass(sum(walls.values()), {}, f"{stage} failed", peak_rss_mb=max(peaks.values()))
        failed, forecast_windows = self.check_artifacts(out)
        tally.add(len(CLI_STAGES), failed)
        for stage in CLI_STAGES:
            key = "cli." + stage.replace("-", "_")
            layer[key + "_s"] = walls[stage]
            layer[key + "_peak_rss_mb"] = peaks[stage]
        with open(os.path.join(out, "history.csv")) as fh:
            outer_iters = sum(1 for _ in fh) - 1
        self.counts = self.counts or self.window_counts()
        train_windows = outer_iters * self.counts["train"]
        artifacts = ("history.csv", "graphs.csv", "forecast_history.csv", "forecasts.csv", "report.csv")
        digest_parts = []
        for name in artifacts:
            with open(os.path.join(out, name), "rb") as fh:
                digest_parts.append(fh.read())
        return Pass(
            pipeline_s=sum(walls.values()),
            samples={
                "train_windows_per_s": [train_windows / walls["train-structure"]],
                "infer_windows_per_s": [forecast_windows / walls["predict"]],
            },
            digest=_sha(*digest_parts),
            layer=layer,
            peak_rss_mb=max(peaks.values()),
        )


WORKLOADS = {cls.name: cls for cls in (StructureTrain, ForecastTrain, CliPipeline)}
