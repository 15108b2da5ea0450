"""Loading, normalizing, and windowing of sensor speed tables.

File formats:

* speed table: CSV with header ``timestamp,<id1>,...,<idN>``; one row per
  5-minute tick, timestamps ISO-8601; a literal ``0.0`` cell means the
  reading is missing and is masked out of every loss and metric downstream;
* distances: CSV with header ``from,to,dist`` describing directed pairwise
  road distances, turned into a prior graph by a Gaussian kernel;
* manifest: flat ``key=value`` text recording normalization statistics and
  split boundaries next to exported artifacts.

Timestamps are parsed as naive ISO-8601 against a fixed 1970-01-01 origin,
so epoch arithmetic (and the derived time-of-day feature) never consults the
host timezone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, NumericalError

__all__ = [
    "SpeedSeries",
    "PriorGraph",
    "NormStats",
    "Window",
    "WindowSet",
    "load_speed_table",
    "save_speed_table",
    "build_distance_graph",
    "load_distance_rows",
    "zscore_fit_apply",
    "apply_zscore",
    "invert_zscore",
    "time_of_day",
    "split_chronological",
    "make_windows",
    "save_manifest",
    "load_manifest",
]

_EPOCH = datetime(1970, 1, 1)
TICK_SECONDS = 300  # fixed 5-minute sampling period
SECONDS_PER_DAY = 86400.0


@dataclass
class SpeedSeries:
    """A regularly sampled multivariate series with a validity mask.

    values[t, i] is sensor i at tick t; mask[t, i] is False exactly where
    the raw cell was the literal 0.0 missing marker. `offset` is the index
    of the first row within the parent series, so slices taken by the
    chronological split keep their absolute positions.
    """

    sensor_ids: list[str]
    timestamps: np.ndarray  # (T,) int64 epoch seconds
    values: np.ndarray  # (T, N) float64
    mask: np.ndarray  # (T, N) bool
    offset: int = 0

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        t, n = self.values.shape
        if self.timestamps.shape != (t,) or self.mask.shape != (t, n) or len(self.sensor_ids) != n:
            raise DataError("inconsistent series shapes")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def num_sensors(self) -> int:
        return self.values.shape[1]


@dataclass
class PriorGraph:
    """Undirected-ish prior adjacency from pairwise distances.

    Weights are exp(-dist^2 / sigma^2) thresholded at kappa, so every entry
    is either 0 or in [kappa, 1].
    """

    sensor_ids: list[str]
    weights: np.ndarray  # (N, N) float64
    kappa: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = len(self.sensor_ids)
        if self.weights.shape != (n, n):
            raise DataError("prior graph shape does not match sensor count")


@dataclass
class NormStats:
    """Population z-score statistics fit on observed training cells only."""

    mean: float
    std: float


@dataclass
class Window:
    """One model sample: T_in input ticks and T_out target ticks.

    Arrays are (T, N, 1); values are normalized, masks mark observed cells,
    tod is time-of-day in [0, 1). start_index is absolute within the full
    series; start_ts is the epoch second of the first input tick.
    """

    values: np.ndarray
    mask: np.ndarray
    tod: np.ndarray
    target: np.ndarray
    target_mask: np.ndarray
    start_index: int
    start_ts: int


@dataclass
class WindowSet:
    """Every window of one series, as arrays with the window on axis 0.

    `values`, `mask` and `tod` are (W, T_in, N, 1) and `target`,
    `target_mask` are (W, T_out, N, 1), with the meanings of the same
    fields of Window; `start_index` and `start_ts` are (W,) int64.
    """

    values: np.ndarray
    mask: np.ndarray
    tod: np.ndarray
    target: np.ndarray
    target_mask: np.ndarray
    start_index: np.ndarray
    start_ts: np.ndarray
    t_in: int
    t_out: int
    stride: int
    sensor_ids: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return self.values.shape[0]

    @cached_property
    def windows(self) -> list[Window]:
        """Per-window views of the arrays, built on first access.

        Only the benchmark harness in perfbench/ reads windows one at a
        time; the package, its tests and demos use the arrays. The views
        share the arrays' memory; `dataclasses.replace` gives a new set
        with its own views.
        """
        return [
            Window(
                values=self.values[k],
                mask=self.mask[k],
                tod=self.tod[k],
                target=self.target[k],
                target_mask=self.target_mask[k],
                start_index=int(self.start_index[k]),
                start_ts=int(self.start_ts[k]),
            )
            for k in range(len(self))
        ]


# --------------------------------------------------------------------- #
# speed table I/O
# --------------------------------------------------------------------- #


def _open_table(path: str):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_timestamp(text: str, line_no: int) -> int:
    try:
        dt = datetime.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad timestamp {text!r}: {exc}") from None
    if dt.tzinfo is not None:
        dt = dt.replace(tzinfo=None)
    return int(round((dt - _EPOCH).total_seconds()))


def load_speed_table(path: str) -> SpeedSeries:
    """Parse a speed CSV into a SpeedSeries, masking literal-0.0 cells.

    Raises DataError naming the offending line for ragged rows, non-numeric
    cells, non-monotone timestamps, or spacing other than 5 minutes.
    """
    with _open_table(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0].strip() != "timestamp":
            raise DataError(f"{path}: first header column must be 'timestamp'")
        sensor_ids = [c.strip() for c in header[1:]]
        if not sensor_ids:
            raise DataError(f"{path}: no sensor columns")
        n = len(sensor_ids)
        timestamps: list[int] = []
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n + 1:
                raise DataError(f"{path} line {line_no}: expected {n + 1} cells, got {len(row)}")
            timestamps.append(_parse_timestamp(row[0], line_no))
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError:
                raise DataError(f"{path} line {line_no}: non-numeric cell") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    ts = np.asarray(timestamps, dtype=np.int64)
    diffs = np.diff(ts)
    if np.any(diffs <= 0):
        bad = int(np.argmax(diffs <= 0)) + 3  # +2 header/first row, +1 to the second of the pair
        raise DataError(f"{path} line {bad}: timestamps not strictly increasing")
    if ts.size > 1 and np.any(diffs != TICK_SECONDS):
        bad = int(np.argmax(diffs != TICK_SECONDS)) + 3
        raise DataError(f"{path} line {bad}: expected 5-minute spacing, got {int(diffs[bad - 3])}s")
    values = np.asarray(rows, dtype=np.float64)
    mask = values != 0.0
    return SpeedSeries(sensor_ids=sensor_ids, timestamps=ts, values=values, mask=mask)


def save_speed_table(path: str, series: SpeedSeries) -> None:
    """Write a SpeedSeries back to the CSV speed-table format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + list(series.sensor_ids))
        for t in range(series.length):
            stamp = (_EPOCH + timedelta(seconds=int(series.timestamps[t]))).isoformat(sep=" ")
            row = [stamp] + [f"{v:.12g}" for v in series.values[t]]
            writer.writerow(row)


# --------------------------------------------------------------------- #
# prior graph
# --------------------------------------------------------------------- #


def load_distance_rows(path: str) -> list[tuple[str, str, float]]:
    """Parse a `from,to,dist` CSV into (from_id, to_id, distance) rows."""
    rows: list[tuple[str, str, float]] = []
    with _open_table(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [c.strip() for c in header[:3]] != ["from", "to", "dist"]:
            raise DataError(f"{path}: expected header 'from,to,dist'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path} line {line_no}: expected 3 cells, got {len(row)}")
            try:
                rows.append((row[0].strip(), row[1].strip(), float(row[2])))
            except ValueError:
                raise DataError(f"{path} line {line_no}: non-numeric distance") from None
    return rows


def build_distance_graph(
    rows: list[tuple[str, str, float]],
    sensor_ids: list[str],
    kappa: float = 0.1,
) -> PriorGraph:
    """Gaussian-kernel prior: w = exp(-dist^2 / sigma^2), kept iff w >= kappa.

    sigma is the population standard deviation of the listed distances;
    a zero sigma (all distances identical) is a configuration error because
    the kernel scale is undefined. Unlisted pairs get weight 0.
    """
    if not 0 < kappa <= 1:
        raise ConfigError(f"kappa must be in (0, 1], got {kappa}")
    if not rows:
        raise ConfigError("distance list is empty")
    index = {sid: i for i, sid in enumerate(sensor_ids)}
    dists = np.asarray([d for _, _, d in rows], dtype=np.float64)
    sigma = float(dists.std())
    if sigma == 0.0:
        raise ConfigError("distance spread is zero; kernel scale undefined")
    weights = np.zeros((len(sensor_ids), len(sensor_ids)))
    for src, dst, dist in rows:
        if src not in index or dst not in index:
            missing = src if src not in index else dst
            raise DataError(f"distance row references unknown sensor {missing!r}")
        w = float(np.exp(-(dist**2) / sigma**2))
        if w >= kappa:
            weights[index[src], index[dst]] = w
    return PriorGraph(sensor_ids=list(sensor_ids), weights=weights, kappa=kappa)


# --------------------------------------------------------------------- #
# normalization
# --------------------------------------------------------------------- #


def zscore_fit_apply(series: SpeedSeries) -> tuple[NormStats, SpeedSeries]:
    """Fit population z-score stats on observed cells and normalize.

    Call this on the training split only; use apply_zscore for the others.
    """
    observed = series.values[series.mask]
    if observed.size == 0:
        raise DataError("no observed cells to fit normalization on")
    mean = float(observed.mean())
    std = float(observed.std())
    if std <= 1e-12:
        raise NumericalError(f"constant series (std={std:.3e}); z-score undefined")
    stats = NormStats(mean=mean, std=std)
    return stats, apply_zscore(stats, series)


def apply_zscore(stats: NormStats, series: SpeedSeries) -> SpeedSeries:
    """Normalize with training stats; missing cells are pinned to 0.

    Losses and metrics exclude missing cells through the mask; zeroing them
    here just keeps model inputs bounded and reproducible.
    """
    normalized = (series.values - stats.mean) / stats.std
    normalized = np.where(series.mask, normalized, 0.0)
    return replace(series, values=normalized)


def invert_zscore(stats: NormStats, values: np.ndarray) -> np.ndarray:
    """Map normalized values back to original units."""
    return np.asarray(values, dtype=np.float64) * stats.std + stats.mean


def time_of_day(timestamps: np.ndarray) -> np.ndarray:
    """Fraction of the day elapsed, in [0, 1)."""
    ts = np.asarray(timestamps, dtype=np.int64)
    return (ts % int(SECONDS_PER_DAY)) / SECONDS_PER_DAY


# --------------------------------------------------------------------- #
# splitting and windowing
# --------------------------------------------------------------------- #


def split_chronological(
    series: SpeedSeries,
    train_ratio: float = 0.7,
    val_ratio: float = 0.1,
) -> tuple[SpeedSeries, SpeedSeries, SpeedSeries]:
    """Split into train/val/test ordered in time.

    Train gets floor(train_ratio * T) rows, validation floor(val_ratio * T),
    test the remainder. Each slice keeps its absolute offset.
    """
    if train_ratio <= 0 or val_ratio < 0 or train_ratio + val_ratio >= 1:
        raise ConfigError(f"bad split ratios train={train_ratio}, val={val_ratio}")
    t = series.length
    n_train = int(np.floor(train_ratio * t))
    n_val = int(np.floor(val_ratio * t))
    if n_train == 0 or t - n_train - n_val <= 0:
        raise DataError(f"series of length {t} too short for the requested split")

    def _slice(lo: int, hi: int) -> SpeedSeries:
        return SpeedSeries(
            sensor_ids=list(series.sensor_ids),
            timestamps=series.timestamps[lo:hi],
            values=series.values[lo:hi],
            mask=series.mask[lo:hi],
            offset=series.offset + lo,
        )

    return _slice(0, n_train), _slice(n_train, n_train + n_val), _slice(n_train + n_val, t)


def make_windows(series: SpeedSeries, t_in: int, t_out: int, stride: int = 1) -> WindowSet:
    """Slice a series into overlapping (input, target) windows.

    Produces floor((T - t_in - t_out) / stride) + 1 windows; no window
    crosses the end of the series, and windowing a split keeps every window
    inside that split.
    """
    if t_in < 2 or t_out < 1 or stride < 1:
        raise ConfigError(f"bad window geometry t_in={t_in}, t_out={t_out}, stride={stride}")
    t = series.length
    if t < t_in + t_out:
        raise DataError(f"series of length {t} shorter than one window ({t_in}+{t_out})")
    n = series.num_sensors
    values, mask = series.values[:, :, None], series.mask[:, :, None]
    tod = np.broadcast_to(time_of_day(series.timestamps)[:, None, None], (t, n, 1))
    starts = np.arange(0, t - t_in - t_out + 1, stride, dtype=np.int64)
    return WindowSet(
        values=_slide(values[: t - t_out], t_in, stride),
        mask=_slide(mask[: t - t_out], t_in, stride),
        tod=_slide(tod[: t - t_out], t_in, stride),
        target=_slide(values[t_in:], t_out, stride),
        target_mask=_slide(mask[t_in:], t_out, stride),
        start_index=series.offset + starts,
        start_ts=series.timestamps[starts],
        t_in=t_in,
        t_out=t_out,
        stride=stride,
        sensor_ids=list(series.sensor_ids),
    )


def _slide(a: np.ndarray, width: int, stride: int) -> np.ndarray:
    """Windows of `width` rows of `a`, one every `stride` rows, as one contiguous (W, width, ...) array.

    A copy, not a strided view of overlapping windows: training gathers
    batches from these arrays many times over, so they stay contiguous.
    """
    view = np.lib.stride_tricks.sliding_window_view(a, width, axis=0)[::stride]
    return np.ascontiguousarray(np.moveaxis(view, -1, 1))


# --------------------------------------------------------------------- #
# manifest
# --------------------------------------------------------------------- #


def save_manifest(path: str, entries: dict) -> None:
    """Write key=value lines; values are formatted with repr-level precision."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                fh.write(f"{key}={value!r}\n")
            else:
                fh.write(f"{key}={value}\n")


def load_manifest(path: str) -> dict[str, str]:
    """Read key=value lines back; values stay strings for the caller to coerce."""
    entries: dict[str, str] = {}
    with _open_table(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path} line {line_no}: expected key=value")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries
