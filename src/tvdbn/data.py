"""Loading, normalizing, and windowing of sensor speed tables.

File formats (every CSV is read by `read_table` and written by `write_table`,
but for `forecast_history.csv`, which the CLI writes line by line):

* speed table: CSV with header ``timestamp,<id1>,...,<idN>``; one row per
  5-minute tick, timestamps ISO-8601; a literal ``0.0`` cell means the
  reading is missing and is masked out of every loss and metric downstream;
* distances: CSV with header ``from,to,dist`` describing directed pairwise
  road distances, turned into a prior graph by a Gaussian kernel;
* manifest: flat ``key=value`` text recording normalization statistics and
  split boundaries next to exported artifacts; CLI config files share it.

Timestamps are parsed as naive ISO-8601 against a fixed 1970-01-01 origin,
so epoch arithmetic (and the derived time-of-day feature) never consults the
host timezone.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from functools import cached_property, partial
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError, DataError, NumericalError

_EPOCH = datetime(1970, 1, 1)
TICK_SECONDS = 300  # fixed 5-minute sampling period
SECONDS_PER_DAY = 86400.0
DISTANCE_CSV_HEADER = ["from", "to", "dist"]
# Default prior edge cut-off and chronological split shares; the CLI's keys default to them too.
KAPPA = 0.1
TRAIN_RATIO, VAL_RATIO = 0.7, 0.1


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
# table I/O
# --------------------------------------------------------------------- #


def read_table(path: str) -> Iterator[tuple[int, list[str]]]:
    """The rows of a CSV table as (line_no, cells), read as the caller consumes them.

    The header comes first with its cells stripped, then every non-blank
    row; line_no is the file line the row ends on. A file that cannot be
    opened or decoded, an empty file, and a row whose cell count differs
    from the header's are a DataError naming the file (and the line).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            width = len(header)
            yield reader.line_num, [cell.strip() for cell in header]
            for row in filter(None, reader):
                if len(row) != width:
                    raise DataError(f"{path} line {reader.line_num}: expected {width} cells, got {len(row)}")
                yield reader.line_num, row
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def write_table(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV table: the header, then one line per row of cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_timestamp(text: str, where: str) -> int:
    try:
        dt = datetime.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"{where}: bad timestamp {text!r}: {exc}") from None
    return int(round((dt.replace(tzinfo=None) - _EPOCH).total_seconds()))


def load_speed_table(path: str) -> SpeedSeries:
    """Parse a speed CSV into a SpeedSeries, masking literal-0.0 cells.

    Raises DataError naming the offending line for ragged rows, non-numeric
    cells, non-monotone timestamps, or spacing other than 5 minutes, and
    naming the sensor and timestamp of a non-finite reading.
    """
    rows = read_table(path)
    _, header = next(rows)
    if header[:1] != ["timestamp"]:
        raise DataError(f"{path}: first header column must be 'timestamp'")
    sensor_ids = header[1:]
    if not sensor_ids:
        raise DataError(f"{path}: no sensor columns")
    timestamps: list[int] = []

    def cells() -> Iterator[float]:
        for line_no, row in rows:
            where = f"{path} line {line_no}"
            stamp = _parse_timestamp(row[0], where)
            step = stamp - timestamps[-1] if timestamps else TICK_SECONDS
            if step <= 0:
                raise DataError(f"{where}: timestamps not strictly increasing")
            if step != TICK_SECONDS:
                raise DataError(f"{where}: expected 5-minute spacing, got {step}s")
            timestamps.append(stamp)
            try:
                yield from map(float, row[1:])
            except ValueError:
                raise DataError(f"{where}: non-numeric cell") from None

    # Every row's cells go into one buffer, sized once from the file's line feeds (every data
    # row but perhaps the last ends in one) and zero-padded: no buffer grows and leaves copies.
    with open(path, "rb") as fh:
        feeds = sum(block.count(b"\n") for block in iter(partial(fh.read, 1 << 20), b""))
    cells_read = cells()
    flat = np.fromiter(chain(cells_read, repeat(0.0)), dtype=np.float64, count=feeds * len(sensor_ids))
    if next(cells_read, None) is not None:
        raise DataError(f"{path}: more rows than line feeds; lines must end in \\n or \\r\\n")
    if not timestamps:
        raise DataError(f"{path}: no data rows")
    table = flat.reshape(feeds, len(sensor_ids))[: len(timestamps)]
    if not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        stamp = (_EPOCH + timedelta(seconds=timestamps[row])).isoformat(sep=" ")
        raise DataError(f"{path}: non-finite reading for sensor {sensor_ids[col]!r} at {stamp}")
    return SpeedSeries(sensor_ids=sensor_ids, timestamps=timestamps, values=table, mask=table != 0.0)


def save_speed_table(path: str, series: SpeedSeries) -> None:
    """Write a SpeedSeries back to the CSV speed-table format."""
    stamps = ((_EPOCH + timedelta(seconds=int(ts))).isoformat(sep=" ") for ts in series.timestamps)
    rows = ([stamp, *(f"{v:.12g}" for v in row)] for stamp, row in zip(stamps, series.values))
    write_table(path, ["timestamp", *series.sensor_ids], rows)


# --------------------------------------------------------------------- #
# prior graph
# --------------------------------------------------------------------- #


def load_distance_rows(path: str, sensor_ids: list[str]) -> list[tuple[str, str, float]]:
    """Parse a `from,to,dist` CSV between known sensors into (from_id, to_id, distance) rows."""
    known = set(sensor_ids)
    rows = read_table(path)
    if next(rows)[1] != DISTANCE_CSV_HEADER:
        raise DataError(f"{path}: expected header '{','.join(DISTANCE_CSV_HEADER)}'")
    out: list[tuple[str, str, float]] = []
    for line_no, (src, dst, dist) in rows:
        where = f"{path} line {line_no}"
        src, dst = src.strip(), dst.strip()
        if src not in known or dst not in known:
            raise DataError(f"{where}: unknown sensor {src if src not in known else dst!r}")
        try:
            d = float(dist)
        except ValueError:
            raise DataError(f"{where}: non-numeric distance") from None
        if not np.isfinite(d):
            raise DataError(f"{where}: non-finite distance {dist!r}")
        out.append((src, dst, d))
    return out


def check_kappa(kappa: float) -> None:
    """The edge cut-off rule of `build_distance_graph`."""
    if not 0 < kappa <= 1:
        raise ConfigError(f"kappa must be in (0, 1], got {kappa}")


def build_distance_graph(
    rows: list[tuple[str, str, float]],
    sensor_ids: list[str],
    kappa: float = KAPPA,
) -> PriorGraph:
    """Gaussian-kernel prior: w = exp(-dist^2 / sigma^2), kept iff w >= kappa.

    sigma is the population standard deviation of the listed distances;
    a zero sigma (all distances identical) is a configuration error because
    the kernel scale is undefined. Unlisted pairs get weight 0.
    """
    check_kappa(kappa)
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
    return PriorGraph(sensor_ids=list(sensor_ids), weights=weights)


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


def check_split_ratios(train_ratio: float, val_ratio: float) -> None:
    """The ratio rule of `split_chronological`: a non-empty train share and room for a test split."""
    if train_ratio <= 0 or val_ratio < 0 or train_ratio + val_ratio >= 1:
        raise ConfigError(f"bad split ratios train={train_ratio}, val={val_ratio}")


def split_chronological(
    series: SpeedSeries,
    train_ratio: float = TRAIN_RATIO,
    val_ratio: float = VAL_RATIO,
) -> tuple[SpeedSeries, SpeedSeries, SpeedSeries]:
    """Split into train/val/test ordered in time.

    Train gets floor(train_ratio * T) rows, validation floor(val_ratio * T),
    test the remainder. Each slice keeps its absolute offset.
    """
    check_split_ratios(train_ratio, val_ratio)
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


def check_window_geometry(t_in: int, t_out: int, stride: int = 1) -> None:
    """The geometry rule of `make_windows`: two input steps, one target step, a positive stride."""
    if t_in < 2 or t_out < 1 or stride < 1:
        raise ConfigError(f"bad window geometry t_in={t_in}, t_out={t_out}, stride={stride}")


def make_windows(series: SpeedSeries, t_in: int, t_out: int, stride: int = 1) -> WindowSet:
    """Slice a series into overlapping (input, target) windows.

    Produces floor((T - t_in - t_out) / stride) + 1 windows; no window
    crosses the end of the series, and windowing a split keeps every window
    inside that split.
    """
    check_window_geometry(t_in, t_out, stride)
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
    """Read the key=value lines of a manifest or a CLI config file; values stay strings.

    Blank lines and lines starting with # are skipped. An unreadable file or
    a line without `=` is a DataError naming the file (and the line).
    """
    entries: dict[str, str] = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataError(f"{path} line {line_no}: expected key=value")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return entries
