"""Speed/distance table IO, normalization, windowing, and splits."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import tvdbn
from tvdbn.data import (
    SpeedSeries,
    apply_zscore,
    build_distance_graph,
    invert_zscore,
    load_distance_rows,
    load_manifest,
    load_speed_table,
    make_windows,
    read_table,
    save_manifest,
    save_speed_table,
    split_chronological,
    time_of_day,
    zscore_fit_apply,
)
from tvdbn.errors import ConfigError, DataError, NumericalError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def make_series(values, mask=None, start=1330560000):
    values = np.asarray(values, dtype=float)
    t, n = values.shape
    return SpeedSeries(
        sensor_ids=[f"s{i}" for i in range(n)],
        timestamps=np.arange(t, dtype=np.int64) * 300 + start,
        values=values,
        mask=np.ones((t, n), dtype=bool) if mask is None else np.asarray(mask, dtype=bool),
    )


class TestSpeedTable:
    def test_round_trip(self, tmp_path):
        series = make_series([[1.5, 2.25], [0.0, 64.2]])
        path = str(tmp_path / "speed.csv")
        save_speed_table(path, series)
        got = load_speed_table(path)
        assert got.sensor_ids == series.sensor_ids
        np.testing.assert_array_equal(got.timestamps, series.timestamps)
        np.testing.assert_array_equal(got.values, series.values)

    def test_literal_zero_is_missing(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "timestamp,a,b\n"
            "2012-03-01 00:00:00,0.0,50.0\n"
            "2012-03-01 00:05:00,60.0,0.0\n",
        )
        got = load_speed_table(path)
        np.testing.assert_array_equal(got.mask, [[False, True], [True, False]])

    def test_rejects_wrong_spacing_naming_the_line(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "timestamp,a\n"
            "2012-03-01 00:00:00,1.0\n"
            "2012-03-01 00:07:00,2.0\n",
        )
        with pytest.raises(DataError, match="line 3"):
            load_speed_table(path)

    def test_error_lines_count_blank_lines(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "timestamp,a\n"
            "2012-03-01 00:00:00,1.0\n"
            "\n"
            "2012-03-01 00:07:00,2.0\n",
        )
        with pytest.raises(DataError, match="line 4: expected 5-minute spacing"):
            load_speed_table(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_blank_lines_and_a_missing_final_newline_keep_every_row(self, tmp_path, end):
        # The table is sized from the line feeds: blank lines only pad it, and
        # a last row without a line feed still fits.
        lines = ["timestamp,a,b", "", "2012-03-01 00:00:00,1.0,2.0", "", "", "2012-03-01 00:05:00,3.0,0.0"]
        for text in (end.join(lines), end.join(lines) + end + end):
            got = load_speed_table(write(tmp_path, "s.csv", text))
            np.testing.assert_array_equal(got.values, [[1.0, 2.0], [3.0, 0.0]])
            np.testing.assert_array_equal(got.mask, [[True, True], [True, False]])
            np.testing.assert_array_equal(got.timestamps - got.timestamps[0], [0, 300])

    def test_header_only_and_carriage_return_tables_are_refused(self, tmp_path):
        for text in ("timestamp,a\n", "timestamp,a"):
            with pytest.raises(DataError, match="no data rows"):
                load_speed_table(write(tmp_path, "s.csv", text))
        with pytest.raises(DataError, match="more rows than line feeds"):
            load_speed_table(write(tmp_path, "s.csv", "timestamp,a\r2012-03-01 00:00:00,1.0\r"))

    def test_errors_past_blank_lines_name_the_line_without_a_final_newline(self, tmp_path):
        text = "timestamp,a\n\n2012-03-01 00:00:00,1.0\n\n2012-03-01 00:05:00,x"
        with pytest.raises(DataError, match="line 5: non-numeric cell"):
            load_speed_table(write(tmp_path, "s.csv", text))

    def test_rejects_ragged_row(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "timestamp,a,b\n2012-03-01 00:00:00,1.0\n",
        )
        with pytest.raises(DataError, match="line 2"):
            load_speed_table(path)

    def test_rejects_non_numeric_cell(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "timestamp,a\n2012-03-01 00:00:00,oops\n",
        )
        with pytest.raises(DataError, match="line 2"):
            load_speed_table(path)

    def test_rejects_non_monotone_timestamps(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "timestamp,a\n"
            "2012-03-01 00:05:00,1.0\n"
            "2012-03-01 00:00:00,2.0\n",
        )
        with pytest.raises(DataError):
            load_speed_table(path)


class TestTable:
    def test_read_table_names_file_and_line_of_a_ragged_row(self, tmp_path):
        path = write(tmp_path, "t.csv", " a , b \n1,2\n\n3,4,5\n")
        rows = read_table(path)
        assert next(rows) == (1, ["a", "b"])
        assert next(rows) == (2, ["1", "2"])
        with pytest.raises(DataError, match=r"t\.csv line 4: expected 2 cells, got 3"):
            next(rows)

    def test_read_table_rejects_an_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(DataError, match=r"empty\.csv: empty file"):
            list(read_table(path))

    def test_only_data_builds_csv_readers_and_writers(self):
        """The table format is decided in one module: no other module builds a csv.reader or csv.writer."""
        package = Path(tvdbn.__file__).parent
        users = set()
        for module in package.rglob("*.py"):
            for node in ast.walk(ast.parse(module.read_text(), str(module))):
                named = (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "csv"
                    and node.attr in ("reader", "writer")
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "csv"
                    and any(alias.name in ("reader", "writer") for alias in node.names)
                )
                if named:
                    users.add(module.relative_to(package).as_posix())
        assert users == {"data.py"}


class TestDistanceGraph:
    def test_kernel_weights_and_threshold(self, tmp_path):
        # Distances {1,2,3}: population std is sqrt(2/3), so
        # w(d) = exp(-d^2/(2/3)); only d=1 -> exp(-1.5) ~ 0.223 survives
        # kappa = 0.1. The other two rows fall below threshold.
        path = write(
            tmp_path,
            "d.csv",
            "from,to,dist\na,b,1.0\nb,c,2.0\na,c,3.0\n",
        )
        rows = load_distance_rows(path, ["a", "b", "c"])
        g = build_distance_graph(rows, ["a", "b", "c"], kappa=0.1)
        expected = np.exp(-1.0 / (2.0 / 3.0))
        assert g.weights[0, 1] == pytest.approx(expected, rel=1e-12)
        assert g.weights[1, 2] == 0.0
        assert g.weights[0, 2] == 0.0
        # Directed input: only (from,to) entries set.
        assert g.weights[1, 0] == 0.0

    def test_zero_spread_distances_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "from,to,dist\na,b,2.0\nb,a,2.0\n")
        rows = load_distance_rows(path, ["a", "b"])
        with pytest.raises(ConfigError):
            build_distance_graph(rows, ["a", "b"])

    def test_unknown_sensor_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "from,to,dist\nb,a,2.0\na,zzz,1.0\n")
        with pytest.raises(DataError, match=r"d\.csv line 3: unknown sensor 'zzz'"):
            load_distance_rows(path, ["a", "b"])
        with pytest.raises(DataError, match="zzz"):
            build_distance_graph([("b", "a", 2.0), ("a", "zzz", 1.0)], ["a", "b"])

    def test_header_enforced(self, tmp_path):
        path = write(tmp_path, "d.csv", "src,dst,w\na,b,1.0\n")
        with pytest.raises(DataError):
            load_distance_rows(path, ["a", "b"])


class TestNormalization:
    def test_population_zscore_on_three_points(self):
        # mean 2, population std sqrt(2/3): z = +/-1.22474487...
        series = make_series(np.array([[1.0], [2.0], [3.0]]))
        stats, normed = zscore_fit_apply(series)
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
        np.testing.assert_allclose(
            normed.values[:, 0],
            [-1.224744871391589, 0.0, 1.224744871391589],
            rtol=1e-12,
        )

    def test_stats_ignore_masked_cells(self):
        values = np.array([[1.0, 999.0], [2.0, 999.0], [3.0, 999.0]])
        mask = np.array([[True, False], [True, False], [True, False]])
        stats, _ = zscore_fit_apply(make_series(values, mask))
        assert stats.mean == pytest.approx(2.0)  # the 999s are invisible

    def test_missing_cells_pinned_to_zero_after_normalization(self):
        values = np.array([[1.0, 5.0], [2.0, 0.0], [3.0, 5.0]])
        mask = values != 0.0
        stats, normed = zscore_fit_apply(make_series(values, mask))
        assert normed.values[1, 1] == 0.0

    def test_constant_series_rejected(self):
        with pytest.raises(NumericalError):
            zscore_fit_apply(make_series(np.full((4, 2), 7.0)))

    def test_invert_round_trips(self):
        series = make_series(np.array([[10.0], [20.0], [40.0]]))
        stats, normed = zscore_fit_apply(series)
        np.testing.assert_allclose(
            invert_zscore(stats, normed.values), series.values, rtol=1e-12
        )

    def test_apply_uses_train_stats(self):
        train = make_series(np.array([[1.0], [3.0]]))
        stats, _ = zscore_fit_apply(train)
        other = make_series(np.array([[5.0]]))
        out = apply_zscore(stats, other)
        assert out.values[0, 0] == pytest.approx((5.0 - 2.0) / 1.0)


class TestTimeOfDay:
    def test_nine_thirty_five(self):
        # 09:35:00 into the day = 34500 s of 86400.
        ts = np.array([1330560000 + 9 * 3600 + 35 * 60], dtype=np.int64)
        base = (1330560000 % 86400)
        ts = np.array([1330560000 - base + 9 * 3600 + 35 * 60], dtype=np.int64)
        np.testing.assert_allclose(time_of_day(ts), [34500.0 / 86400.0])

    def test_midnight_is_zero(self):
        ts = np.array([86400 * 1000], dtype=np.int64)
        np.testing.assert_allclose(time_of_day(ts), [0.0])


class TestWindowsAndSplits:
    def test_window_counts(self):
        for t, stride, expected in [(24, 1, 1), (25, 1, 2), (100, 5, 16)]:
            series = make_series(np.arange(t, dtype=float).reshape(t, 1) + 1.0)
            ws = make_windows(series, 12, 12, stride=stride)
            assert len(ws) == expected, (t, stride)

    def test_window_contents_align(self):
        t = 30
        series = make_series(np.arange(t, dtype=float).reshape(t, 1) + 1.0)
        ws = make_windows(series, 12, 12, stride=2)
        assert ws.start_index[1] == 2
        np.testing.assert_array_equal(ws.values[1, :, 0, 0], np.arange(2, 14) + 1.0)
        np.testing.assert_array_equal(ws.target[1, :, 0, 0], np.arange(14, 26) + 1.0)
        assert ws.start_ts[1] == series.timestamps[2]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_window_arrays_match_per_window_slices(self, stride):
        t, n, t_in, t_out = 100, 3, 5, 4
        values = np.arange(1.0, t * n + 1.0).reshape(t, n)
        values[::7, 1] = 0.0
        _, _, test = split_chronological(make_series(values, mask=values != 0.0))
        assert test.offset > 0
        ws = make_windows(test, t_in, t_out, stride=stride)
        tod = time_of_day(test.timestamps)
        count = (test.length - t_in - t_out) // stride + 1
        assert len(ws) == count
        for name in ("values", "mask", "tod", "target", "target_mask"):
            steps = t_out if name.startswith("target") else t_in
            arr = getattr(ws, name)
            assert arr.shape == (count, steps, n, 1), name
            assert arr.flags.c_contiguous, name
        assert ws.start_index.dtype == np.int64 and ws.start_ts.dtype == np.int64
        for k in range(count):
            lo = k * stride
            mid, hi = lo + t_in, lo + t_in + t_out
            np.testing.assert_array_equal(ws.values[k, ..., 0], test.values[lo:mid])
            np.testing.assert_array_equal(ws.mask[k, ..., 0], test.mask[lo:mid])
            np.testing.assert_array_equal(ws.tod[k, ..., 0], np.repeat(tod[lo:mid, None], n, axis=1))
            np.testing.assert_array_equal(ws.target[k, ..., 0], test.values[mid:hi])
            np.testing.assert_array_equal(ws.target_mask[k, ..., 0], test.mask[mid:hi])
            assert ws.start_index[k] == test.offset + lo
            assert ws.start_ts[k] == test.timestamps[lo]

    def test_window_views_are_built_once_per_set(self):
        values = np.arange(1.0, 61.0).reshape(30, 2)
        ws = make_windows(make_series(values), 4, 2, stride=3)
        views = ws.windows
        assert ws.windows is views and len(views) == len(ws)
        for k, win in enumerate(views):
            assert np.shares_memory(win.values, ws.values)
            assert win.start_index == ws.start_index[k]
        arrays = ("values", "mask", "tod", "target", "target_mask", "start_index", "start_ts")
        head = dataclasses.replace(ws, **{name: getattr(ws, name)[:2] for name in arrays})
        assert len(head.windows) == 2 and head.windows is not views

    def test_too_short_series_rejected(self):
        series = make_series(np.ones((23, 1)) * np.arange(1, 24)[:, None])
        with pytest.raises(DataError):
            make_windows(series, 12, 12)

    def test_chronological_split_sizes(self):
        # 34272 five-minute ticks: floor(.7*T)=23990, floor(.1*T)=3427, rest 6855.
        t = 34272
        series = make_series(np.ones((t, 2)) * np.arange(1, t + 1)[:, None])
        train, val, test = split_chronological(series)
        assert train.length == 23990
        assert val.length == 3427
        assert test.length == 6855

    def test_split_is_contiguous_and_ordered(self):
        t = 100
        series = make_series((np.arange(t, dtype=float) + 1.0).reshape(t, 1))
        train, val, test = split_chronological(series)
        joined = np.concatenate([train.values, val.values, test.values])
        np.testing.assert_array_equal(joined, series.values)
        assert val.offset == train.length
        assert test.offset == train.length + val.length

    def test_window_start_index_includes_split_offset(self):
        t = 100
        series = make_series((np.arange(t, dtype=float) + 1.0).reshape(t, 1))
        _, val, _ = split_chronological(series)
        ws = make_windows(val, 2, 2, stride=1)
        assert ws.start_index[0] == val.offset


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "m.txt")
        save_manifest(path, {"mean": 53.25, "std": 1e-3, "rows": 42, "note": "x"})
        got = load_manifest(path)
        assert got["mean"] == "53.25"
        assert got["rows"] == "42"
        assert got["note"] == "x"

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# header comment\nkey=value\n")
        assert load_manifest(str(p)) == {"key": "value"}
