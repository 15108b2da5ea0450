"""Command-line interface tests: config resolution, exit codes, the pipeline."""

import csv
import logging
import os
import shutil

import numpy as np
import pytest

from tvdbn import cli
from tvdbn.checkpoint import load_graphs, load_grcsl, save_graphs
from tvdbn.cli import RunConfig, build_parser, main, parse_config_file, resolve_config
from tvdbn.data import load_speed_table, make_windows, save_speed_table, split_chronological
from tvdbn.dgcpm import FORECAST_CSV_HEADER
from tvdbn.errors import ConfigError, DataError
from tvdbn.grcsl import EDGE_CSV_HEADER, graph_stacks
from tvdbn.synth import to_speed_series

TINY = """
# desk-scale run
out_dir={out}
synth_n=4
synth_t=240
synth_regimes=2
synth_density=0.3
synth_noise_std=0.1
t_in=6
t_out=3
stride=3
heads=2
d_att=4
h_r=6
d_s=3
h_m=6
sem_width=6
gconv_layers=1
dy_width=4
prior_width=4
inner_epochs=1
max_outer_iters=2
structure_batch=16
forecast_epochs=3
forecast_batch=16
patience=10
horizons=1,2,3
seed=11
"""


# ------------------------------------------------------------------ #
# configuration
# ------------------------------------------------------------------ #


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "t_in=8\n"
        "tau = 0.5\n"
        "use_prior=false\n"
        "horizons=3,6\n"
        "speed_csv=a=b.csv\n"  # value may contain '='
    )
    values = parse_config_file(str(path))
    assert values == {
        "t_in": 8,
        "tau": 0.5,
        "use_prior": False,
        "horizons": "3,6",
        "speed_csv": "a=b.csv",
    }


def test_run_config_builds_each_component_config():
    cfg = RunConfig(
        h_r=7, t_out=5, lam=0.25, structure_lr=0.5, structure_batch=3,
        forecast_lr=0.125, forecast_epochs=9, forecast_batch=4, patience=2, seed=6,
    )
    assert cfg.grcsl_dims().h_r == 7
    assert cfg.dgcpm_dims().t_out == 5
    g = cfg.grcsl_train_config()
    assert (g.lam, g.lr, g.batch_size, g.seed) == (0.25, 0.5, 3, 6)
    d = cfg.dgcpm_train_config()
    assert (d.lr, d.max_epochs, d.batch_size, d.patience, d.seed) == (0.125, 9, 4, 2, 6)


def test_config_file_rejects_unknown_keys_and_bad_values(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("no_such_knob=1\n")
    with pytest.raises(ConfigError, match="no_such_knob"):
        parse_config_file(str(bad_key))
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("t_in=abc\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_value))
    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("just a line\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file(str(bad_line))
    with pytest.raises(ConfigError):
        parse_config_file(str(tmp_path / "missing.cfg"))
    bad_bool = tmp_path / "d.cfg"
    bad_bool.write_text("use_prior=maybe\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_bool))


def test_flags_override_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_in=8\nseed=3\n")
    parser = build_parser()
    args = parser.parse_args(["synth", "--config", str(path), "--t-in", "10"])
    cfg = resolve_config(args)
    assert cfg.t_in == 10  # flag wins
    assert cfg.seed == 3  # file wins over default
    assert cfg.t_out == RunConfig().t_out  # untouched default


def test_env_seed_overrides_everything(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("seed=3\n")
    parser = build_parser()
    args = parser.parse_args(["synth", "--config", str(path), "--seed", "5"])
    monkeypatch.setenv("TVDBN_SEED", "42")
    assert resolve_config(args).seed == 42
    monkeypatch.setenv("TVDBN_SEED", "not-a-number")
    with pytest.raises(ConfigError):
        resolve_config(args)


def test_boolean_flags_accept_word_forms():
    parser = build_parser()
    args = parser.parse_args(["synth", "--use-prior", "off"])
    assert resolve_config(args).use_prior is False
    args = parser.parse_args(["synth", "--use-prior", "YES"])
    assert resolve_config(args).use_prior is True


def test_horizon_list_parsing():
    assert RunConfig(horizons="3,6,12").horizon_list() == [3, 6, 12]
    assert RunConfig(horizons="1").horizon_list() == [1]
    with pytest.raises(ConfigError):
        RunConfig(horizons="3;6").horizon_list()


# ------------------------------------------------------------------ #
# exit codes
# ------------------------------------------------------------------ #


def test_usage_errors_exit_one(tmp_path):
    assert main([]) == 1  # no command
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0
    # configuration error: required key missing
    assert main(["train-structure", "--out-dir", str(tmp_path)]) == 1
    # configuration error: unparseable flag value
    assert main(["synth", "--out-dir", str(tmp_path), "--synth-n", "abc"]) == 1


def test_data_errors_exit_two(tmp_path, caplog):
    assert main(["train-structure", "--speed-csv", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "forecasts.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["evaluate", "--forecast-csv", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert main(["evaluate", "--forecast-csv", str(tmp_path / "none.csv"), "--out-dir", str(tmp_path)]) == 2
    # Static graph files are read by export-graphs before anything else can fail.
    speed = tmp_path / "speed.csv"
    save_speed_table(str(speed), to_speed_series(np.random.default_rng(0).standard_normal((60, 2))))
    edges = tmp_path / "edges.csv"
    export = ["export-graphs", "--speed-csv", str(speed), "--out-dir", str(tmp_path), "--t-in", "2",
              "--t-out", "1", "--use-prior", "false", "--graph-source", "static-dbn-file",
              "--static-graph-file", str(edges)]
    cases = [
        (None, "cannot read"),
        ("0,2,0,s000,s001,abc", "line 2: non-numeric weight 'abc'"),
        ("0,2,2,s000,s001,0.5", "line 2: lag must be 0 or 1, got '2'"),
        # nan would silently drop the edge and inf would become weight 1.
        ("0,2,1,s000,s001,nan", "line 2: non-finite weight 'nan'"),
        ("0,2,0,s000,s001,inf", "line 2: non-finite weight 'inf'"),
    ]
    for row, message in cases:
        if row is not None:
            edges.write_text(",".join(EDGE_CSV_HEADER) + "\n" + row + "\n")
        caplog.clear()
        assert main(export) == 2, message
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "edges.csv" in errors[0] and message in errors[0], errors
    edges.write_text(",".join(EDGE_CSV_HEADER) + "\n0,2,1,s000,s001,0.5\n")
    assert main(export) == 0
    # A distance row naming a sensor the speed table lacks.
    dist = tmp_path / "dist.csv"
    dist.write_text("from,to,dist\ns000,s001,1.0\ns001,s000,2.0\ns000,zzz,1.0\n")
    caplog.clear()
    prior = ["export-graphs", "--speed-csv", str(speed), "--out-dir", str(tmp_path), "--dist-csv", str(dist)]
    assert main(prior) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and "dist.csv line 4: unknown sensor 'zzz'" in errors[0], errors
    # An empty validation split is a legal ratio, but no stage can window it.
    caplog.clear()
    assert main(["train-structure", "--speed-csv", str(speed), "--out-dir", str(tmp_path),
                 "--use-prior", "false", "--val-ratio", "0"]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and "val split (val_ratio): series of length 0 shorter" in errors[0], errors


def test_gradcheck_exits_zero_and_prints_reports(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 10  # one line per checked operation


# ------------------------------------------------------------------ #
# the pipeline end to end (desk scale)
# ------------------------------------------------------------------ #


STAGES = ("train-structure", "export-graphs", "train-forecast", "predict", "evaluate")
ARTIFACTS = (
    "history.csv", "graphs.csv", "forecast_history.csv", "forecasts.csv", "report.csv", "manifest.txt",
)


def generated_by(argv: list[str]) -> int:
    """Run one command that must succeed; the windows it passed to `tvdbn.cli.graph_stacks`."""
    calls = []

    def counted(values, *args, **kwargs):
        calls.append(len(values))
        return graph_stacks(values, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "graph_stacks", counted)
        assert main(argv) == 0, argv[0]
    return sum(calls)


def run_pipeline(out, generated: dict, between_stages=lambda: None):
    """synth, then every stage of STAGES on the TINY config in `out`; fills `generated` per stage."""
    cfg = out / "run.cfg"
    cfg.write_text(TINY.format(out=out))
    base = ["--config", str(cfg)]
    assert main(["synth", *base]) == 0
    data_flags = ["--speed-csv", str(out / "speed.csv"), "--dist-csv", str(out / "dist.csv")]
    for stage in STAGES:
        generated[stage] = generated_by([stage, *base, *data_flags])
        between_stages()
    return out


@pytest.fixture(scope="module")
def generated():
    """Windows generated by `tvdbn.cli.graph_stacks` in each stage of the `pipeline` fixture."""
    return {}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, generated):
    """Run synth -> train-structure -> export-graphs -> train-forecast ->
    predict -> evaluate once and share the artifact directory."""
    return run_pipeline(tmp_path_factory.mktemp("pipeline"), generated)


def test_pipeline_writes_every_artifact(pipeline):
    for name in (
        "speed.csv", "dist.csv", "truth.npz", "truth_edges.csv",
        "grcsl.npz", "history.csv", "manifest.txt",
        "graphs.csv", "dgcpm.npz", "forecast_history.csv",
        "forecasts.csv", "report.txt", "report.csv",
    ):
        assert (pipeline / name).exists(), name


def test_pipeline_history_matches_the_multiplier_rule(pipeline):
    with open(pipeline / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 1
    assert rows[0]["outer_iter"] == "1"
    etas = []
    for prev, cur in zip(rows, rows[1:]):
        ratio = float(cur["rho"]) / float(prev["rho"])
        etas.append(ratio)
        assert ratio in (1.0, 10.0)
    assert float(rows[0]["rho"]) == pytest.approx(1e-3)


def test_pipeline_graphs_csv_is_well_formed(pipeline):
    with open(pipeline / "graphs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["window_start_ts", "step", "lag", "src_id", "dst_id", "weight"]
    for row in rows[1:]:
        assert row[2] in ("0", "1")
        assert 2 <= int(row[1]) <= 6
        assert 0.5 < float(row[5]) <= 1.0
        assert row[3].startswith("s") and row[4].startswith("s")
        if row[2] == "0":
            assert row[3] != row[4]  # no self-loops at lag 0


def test_pipeline_forecasts_cover_the_test_split(pipeline):
    with open(pipeline / "forecasts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == FORECAST_CSV_HEADER
    body = rows[1:]
    # synth_t=240 -> test split 48 ticks -> (48 - 9 + 1 + 2) // 3 windows of
    # 4 sensors x 3 horizon steps
    horizon_steps = {int(r[1]) for r in body}
    assert horizon_steps == {1, 2, 3}
    sensors = {r[2] for r in body}
    assert sensors == {"s000", "s001", "s002", "s003"}
    assert len(body) % (4 * 3) == 0
    for r in body[:50]:
        float(r[3]), float(r[4])
        assert r[5] in ("0", "1")


def test_pipeline_report_lists_requested_horizons(pipeline):
    with open(pipeline / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["horizon", "mae", "rmse", "mape", "valid_cells"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "overall"]
    for r in rows[1:]:
        assert float(r[1]) > 0.0
        assert float(r[2]) >= float(r[1])  # RMSE >= MAE
    text = (pipeline / "report.txt").read_text()
    assert "reference (non-binding" in text


def test_pipeline_manifest_records_split_and_normalization(pipeline):
    from tvdbn.data import load_manifest

    entries = load_manifest(str(pipeline / "manifest.txt"))
    assert int(entries["rows"]) == 240
    assert int(entries["train_end"]) == 168
    assert int(entries["val_end"]) == 192
    assert float(entries["std"]) > 0.0
    assert int(entries["seed"]) == 11


def split_window_counts(out, stride=3):
    """Windows per split of the TINY series at `stride`."""
    parts = split_chronological(load_speed_table(str(out / "speed.csv")))
    return {
        name: len(make_windows(part, t_in=6, t_out=3, stride=stride))
        for name, part in zip(("train", "val", "test"), parts)
    }


def test_pipeline_generates_only_val_and_test_once(pipeline, generated):
    counts = split_window_counts(pipeline)
    assert generated == {
        "train-structure": 0,
        "export-graphs": 0,
        "train-forecast": counts["val"],
        "predict": counts["test"],
        "evaluate": 0,
    }
    for split, w in counts.items():
        _, intra, inter = load_graphs(str(pipeline / f"graphs-{split}.npz"))
        assert intra.shape == inter.shape == (w, 5, 4, 4)


@pytest.mark.parametrize("case", ["retrained", "structure-batch", "stride", "truncated", "shape"])
def test_graph_store_regenerates_what_it_cannot_serve(pipeline, tmp_path, caplog, case):
    out = tmp_path / "run"
    shutil.copytree(pipeline, out)
    flags = [
        "--config", str(out / "run.cfg"), "--out-dir", str(out),
        "--speed-csv", str(out / "speed.csv"), "--dist-csv", str(out / "dist.csv"),
    ]
    stored = out / "graphs-train.npz"
    expected = split_window_counts(out)["train"]
    if case == "retrained":
        other = tmp_path / "other"
        assert main(["train-structure", *flags, "--out-dir", str(other), "--seed", "12"]) == 0
        flags += ["--structure-checkpoint", str(other / "grcsl.npz")]
    elif case == "structure-batch":
        flags += ["--structure-batch", "5"]
    elif case == "stride":
        flags += ["--stride", "2"]
        expected = split_window_counts(out, stride=2)["train"]
    elif case == "truncated":
        with open(stored, "r+b") as fh:
            fh.truncate(os.path.getsize(stored) // 2)
    else:  # the right key over one window too few
        key, intra, inter = load_graphs(str(stored))
        save_graphs(str(stored), key, intra[:-1], inter[:-1])
    caplog.set_level(logging.INFO, logger="tvdbn")
    assert generated_by(["export-graphs", *flags]) == expected
    assert any("graphs-train.npz" in r.getMessage() for r in caplog.records if r.levelno == logging.INFO)
    assert generated_by(["export-graphs", *flags]) == 0  # the file was rewritten
    if case in ("truncated", "shape"):
        assert (out / "graphs.csv").read_bytes() == (pipeline / "graphs.csv").read_bytes()


def test_pipeline_bytes_do_not_depend_on_the_graph_store(pipeline, tmp_path):
    out = tmp_path / "fresh"
    out.mkdir()

    def clear_store():
        for path in out.glob("graphs-*.npz"):
            path.unlink()

    generated = {}
    run_pipeline(out, generated, between_stages=clear_store)
    counts = split_window_counts(out)
    assert generated == {
        "train-structure": 0,
        "export-graphs": counts["train"],
        "train-forecast": counts["train"] + counts["val"],
        "predict": counts["test"],
        "evaluate": counts["test"],
    }
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name


def test_evaluate_reads_back_exported_forecasts(pipeline, tmp_path, capsys):
    out2 = tmp_path / "eval2"
    code = main([
        "evaluate", "--forecast-csv", str(pipeline / "forecasts.csv"),
        "--out-dir", str(out2), "--horizons", "1,3",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "horizon" in printed and "overall" in printed
    with open(out2 / "report.csv", newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    # identical inputs -> identical overall MAE as the pipeline's own report
    with open(pipeline / "report.csv", newline="") as fh:
        base = {r[0]: r for r in csv.reader(fh)}
    assert rows["overall"][1] == base["overall"][1]


def test_evaluate_perfect_forecast_scores_zero(tmp_path):
    path = tmp_path / "forecasts.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_CSV_HEADER)
        for h in (1, 2):
            for sid in ("a", "b"):
                writer.writerow([100, h, sid, 55.5, 55.5, 1])
    out = tmp_path / "out"
    assert main(["evaluate", "--forecast-csv", str(path), "--out-dir", str(out),
                 "--horizons", "1,2"]) == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["1", "2", "overall"]
    for r in rows[1:]:
        assert float(r[1]) == 0.0 and float(r[2]) == 0.0 and float(r[3]) == 0.0


@pytest.mark.parametrize("step", [0, -1])
def test_evaluate_rejects_a_horizon_step_below_one(tmp_path, caplog, step):
    path = tmp_path / "forecasts.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_CSV_HEADER)
        writer.writerow([100, 1, "a", 1.0, 1.0, 1])
        writer.writerow([100, step, "a", 99.0, 1.0, 1])
    assert main(["evaluate", "--forecast-csv", str(path), "--out-dir", str(tmp_path / "o"),
                 "--horizons", "1"]) == 2
    assert any("line 3" in r.getMessage() for r in caplog.records if r.levelno == logging.ERROR)


def test_evaluate_rejects_horizons_beyond_the_forecast(tmp_path):
    path = tmp_path / "forecasts.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_CSV_HEADER)
        writer.writerow([100, 1, "a", 1.0, 1.0, 1])
    # requested horizons all exceed the single forecast step -> config error
    assert main(["evaluate", "--forecast-csv", str(path), "--out-dir", str(tmp_path / "o"),
                 "--horizons", "6,12"]) == 1


def test_ablation_graph_sources_run_without_a_checkpoint(pipeline, tmp_path):
    """distance and static-dbn-file sources skip structure training."""
    out = tmp_path / "ablate"
    flags = [
        "--speed-csv", str(pipeline / "speed.csv"),
        "--dist-csv", str(pipeline / "dist.csv"),
        "--out-dir", str(out),
        "--t-in", "6", "--t-out", "3", "--stride", "3",
        "--gconv-layers", "1", "--dy-width", "4", "--prior-width", "4",
        "--forecast-epochs", "2", "--forecast-batch", "16", "--horizons", "1",
        "--seed", "11",
    ]
    static = ["--graph-source", "static-dbn-file", "--static-graph-file", str(pipeline / "truth_edges.csv")]
    for source in (["--graph-source", "distance"], static):
        assert main(["train-forecast", *flags, *source]) == 0
        assert (out / "dgcpm.npz").exists()
        (out / "forecasts.csv").unlink(missing_ok=True)
        assert main(["predict", *flags, *source]) == 0
        assert (out / "forecasts.csv").exists()
    assert main(["train-forecast", *flags, "--graph-source", "bogus"]) == 1


@pytest.mark.parametrize("source", ["distance", "static-dbn-file"])
def test_constant_graph_sources_are_read_only_views_of_one_pair(pipeline, source):
    cfg = RunConfig(
        speed_csv=str(pipeline / "speed.csv"), dist_csv=str(pipeline / "dist.csv"),
        static_graph_file=str(pipeline / "truth_edges.csv"),
        t_in=6, t_out=3, stride=3, graph_source=source,
    )
    series = load_speed_table(cfg.speed_csv)
    _, sets, _ = cli._split_windows(cfg, series)
    windows = sets["train"]
    intra, inter = cli._graph_stacks(cfg, "train", windows, cli._load_prior(cfg, series.sensor_ids), None)
    for stack in (intra, inter):
        assert stack.shape == (len(windows), 5, 4, 4)
        assert stack.strides[:2] == (0, 0)
        assert not stack.flags.writeable
    assert not np.diagonal(intra, axis1=-2, axis2=-1).any()


def test_export_split_picks_the_windows_that_export_graphs_writes(pipeline, tmp_path, caplog):
    out = tmp_path / "run"
    shutil.copytree(pipeline, out)
    (out / "graphs-test.npz").unlink()
    flags = [
        "--config", str(out / "run.cfg"), "--out-dir", str(out),
        "--speed-csv", str(out / "speed.csv"), "--dist-csv", str(out / "dist.csv"),
    ]
    test_split = split_chronological(load_speed_table(str(out / "speed.csv")))[2]
    test_starts = make_windows(test_split, t_in=6, t_out=3, stride=3).start_ts
    assert generated_by(["export-graphs", *flags, "--export-split", "test"]) == len(test_starts)
    with open(out / "graphs.csv", newline="") as fh:
        starts = {int(row[0]) for row in list(csv.reader(fh))[1:]}
    assert starts and starts <= set(test_starts.tolist())
    assert generated_by(["predict", *flags]) == 0  # it reads the graphs-test.npz that export-graphs wrote
    caplog.clear()
    assert main(["export-graphs", *flags, "--export-split", "bogus"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and "export_split" in errors[0] and "'bogus'" in errors[0], errors


def test_a_structure_checkpoint_in_the_per_lag_layout_is_refused(pipeline, tmp_path, caplog):
    # The layout before the lag-stacked weights: per lag, one GRU cell of
    # nine per-gate tensors (gru_intra, gru_inter) and one head (head_intra, head_inter).
    with np.load(pipeline / "grcsl.npz") as blob:
        entries = {key: blob[key] for key in blob.files if not key.startswith(("param/gru.", "param/head."))}
    gru = ["w_cr", "w_hr", "b_r", "w_cz", "w_hz", "b_z", "w_ch", "w_hh", "b_h"]
    head = ["w1", "b1", "w2", "b2", "w3", "b3"]
    old = [f"{part}_{lag}.{name}" for lag in ("intra", "inter") for part, names in (("gru", gru), ("head", head))
           for name in names]
    entries.update((f"param/{key}", np.zeros(1)) for key in old)
    path = tmp_path / "grcsl.npz"
    np.savez(path, **entries)
    with pytest.raises(DataError, match="parameter keys disagree") as err:
        load_grcsl(str(path))
    new = ["gru.w_c", "gru.w_h", "gru.w_hh", "gru.b", *(f"head.{name}" for name in head)]
    assert f"missing {sorted(new)}" in str(err.value)
    assert f"unexpected {sorted(old)}" in str(err.value)
    flags = [
        "--config", str(pipeline / "run.cfg"), "--out-dir", str(tmp_path),
        "--speed-csv", str(pipeline / "speed.csv"), "--dist-csv", str(pipeline / "dist.csv"),
    ]
    caplog.clear()
    assert main(["export-graphs", *flags, "--structure-checkpoint", str(path)]) == 2
    assert any("parameter keys disagree" in r.getMessage() for r in caplog.records if r.levelno == logging.ERROR)
    assert not (tmp_path / "graphs.csv").exists()


def test_truncated_checkpoint_is_a_data_error(pipeline, tmp_path):
    flags = [
        "--config", str(pipeline / "run.cfg"), "--out-dir", str(tmp_path),
        "--speed-csv", str(pipeline / "speed.csv"), "--dist-csv", str(pipeline / "dist.csv"),
    ]
    for name in ("grcsl.npz", "dgcpm.npz"):
        whole = (pipeline / name).read_bytes()
        (tmp_path / name).write_bytes(whole[: len(whole) // 2])
    assert main(["train-forecast", *flags, "--structure-checkpoint", str(tmp_path / "grcsl.npz")]) == 2
    assert main(["predict", *flags, "--structure-checkpoint", str(pipeline / "grcsl.npz"),
                 "--forecast-checkpoint", str(tmp_path / "dgcpm.npz")]) == 2


@pytest.mark.parametrize("stage, key", [("export-graphs", "structure-batch"), ("predict", "forecast-batch")])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_batch_sizes_below_one_are_configuration_errors(pipeline, tmp_path, caplog, stage, key, size):
    # A batch size reaches graph generation and prediction only there; it must
    # fail like a bad training batch does, not crash or write unset memory.
    flags = [
        "--config", str(pipeline / "run.cfg"), "--out-dir", str(tmp_path),
        "--speed-csv", str(pipeline / "speed.csv"), "--dist-csv", str(pipeline / "dist.csv"),
        "--structure-checkpoint", str(pipeline / "grcsl.npz"),
        "--forecast-checkpoint", str(pipeline / "dgcpm.npz"),
    ]
    assert main([stage, *flags, f"--{key}={size}"]) == 1
    assert any(f"batch size must be >= 1, got {size}" in r.getMessage() for r in caplog.records)
    assert not (tmp_path / "graphs.csv").exists() and not (tmp_path / "forecasts.csv").exists()


def test_checkpoint_paths_without_a_suffix_are_used_verbatim(pipeline, tmp_path):
    out = tmp_path / "out"
    flags = [
        "--config", str(pipeline / "run.cfg"), "--out-dir", str(out),
        "--speed-csv", str(pipeline / "speed.csv"), "--dist-csv", str(pipeline / "dist.csv"),
        "--structure-checkpoint", str(out / "structure"), "--forecast-checkpoint", str(out / "forecast"),
    ]
    for stage in ("train-structure", "train-forecast", "predict"):
        assert main([stage, *flags]) == 0, stage
    assert (out / "structure").is_file() and (out / "forecast").is_file()
    assert not list(out.glob("structure.*")) and not list(out.glob("forecast.*"))


def test_checkpoints_in_a_missing_nested_directory_are_written_there(pipeline, tmp_path):
    out, models = tmp_path / "out", tmp_path / "models" / "nested"
    flags = [
        "--config", str(pipeline / "run.cfg"), "--out-dir", str(out),
        "--speed-csv", str(pipeline / "speed.csv"), "--dist-csv", str(pipeline / "dist.csv"),
        "--structure-checkpoint", str(models / "grcsl"),
        "--forecast-checkpoint", str(models / "forecast" / "dgcpm"),
    ]
    for stage in ("train-structure", "train-forecast", "predict"):
        assert main([stage, *flags]) == 0, stage
    assert (models / "grcsl").is_file() and (models / "forecast" / "dgcpm").is_file()
    assert sorted(p.name for p in models.rglob("*") if p.is_file()) == ["dgcpm", "grcsl"]
    assert (out / "forecasts.csv").is_file()
