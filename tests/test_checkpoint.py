"""Checkpoint and graph-file round trips, and the errors a wrong or damaged file raises."""

import copy
import dataclasses
import os

import numpy as np
import pytest

from tvdbn import checkpoint
from tvdbn.checkpoint import (
    graph_key,
    load_dgcpm,
    load_graphs,
    load_grcsl,
    save_dgcpm,
    save_graphs,
    save_grcsl,
)
from tvdbn.dgcpm import DgcpmDims, DgcpmParams
from tvdbn.errors import DataError
from tvdbn.grcsl import GrcslDims, GrcslParams


def grcsl_params(rng):
    return GrcslParams.init(rng, GrcslDims(heads=2, d_att=3, h_r=4, d_s=2, h_m=5, sem_width=3, tau=0.5))


def dgcpm_params(rng):
    return DgcpmParams.init(rng, DgcpmDims(t_in=4, t_out=2, dy_width=3, prior_width=2, gconv_layers=1))


@pytest.mark.parametrize(
    "build, save, load",
    [(grcsl_params, save_grcsl, load_grcsl), (dgcpm_params, save_dgcpm, load_dgcpm)],
)
def test_round_trip_restores_dims_and_every_parameter(tmp_path, rng, build, save, load):
    params = build(rng)
    path = str(tmp_path / "model.npz")
    save(path, params)
    got = load(path)
    assert got.dims == params.dims
    want = dict(params.named_parameters())
    restored = dict(got.named_parameters())
    assert restored.keys() == want.keys()
    for name, tensor in want.items():
        np.testing.assert_array_equal(restored[name].data, tensor.data, err_msg=name)


def test_loading_the_wrong_kind_is_a_data_error(tmp_path, rng):
    path = str(tmp_path / "grcsl.npz")
    save_grcsl(path, grcsl_params(rng))
    with pytest.raises(DataError, match="'structure' model, expected 'forecast'"):
        load_dgcpm(path)


def test_shape_mismatch_names_the_key(tmp_path, rng):
    params = dgcpm_params(rng)
    params.w_out.data = np.zeros((1, 1))
    path = str(tmp_path / "dgcpm.npz")
    save_dgcpm(path, params)
    with pytest.raises(DataError, match="shape mismatch for key 'w_out'"):
        load_dgcpm(path)


def test_a_version_1_file_is_rejected_by_its_version(tmp_path, rng):
    path = str(tmp_path / "grcsl.npz")
    save_grcsl(path, grcsl_params(rng))
    with np.load(path) as blob:
        entries = dict(blob)
    entries["version"] = np.array(1)
    np.savez(path, **entries)
    with pytest.raises(DataError, match="unsupported format version"):
        load_grcsl(path)


def test_parameter_keys_of_default_models():
    grcsl = GrcslParams.init(np.random.default_rng(0), GrcslDims())
    assert [name for name, _ in grcsl.named_parameters()] == [
        "attn.w_q", "attn.w_k",
        "gru.w_c", "gru.w_h", "gru.w_hh", "gru.b",
        "head.w1", "head.b1", "head.w2", "head.b2", "head.w3", "head.b3",
        "sem.w_intra", "sem.w_inter", "sem.w1", "sem.b1", "sem.w2", "sem.b2",
        "feature_gconv.theta0", "feature_gconv.theta1", "feature_gconv.theta2",
    ]
    assert grcsl.attn.w_q.shape == (4, 10, 16)
    assert [p.shape for p in grcsl.gru.parameters() + grcsl.head.parameters()] == [
        (2, 3, 4, 32), (2, 2, 32, 32), (2, 32, 32), (2, 3, 32),
        (2, 32, 32), (2, 32), (2, 32, 32), (2, 32), (2, 32, 1), (2, 1),
    ]
    dgcpm = DgcpmParams.init(np.random.default_rng(0), DgcpmDims())
    assert [name for name, _ in dgcpm.named_parameters()] == [
        "dy_inter.theta0", "dy_inter.theta1", "dy_inter.theta2",
        "dy_intra.theta0", "dy_intra.theta1", "dy_intra.theta2",
        "w_out",
        "prior_gconv.theta0", "prior_gconv.theta1", "prior_gconv.theta2",
    ]


# ------------------------------------------------------------------ #
# the graph store
# ------------------------------------------------------------------ #


def test_graph_file_round_trip_leaves_no_temporary_file(tmp_path, rng):
    intra, inter = rng.random((3, 2, 4, 4)), rng.random((3, 2, 4, 4))
    path = tmp_path / "graphs-train.npz"
    save_graphs(str(path), "k1", intra, inter)
    key, got_intra, got_inter = load_graphs(str(path))
    assert key == "k1"
    np.testing.assert_array_equal(got_intra, intra)
    np.testing.assert_array_equal(got_inter, inter)
    assert os.listdir(tmp_path) == ["graphs-train.npz"]


def test_interrupted_graph_write_keeps_the_old_file(tmp_path, rng, monkeypatch):
    # Both archive kinds go through the one writer: a graph file and a model checkpoint.
    writers = {
        "graphs": lambda path: save_graphs(path, "k", rng.random((1, 1, 2, 2)), rng.random((1, 1, 2, 2))),
        "model": lambda path: save_grcsl(path, grcsl_params(rng)),
    }

    def interrupted(fh, **arrays):
        fh.write(b"PK half an archive")
        raise KeyboardInterrupt

    for name, write in writers.items():
        path = tmp_path / name / "stored.npz"
        path.parent.mkdir()
        write(str(path))
        before = path.read_bytes()
        with monkeypatch.context() as mp:
            mp.setattr(checkpoint.np, "savez", interrupted)
            with pytest.raises(KeyboardInterrupt):
                write(str(path))
        assert path.read_bytes() == before, name
        assert os.listdir(path.parent) == ["stored.npz"], name


def test_unreadable_graph_files_raise_data_error(tmp_path, rng):
    path = tmp_path / "graphs-train.npz"
    with pytest.raises(DataError, match="does not exist"):
        load_graphs(str(path))
    save_graphs(str(path), "k", rng.random((4, 2, 3, 3)), rng.random((4, 2, 3, 3)))
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    with pytest.raises(DataError, match="not readable"):
        load_graphs(str(path))
    save_grcsl(str(path), grcsl_params(rng))  # a model checkpoint is not a graph file
    with pytest.raises(DataError):
        load_graphs(str(path))


def test_graph_key_covers_every_input_of_the_generator(rng):
    params = grcsl_params(rng)
    values, tod, prior = rng.random((3, 4, 2, 1)), rng.random((3, 4, 2, 1)), rng.random((2, 2))
    base = graph_key(params, values, tod, prior, 8)
    assert graph_key(copy.deepcopy(params), values.copy(), tod.copy(), prior.copy(), 8) == base
    retuned = copy.deepcopy(params)
    retuned.dims = dataclasses.replace(params.dims, tau=0.25)
    nudged = copy.deepcopy(params)
    nudged.head.w3.data[1].flat[0] += 1e-12
    moved = values.copy()
    moved[-1, -1, -1, 0] += 1e-12
    variants = [
        graph_key(retuned, values, tod, prior, 8),
        graph_key(nudged, values, tod, prior, 8),
        graph_key(params, moved, tod, prior, 8),
        graph_key(params, values, tod + 1e-12, prior, 8),
        graph_key(params, values, tod, None, 8),
        graph_key(params, values, tod, prior, 7),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_graph_key_names_the_pair_kernels_dtype(rng, monkeypatch):
    params = grcsl_params(rng)
    values, tod = rng.random((3, 4, 2, 1)), rng.random((3, 4, 2, 1))
    base = graph_key(params, values, tod, None, 8)
    monkeypatch.setattr(checkpoint, "PAIR_DTYPE", np.float64)
    assert graph_key(params, values, tod, None, 8) != base
