"""Versioned .npz files: model checkpoints and the graph store.

Every file is an .npz archive with a format-version entry and a kind
(``structure``, ``forecast``, ``graphs``, or ``truth`` for the synthetic
ground truth that `synth.save_truth` writes), written atomically to exactly
the path given (no suffix is added) and read back through one reader that
turns any unreadable file into a DataError naming it.

A checkpoint adds a JSON metadata blob describing the model dimensions and
one array per named parameter. Loading rebuilds parameters from the stored
dimensions and then copies arrays by name, failing loudly (naming the key
and file) when a stored shape disagrees with the rebuilt one.

A graph file holds the eval-mode graph stacks of one split under a content
key: a SHA-256 over everything that decides them (see `graph_key`), so a
file whose key matches can stand in for regenerating the graphs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import zipfile

import numpy as np

from .dgcpm import DgcpmDims, DgcpmParams
from .errors import DataError
from .grcsl import PAIR_DTYPE, GrcslDims, GrcslParams

_FORMAT_VERSION = 2


def _write(path: str, kind: str, **arrays: np.ndarray) -> None:
    """Write a `kind` archive to exactly `path` through a temporary file, so no reader sees half of one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, version=np.array(_FORMAT_VERSION), kind=np.array(kind), **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read(path: str, kind: str, *names: str) -> dict[str, np.ndarray]:
    """Every entry of a `kind` archive that holds `names`; DataError naming the file otherwise."""
    noun = {"graphs": "graph file", "truth": "truth file"}.get(kind, "checkpoint")
    try:
        with np.load(path, allow_pickle=False) as blob:
            if "version" not in blob or int(blob["version"]) != _FORMAT_VERSION:
                raise DataError(f"{noun} {path}: unsupported format version")
            stored_kind = str(blob["kind"])
            if stored_kind != kind:
                raise DataError(f"{noun} {path} holds a {stored_kind!r} model, expected {kind!r}")
            absent = sorted(set(names) - set(blob.files))
            if absent:
                raise DataError(f"{noun} {path} lacks {', '.join(absent)}")
            return {name: blob[name] for name in blob.files}
    except FileNotFoundError:
        raise DataError(f"{noun} {path} does not exist") from None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{noun} {path} is not readable: {exc}") from None


def _save(path: str, kind: str, params) -> None:
    arrays = {f"param/{name}": tensor.data for name, tensor in params.named_parameters()}
    meta = {"dims": dataclasses.asdict(params.dims)}
    _write(path, kind, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def _load(path: str, kind: str, dims_cls, params_cls):
    """Rebuild a model from its stored dims, then copy every stored parameter by name."""
    entries = _read(path, kind, "meta")
    dims = dims_cls(**json.loads(str(entries["meta"]))["dims"])
    params = params_cls.init(np.random.default_rng(0), dims)
    named = dict(params.named_parameters())
    stored = {key[len("param/") :]: value for key, value in entries.items() if key.startswith("param/")}
    missing = sorted(set(named) - set(stored))
    extra = sorted(set(stored) - set(named))
    if missing or extra:
        raise DataError(
            f"checkpoint {path}: parameter keys disagree "
            f"(missing {missing or 'none'}, unexpected {extra or 'none'})"
        )
    for name, tensor in named.items():
        value = stored[name]
        if value.shape != tensor.data.shape:
            raise DataError(
                f"checkpoint {path}: shape mismatch for key {name!r}: "
                f"stored {value.shape}, expected {tensor.data.shape}"
            )
        tensor.data = np.asarray(value, dtype=np.float64)
    return params


def save_grcsl(path: str, params: GrcslParams) -> None:
    _save(path, "structure", params)


def load_grcsl(path: str) -> GrcslParams:
    return _load(path, "structure", GrcslDims, GrcslParams)


def save_dgcpm(path: str, params: DgcpmParams) -> None:
    _save(path, "forecast", params)


def load_dgcpm(path: str) -> DgcpmParams:
    return _load(path, "forecast", DgcpmDims, DgcpmParams)


def graph_key(
    params: GrcslParams,
    values: np.ndarray,
    tod: np.ndarray,
    prior: np.ndarray | None,
    batch_size: int,
) -> str:
    """SHA-256 over every input of `graph_stacks(values, tod, prior, params, batch_size)`.

    The batch size counts because batching moves the last bits of the graphs,
    and so does the dtype the pair kernels run in (`grcsl.PAIR_DTYPE`): a
    store that a generator of another precision wrote is regenerated.
    """
    digest = hashlib.sha256()

    def add(label: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        digest.update(f"{label}:{arr.shape};".encode())
        digest.update(arr.tobytes())

    digest.update(json.dumps(dataclasses.asdict(params.dims), sort_keys=True).encode())
    for name, tensor in params.named_parameters():
        add("param/" + name, tensor.data)
    add("values", values)
    add("tod", tod)
    if prior is None:
        digest.update(b"prior:none;")
    else:
        add("prior", prior)
    digest.update(f"batch:{batch_size};".encode())
    digest.update(f"pairs:{np.dtype(PAIR_DTYPE).name};".encode())
    return digest.hexdigest()


def save_graphs(path: str, key: str, intra: np.ndarray, inter: np.ndarray) -> None:
    _write(path, "graphs", key=np.array(key), intra=intra, inter=inter)


def load_graphs(path: str) -> tuple[str, np.ndarray, np.ndarray]:
    """The key and the lag-0 and lag-1 stacks of a graph file; DataError if it cannot be read."""
    entries = _read(path, "graphs", "key", "intra", "inter")
    return str(entries["key"]), entries["intra"], entries["inter"]
