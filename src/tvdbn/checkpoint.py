"""Versioned checkpoints: every parameter tensor stored under a named key.

Checkpoints are .npz archives with a format-version entry, a JSON metadata
blob describing the model dimensions, and one array per named parameter.
Loading rebuilds parameters from the stored dimensions and then copies
arrays by name, failing loudly (naming the key and file) when a stored
shape disagrees with the rebuilt one.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .dgcpm import DgcpmDims, DgcpmParams
from .errors import DataError
from .grcsl import GrcslDims, GrcslParams

__all__ = [
    "save_grcsl",
    "load_grcsl",
    "save_dgcpm",
    "load_dgcpm",
]

_FORMAT_VERSION = 2


def _save(path: str, kind: str, params) -> None:
    arrays = {f"param/{name}": tensor.data for name, tensor in params.named_parameters()}
    meta = {"dims": dataclasses.asdict(params.dims)}
    np.savez(
        path,
        version=np.array(_FORMAT_VERSION),
        kind=np.array(kind),
        meta=np.array(json.dumps(meta, sort_keys=True)),
        **arrays,
    )


def _load(path: str, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        blob = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"checkpoint {path} does not exist") from None
    except (OSError, ValueError) as exc:
        raise DataError(f"checkpoint {path} is not readable: {exc}") from None
    with blob:
        if "version" not in blob or int(blob["version"]) != _FORMAT_VERSION:
            raise DataError(f"checkpoint {path}: unsupported format version")
        stored_kind = str(blob["kind"])
        if stored_kind != kind:
            raise DataError(f"checkpoint {path} holds a {stored_kind!r} model, expected {kind!r}")
        meta = json.loads(str(blob["meta"]))
        params = {
            key[len("param/") :]: blob[key] for key in blob.files if key.startswith("param/")
        }
    return meta, params


def _restore(path: str, named_params, stored: dict[str, np.ndarray]) -> None:
    named = dict(named_params)
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


def save_grcsl(path: str, params: GrcslParams) -> None:
    _save(path, "structure", params)


def load_grcsl(path: str) -> GrcslParams:
    meta, stored = _load(path, "structure")
    dims = GrcslDims(**meta["dims"])
    params = GrcslParams.init(np.random.default_rng(0), dims)
    _restore(path, params.named_parameters(), stored)
    return params


def save_dgcpm(path: str, params: DgcpmParams) -> None:
    _save(path, "forecast", params)


def load_dgcpm(path: str) -> DgcpmParams:
    meta, stored = _load(path, "forecast")
    dims = DgcpmDims(**meta["dims"])
    params = DgcpmParams.init(np.random.default_rng(0), dims)
    _restore(path, params.named_parameters(), stored)
    return params
