"""Versioned npz checkpoints: a model's parameters end to end as one flat
float64 array, plus a JSON metadata block that names each one's slice."""

from __future__ import annotations

import bisect
import itertools
import json
import lzma
import math
import os
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import TrainConfig, field_types
from .errors import ConfigError, DataError
from .tensor import Tensor

# version 2 holds the parameters as one ``flat`` member and lists their
# names and shapes in the metadata; version 1 held one ``param/<name>``
# member each, and still loads
FORMAT_VERSION = 2
_META_KEY = "__meta__"
_FLAT_KEY = "flat"
_PARAM_PREFIX = "param/"
# config keys of options that no longer exist; older checkpoints carry them
RETIRED_CONFIG_KEYS = ("detach_teacher", "data_manifest", "lr_schedule", "ca_layers",
                       "conv_width")


def save_checkpoint(path: str | Path, params: dict[str, Tensor],
                    config: TrainConfig, extra: dict | None = None) -> Path:
    """Write ``params``' values end to end, in the dict's order, as the
    ``flat`` member.  Write to a temporary file beside ``path``, then
    rename it over ``path``, so a failed save leaves the previous
    checkpoint intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "extra": extra or {},
        "params": [[name, list(t.data.shape)] for name, t in params.items()],
    }
    arrays = {_FLAT_KEY: np.concatenate([t.data.reshape(-1) for t in params.values()]),
              _META_KEY: np.array(json.dumps(meta, sort_keys=True))}
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _table(path: Path, arrays: dict[str, np.ndarray], meta: dict):
    """Version 2: the names and shapes ``meta["params"]`` lists, and ``flat``."""
    flat = arrays.get(_FLAT_KEY)
    if flat is None:
        raise DataError(f"checkpoint {path} has no {_FLAT_KEY!r} array")
    if flat.ndim != 1 or flat.dtype != np.float64:
        raise DataError(f"checkpoint {path}: {_FLAT_KEY!r} is {flat.dtype} of shape "
                        f"{flat.shape}, not a 1-D float64 array")
    entries = meta.get("params")
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], list) and all(type(dim) is int and dim >= 0 for dim in e[1])
            for e in entries):
        raise DataError(f"checkpoint {path}: metadata 'params' must list [name, shape] "
                        "pairs, each shape of non-negative integers")
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise DataError(f"checkpoint {path}: metadata 'params' lists {twice} twice")
    shapes = [tuple(shape) for _, shape in entries]
    total = sum(map(math.prod, shapes))
    if total != flat.size:
        raise DataError(f"checkpoint {path}: the parameter shapes hold {total} values, "
                        f"{_FLAT_KEY!r} holds {flat.size}")
    return names, shapes, flat


def _table_v1(path: Path, arrays: dict[str, np.ndarray]):
    """Version 1: each ``param/<name>`` member, in file order, end to end."""
    values = {key[len(_PARAM_PREFIX):]: value
              for key, value in arrays.items() if key.startswith(_PARAM_PREFIX)}
    for name, value in values.items():
        if value.dtype != np.float64:  # the only dtype save_checkpoint wrote
            raise DataError(f"checkpoint {path}: parameter {name} is {value.dtype}, not float64")
    flat = np.concatenate([v.reshape(-1) for v in values.values()] or [np.empty(0)])
    return list(values), [v.shape for v in values.values()], flat


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], TrainConfig, dict]:
    """The parameters by name, each a view of the checkpoint's one checked
    flat array, the config and the ``extra`` metadata."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        # the file is opened here: np.load leaves a file it opened itself
        # open when the zip directory does not parse
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        meta = json.loads(str(arrays[_META_KEY])) if _META_KEY in arrays else None
    # a damaged zip header can name an unknown compression method or set the
    # encryption flag (RuntimeError), or send the bytes to zlib or lzma
    except (OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile,
            zlib.error, lzma.LZMAError) as exc:
        raise DataError(f"checkpoint {path} is corrupt or truncated: {exc}") from exc
    if meta is None:
        raise DataError(f"checkpoint {path} has no metadata block")
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: metadata must be a JSON object")
    version = meta.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise DataError(f"checkpoint {path}: unsupported format version {version}")
    for key in ("config", "extra"):
        if not isinstance(meta.get(key), dict):
            raise DataError(f"checkpoint {path}: metadata {key!r} must be a JSON object")
    names, shapes, flat = (_table(path, arrays, meta) if version == FORMAT_VERSION
                           else _table_v1(path, arrays))
    bounds = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    params = {}
    for name, shape, lo, hi in zip(names, shapes, bounds, bounds[1:]):
        try:
            params[name] = flat[lo:hi].reshape(shape)
        # a zero dim makes a shape hold no values whatever its other dims,
        # so a shape numpy cannot make can still pass the size check
        except (ValueError, OverflowError) as exc:
            raise DataError(f"checkpoint {path}: parameter {name} has shape "
                            f"{list(shape)}, which numpy cannot make: {exc}") from exc
    if not np.isfinite(flat).all():
        first = np.flatnonzero(~np.isfinite(flat))[0]
        name = names[bisect.bisect_right(bounds, first) - 1]
        raise DataError(f"checkpoint {path}: parameter {name} holds a non-finite value")
    stored = {k: v for k, v in meta["config"].items() if k not in RETIRED_CONFIG_KEYS}
    types = field_types()
    for key in sorted(stored):
        if key not in types:
            raise DataError(f"checkpoint {path}: unknown config key {key!r}")
        kind, value = types[key], stored[key]
        if kind is float and type(value) is int:
            stored[key] = float(value)
        elif type(value) is not kind:
            raise DataError(f"checkpoint {path}: config key {key!r} expects "
                            f"{kind.__name__}, got {value!r}")
    config = TrainConfig(**stored)
    try:
        config.validate()
    except ConfigError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from exc
    return params, config, meta["extra"]
