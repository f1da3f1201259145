"""Versioned npz checkpoints: a model's parameters end to end as one flat
float64 array, plus a JSON metadata block that lists each one's name and
shape in that order."""

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

# the only version read: the parameters as one ``flat`` member, their
# names and shapes listed in the metadata
FORMAT_VERSION = 2
_META_KEY = "__meta__"
_FLAT_KEY = "flat"


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


def load_checkpoint(path: str | Path) -> tuple[tuple[list, np.ndarray], TrainConfig, dict]:
    """The checkpoint's ``[name, shape]`` entries with its one checked flat
    array, the config and the ``extra`` metadata; ``ParamTable.load``
    matches the entries to a model's own."""
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
    if version != FORMAT_VERSION:
        raise DataError(f"checkpoint {path}: unsupported format version {version}")
    for key in ("config", "extra"):
        if not isinstance(meta.get(key), dict):
            raise DataError(f"checkpoint {path}: metadata {key!r} must be a JSON object")
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
    bounds = list(itertools.accumulate((math.prod(shape) for _, shape in entries), initial=0))
    if bounds[-1] != flat.size:
        raise DataError(f"checkpoint {path}: the parameter shapes hold {bounds[-1]} values, "
                        f"{_FLAT_KEY!r} holds {flat.size}")
    if not np.isfinite(flat).all():
        first = np.flatnonzero(~np.isfinite(flat))[0]
        name = entries[bisect.bisect_right(bounds, first) - 1][0]
        raise DataError(f"checkpoint {path}: parameter {name} holds a non-finite value")
    stored = dict(meta["config"])
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
    return (entries, flat), config, meta["extra"]
