"""Versioned npz checkpoints: parameter arrays plus a JSON metadata block."""

from __future__ import annotations

import json
import lzma
import os
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import TrainConfig, field_types
from .errors import ConfigError, DataError
from .tensor import Tensor

FORMAT_VERSION = 1
_META_KEY = "__meta__"
_PARAM_PREFIX = "param/"
# config keys of options that no longer exist; older checkpoints carry them
RETIRED_CONFIG_KEYS = ("detach_teacher", "data_manifest", "lr_schedule", "ca_layers",
                       "conv_width")


def save_checkpoint(path: str | Path, params: dict[str, Tensor],
                    config: TrainConfig, extra: dict | None = None) -> Path:
    """Write to a temporary file beside ``path``, then rename it over
    ``path``, so a failed save leaves the previous checkpoint intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "extra": extra or {},
    }
    arrays = {_PARAM_PREFIX + name: np.asarray(t.data) for name, t in params.items()}
    arrays[_META_KEY] = np.array(json.dumps(meta, sort_keys=True))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], TrainConfig, dict]:
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
    params = {key[len(_PARAM_PREFIX):]: value
              for key, value in arrays.items() if key.startswith(_PARAM_PREFIX)}
    for name, value in params.items():
        if value.dtype != np.float64:  # the only dtype save_checkpoint writes
            raise DataError(f"checkpoint {path}: parameter {name} is {value.dtype}, not float64")
        if not np.isfinite(value).all():
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
