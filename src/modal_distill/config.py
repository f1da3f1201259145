"""Run configuration: defaults, validation, key=value files, and overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import MODES
from .errors import ConfigError
from .graph_distill import EDGE_MODES


def _option(default, help: str, choices: tuple[str, ...] | None = None):
    """A config field with the help text (and choices) of its CLI flag."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class TrainConfig:
    """Every setting of a run.  The CLI derives one flag per field from this
    class (``--batch-size`` for ``batch_size``, ``--no-fd`` for the bool
    ``fd``), except ``out_dir``, which ``train --out`` sets."""

    d: int = _option(32, "common feature dim after shallow encoding")
    lambda1: float = _option(0.1, "decoupling loss weight")
    lambda2: float = _option(0.05, "distillation loss weight")
    gamma: float = _option(0.1, "margin+orthogonality weight inside decoupling")
    alpha: float = _option(0.2, "cosine margin")
    batch_size: int = _option(16, "samples per minibatch")
    epochs: int = _option(30, "passes over the training split")
    max_steps: int = _option(0, "stop after N optimizer steps (0: run all epochs)")
    lr: float = _option(2e-3, "peak learning rate, decayed to zero on a cosine over the run")
    seed: int = _option(0, "parameter initialisation and shuffling seed (>= 0)")
    fd: bool = _option(True, "feature decoupling")
    homogd: bool = _option(True, "distillation over the shared space")
    ca: bool = _option(True, "crossmodal attention reinforcement")
    heterogd: bool = _option(True, "distillation over reinforced private features")
    mode: str = _option("unaligned", "sequence alignment of a batch", MODES)
    heads: int = _option(4, "attention heads per directed pair (one layer each)")
    edge_mode: str = _option("squared", "distillation edge discrepancy", EDGE_MODES)
    out_dir: str = _option("", "artifact directory; empty keeps everything in memory")

    def validate(self) -> None:
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        for name in ("lambda1", "lambda2", "gamma", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lambda1 < 0 or self.lambda2 < 0 or self.gamma < 0:
            raise ConfigError("lambda1, lambda2, gamma must all be >= 0")
        if not (0 < self.alpha < 2):
            raise ConfigError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.epochs < 1 and self.max_steps < 1:
            raise ConfigError("need epochs >= 1 or a positive max_steps")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} must be divisible by heads={self.heads}")
        if self.edge_mode not in EDGE_MODES:
            raise ConfigError(f"edge_mode must be one of {EDGE_MODES}, got {self.edge_mode!r}")
        # downstream stages consume decoupled features, so they imply fd;
        # mirrors the ablation grid, which never enables them without it
        for name in ("homogd", "ca", "heterogd"):
            if getattr(self, name) and not self.fd:
                raise ConfigError(f"{name} requires fd (no decoupled features without it)")


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _coerce(name: str, kind: type, raw: str):
    raw = raw.strip()
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"config key {name}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {name}: expected {kind.__name__}, got {raw!r}")


def field_types() -> dict[str, type]:
    return {f.name: type(getattr(TrainConfig(), f.name)) for f in fields(TrainConfig)}


def apply_overrides(config: TrainConfig, overrides: dict[str, str]) -> TrainConfig:
    """Set fields from string values, with type coercion and name checking."""
    types = field_types()
    for key, raw in overrides.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(config, key, _coerce(key, types[key], str(raw)))
    return config


def load_config(path: str | Path, base: TrainConfig | None = None) -> TrainConfig:
    """Read a key=value file (one pair per line, # comments allowed) and
    apply it to ``base``, by default ``TrainConfig()``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    overrides: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        overrides[key.strip()] = value
    return apply_overrides(base if base is not None else TrainConfig(), overrides)
