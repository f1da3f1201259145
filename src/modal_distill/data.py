"""Dataset handling: synthetic generation, CSV ingestion, batching.

The synthetic generator is the ground-truth oracle for every representation
test in the suite.  Each sample is built from an explicit shared latent z_c
(which alone determines the label) and per-modality private latents z_m, so
tests can check directly whether a learned space recovers shared or private
structure.
"""

from __future__ import annotations

import csv
import logging
import os
import signal
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

LABEL_MIN = -3.0
LABEL_MAX = 3.0


class Modality(Enum):
    LANGUAGE = "L"
    VISION = "V"
    AUDIO = "A"

    @property
    def tag(self) -> str:
        return self.value


MODALITIES = (Modality.LANGUAGE, Modality.VISION, Modality.AUDIO)

RAW_DIMS = {Modality.LANGUAGE: 300, Modality.VISION: 35, Modality.AUDIO: 74}


@dataclass
class Latents:
    """Generator-side record of the true factors behind one sample."""

    z_shared: np.ndarray
    z_private: dict[Modality, np.ndarray]


@dataclass
class Sample:
    """One sample: a time-major ``[T_m, d_m]`` feature array per modality
    (lengths may differ across modalities), its label, and, for generated
    samples, the latents they were drawn from.  The latents stay in memory
    for probes and tests; ``save_dataset`` does not write them."""

    id: str
    features: dict[Modality, np.ndarray]
    label: float
    latents: Latents | None = None


def _by_modality(l, v, a) -> dict:
    return {Modality.LANGUAGE: l, Modality.VISION: v, Modality.AUDIO: a}


# the world's fixed constants: the half-width of the within-bin label jitter
# (below 0.5, so the 7-class bin of a label is always its drawn class index),
# the std of the within-class wobble in the label-free subspace, and the seed
# of the fixed emission maps
LABEL_JITTER = 0.15
WITHIN_CLASS_SPREAD = 0.35
MAP_SEED = 7


@dataclass
class SyntheticConfig:
    """The settable part of the synthetic world: dims, lengths, gains and noise.

    The label lives on a single coordinate of the shared latent (class index
    plus a within-bin jitter of half-width ``LABEL_JITTER``), and each class
    also owns a fixed unit-scale offset in the label-free subspace, around
    which samples spread with std ``WITHIN_CLASS_SPREAD``.  Every modality
    observes the label coordinate through its own per-sample noise, language
    with the most, so an accurate regressor has to average the class
    estimate across the modalities.
    Vision's and audio's shared content additionally enters each time step
    through a randomly chosen multiplier from ``shared_phase`` (a zero-mean,
    magnitude-asymmetric set), so temporal averaging reduces it to a noisy
    coin-flip of its sign; recovering it requires a per-step nonlinearity
    before pooling.
    """

    raw_dims: dict[Modality, int] = field(default_factory=lambda: dict(RAW_DIMS))
    z_shared_dim: int = 8
    z_private_dim: int = 8
    length_ranges: dict[Modality, tuple[int, int]] = field(
        default_factory=lambda: _by_modality((8, 16), (6, 12), (10, 20)))
    # per-modality gain on the label coordinate of z_c inside the emission;
    # 0 hides the label from that modality entirely.  Vision and audio get a
    # stronger coordinate so the phase-scrambled signal stays learnable
    label_gain: dict[Modality, float] = field(
        default_factory=lambda: _by_modality(1.0, 2.0, 2.0))
    # std of the per-sample noise each modality adds to its view of the label
    # coordinate; independent across modalities, so every modality's view
    # keeps positive marginal value for the regression
    class_view_noise: dict[Modality, float] = field(
        default_factory=lambda: _by_modality(0.30, 0.20, 0.20))
    # per-step multipliers on the shared component, one drawn uniformly per
    # time step; a zero-mean set with unequal magnitudes such as
    # (2, -1, -1) makes the temporal mean of the shared content a coin flip
    # (its sign is unrecoverable by averaging) while per-step magnitudes stay
    # strong and sign-asymmetric, so rectifying encoders can still read it
    shared_phase: dict[Modality, tuple[float, ...]] = field(
        default_factory=lambda: _by_modality(
            (1.0,), (2.0, -1.0, -1.0), (2.0, -1.0, -1.0)))
    private_gain: dict[Modality, float] = field(
        default_factory=lambda: _by_modality(0.6, 1.0, 1.0))
    noise: dict[Modality, float] = field(
        default_factory=lambda: _by_modality(0.05, 0.15, 0.10))

    def validate(self) -> None:
        for m in MODALITIES:
            if self.raw_dims.get(m, 0) < 1:
                raise ConfigError(f"raw feature dim for {m.tag} must be >= 1")
            lo, hi = self.length_ranges[m]
            if not (1 <= lo <= hi):
                raise ConfigError(f"length range for {m.tag} must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
            if self.noise[m] < 0:
                raise ConfigError(f"noise scale for {m.tag} must be >= 0")
            if len(self.shared_phase[m]) < 1:
                raise ConfigError(f"shared_phase for {m.tag} needs at least one multiplier")
            if self.class_view_noise[m] < 0:
                raise ConfigError(f"class_view_noise for {m.tag} must be >= 0")
        if self.z_shared_dim < 2 or self.z_private_dim < 1:
            raise ConfigError("latent dims too small: need z_shared_dim >= 2, z_private_dim >= 1")


@dataclass
class WorldMaps:
    """Fixed linear maps from latents to observed features.

    ``basis`` is orthonormal; its first column is the label direction inside
    z_c, the rest span the label-free subspace used for class offsets and
    within-class spread.
    """

    basis: np.ndarray                                # [z_shared_dim, z_shared_dim]
    class_offsets: np.ndarray                        # [7, z_shared_dim], each ⟂ label direction
    shared_map: dict[Modality, np.ndarray]           # [d_m, z_shared_dim]
    private_map: dict[Modality, np.ndarray]          # [d_m, z_private_dim]
    config: SyntheticConfig

    @property
    def label_direction(self) -> np.ndarray:
        return self.basis[:, 0]


def build_maps(config: SyntheticConfig) -> WorldMaps:
    config.validate()
    rng = np.random.default_rng(MAP_SEED)
    zc, zp = config.z_shared_dim, config.z_private_dim
    q, _ = np.linalg.qr(rng.standard_normal((zc, zc)))
    perp = q[:, 1:]
    offsets = (perp @ rng.standard_normal((zc - 1, 7))).T
    shared = {}
    private = {}
    for m in MODALITIES:
        d = config.raw_dims[m]
        shared[m] = rng.standard_normal((d, zc)) / np.sqrt(zc)
        private[m] = rng.standard_normal((d, zp)) / np.sqrt(zp)
        # a discarded draw: without it every map drawn after it, and so
        # every generated dataset, would change
        rng.standard_normal(d)
    return WorldMaps(basis=q, class_offsets=offsets, shared_map=shared,
                     private_map=private, config=config)


def label_from_latent(maps: WorldMaps, z_shared: np.ndarray) -> float:
    """The label is exactly the z_c coordinate along the label direction."""
    return float(z_shared @ maps.label_direction)


def shared_component(maps: WorldMaps, modality: Modality, z_shared: np.ndarray,
                     class_jitter: float = 0.0) -> np.ndarray:
    """Per-step feature content carried by the shared latent alone.

    The label coordinate of z_c is rescaled by the modality's label_gain
    before the emission map, and ``class_jitter`` (the modality's per-sample
    view noise, in label units) is added to it, so each modality shows its
    own imperfect copy of the label coordinate.
    """
    cfg = maps.config
    direction = maps.label_direction
    coord = float(z_shared @ direction)
    seen = cfg.label_gain[modality] * (coord + class_jitter)
    z_seen = z_shared + (seen - coord) * direction
    return maps.shared_map[modality] @ z_seen


def _draw_shared_latent(maps: WorldMaps, rng: np.random.Generator) -> np.ndarray:
    cfg = maps.config
    k = int(rng.integers(-3, 4))
    # jitter stays inside the class bin; one-sided at the extremes so the
    # label never leaves [-3, 3]
    lo = 0.0 if k == -3 else -LABEL_JITTER
    hi = 0.0 if k == 3 else LABEL_JITTER
    u = rng.uniform(lo, hi)
    perp = maps.basis[:, 1:]
    wobble = perp @ (rng.standard_normal(cfg.z_shared_dim - 1) * WITHIN_CLASS_SPREAD)
    return (k + u) * maps.label_direction + maps.class_offsets[k + 3] + wobble


def generate(n: int, seed: int, config: SyntheticConfig | None = None,
             z_shared_override: np.ndarray | None = None) -> list[Sample]:
    """Draw ``n`` synthetic samples, deterministically under ``seed``.

    ``z_shared_override`` (shape [n, z_shared_dim]) pins the shared latents,
    which lets oracle tests construct sample pairs that agree on shared
    content while differing privately.
    """
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    config = config or SyntheticConfig()
    maps = build_maps(config)
    if z_shared_override is not None and z_shared_override.shape != (n, config.z_shared_dim):
        raise ConfigError(
            f"z_shared_override must have shape ({n}, {config.z_shared_dim}), "
            f"got {z_shared_override.shape}")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        if z_shared_override is not None:
            z_c = z_shared_override[i].astype(np.float64)
        else:
            z_c = _draw_shared_latent(maps, rng)
        label = label_from_latent(maps, z_c)
        if not (LABEL_MIN - 1e-9 <= label <= LABEL_MAX + 1e-9):
            raise ConfigError(f"override latent yields label {label:.3f} outside [-3, 3]")
        z_private = {}
        features = {}
        for m in MODALITIES:
            z_m = rng.standard_normal(config.z_private_dim)
            z_private[m] = z_m
            lo, hi = config.length_ranges[m]
            t_m = int(rng.integers(lo, hi + 1))
            eta = float(rng.normal(0.0, config.class_view_noise[m]))
            mults = np.asarray(config.shared_phase[m], dtype=np.float64)
            phase = mults[rng.integers(0, len(mults), size=t_m)]
            shared = phase[:, None] * shared_component(maps, m, z_c, class_jitter=eta)[None, :]
            private = config.private_gain[m] * (maps.private_map[m] @ z_m)
            noise = rng.standard_normal((t_m, config.raw_dims[m])) * config.noise[m]
            features[m] = shared + private[None, :] + noise
        samples.append(Sample(
            id=f"syn{i:05d}",
            features=features,
            label=float(np.clip(label, LABEL_MIN, LABEL_MAX)),
            latents=Latents(z_shared=z_c, z_private=z_private),
        ))
    return samples


# ---- on-disk format ----

MANIFEST_COLUMNS = ["id", "label", "path_L", "path_V", "path_A"]


def save_dataset(samples: list[Sample], out_dir: str | Path) -> Path:
    """Write ``manifest.csv`` and one CSV per sample and modality under
    ``features/``; nothing else (latents are not saved).

    Feature files are headerless, one time step per row, full float64
    precision so a round trip is bit-exact.  They are written over the
    usable cores (``_map_over_cores``), with the bytes of a one-process
    write; ``manifest.csv`` is written last, so a failed write leaves none.
    """
    out = Path(out_dir)
    feat_dir = out / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    rows, jobs = [], []
    for s in samples:
        rels = [f"features/{s.id}_{m.tag}.csv" for m in MODALITIES]
        jobs += [(out / rel, s.features[m]) for m, rel in zip(MODALITIES, rels)]
        rows.append([s.id, f"{s.label:.17g}", *rels])
    _map_over_cores(_write_feature_csv, jobs)
    manifest_path = out / "manifest.csv"
    with open(manifest_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    return manifest_path


def _write_feature_csv(path: Path, mat: np.ndarray) -> np.ndarray:
    np.savetxt(path, mat, delimiter=",", fmt="%.17g")
    return np.empty((0, 0))  # an empty spool record: this file is written


def _read_feature_csv(path: Path, sample_id: str, modality: Modality,
                      expected_dim: int) -> np.ndarray:
    if not path.is_file():
        raise DataError(f"sample {sample_id}: missing {modality.tag} feature file {path}")
    try:
        # an open handle skips numpy's per-call path and URL resolution; a
        # plain open() decodes with the locale encoding, as numpy would
        with open(path) as fh:
            mat = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"sample {sample_id}: unparseable {modality.tag} feature file {path}: {exc}") from exc
    if mat.size == 0:
        raise DataError(f"sample {sample_id}: empty {modality.tag} feature file {path}")
    if mat.shape[1] != expected_dim:
        raise DataError(
            f"sample {sample_id}: {modality.tag} feature file has {mat.shape[1]} columns, "
            f"expected {expected_dim}")
    if not np.all(np.isfinite(mat)):
        raise DataError(f"sample {sample_id}: non-finite values in {modality.tag} feature file {path}")
    return mat


def load_features(manifest_path: str | Path,
                  dims: dict[Modality, int] | None = None) -> list[Sample]:
    """Read a manifest and its per-sample feature CSVs into Samples.

    Features are taken as already extracted; this only validates the
    manifest's columns and ids, shapes, label range, and finiteness.  Spaces
    around header names are ignored.  The whole manifest is checked before
    any feature file is parsed; ``_map_over_cores`` then parses the files.
    """
    dims = dims or RAW_DIMS
    manifest = Path(manifest_path)
    if not manifest.exists():
        raise DataError(f"manifest not found: {manifest}")
    base = manifest.parent
    rows: list[tuple[str, float]] = []
    jobs: list[tuple[Path, str, Modality, int]] = []
    with open(manifest, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None or [c.strip() for c in header] != MANIFEST_COLUMNS:
            raise DataError(
                f"manifest {manifest} must have columns {','.join(MANIFEST_COLUMNS)}, "
                f"got {header}")
        reader.fieldnames = MANIFEST_COLUMNS
        seen: set[str] = set()
        for row in reader:
            sid = row["id"]
            if None in row:  # DictReader files fields past the header under None
                raise DataError(f"sample {sid}: {len(row[None])} field(s) beyond the "
                                f"{len(MANIFEST_COLUMNS)} columns of manifest {manifest}")
            if sid in seen:
                raise DataError(f"sample id {sid!r} appears twice in manifest {manifest}")
            seen.add(sid)
            try:
                label = float(row["label"])
            except (TypeError, ValueError):
                raise DataError(f"sample {sid}: label {row['label']!r} is not a number")
            if not (LABEL_MIN <= label <= LABEL_MAX):
                raise DataError(f"sample {sid}: label {label} outside [{LABEL_MIN}, {LABEL_MAX}]")
            for m in MODALITIES:
                rel = row[f"path_{m.tag}"]  # None on a short row
                if not rel:
                    raise DataError(f"sample {sid}: no {m.tag} feature path in manifest {manifest}")
                jobs.append((base / rel, sid, m, dims[m]))
            rows.append((sid, label))
    if not rows:
        log.warning("manifest %s lists no samples", manifest)
    mats = iter(_map_over_cores(_read_feature_csv, jobs))
    return [Sample(id=sid, features={m: next(mats) for m in MODALITIES}, label=label)
            for sid, label in rows]


# Below this many feature files per process a load or write stays in fewer
# processes.  On a 2-core machine (medians of 15-31 alternated runs) two
# processes parsed 1.1-1.25x slower than one at 48 files and fewer, and
# 1.3-1.75x faster from 72 files on.  Writing crosses over by 6 files
# (1.2-1.8x faster from 6 to 96 files), so the parse sets the gate.
_FILES_PER_PROCESS = 32


def _map_over_cores(fn, jobs: list[tuple]) -> list[np.ndarray]:
    """``fn(*job)`` for each job, in order, over up to one process per
    usable core; ``fn`` returns a 2-d float64 array.

    The parent runs the first contiguous share of the jobs and a forked
    helper each later one (``_fork_helper``).  Wherever a helper's spool
    ends early (its job raised or it died, or no spool or helper could be
    made), the parent runs the rest of that share itself.  So the results
    are bit-equal to a one-process run, and an error is raised by the
    parent, as that run raises it, for the first failing job in order.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    k = max(1, min(cores, len(jobs) // _FILES_PER_PROCESS)) if hasattr(os, "fork") else 1
    cuts = [len(jobs) * i // k for i in range(k + 1)]
    helpers = []  # (pid, spool) per later share; None for what it lacks
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            helpers.append(_fork_helper(fn, jobs[lo:hi]))
        mats = [fn(*job) for job in jobs[:cuts[1]]]
        for i, (lo, hi) in enumerate(zip(cuts[1:], cuts[2:])):
            pid, spool = helpers[i]
            helpers[i] = None, spool
            if pid is not None:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:  # reaped elsewhere; its spool still counts
                    pass
                mats += _read_spool(spool, hi - lo)
            mats += [fn(*job) for job in jobs[len(mats):hi]]
        return mats
    finally:
        for pid, spool in helpers:
            if pid is not None:  # the parent raised before waiting for it
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:  # already gone
                    pass
            if spool is not None:
                spool.close()


def _fork_helper(fn, share: list[tuple]):
    """Fork a helper that runs ``fn`` over ``share``; returns ``(pid,
    spool)``, with None for the process or spool file that could not be made.

    The spool is an unlinked temporary file.  For each job the helper
    writes the result's shape as two int64, then its raw float64 bytes.  It
    stops at the first job that raises and leaves through ``os._exit``, so
    it never runs the caller's code.  It runs only CSV parsing, CSV
    formatting and file writes, never BLAS, whose threads a fork does not
    copy.
    """
    try:
        spool = tempfile.TemporaryFile()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        return None, spool
    if pid == 0:
        try:
            for job in share:
                mat = fn(*job)
                spool.write(np.array(mat.shape, dtype=np.int64).tobytes())
                spool.write(mat.data)
            spool.flush()
        finally:
            os._exit(0)
    return pid, spool


def _read_spool(spool, count: int) -> list[np.ndarray]:
    """Up to ``count`` arrays from the start of ``spool``, stopping at the
    first record that ends early."""
    spool.seek(0)
    mats: list[np.ndarray] = []
    shape = np.empty(2, dtype=np.int64)
    while len(mats) < count and spool.readinto(shape) == shape.nbytes:
        mat = np.empty(shape.tolist())
        if spool.readinto(mat) != mat.nbytes:
            break
        mats.append(mat)
    return mats


# ---- batching ----


@dataclass
class Batch:
    """Padded per-modality views over a list of samples.

    Padded rows are zero and masked; every consumer divides by true lengths,
    so padding never changes a result.
    """

    ids: list[str]
    labels: np.ndarray                       # [B]
    features: dict[Modality, np.ndarray]     # [B, T_pad, d_m]
    masks: dict[Modality, np.ndarray]        # [B, T_pad] of 0/1
    lengths: dict[Modality, np.ndarray]      # [B] ints

    @property
    def size(self) -> int:
        return len(self.ids)


def resample_to_length(features: np.ndarray, target: int) -> np.ndarray:
    """Nearest-neighbor temporal resample of a [T, d] matrix to [target, d]."""
    t = features.shape[0]
    if t == target:
        return features
    idx = np.floor((np.arange(target) + 0.5) * (t / target)).astype(int)
    return features[np.minimum(idx, t - 1)]


def align_sample(sample: Sample) -> Sample:
    """Resample all three modalities of one sample to their median length."""
    target = sorted(f.shape[0] for f in sample.features.values())[1]
    features = {m: resample_to_length(f, target) for m, f in sample.features.items()}
    return Sample(id=sample.id, features=features, label=sample.label,
                  latents=sample.latents)


def _pad_stack(mats: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t_pad = max(m.shape[0] for m in mats)
    d = mats[0].shape[1]
    feats = np.zeros((len(mats), t_pad, d))
    masks = np.zeros((len(mats), t_pad))
    lengths = np.zeros(len(mats), dtype=np.int64)
    for i, m in enumerate(mats):
        feats[i, :m.shape[0]] = m
        masks[i, :m.shape[0]] = 1.0
        lengths[i] = m.shape[0]
    return feats, masks, lengths


def make_batch(samples: list[Sample], mode: str = "unaligned") -> Batch:
    if mode not in ("aligned", "unaligned"):
        raise ConfigError(f"batch mode must be 'aligned' or 'unaligned', got {mode!r}")
    if not samples:
        raise DataError("a batch needs at least one sample")
    for s in samples:
        for m in MODALITIES:
            if s.features[m].shape[0] < 1:
                raise DataError(f"sample {s.id}: empty {m.tag} sequence")
    if mode == "aligned":
        samples = [align_sample(s) for s in samples]
    features, masks, lengths = {}, {}, {}
    for m in MODALITIES:
        f, k, n = _pad_stack([s.features[m] for s in samples])
        features[m], masks[m], lengths[m] = f, k, n
    return Batch(
        ids=[s.id for s in samples],
        labels=np.array([s.label for s in samples]),
        features=features,
        masks=masks,
        lengths=lengths,
    )


def batches(samples: list[Sample], batch_size: int, mode: str = "unaligned",
            seed: int = 0, epoch: int = 0, shuffle: bool = True):
    """Yield Batches over the dataset, shuffled deterministically per epoch."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(samples))
    if shuffle:
        np.random.default_rng((seed, epoch)).shuffle(order)
    for start in range(0, len(samples), batch_size):
        chunk = [samples[i] for i in order[start:start + batch_size]]
        yield make_batch(chunk, mode=mode)


def split_dataset(samples: list[Sample], seed: int = 0
                  ) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Deterministic 70/15/15 train/val/test split."""
    order = np.arange(len(samples))
    np.random.default_rng(seed).shuffle(order)
    n = len(samples)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.15 * n))
    train = [samples[i] for i in order[:n_train]]
    val = [samples[i] for i in order[n_train:n_train + n_val]]
    test = [samples[i] for i in order[n_train + n_val:]]
    return train, val, test
