"""Dataset handling: synthetic generation, CSV ingestion, batching.

The synthetic generator is the ground-truth oracle for every representation
test in the suite.  Each sample is built from an explicit shared latent z_c
(which alone determines the label) and per-modality private latents z_m, so
tests can check directly whether a learned space recovers shared or private
structure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import signal
import struct
import tempfile
import warnings
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .tensor import RowLayout

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

MODES = ("aligned", "unaligned")  # how make_batch lays out a batch's sequences


@dataclass
class Sample:
    """One sample: a time-major ``[T_m, d_m]`` feature array per modality
    (lengths may differ across modalities), its label, and, for generated
    samples, the shared latent they were drawn from.  It stays in memory
    for tests; ``save_dataset`` does not write it."""

    id: str
    features: dict[Modality, np.ndarray]
    label: float
    z_shared: np.ndarray | None = None


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


def generate(n: int, seed: int, config: SyntheticConfig | None = None) -> list[Sample]:
    """Draw ``n`` synthetic samples, deterministically under ``seed``."""
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    config = config or SyntheticConfig()
    maps = build_maps(config)
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        z_c = _draw_shared_latent(maps, rng)
        label = label_from_latent(maps, z_c)
        features = {}
        for m in MODALITIES:
            z_m = rng.standard_normal(config.z_private_dim)
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
            # rounding in the projection can put an end label just past +-3
            label=float(np.clip(label, LABEL_MIN, LABEL_MAX)),
            z_shared=z_c,
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
    write; ``manifest.csv`` is removed first and written last, so a failed
    write leaves none.
    """
    out = Path(out_dir)
    feat_dir = out / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.csv"
    manifest_path.unlink(missing_ok=True)
    rows, jobs = [], []
    for s in samples:
        rels = [f"features/{s.id}_{m.tag}.csv" for m in MODALITIES]
        jobs += [(out / rel, s.features[m]) for m, rel in zip(MODALITIES, rels)]
        rows.append([s.id, f"{s.label:.17g}", *rels])
    _map_over_cores(_write_feature_csv, jobs)
    with open(manifest_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    return manifest_path


def _write_feature_csv(path: Path, mat: np.ndarray) -> tuple[bytes, np.ndarray]:
    np.savetxt(path, mat, delimiter=",", fmt="%.17g")
    return _NO_KEY, np.empty((0, 0))  # an empty spool record: this file is written


def _key(st: os.stat_result, mat: np.ndarray) -> bytes:
    """The key of a parsed file's record: the stamp of the file it was
    parsed from (device, inode, size, mtime and ctime, from ``fstat`` of the
    descriptor the parse read) and the CRC-32 of the array's shape and
    float64 bytes, which checks the array stored with it."""
    crc = zlib.crc32(mat.data, zlib.crc32(struct.pack("<2q", *mat.shape)))
    return _KEY.pack(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns, crc)


def _read_feature_csv(path: Path, sample_id: str, modality: Modality,
                      expected_dim: int) -> tuple[bytes, np.ndarray]:
    """Parse one feature file and check it; returns the key of the file and
    the array it parsed to (``_key``), and the array.  The stamp is taken
    from the descriptor before its one read, so a write during the parse
    leaves the file with another stamp than its record."""
    if not path.is_file():
        raise DataError(f"sample {sample_id}: missing {modality.tag} feature file {path}")
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        raw = fh.read()
    # the wrapper a plain open() builds, so the text, its newlines and any
    # decoding error are those of open(path)
    text = io.TextIOWrapper(io.BytesIO(raw))
    try:
        with warnings.catch_warnings():
            # a file without data is reported once, as the DataError of
            # _check_features, in the parent and in a forked helper alike
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            mat = np.loadtxt(text, delimiter=",", ndmin=2, dtype=np.float64)
    except UserWarning:
        mat = np.empty((0, 0))
    except ValueError as exc:
        raise DataError(f"sample {sample_id}: unparseable {modality.tag} feature file {path}: {exc}") from exc
    mat = _check_features(mat, path, sample_id, modality, expected_dim)
    return _key(st, mat), mat


def _check_features(mat: np.ndarray, path: Path, sample_id: str, modality: Modality,
                    expected_dim: int) -> np.ndarray:
    if mat.size == 0:
        raise DataError(f"sample {sample_id}: empty {modality.tag} feature file {path}")
    if mat.shape[1] != expected_dim:
        raise DataError(
            f"sample {sample_id}: {modality.tag} feature file {path} has {mat.shape[1]} "
            f"columns, expected {expected_dim}")
    if not np.all(np.isfinite(mat)):
        raise DataError(f"sample {sample_id}: non-finite values in {modality.tag} feature file {path}")
    return mat


def load_features(manifest_path: str | Path,
                  dims: dict[Modality, int] | None = None) -> list[Sample]:
    """Read a manifest and its per-sample feature CSVs into Samples.

    Features are taken as already extracted; this only validates the
    manifest's columns and ids, shapes, label range, and finiteness, and
    that it lists at least one sample.  Spaces
    around header names are ignored.  The whole manifest is checked before
    any feature file is read.

    A successful parse leaves a cache beside the manifest,
    ``.<manifest name>.parsed``, of each file's array under the file's
    stamp (``_key``).  A later load takes the arrays from there when no
    file has changed since it was parsed (``_load_cached``), reading no
    file; otherwise ``_parse_and_cache`` parses the files, raising any
    error, and rewrites the cache.  A cache that cannot be written is left
    out.
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
        raise DataError(f"manifest {manifest} lists no samples")
    cache = manifest.with_name(f".{manifest.name}.parsed")
    mats = _load_cached(cache, jobs)
    if mats is None:
        mats = _parse_and_cache(cache, jobs)
    it = iter(mats)
    return [Sample(id=sid, features={m: next(it) for m in MODALITIES}, label=label)
            for sid, label in rows]


# ---- parse cache ----

# The cache is a header, then one spool record (``_write_record``) per
# feature file, in manifest order.  The header is this magic (its last byte
# the format version), the number of records, the marker (the device and
# ctime of the cache's temporary file, taken as it was made, before any
# feature file was read) and the name of the text encoding a plain open()
# decodes with.
_CACHE_MAGIC = b"MDPARSE\x02"
_HEAD = struct.Struct("<8sQQq32s")


def _head(count: int, marker_dev: int, marker_ctime: int) -> bytes:
    encoding = io.TextIOWrapper(io.BytesIO()).encoding  # what open() decodes with
    return _HEAD.pack(_CACHE_MAGIC, count, marker_dev, marker_ctime, encoding.encode())


def _load_cached(cache: Path, jobs: list[tuple]) -> list[np.ndarray] | None:
    """The checked arrays of ``jobs`` from ``cache``, or None unless every
    file is a regular file on the marker's device whose stamp is its
    record's and whose ctime is older than the marker's, every record holds
    the array it was stored with, the arrays pass their checks (the parse
    then raises the error), and the cache is one whole cache of
    ``len(jobs)`` records (it may be any bytes at all).

    The kernel sets a file's ctime from the filesystem's clock on every
    change to its bytes or metadata, and nothing sets it back.  The parse
    read each file after the marker was made, so any later write gave the
    file a ctime no older than the marker's, and so another stamp than a
    record older than the marker.  Each file is opened, but not read,
    because NFS revalidates a file's attributes on open."""
    try:
        with open(cache, "rb") as fh:
            end = os.fstat(fh.fileno()).st_size
            head = fh.read(_HEAD.size)
            if len(head) != _HEAD.size:
                return None
            _, _, marker_dev, marker_ctime, _ = _HEAD.unpack(head)
            if head != _head(len(jobs), marker_dev, marker_ctime):
                return None
            mats = []
            for path, *_ in jobs:
                record = _read_record(fh, end)
                if record is None or not path.is_file():  # a FIFO or device would block
                    return None
                with open(path, "rb") as src:
                    st = os.fstat(src.fileno())
                if (st.st_dev != marker_dev or st.st_ctime_ns >= marker_ctime
                        or record[0] != _key(st, record[1])):
                    return None
                mats.append(record[1])
            if fh.tell() != end:
                return None
        return [_check_features(mat, *job) for mat, job in zip(mats, jobs)]
    except (OSError, DataError):
        return None


def _parse_and_cache(cache: Path, jobs: list[tuple]) -> list[np.ndarray]:
    """Parse ``jobs`` over the usable cores (``_map_over_cores``), raising
    any error, and return the arrays, after writing them as ``cache``.

    The cache's temporary file is made, in the parent, before any file is
    read, and its ctime is the marker.  The records are written to it and
    it is renamed over ``cache``, as ``save_checkpoint`` writes.  Where a
    file is on another device than the marker, no load could take its
    record, so nothing is written.  An ``OSError`` of the cache (a
    read-only directory, a full disk) or an error of the parse leaves no
    temporary file, and no new cache."""
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    fh = marker = None
    with contextlib.suppress(OSError):
        fh = open(tmp, "wb")
        marker = os.fstat(fh.fileno())
    try:
        parsed = _map_over_cores(_read_feature_csv, jobs)
        if marker is not None and all(_KEY.unpack(key)[0] == marker.st_dev
                                      for key, _ in parsed):
            with contextlib.suppress(OSError):
                fh.write(_head(len(parsed), marker.st_dev, marker.st_ctime_ns))
                for key, mat in parsed:
                    _write_record(fh, key, mat)
                fh.close()
                os.replace(tmp, cache)
    finally:
        with contextlib.suppress(OSError):
            if fh is not None:
                fh.close()  # flushes what a failed write left buffered, and may fail again
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
    return [mat for _, mat in parsed]


# Below this many feature files per process a load or write stays in fewer
# processes.  On a 2-core machine (medians of 15-31 alternated runs) two
# processes parsed 1.1-1.25x slower than one at 48 files and fewer, and
# 1.3-1.75x faster from 72 files on.  Writing crosses over by 6 files
# (1.2-1.8x faster from 6 to 96 files), so the parse sets the gate.
_FILES_PER_PROCESS = 32


def _map_over_cores(fn, jobs: list[tuple]) -> list[tuple[bytes, np.ndarray]]:
    """``fn(*job)`` for each job, in order, over up to one process per
    usable core; ``fn`` returns a spool record's ``(key, array)``: a
    48-byte key (``_key``, or ``_NO_KEY`` where there is none) and a 2-d
    float64 array.

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
        results = [fn(*job) for job in jobs[:cuts[1]]]
        for i, (lo, hi) in enumerate(zip(cuts[1:], cuts[2:])):
            pid, spool = helpers[i]
            helpers[i] = None, spool
            if pid is not None:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:  # reaped elsewhere; its spool still counts
                    pass
                results += _read_spool(spool, hi - lo)
            results += [fn(*job) for job in jobs[len(results):hi]]
        return results
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

    The spool is an unlinked temporary file of one ``_write_record`` record
    per job.  The helper stops at the first job that raises and leaves
    through ``os._exit``, so it never runs the caller's code.  It runs only
    CSV parsing, CRC-32 sums, CSV formatting and file writes, never BLAS,
    whose threads a fork does not copy.
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
                _write_record(spool, *fn(*job))
            spool.flush()
        finally:
            os._exit(0)
    return pid, spool


# A record is the array's shape as two int64, a 48-byte key (``_key``; all
# zero where there is none), then the array's raw float64 bytes.
_KEY = struct.Struct("<2Q3qQ")
_NO_KEY = bytes(_KEY.size)
_RECORD_HEAD = 2 * 8 + _KEY.size


def _write_record(fh, key: bytes, mat: np.ndarray) -> None:
    fh.write(np.array(mat.shape, dtype=np.int64).tobytes() + key)
    fh.write(mat.data)


def _read_record(fh, end: int) -> tuple[bytes, np.ndarray] | None:
    """The record at ``fh``'s position, or None where the bytes before
    ``end`` hold no whole record.  The shape is checked against those bytes
    before anything is allocated, since a cache file can hold any bytes."""
    head = fh.read(_RECORD_HEAD)
    if len(head) != _RECORD_HEAD:
        return None
    rows, cols = np.frombuffer(head, dtype=np.int64, count=2).tolist()
    if rows < 0 or cols < 0 or 8 * rows * cols > end - fh.tell():
        return None
    mat = np.empty((rows, cols))
    if fh.readinto(mat) != mat.nbytes:
        return None
    return head[16:], mat


def _read_spool(spool, count: int) -> list[tuple[bytes, np.ndarray]]:
    """Up to ``count`` records from the start of ``spool``, stopping at the
    first record that ends early."""
    end = os.fstat(spool.fileno()).st_size
    spool.seek(0)
    records = []
    while len(records) < count and (record := _read_record(spool, end)) is not None:
        records.append(record)
    return records


# ---- batching ----


@dataclass
class Batch:
    """Per-modality packed rows over a list of samples.

    ``features[m]`` holds every sample's ``[T_m, d_m]`` array, sample after
    sample, as ``[ΣT_m, d_m]``; there are no padded rows.  ``rows[m]`` is
    where each sample's steps sit, built once per batch for every stage
    that reads across steps.
    """

    ids: list[str]
    labels: np.ndarray                       # [B]
    features: dict[Modality, np.ndarray]     # [ΣT_m, d_m]
    rows: dict[Modality, RowLayout]

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def lengths(self) -> dict[Modality, np.ndarray]:
        """Each modality's ``[B]`` sequence lengths."""
        return {m: r.lengths for m, r in self.rows.items()}

    def alone(self) -> list[Batch]:
        """Each sample as a one-sample batch of its own rows, in order."""
        return [Batch(ids=[sid], labels=self.labels[i:i + 1],
                      features={m: self.features[m][r.starts[i]:r.starts[i] + r.lengths[i]]
                                for m, r in self.rows.items()},
                      rows={m: RowLayout(r.lengths[i:i + 1]) for m, r in self.rows.items()})
                for i, sid in enumerate(self.ids)]


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
                  z_shared=sample.z_shared)


def make_batch(samples: list[Sample], mode: str = "unaligned") -> Batch:
    # every sample reaches the model through here, so here a non-finite
    # feature and a NaN or out-of-range label stop
    if mode not in MODES:
        raise ConfigError(f"batch mode must be one of {MODES}, got {mode!r}")
    if not samples:
        raise DataError("a batch needs at least one sample")
    for s in samples:
        for m in MODALITIES:
            if s.features[m].shape[0] < 1:
                raise DataError(f"sample {s.id}: empty {m.tag} sequence")
    if mode == "aligned":
        samples = [align_sample(s) for s in samples]
    batch = Batch(
        ids=[s.id for s in samples],
        labels=np.array([s.label for s in samples]),
        features={m: np.concatenate([s.features[m] for s in samples]) for m in MODALITIES},
        rows={m: RowLayout([s.features[m].shape[0] for s in samples]) for m in MODALITIES},
    )
    in_range = (batch.labels >= LABEL_MIN) & (batch.labels <= LABEL_MAX)  # False for NaN
    if not in_range.all():
        i = int(np.argmin(in_range))
        raise DataError(f"sample {batch.ids[i]}: label {batch.labels[i]} "
                        f"outside [{LABEL_MIN}, {LABEL_MAX}]")
    for m, mat in batch.features.items():
        if not np.isfinite(mat).all():
            sid = batch.ids[batch.rows[m].seq[np.argmin(np.isfinite(mat).all(axis=1))]]
            raise DataError(f"sample {sid}: non-finite {m.tag} feature value")
    return batch


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
