"""Dataset tests: generator determinism and latent structure, CSV round
trips, ingestion error reporting, batching and masking."""

import hashlib
import os
import shutil
import signal
import tempfile

import numpy as np
import pytest

from modal_distill import data
from modal_distill.data import (
    MODALITIES,
    RAW_DIMS,
    Modality,
    SyntheticConfig,
    _read_feature_csv,
    align_sample,
    batches,
    build_maps,
    generate,
    label_from_latent,
    load_features,
    make_batch,
    resample_to_length,
    save_dataset,
    shared_component,
    split_dataset,
)
from modal_distill.cli import main
from modal_distill.errors import ConfigError, DataError

from conftest import count_forks


def small_config():
    return SyntheticConfig(
        raw_dims={Modality.LANGUAGE: 12, Modality.VISION: 7, Modality.AUDIO: 9},
        length_ranges={Modality.LANGUAGE: (3, 6), Modality.VISION: (2, 5),
                       Modality.AUDIO: (4, 8)},
    )


# ---- generator ----


def test_generate_deterministic():
    a = generate(4, seed=11, config=small_config())
    b = generate(4, seed=11, config=small_config())
    for sa, sb in zip(a, b):
        assert sa.id == sb.id and sa.label == sb.label
        for m in MODALITIES:
            np.testing.assert_array_equal(sa.features[m],
                                          sb.features[m])
        np.testing.assert_array_equal(sa.latents.z_shared, sb.latents.z_shared)


def small_world():
    """The small world the model and harness tests train on."""
    return SyntheticConfig(
        raw_dims={Modality.LANGUAGE: 6, Modality.VISION: 5, Modality.AUDIO: 4},
        z_shared_dim=4, z_private_dim=3,
        length_ranges={Modality.LANGUAGE: (3, 9), Modality.VISION: (2, 6),
                       Modality.AUDIO: (4, 10)},
    )


def _fingerprint(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.id.encode())
        h.update(np.float64(s.label).tobytes())
        for m in MODALITIES:
            features = s.features[m]
            h.update(repr(features.shape).encode())
            h.update(np.ascontiguousarray(features).tobytes())
        h.update(s.latents.z_shared.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n,seed,world,digest", [
    (160, 1, SyntheticConfig, "0fe8c348b128cce98174eadbc253385070d93465aad4fca81e32c080dc892fd4"),
    (50, 7, small_world, "0a0e823a77a7435b9d284541cafc1e7952552af538bcb49863e01b1d6f4b19a1"),
], ids=["default", "small"])
def test_synthetic_world_fingerprint(n, seed, world, digest):
    """The generator is pinned bit for bit: ids, labels, every feature array
    and every shared latent.  Any change to a world constant, a map draw or
    the order of the draws changes the digest."""
    assert _fingerprint(generate(n, seed, world())) == digest


def test_generate_labels_in_range():
    for s in generate(300, seed=3, config=small_config()):
        assert -3.0 <= s.label <= 3.0


def test_generate_label_deterministic_in_shared_latent():
    cfg = small_config()
    maps = build_maps(cfg)
    for s in generate(50, seed=5, config=cfg):
        assert s.label == pytest.approx(label_from_latent(maps, s.latents.z_shared), abs=1e-12)


def test_linear_regressor_on_shared_latent_recovers_label():
    # least-squares oracle: label must be a linear function of z_c
    cfg = small_config()
    train = generate(400, seed=21, config=cfg)
    test = generate(200, seed=22, config=cfg)
    xtr = np.stack([s.latents.z_shared for s in train])
    ytr = np.array([s.label for s in train])
    xtr1 = np.hstack([xtr, np.ones((len(train), 1))])
    coef, *_ = np.linalg.lstsq(xtr1, ytr, rcond=None)
    xte1 = np.hstack([np.stack([s.latents.z_shared for s in test]),
                      np.ones((len(test), 1))])
    mae = np.abs(xte1 @ coef - np.array([s.label for s in test])).mean()
    assert mae < 0.3
    assert mae < 1e-8  # exactly linear by construction


def test_generate_rejects_bad_args():
    with pytest.raises(ConfigError):
        generate(0, seed=1)
    bad = small_config()
    bad.raw_dims[Modality.VISION] = 0
    with pytest.raises(ConfigError):
        generate(2, seed=1, config=bad)


def test_phase_multiplies_shared_component():
    cfg = small_config()
    cfg.noise = {m: 0.0 for m in MODALITIES}
    cfg.private_gain = {m: 0.0 for m in MODALITIES}
    cfg.class_view_noise = {m: 0.0 for m in MODALITIES}
    cfg.shared_phase = {m: (2.0,) for m in MODALITIES}
    maps = build_maps(cfg)
    s = generate(1, seed=3, config=cfg)[0]
    for m in MODALITIES:
        expected = 2.0 * shared_component(maps, m, s.latents.z_shared)
        for row in s.features[m]:
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)


def test_phase_set_rows_are_scaled_copies():
    # with noise and private content off, every row must be one of the
    # configured multiples of the shared component
    cfg = small_config()
    cfg.noise = {m: 0.0 for m in MODALITIES}
    cfg.private_gain = {m: 0.0 for m in MODALITIES}
    cfg.class_view_noise = {m: 0.0 for m in MODALITIES}
    cfg.shared_phase = {m: (2.0, -1.0, -1.0) for m in MODALITIES}
    maps = build_maps(cfg)
    s = generate(1, seed=12, config=cfg)[0]
    for m in MODALITIES:
        base = shared_component(maps, m, s.latents.z_shared)
        anchor = np.abs(base).argmax()
        for row in s.features[m]:
            mult = row[anchor] / base[anchor]
            assert any(abs(mult - p) < 1e-9 for p in (2.0, -1.0))
            np.testing.assert_allclose(row, mult * base, rtol=0, atol=1e-12)


def test_label_gain_zero_hides_label_coordinate():
    cfg = small_config()
    cfg.label_gain = {m: 1.0 for m in MODALITIES}
    cfg.label_gain[Modality.LANGUAGE] = 0.0
    maps = build_maps(cfg)
    base = 0.3 * maps.basis[:, 1]
    z_lo = base + 1.1 * maps.label_direction
    z_hi = base + 1.4 * maps.label_direction
    assert label_from_latent(maps, z_lo) != label_from_latent(maps, z_hi)
    np.testing.assert_allclose(shared_component(maps, Modality.LANGUAGE, z_lo),
                               shared_component(maps, Modality.LANGUAGE, z_hi),
                               rtol=0, atol=1e-12)
    for m in (Modality.VISION, Modality.AUDIO):
        diff = shared_component(maps, m, z_lo) - shared_component(maps, m, z_hi)
        assert np.abs(diff).max() > 1e-3


def test_class_jitter_shifts_view_along_label_direction():
    # a modality's view noise must act exactly like shifting the label
    # coordinate by that amount
    cfg = small_config()
    maps = build_maps(cfg)
    z = 0.8 * maps.label_direction + 0.4 * maps.basis[:, 2]
    for m in MODALITIES:
        jittered = shared_component(maps, m, z, class_jitter=0.3)
        shifted = shared_component(maps, m, z + 0.3 * maps.label_direction)
        np.testing.assert_allclose(jittered, shifted, rtol=0, atol=1e-12)


def test_sequence_dims_match_config():
    cfg = small_config()
    for s in generate(10, seed=2, config=cfg):
        for m in MODALITIES:
            t, dim = s.features[m].shape
            lo, hi = cfg.length_ranges[m]
            assert lo <= t <= hi
            assert dim == cfg.raw_dims[m]


def test_default_dims_mirror_standard_extractors():
    assert RAW_DIMS[Modality.LANGUAGE] == 300
    assert RAW_DIMS[Modality.VISION] == 35
    assert RAW_DIMS[Modality.AUDIO] == 74


# ---- disk round trip and ingestion errors ----


def test_save_load_round_trip(tmp_path):
    cfg = small_config()
    samples = generate(3, seed=13, config=cfg)
    manifest = save_dataset(samples, tmp_path)
    loaded = load_features(manifest, dims=cfg.raw_dims)
    assert [s.id for s in loaded] == [s.id for s in samples]
    for orig, back in zip(samples, loaded):
        assert back.label == orig.label
        for m in MODALITIES:
            np.testing.assert_array_equal(back.features[m],
                                          orig.features[m])


def test_save_dataset_writes_manifest_and_features_only(tmp_path):
    samples = generate(3, seed=13, config=small_config())
    assert save_dataset(samples, tmp_path) == tmp_path / "manifest.csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features", "manifest.csv"]
    assert sorted(p.name for p in (tmp_path / "features").iterdir()) == sorted(
        f"{s.id}_{m.tag}.csv" for s in samples for m in MODALITIES)


def _error_cold_and_warm(samples, root, damage, dims, load_dims=None):
    """The ``DataError`` text of ``load_features(dims=load_dims)`` after
    ``damage(root)``, asserted to be the same on a tree never loaded before
    (no parse cache) and on one loaded once, with ``dims``, before the
    damage (a cache of every file)."""
    texts = []
    for warm in (False, True):
        shutil.rmtree(root)
        manifest = save_dataset(samples, root)
        if warm:
            load_features(manifest, dims=dims)
            assert (root / ".manifest.csv.parsed").is_file()
        damage(root)
        with pytest.raises(DataError) as exc:
            load_features(manifest, dims=load_dims or dims)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    return texts[0]


def test_load_missing_file_names_sample(tmp_path):
    cfg = small_config()
    samples = generate(2, seed=14, config=cfg)
    msg = _error_cold_and_warm(
        samples, tmp_path,
        lambda root: (root / "features" / f"{samples[1].id}_A.csv").unlink(),
        cfg.raw_dims)
    assert samples[1].id in msg


@pytest.mark.parametrize("case,tag", [("short_row", "A"), ("empty_path", "V"),
                                      ("directory_path", "L")])
def test_load_bad_manifest_path_names_sample_and_modality(tmp_path, case, tag):
    cfg = small_config()
    samples = generate(2, seed=17, config=cfg)
    manifest = save_dataset(samples, tmp_path)
    header, first, second = manifest.read_text().splitlines()
    fields = second.split(",")
    if case == "short_row":
        del fields[4:]
    elif case == "empty_path":
        fields[3] = ""
    else:
        fields[2] = "features"
    manifest.write_text("\n".join([header, first, ",".join(fields)]) + "\n")
    with pytest.raises(DataError) as exc:
        load_features(manifest, dims=cfg.raw_dims)
    msg = str(exc.value)
    assert samples[1].id in msg and f" {tag} feature" in msg


def test_load_wrong_column_count_names_sample_and_dim(tmp_path):
    cfg = small_config()
    samples = generate(1, seed=15, config=cfg)
    bad = np.zeros((4, cfg.raw_dims[Modality.VISION] + 2))
    msg = _error_cold_and_warm(
        samples, tmp_path,
        lambda root: np.savetxt(root / "features" / f"{samples[0].id}_V.csv", bad,
                                delimiter=","),
        cfg.raw_dims)
    assert samples[0].id in msg and str(cfg.raw_dims[Modality.VISION]) in msg


def _fifo_in_place_of(path):
    path.unlink()
    os.mkfifo(path)


def test_load_fifo_in_place_of_a_file_is_reported_missing_warm_and_cold(tmp_path):
    """A path that is not a regular file is never opened, so a FIFO cannot
    block a load."""
    cfg = small_config()
    samples = generate(2, seed=14, config=cfg)
    msg = _error_cold_and_warm(
        samples, tmp_path,
        lambda root: _fifo_in_place_of(root / "features" / f"{samples[1].id}_L.csv"),
        cfg.raw_dims)
    assert msg.startswith(f"sample {samples[1].id}: missing L feature file")


def test_load_empty_file_is_the_same_error_warm_and_cold(tmp_path):
    cfg = small_config()
    samples = generate(3, seed=15, config=cfg)
    msg = _error_cold_and_warm(
        samples, tmp_path,
        lambda root: (root / "features" / f"{samples[2].id}_L.csv").write_bytes(b""),
        cfg.raw_dims)
    assert msg.startswith(f"sample {samples[2].id}: empty L feature file")


def test_load_with_other_dims_names_the_first_mismatching_file_warm_and_cold(tmp_path):
    """A warm tree loaded with a different ``dims`` fails the column check on
    its cached arrays, so it is parsed again, and the parse raises the error
    for the first file in manifest order that mismatches."""
    cfg = small_config()
    samples = generate(3, seed=15, config=cfg)
    dims = {**cfg.raw_dims, Modality.AUDIO: cfg.raw_dims[Modality.AUDIO] + 1}
    msg = _error_cold_and_warm(samples, tmp_path, lambda root: None, cfg.raw_dims, dims)
    assert msg == (f"sample {samples[0].id}: A feature file has "
                   f"{cfg.raw_dims[Modality.AUDIO]} columns, expected {dims[Modality.AUDIO]}")


def test_load_label_out_of_range(tmp_path):
    cfg = small_config()
    samples = generate(1, seed=16, config=cfg)
    manifest = save_dataset(samples, tmp_path)
    text = manifest.read_text().splitlines()
    parts = text[1].split(",")
    parts[1] = "4.5"
    manifest.write_text("\n".join([text[0], ",".join(parts)]) + "\n")
    with pytest.raises(DataError) as exc:
        load_features(manifest, dims=cfg.raw_dims)
    assert samples[0].id in str(exc.value)


def test_load_empty_manifest_is_a_data_error(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,label,path_L,path_V,path_A\n")
    with pytest.raises(DataError, match="lists no samples"):
        load_features(manifest)


def test_load_rejects_extra_fields_naming_sample(tmp_path):
    cfg = small_config()
    samples = generate(2, seed=18, config=cfg)
    manifest = save_dataset(samples, tmp_path)
    header, first, second = manifest.read_text().splitlines()
    manifest.write_text("\n".join([header, first + ",junk,more", second]) + "\n")
    with pytest.raises(DataError, match="beyond") as exc:
        load_features(manifest, dims=cfg.raw_dims)
    assert samples[0].id in str(exc.value)


def test_load_rejects_duplicate_sample_id(tmp_path):
    cfg = small_config()
    samples = generate(3, seed=19, config=cfg)
    manifest = save_dataset(samples, tmp_path)
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(DataError, match="twice") as exc:
        load_features(manifest, dims=cfg.raw_dims)
    assert samples[0].id in str(exc.value)


def test_load_header_with_spaces_round_trips(tmp_path):
    cfg = small_config()
    samples = generate(2, seed=20, config=cfg)
    manifest = save_dataset(samples, tmp_path)
    header, *rows = manifest.read_text().splitlines()
    spaced = ", ".join(" " + name for name in header.split(","))
    manifest.write_text("\n".join([spaced] + rows) + "\n")
    loaded = load_features(manifest, dims=cfg.raw_dims)
    assert [s.id for s in loaded] == [s.id for s in samples]
    for orig, back in zip(samples, loaded):
        assert back.label == orig.label
        for m in MODALITIES:
            np.testing.assert_array_equal(back.features[m],
                                          orig.features[m])


def test_load_rejects_wrong_header(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,score,path_L,path_V,path_A\n")
    with pytest.raises(DataError):
        load_features(manifest)


# ---- loading over several processes ----

# 48 samples are 144 feature files: two shares of 72, so syn00040 lies in
# the forked helper's share and syn00005 in the parent's
HELPER_SAMPLE, PARENT_SAMPLE = "syn00040", "syn00005"


@pytest.fixture(scope="module")
def samples48():
    return generate(48, 2)


def _use_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_all_reaped(fds):
    """No helper is left running or unreaped, and no spool left open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _direct_read(path):
    """One feature file parsed as a plain ``np.loadtxt`` of ``open(path)``."""
    with open(path) as fh:
        return np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)


def _assert_bit_equal_to_direct_reads(loaded, samples, root):
    assert [(s.id, s.label) for s in loaded] == [(s.id, s.label) for s in samples]
    for s in loaded:
        for m in MODALITIES:
            direct = _direct_read(root / "features" / f"{s.id}_{m.tag}.csv")
            got = s.features[m]
            assert got.dtype == direct.dtype and got.shape == direct.shape
            assert got.tobytes() == direct.tobytes()


def _corrupt(path, case):
    if case == "missing":
        path.unlink()
        return
    rows = path.read_text().splitlines()
    fields = rows[1].split(",")
    if case == "nan":
        fields[3] = "nan"
    elif case == "word":
        fields[3] = "spam"
    else:  # a short row
        del fields[-1]
    rows[1] = ",".join(fields)
    path.write_text("\n".join(rows) + "\n")


def test_two_process_load_is_bit_equal_to_direct_reads(tmp_path, monkeypatch, samples48):
    manifest = save_dataset(samples48, tmp_path)
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    loaded = load_features(manifest)
    assert len(forks) == 1
    _assert_all_reaped(fds)
    _assert_bit_equal_to_direct_reads(loaded, samples48, tmp_path)


@pytest.mark.parametrize("case,tag", [("nan", "V"), ("word", "L"), ("missing", "A"),
                                      ("short_row", "V")])
def test_bad_file_in_helper_share_raises_the_one_core_error(tmp_path, monkeypatch,
                                                            samples48, case, tag):
    manifest = save_dataset(samples48, tmp_path)
    _corrupt(tmp_path / "features" / f"{HELPER_SAMPLE}_{tag}.csv", case)
    _use_cores(monkeypatch, 1)
    with pytest.raises(DataError) as serial:
        load_features(manifest)
    assert HELPER_SAMPLE in str(serial.value)
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    with pytest.raises(DataError) as parallel:
        load_features(manifest)
    assert len(forks) == 1
    _assert_all_reaped(fds)
    assert str(parallel.value) == str(serial.value)
    # the same damage after a load that left a parse cache
    load_features(save_dataset(samples48, tmp_path))
    _corrupt(tmp_path / "features" / f"{HELPER_SAMPLE}_{tag}.csv", case)
    with pytest.raises(DataError) as warm:
        load_features(manifest)
    assert str(warm.value) == str(serial.value)


@pytest.mark.parametrize("large", [False, True], ids=["small", "helper_share"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_empty_feature_file_is_one_stderr_line(tmp_path, monkeypatch, capfd, samples48,
                                               large, warm):
    """``train --data`` on a set with one empty CSV exits 2 and writes one
    line to stderr, numpy's no-data warning included nowhere: on a set
    never loaded and on one whose other files the parse cache holds, and,
    with 144 files on two cores, from a forked helper's share."""
    samples = samples48 if large else samples48[:4]
    sid = HELPER_SAMPLE if large else samples[2].id
    manifest = save_dataset(samples, tmp_path / "set")
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    if warm:
        load_features(manifest)
    empty = tmp_path / "set" / "features" / f"{sid}_L.csv"
    empty.write_bytes(b"")
    capfd.readouterr()
    code = main(["train", "--data", str(manifest), "--epochs", "1",
                 "--out", str(tmp_path / "run")])
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [f"data error: sample {sid}: empty L feature file {empty}"]
    assert len(forks) == (1 + warm if large else 0)


def test_first_bad_file_in_manifest_order_is_reported(tmp_path, monkeypatch, samples48):
    """A bad file in the parent's share wins over one in the helper's; the
    helper, still parsing, is stopped and reaped."""
    manifest = save_dataset(samples48, tmp_path)
    _corrupt(tmp_path / "features" / f"{HELPER_SAMPLE}_L.csv", "word")
    _corrupt(tmp_path / "features" / f"{PARENT_SAMPLE}_A.csv", "nan")
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    with pytest.raises(DataError, match=f"sample {PARENT_SAMPLE}: non-finite"):
        load_features(manifest)
    assert len(forks) == 1
    _assert_all_reaped(fds)


def test_helper_dying_mid_share_still_loads_bit_equal(tmp_path, monkeypatch, samples48):
    manifest = save_dataset(samples48, tmp_path)
    parent = os.getpid()

    def dies_in_helper(path, sid, modality, dim):
        if os.getpid() != parent and sid == HELPER_SAMPLE:
            os._exit(1)
        return _read_feature_csv(path, sid, modality, dim)

    monkeypatch.setattr(data, "_read_feature_csv", dies_in_helper)
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    loaded = load_features(manifest)
    assert len(forks) == 1
    _assert_all_reaped(fds)
    _assert_bit_equal_to_direct_reads(loaded, samples48, tmp_path)


@pytest.mark.parametrize("bad", [None, PARENT_SAMPLE])
def test_helpers_reaped_elsewhere_still_load_and_close_their_spools(tmp_path, monkeypatch,
                                                                    samples48, bad):
    """With SIGCHLD ignored the kernel reaps each helper itself, so the
    parent's ``waitpid`` and ``kill`` find no child; the spool is still read
    or closed."""
    manifest = save_dataset(samples48, tmp_path)
    if bad:
        _corrupt(tmp_path / "features" / f"{bad}_A.csv", "nan")
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        if bad:
            with pytest.raises(DataError, match=f"sample {bad}: non-finite"):
                load_features(manifest)
        else:
            loaded = load_features(manifest)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 1
    _assert_all_reaped(fds)
    if not bad:
        _assert_bit_equal_to_direct_reads(loaded, samples48, tmp_path)


def _no_spool(*args, **kwargs):
    raise OSError("no space left for a spool")


def _no_fork():
    raise OSError("no process left to fork")


@pytest.mark.parametrize("owner,name,fails", [(tempfile, "TemporaryFile", _no_spool),
                                              (os, "fork", _no_fork)])
def test_no_spool_or_no_helper_falls_back_to_parsing_in_the_parent(
        tmp_path, monkeypatch, samples48, owner, name, fails):
    manifest = save_dataset(samples48, tmp_path)
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(owner, name, fails)
    fds = _open_fds()
    loaded = load_features(manifest)
    _assert_all_reaped(fds)
    _assert_bit_equal_to_direct_reads(loaded, samples48, tmp_path)


def _fork_forbidden():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("n,cores", [(48, 1), (5, 2)])
def test_one_core_or_few_files_never_forks(tmp_path, monkeypatch, samples48, n, cores):
    samples = samples48[:n]
    manifest = save_dataset(samples, tmp_path)
    _use_cores(monkeypatch, cores)
    monkeypatch.setattr(os, "fork", _fork_forbidden)
    _assert_bit_equal_to_direct_reads(load_features(manifest), samples, tmp_path)


# ---- the parse cache ----


def _cache(root):
    return root / ".manifest.csv.parsed"


def _small_tree(root):
    """A saved 3-sample dataset (9 files, parsed in one process) and its
    samples and dims."""
    cfg = small_config()
    samples = generate(3, seed=22, config=cfg)
    return save_dataset(samples, root), samples, cfg.raw_dims


def _same_size_edit(raw: bytes) -> bytes:
    """``raw`` with its first nonzero digit changed: the same size, another
    value."""
    i = next(i for i, b in enumerate(raw) if chr(b) in "123456789")
    return raw[:i] + (b"2" if raw[i:i + 1] == b"1" else b"1") + raw[i + 1:]


def test_warm_load_is_bit_equal_to_direct_reads_and_forks_nothing(tmp_path, monkeypatch,
                                                                  samples48):
    manifest = save_dataset(samples48, tmp_path)
    _use_cores(monkeypatch, 2)
    load_features(manifest)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    loaded = load_features(manifest)
    assert forks == []
    assert _open_fds() == fds
    _assert_bit_equal_to_direct_reads(loaded, samples48, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".manifest.csv.parsed", "features", "manifest.csv"]


def test_same_size_edit_with_the_old_mtime_is_parsed_again(tmp_path):
    manifest, samples, dims = _small_tree(tmp_path)
    first = load_features(manifest, dims=dims)
    path = tmp_path / "features" / f"{samples[1].id}_V.csv"
    before = path.stat()
    path.write_bytes(_same_size_edit(path.read_bytes()))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    loaded = load_features(manifest, dims=dims)
    _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)
    assert not np.array_equal(loaded[1].features[Modality.VISION],
                              first[1].features[Modality.VISION])


def _set_first_rows(cache, rows):
    return cache[:16] + np.int64(rows).tobytes() + cache[24:]


def _transpose_first_shape(cache):
    """The first record's shape reversed: the same byte count, its digest
    kept."""
    rows, cols = np.frombuffer(cache, dtype=np.int64, count=2, offset=16)
    return cache[:16] + np.array([cols, rows], dtype=np.int64).tobytes() + cache[32:]


def _flip_first_payload_byte(cache):
    i = 16 + 2 * 8 + 32  # the first record's first float64 byte
    return cache[:i] + bytes([cache[i] ^ 1]) + cache[i + 1:]


# every way a cache file can be wrong; each must be a miss, never an error
BAD_CACHES = {
    "truncated": lambda c: c[:len(c) // 2],
    "foreign": lambda c: b"id,label,path_L,path_V,path_A\n" * 4,
    "all_zero": lambda c: bytes(len(c)),
    "empty": lambda c: b"",
    "other_count": lambda c: c[:8] + np.int64(8).tobytes() + c[16:],
    "negative_shape": lambda c: _set_first_rows(c, -1),
    "shape_past_the_end": lambda c: _set_first_rows(c, 2 ** 40),
    "trailing_bytes": lambda c: c + bytes(8),
    "reshaped_record_digest_intact": _transpose_first_shape,
    "zero_columns_digest_intact": lambda c: c[:24] + np.int64(0).tobytes() + c[32:],
    "payload_byte_flipped": _flip_first_payload_byte,
}


@pytest.mark.parametrize("case", sorted(BAD_CACHES))
def test_bad_cache_is_a_miss_that_loads_and_rewrites_it(tmp_path, case):
    manifest, samples, dims = _small_tree(tmp_path)
    load_features(manifest, dims=dims)
    good = _cache(tmp_path).read_bytes()
    _cache(tmp_path).write_bytes(BAD_CACHES[case](good))
    loaded = load_features(manifest, dims=dims)
    _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)
    assert _cache(tmp_path).read_bytes() == good


def test_each_load_reads_each_file_once_and_only_a_cold_one_parses(tmp_path, monkeypatch):
    manifest, samples, dims = _small_tree(tmp_path)
    features = tmp_path / "features"
    reads, parses = [], []
    real_open, real_loadtxt = open, np.loadtxt

    def counting_open(path, *args, **kwargs):
        if os.path.dirname(path) == str(features):
            reads.append(os.path.basename(path))
        return real_open(path, *args, **kwargs)

    def counting_loadtxt(*args, **kwargs):
        parses.append(1)
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(data, "open", counting_open, raising=False)
    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    names = sorted(p.name for p in features.iterdir())
    for cold in (True, False):
        reads.clear(), parses.clear()
        loaded = load_features(manifest, dims=dims)
        assert sorted(reads) == names
        assert len(parses) == (len(names) if cold else 0)
        _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)


def _fails_for_temporary_files(real):
    def fake(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise OSError("read-only file system")
        return real(path, *args, **kwargs)
    return fake


@pytest.mark.parametrize("owner,name", [(data, "open"), (os, "replace")])
def test_unwritable_cache_still_loads_and_leaves_no_file(tmp_path, monkeypatch, owner, name):
    manifest, samples, dims = _small_tree(tmp_path)
    monkeypatch.setattr(owner, name, _fails_for_temporary_files(getattr(owner, name, open)),
                        raising=False)
    for _ in range(2):
        _assert_bit_equal_to_direct_reads(load_features(manifest, dims=dims), samples, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features", "manifest.csv"]


def test_file_rewritten_during_its_parse_is_never_cached_under_its_first_digest(
        tmp_path, monkeypatch):
    """A file that changes from A to B after its read and back to A after the
    load loads as A next time: B's arrays are never stored under A's digest."""
    manifest, samples, dims = _small_tree(tmp_path)
    path = tmp_path / "features" / f"{samples[0].id}_L.csv"  # the first file parsed
    a = path.read_bytes()
    b = _same_size_edit(a)
    real = np.loadtxt

    def rewrite_then_parse(*args, **kwargs):
        path.write_bytes(b)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", rewrite_then_parse)
    load_features(manifest, dims=dims)
    monkeypatch.setattr(np, "loadtxt", real)
    path.write_bytes(a)
    _assert_bit_equal_to_direct_reads(load_features(manifest, dims=dims), samples, tmp_path)
    path.write_bytes(b)
    _assert_bit_equal_to_direct_reads(load_features(manifest, dims=dims), samples, tmp_path)


# ---- writing over several processes ----


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def tree48(samples48, tmp_path_factory):
    """The files of a one-process write of ``samples48``."""
    root = tmp_path_factory.mktemp("one_core")
    with pytest.MonkeyPatch.context() as mp:
        _use_cores(mp, 1)
        mp.setattr(os, "fork", _fork_forbidden)
        save_dataset(samples48, root)
    return _tree(root)


def test_two_process_write_is_byte_equal_to_one_process_write(tmp_path, monkeypatch,
                                                              samples48, tree48):
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    assert save_dataset(samples48, tmp_path) == tmp_path / "manifest.csv"
    assert len(forks) == 1
    _assert_all_reaped(fds)
    assert _tree(tmp_path) == tree48


def test_write_helper_dying_mid_share_still_writes_byte_equal(tmp_path, monkeypatch,
                                                              samples48, tree48):
    parent = os.getpid()
    write = data._write_feature_csv

    def dies_in_helper(path, mat):
        if os.getpid() != parent and path.name.startswith(HELPER_SAMPLE):
            os._exit(1)
        return write(path, mat)

    monkeypatch.setattr(data, "_write_feature_csv", dies_in_helper)
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    save_dataset(samples48, tmp_path)
    assert len(forks) == 1
    _assert_all_reaped(fds)
    assert _tree(tmp_path) == tree48


@pytest.mark.parametrize("blocked", [[HELPER_SAMPLE], [PARENT_SAMPLE],
                                     [HELPER_SAMPLE, PARENT_SAMPLE]])
def test_failed_write_raises_the_one_core_error_and_writes_no_manifest(
        tmp_path, monkeypatch, samples48, blocked):
    """A feature path that is a directory fails the write with the one-core
    ``OSError``, for the first such path in write order, and no
    ``manifest.csv`` is left in the fresh output directory."""
    for sid in blocked:
        (tmp_path / "features" / f"{sid}_V.csv").mkdir(parents=True)
    _use_cores(monkeypatch, 1)
    with pytest.raises(OSError) as serial:
        save_dataset(samples48, tmp_path)
    assert f"{min(blocked)}_V.csv" in str(serial.value)
    assert not (tmp_path / "manifest.csv").exists()
    _use_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    fds = _open_fds()
    with pytest.raises(OSError) as parallel:
        save_dataset(samples48, tmp_path)
    assert len(forks) == 1
    _assert_all_reaped(fds)
    assert str(parallel.value) == str(serial.value)
    assert type(parallel.value) is type(serial.value)
    assert not (tmp_path / "manifest.csv").exists()


@pytest.mark.parametrize("owner,name,fails", [(tempfile, "TemporaryFile", _no_spool),
                                              (os, "fork", _no_fork)])
def test_no_spool_or_no_helper_falls_back_to_writing_in_the_parent(
        tmp_path, monkeypatch, samples48, tree48, owner, name, fails):
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(owner, name, fails)
    fds = _open_fds()
    save_dataset(samples48, tmp_path)
    _assert_all_reaped(fds)
    assert _tree(tmp_path) == tree48


@pytest.mark.parametrize("n,cores", [(48, 1), (5, 2)])
def test_one_core_or_few_files_never_forks_to_write(tmp_path, monkeypatch, samples48,
                                                    tree48, n, cores):
    _use_cores(monkeypatch, cores)
    monkeypatch.setattr(os, "fork", _fork_forbidden)
    save_dataset(samples48[:n], tmp_path)
    written = _tree(tmp_path)
    manifest = written.pop("manifest.csv")
    assert manifest.splitlines() == tree48["manifest.csv"].splitlines()[:n + 1]
    assert len(written) == 3 * n and written == {k: tree48[k] for k in written}


def test_manifest_is_checked_in_full_before_any_file_is_parsed(tmp_path):
    """A bad label on the last row is reported before a corrupt file on the
    first row."""
    cfg = small_config()
    samples = generate(3, seed=21, config=cfg)
    manifest = save_dataset(samples, tmp_path)
    _corrupt(tmp_path / "features" / f"{samples[0].id}_L.csv", "word")
    header, *rows = manifest.read_text().splitlines()
    last = rows[-1].split(",")
    last[1] = "high"
    manifest.write_text("\n".join([header, *rows[:-1], ",".join(last)]) + "\n")
    with pytest.raises(DataError, match=f"sample {samples[-1].id}: label 'high'"):
        load_features(manifest, dims=cfg.raw_dims)


# ---- batching ----


def test_single_short_batch():
    samples = generate(10, seed=1, config=small_config())
    out = list(batches(samples, batch_size=16, seed=0))
    assert len(out) == 1 and out[0].size == 10


def test_unaligned_padding_and_masks():
    # an unaligned batch has no padding: each modality's rows are every
    # sample's steps, sample after sample, and its layout says which are whose
    cfg = small_config()
    samples = generate(6, seed=8, config=cfg)
    batch = make_batch(samples, mode="unaligned")
    for m in MODALITIES:
        lengths = [s.features[m].shape[0] for s in samples]
        rows = batch.rows[m]
        assert batch.features[m].shape == (sum(lengths), cfg.raw_dims[m])
        assert rows.size == sum(lengths) and rows.t_pad == max(lengths)
        np.testing.assert_array_equal(batch.lengths[m], lengths)
        for i, s in enumerate(samples):
            t = lengths[i]
            lo = rows.starts[i]
            np.testing.assert_array_equal(batch.features[m][lo:lo + t], s.features[m])
            np.testing.assert_array_equal(rows.seq[lo:lo + t], i)
            np.testing.assert_array_equal(rows.pos[lo:lo + t], np.arange(t))


def test_epoch_shuffle_reproducible():
    samples = generate(20, seed=4, config=small_config())
    ids1 = [b.ids for b in batches(samples, 8, seed=99, epoch=3)]
    ids2 = [b.ids for b in batches(samples, 8, seed=99, epoch=3)]
    ids3 = [b.ids for b in batches(samples, 8, seed=99, epoch=4)]
    assert ids1 == ids2
    assert ids1 != ids3


def test_aligned_mode_resamples_to_median():
    samples = generate(3, seed=6, config=small_config())
    batch = make_batch(samples, mode="aligned")
    for i, s in enumerate(samples):
        target = sorted(f.shape[0] for f in s.features.values())[1]
        for m in MODALITIES:
            assert batch.lengths[m][i] == target


def test_resample_nearest_neighbor_properties():
    x = np.arange(10.0).reshape(5, 2)
    np.testing.assert_array_equal(resample_to_length(x, 5), x)
    up = resample_to_length(x, 10)
    assert up.shape == (10, 2)
    assert set(map(tuple, up)).issubset(set(map(tuple, x)))
    down = resample_to_length(x, 2)
    assert down.shape == (2, 2)


def test_align_sample_keeps_label_and_latents():
    s = generate(1, seed=30, config=small_config())[0]
    aligned = align_sample(s)
    assert aligned.label == s.label and aligned.latents is s.latents
    assert len({f.shape[0] for f in aligned.features.values()}) == 1


def test_split_dataset_fractions_and_determinism():
    samples = generate(100, seed=0, config=small_config())
    tr1, va1, te1 = split_dataset(samples, seed=5)
    tr2, va2, te2 = split_dataset(samples, seed=5)
    assert [s.id for s in tr1] == [s.id for s in tr2]
    assert len(tr1) == 70 and len(va1) == 15 and len(te1) == 15
    all_ids = {s.id for s in tr1} | {s.id for s in va1} | {s.id for s in te1}
    assert len(all_ids) == 100


def test_batch_rejects_bad_mode_and_size():
    samples = generate(2, seed=1, config=small_config())
    with pytest.raises(ConfigError):
        make_batch(samples, mode="mixed")
    with pytest.raises(ConfigError):
        list(batches(samples, batch_size=0))
    for mode in ("aligned", "unaligned"):
        with pytest.raises(DataError, match="at least one sample"):
            make_batch([], mode=mode)
