"""Dataset tests: generator determinism and latent structure, CSV round
trips, ingestion error reporting, batching and masking."""

import errno
import hashlib
import io
import os
import shutil
import signal
import tempfile
import time

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
        np.testing.assert_array_equal(sa.z_shared, sb.z_shared)


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
        h.update(s.z_shared.tobytes())
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
        assert s.label == pytest.approx(label_from_latent(maps, s.z_shared), abs=1e-12)


def test_linear_regressor_on_shared_latent_recovers_label():
    # least-squares oracle: label must be a linear function of z_c
    cfg = small_config()
    train = generate(400, seed=21, config=cfg)
    test = generate(200, seed=22, config=cfg)
    xtr = np.stack([s.z_shared for s in train])
    ytr = np.array([s.label for s in train])
    xtr1 = np.hstack([xtr, np.ones((len(train), 1))])
    coef, *_ = np.linalg.lstsq(xtr1, ytr, rcond=None)
    xte1 = np.hstack([np.stack([s.z_shared for s in test]),
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


# one bad value per rule of SyntheticConfig.validate past the raw dims
BAD_WORLDS = {
    "length_below_one": (lambda c: c.length_ranges.update({Modality.VISION: (0, 5)}),
                         r"length range for V must satisfy 1 <= lo <= hi, got \(0, 5\)"),
    "length_reversed": (lambda c: c.length_ranges.update({Modality.AUDIO: (8, 4)}),
                        r"length range for A must satisfy 1 <= lo <= hi, got \(8, 4\)"),
    "negative_noise": (lambda c: c.noise.update({Modality.LANGUAGE: -0.1}),
                       "noise scale for L must be >= 0"),
    "no_phase": (lambda c: c.shared_phase.update({Modality.VISION: ()}),
                 "shared_phase for V needs at least one multiplier"),
    "negative_class_view_noise": (lambda c: c.class_view_noise.update({Modality.AUDIO: -1.0}),
                                  "class_view_noise for A must be >= 0"),
    "one_shared_dim": (lambda c: setattr(c, "z_shared_dim", 1), "latent dims too small"),
    "no_private_dim": (lambda c: setattr(c, "z_private_dim", 0), "latent dims too small"),
}


@pytest.mark.parametrize("case", list(BAD_WORLDS))
def test_generate_rejects_each_bad_world(case):
    spoil, message = BAD_WORLDS[case]
    bad = small_config()
    spoil(bad)
    with pytest.raises(ConfigError, match=f"^{message}"):
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
        expected = 2.0 * shared_component(maps, m, s.z_shared)
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
        base = shared_component(maps, m, s.z_shared)
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
    path = tmp_path / "features" / f"{samples[0].id}_A.csv"
    assert msg == (f"sample {samples[0].id}: A feature file {path} has "
                   f"{cfg.raw_dims[Modality.AUDIO]} columns, expected {dims[Modality.AUDIO]}")


def test_one_step_file_with_its_last_field_cut_names_the_file(tmp_path):
    """A one-row file parses at any width, so a cut last field reaches the
    column check rather than the parser, and the error names the file."""
    cfg = SyntheticConfig(raw_dims=small_config().raw_dims,
                          length_ranges={m: (1, 1) for m in MODALITIES})
    samples = generate(2, seed=15, config=cfg)
    path = tmp_path / "features" / f"{samples[1].id}_V.csv"

    def cut_last_field(root):
        text = path.read_text()
        path.write_text(text[:text.rstrip().rindex(",")] + "\n")

    msg = _error_cold_and_warm(samples, tmp_path, cut_last_field, cfg.raw_dims)
    dim = cfg.raw_dims[Modality.VISION]
    assert msg == (f"sample {samples[1].id}: V feature file {path} has {dim - 1} columns, "
                   f"expected {dim}")


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


def _settle(root):
    """Wait until a file made now gets a later ctime than every file under
    ``root``, and return that ctime.  A load's marker is then newer than the
    tree, so the load's parse is trusted by the next one; a file changed in
    the marker's own clock tick would be parsed once more."""
    newest = max(p.stat().st_ctime_ns for p in root.rglob("*"))
    while True:
        with tempfile.TemporaryFile(dir=root) as probe:
            made = os.stat(probe.fileno()).st_ctime_ns
        if made > newest:
            return made
        time.sleep(0.001)


def _small_tree(root):
    """A saved 3-sample dataset (9 files, parsed in one process), settled,
    and its samples and dims."""
    cfg = small_config()
    samples = generate(3, seed=22, config=cfg)
    manifest = save_dataset(samples, root)
    _settle(root)
    return manifest, samples, cfg.raw_dims


def _same_size_edit(raw: bytes) -> bytes:
    """``raw`` with its first nonzero digit changed: the same size, another
    value."""
    i = next(i for i, b in enumerate(raw) if chr(b) in "123456789")
    return raw[:i] + (b"2" if raw[i:i + 1] == b"1" else b"1") + raw[i + 1:]


def _count_parses(monkeypatch):
    """Wrap ``np.loadtxt``; the returned list gains one entry per call."""
    parses = []
    real = np.loadtxt

    def counted(*args, **kwargs):
        parses.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return parses


def _restamp(st, **fields):
    """``st`` with the named fields replaced."""
    seq = ("st_mode", "st_ino", "st_dev", "st_nlink", "st_uid", "st_gid", "st_size")
    head = [fields.get(name, value) for name, value in zip(seq, st)]
    rest = {name: fields.get(name, getattr(st, name))
            for name in dir(st) if name.startswith("st_") and name not in seq}
    return os.stat_result(head + list(st)[len(seq):], rest)


def test_warm_load_is_bit_equal_to_direct_reads_and_forks_nothing(tmp_path, monkeypatch,
                                                                  samples48):
    manifest = save_dataset(samples48, tmp_path)
    _settle(tmp_path)
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


def test_touched_file_is_parsed_once_then_trusted_again(tmp_path, monkeypatch):
    """``os.utime`` leaves the bytes as they were but moves the ctime, so
    the next load parses once more and the loads after it are warm."""
    manifest, samples, dims = _small_tree(tmp_path)
    load_features(manifest, dims=dims)
    os.utime(tmp_path / "features" / f"{samples[2].id}_V.csv")
    _settle(tmp_path)
    parses = _count_parses(monkeypatch)
    counts = []
    for _ in range(3):
        parses.clear()
        loaded = load_features(manifest, dims=dims)
        counts.append(len(parses))
        _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)
    assert counts == [9, 0, 0]


def test_file_reported_on_another_device_is_never_trusted_nor_cached(tmp_path, monkeypatch):
    """A file whose ``fstat`` names another device than the marker's has a
    ctime from another clock, so its record is never taken, and no cache is
    written that no load could use."""
    manifest, samples, dims = _small_tree(tmp_path)
    inode = (tmp_path / "features" / f"{samples[1].id}_A.csv").stat().st_ino
    real = os.fstat

    def elsewhere(fd):
        st = real(fd)
        return _restamp(st, st_dev=st.st_dev + 1) if st.st_ino == inode else st

    monkeypatch.setattr(os, "fstat", elsewhere)
    parses = _count_parses(monkeypatch)
    for _ in range(3):
        parses.clear()
        loaded = load_features(manifest, dims=dims)
        assert len(parses) == 9
        _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features", "manifest.csv"]


def _flip_first_payload_byte(cache):
    i = data._HEAD.size + data._RECORD_HEAD  # the first record's first float64 byte
    return cache[:i] + bytes([cache[i] ^ 1]) + cache[i + 1:]


def _with_head(cache, **fields):
    """``cache`` with the named fields of its header (``data._HEAD``)
    replaced; a callable value maps the old value to the new."""
    names = ("magic", "count", "marker_dev", "marker_ctime", "encoding")
    head = dict(zip(names, data._HEAD.unpack(cache[:data._HEAD.size])))
    for name, value in fields.items():
        head[name] = value(head[name]) if callable(value) else value
    return data._HEAD.pack(*head.values()) + cache[data._HEAD.size:]


def _with_first_shape(cache, shape):
    """``cache`` with the first record's shape replaced, its key kept; a
    callable maps the old ``(rows, cols)`` to the new."""
    i = data._HEAD.size
    old = tuple(np.frombuffer(cache, dtype=np.int64, count=2, offset=i).tolist())
    new = shape(old) if callable(shape) else shape
    return cache[:i] + np.array(new, dtype=np.int64).tobytes() + cache[i + 16:]


# every way a cache file can be wrong; each must be a miss, never an error
BAD_CACHES = {
    "truncated": lambda c: c[:len(c) // 2],
    "foreign": lambda c: b"id,label,path_L,path_V,path_A\n" * 4,
    "all_zero": lambda c: bytes(len(c)),
    "empty": lambda c: b"",
    "previous_version": lambda c: _with_head(c, magic=b"MDPARSE\x01"),
    "other_encoding": lambda c: _with_head(c, encoding=b"cp037"),
    "other_count": lambda c: _with_head(c, count=8),
    "marker_on_another_device": lambda c: _with_head(c, marker_dev=lambda dev: dev + 1),
    "marker_older_than_the_files": lambda c: _with_head(c, marker_ctime=0),
    "negative_shape": lambda c: _with_first_shape(c, lambda s: (-1, s[1])),
    "shape_past_the_end": lambda c: _with_first_shape(c, lambda s: (2 ** 40, s[1])),
    "trailing_bytes": lambda c: c + bytes(8),
    "reshaped_record_key_intact": lambda c: _with_first_shape(c, lambda s: s[::-1]),
    "zero_columns_key_intact": lambda c: _with_first_shape(c, lambda s: (s[0], 0)),
    "payload_byte_flipped": _flip_first_payload_byte,
}


@pytest.mark.parametrize("case", sorted(BAD_CACHES))
def test_bad_cache_is_a_miss_that_loads_and_rewrites_it(tmp_path, monkeypatch, case):
    """The rewrite is the good cache but for its marker, which is the time
    of the rewrite, and the load after it is warm."""
    manifest, samples, dims = _small_tree(tmp_path)
    load_features(manifest, dims=dims)
    good = _cache(tmp_path).read_bytes()
    _cache(tmp_path).write_bytes(BAD_CACHES[case](good))
    parses = _count_parses(monkeypatch)
    loaded = load_features(manifest, dims=dims)
    assert len(parses) == 9
    _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)
    unmarked = dict(marker_dev=0, marker_ctime=0)
    assert _with_head(_cache(tmp_path).read_bytes(), **unmarked) == _with_head(good, **unmarked)
    parses.clear()
    loaded = load_features(manifest, dims=dims)
    assert parses == []
    _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)


def test_damaged_cache_fuzz_loads_bit_equal_and_leaves_no_temporary_file(tmp_path):
    """Seeded byte-level damage to the parse cache, for about two seconds:
    one to three bytes flipped, the file cut short, or random bytes added
    at its end.  Every load returns the arrays of a clean parse, bit for
    bit, and leaves no temporary file."""
    manifest, samples, dims = _small_tree(tmp_path)
    load_features(manifest, dims=dims)
    good = _cache(tmp_path).read_bytes()
    rng = np.random.default_rng(32)
    runs, deadline = 0, time.monotonic() + 2.0
    while runs < 600 and time.monotonic() < deadline:
        how = ("flip", "truncate", "extend")[runs % 3]
        if how == "flip":
            bad = bytearray(good)
            for i in rng.choice(len(good), size=int(rng.integers(1, 4)), replace=False):
                bad[i] ^= int(rng.integers(1, 256))
        elif how == "truncate":
            bad = good[:int(rng.integers(len(good)))]
        else:
            bad = good + rng.bytes(int(rng.integers(1, 65)))
        _cache(tmp_path).write_bytes(bytes(bad))
        loaded = load_features(manifest, dims=dims)
        _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)
        assert list(tmp_path.rglob("*.tmp")) == [], (runs, how)
        runs += 1
    assert runs >= 3


def test_damaged_feature_fuzz_fails_naming_the_file_and_keeps_the_cache(tmp_path):
    """Seeded damage to one feature CSV (a word, a short row or a NaN in a
    random row), with the parse cache kept, damaged or removed, for about
    two seconds.  Every load raises a ``DataError`` naming that CSV, leaves
    no temporary file, and leaves the cache as it was: byte for byte, or
    still absent."""
    manifest, samples, dims = _small_tree(tmp_path)
    load_features(manifest, dims=dims)
    good = _cache(tmp_path).read_bytes()
    files = sorted((tmp_path / "features").iterdir())
    originals = {path: path.read_bytes() for path in files}
    rng = np.random.default_rng(16)
    runs, deadline = 0, time.monotonic() + 2.0
    while runs < 1000 and time.monotonic() < deadline:
        path = files[int(rng.integers(len(files)))]
        rows = originals[path].decode().splitlines()
        at = int(rng.integers(len(rows)))
        fields = rows[at].split(",")
        how = ("word", "short", "nan")[runs % 3]
        if how == "short":
            del fields[int(rng.integers(len(fields)))]
        else:
            fields[int(rng.integers(len(fields)))] = "spam" if how == "word" else "nan"
        rows[at] = ",".join(fields)
        path.write_text("\n".join(rows) + "\n")
        # kept, removed, cut short or extended; with the three damages above
        # every pairing comes round once in 12 runs
        cache = (good, None, good[:int(rng.integers(len(good)))],
                 good + rng.bytes(int(rng.integers(1, 65))))[runs % 4]
        if cache is None:
            _cache(tmp_path).unlink(missing_ok=True)
        else:
            _cache(tmp_path).write_bytes(cache)
        with pytest.raises(DataError) as exc:
            load_features(manifest, dims=dims)
        assert str(path) in str(exc.value), (runs, how, str(exc.value))
        assert list(tmp_path.rglob("*.tmp")) == [], (runs, how)
        if cache is None:
            assert not _cache(tmp_path).exists(), (runs, how)
        else:
            assert _cache(tmp_path).read_bytes() == cache, (runs, how)
        path.write_bytes(originals[path])
        runs += 1
    assert runs >= 3


class _CountingReader:
    """A binary file that adds each byte it reads to ``counts[name]``; it
    has only what the loader uses of a file, so any other use fails."""

    def __init__(self, fh, counts, name):
        self.fh, self.counts, self.name = fh, counts, name

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def read(self, *args):
        raw = self.fh.read(*args)
        self.counts[self.name] = self.counts.get(self.name, 0) + len(raw)
        return raw


def test_each_load_reads_each_file_once_and_only_a_cold_one_parses(tmp_path, monkeypatch):
    """A cold load opens each file once and reads it whole; a warm one opens
    each file once and reads no byte of any."""
    manifest, samples, dims = _small_tree(tmp_path)
    features = tmp_path / "features"
    opens, read = [], {}
    real_open = open

    def counting_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if os.path.dirname(path) != str(features):
            return fh
        opens.append(os.path.basename(path))
        return _CountingReader(fh, read, os.path.basename(path))

    monkeypatch.setattr(data, "open", counting_open, raising=False)
    parses = _count_parses(monkeypatch)
    sizes = {p.name: p.stat().st_size for p in features.iterdir()}
    for cold in (True, False):
        opens.clear(), read.clear(), parses.clear()
        loaded = load_features(manifest, dims=dims)
        assert sorted(opens) == sorted(sizes)
        assert read == (sizes if cold else {})
        assert len(parses) == (len(sizes) if cold else 0)
        _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)


def _fails_for_temporary_files(real):
    def fake(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise OSError("read-only file system")
        return real(path, *args, **kwargs)
    return fake


class _FullDisk(io.RawIOBase):
    """An unbuffered file that takes the first ``room`` bytes written to it
    and fails every later write, as a full disk does."""

    def __init__(self, raw, room):
        self.raw, self.room = raw, room

    def writable(self):
        return True

    def fileno(self):
        return self.raw.fileno()

    def write(self, b):
        n = min(len(b), self.room)
        if n == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= n
        return self.raw.write(memoryview(b)[:n])

    def close(self):
        self.raw.close()
        super().close()


def _full_after_the_header(real):
    """``open`` whose temporary files take the cache's header and then fail
    every write.  Their buffer is smaller than a record, so the failing
    write leaves bytes buffered, and closing the file fails again."""
    def fake(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            return io.BufferedWriter(_FullDisk(real(path, "wb", buffering=0), data._HEAD.size),
                                     buffer_size=256)
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


def test_cache_write_failing_after_the_header_still_loads_and_leaves_no_file(tmp_path,
                                                                              monkeypatch):
    manifest, samples, dims = _small_tree(tmp_path)
    monkeypatch.setattr(data, "open", _full_after_the_header(open), raising=False)
    fds = _open_fds()
    for _ in range(2):
        _assert_bit_equal_to_direct_reads(load_features(manifest, dims=dims), samples, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features", "manifest.csv"]
    assert _open_fds() == fds


@pytest.mark.parametrize("sid", [PARENT_SAMPLE, HELPER_SAMPLE])
def test_failed_cold_load_leaves_no_cache_no_temporary_file_and_no_descriptor(
        tmp_path, monkeypatch, samples48, sid):
    manifest = save_dataset(samples48, tmp_path)
    _corrupt(tmp_path / "features" / f"{sid}_V.csv", "word")
    _use_cores(monkeypatch, 2)
    fds = _open_fds()
    with pytest.raises(DataError, match=f"sample {sid}: unparseable V"):
        load_features(manifest)
    _assert_all_reaped(fds)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features", "manifest.csv"]


def test_file_rewritten_during_its_parse_is_never_trusted(tmp_path, monkeypatch):
    """On a filesystem clock that does not tick between a file's save and
    its rewrite during the parse, the rewrite keeps the file's whole stamp:
    its size, mtime and ctime.  Its record is still never taken, because
    the marker, made before the parse, is no newer than that ctime.  Here
    ``fstat`` reports every time as 0 until the clock ticks, and as the
    tick from then on; it ticks just after the rewrite (from A to B), so
    the cached A is stamped as B is.  B loads as B, and A again as A."""
    manifest, samples, dims = _small_tree(tmp_path)
    path = tmp_path / "features" / f"{samples[0].id}_L.csv"  # the first file parsed
    a = path.read_bytes()
    b = _same_size_edit(a)
    tick = []
    real_fstat, real_loadtxt = os.fstat, np.loadtxt

    def coarse(ns):
        return tick[0] if tick and ns >= tick[0] else 0

    def coarse_fstat(fd):
        st = real_fstat(fd)
        return _restamp(st, st_mtime_ns=coarse(st.st_mtime_ns), st_ctime_ns=coarse(st.st_ctime_ns))

    def rewrite_then_parse(*args, **kwargs):
        if not tick:
            path.write_bytes(b)
            tick.append(_settle(tmp_path))
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(os, "fstat", coarse_fstat)
    monkeypatch.setattr(np, "loadtxt", rewrite_then_parse)
    first = load_features(manifest, dims=dims)[0].features[Modality.LANGUAGE]
    assert first.tobytes() == samples[0].features[Modality.LANGUAGE].tobytes()  # A, as read
    parses = _count_parses(monkeypatch)
    loaded = load_features(manifest, dims=dims)
    assert len(parses) == 9
    _assert_bit_equal_to_direct_reads(loaded, samples, tmp_path)
    path.write_bytes(a)
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


def test_failed_overwrite_leaves_no_manifest_over_new_files(tmp_path):
    """A second write into a directory that holds a dataset removes the old
    manifest before any feature file is replaced.  So a write that fails
    part way leaves no manifest, rather than the old labels over the new
    draw's files."""
    save_dataset(generate(4, seed=0, config=small_config()), tmp_path)
    blocked = tmp_path / "features" / "syn00002_V.csv"
    blocked.unlink()
    blocked.mkdir()
    new = generate(4, seed=1, config=small_config())
    with pytest.raises(OSError, match="syn00002_V.csv"):
        save_dataset(new, tmp_path)
    assert not (tmp_path / "manifest.csv").exists()
    assert np.array_equal(np.loadtxt(tmp_path / "features" / "syn00000_L.csv", delimiter=",",
                                     ndmin=2), new[0].features[Modality.LANGUAGE])


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


@pytest.mark.parametrize("mode", ["unaligned", "aligned"])
def test_batch_alone_is_each_sample_batched_by_itself(mode):
    samples = generate(5, seed=8, config=small_config())
    alone = make_batch(samples, mode=mode).alone()
    assert [b.ids for b in alone] == [[s.id] for s in samples]
    for one, s in zip(alone, samples):
        ref = make_batch([s], mode=mode)
        np.testing.assert_array_equal(one.labels, ref.labels)
        for m in MODALITIES:
            np.testing.assert_array_equal(one.features[m], ref.features[m])
            for key in ("lengths", "starts", "seq", "pos", "prev", "next"):
                np.testing.assert_array_equal(getattr(one.rows[m], key),
                                              getattr(ref.rows[m], key))


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
    assert aligned.label == s.label and aligned.z_shared is s.z_shared
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["aligned", "unaligned"])
def test_batch_rejects_non_finite_feature_naming_sample_and_modality(mode, bad):
    """Every source of samples reaches the model through ``make_batch``,
    so a non-finite feature stops there, whatever made it."""
    samples = generate(5, seed=2, config=small_config())
    samples[3].features[Modality.AUDIO][:, 2] = bad
    with pytest.raises(DataError, match=r"^sample syn00003: non-finite A feature value$"):
        make_batch(samples, mode=mode)
    with pytest.raises(DataError, match=r"^sample syn00003: non-finite A feature value$"):
        list(batches(samples, batch_size=2, shuffle=False))


@pytest.mark.parametrize("bad", [3.5, -3.5, np.nan])
def test_batch_rejects_a_label_out_of_range_or_nan_naming_the_sample(bad):
    """Labels stop at the batch too, so a library caller's NaN label is a
    data error, not a failure to bin a score."""
    samples = generate(4, seed=2, config=small_config())
    samples[2].label = bad
    for mode in ("aligned", "unaligned"):
        with pytest.raises(DataError, match=rf"^sample syn00002: label {bad} outside \["):
            make_batch(samples, mode=mode)


def test_generated_nan_noise_is_rejected_at_the_batch():
    """``SyntheticConfig.validate`` lets ``noise=nan`` through, and the
    draw is all NaN; the first batch names its first sample."""
    cfg = small_config()
    cfg.noise = {m: float("nan") for m in MODALITIES}
    samples = generate(3, seed=0, config=cfg)
    with pytest.raises(DataError, match=r"^sample syn00000: non-finite L feature value$"):
        make_batch(samples)
