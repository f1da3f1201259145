"""Property test of ``eval``'s inputs: a manifest, a feature CSV or a
checkpoint (in format 2, or as format 1 stored it), damaged byte by byte,
ends ``modal-distill eval`` in a known exit code with no traceback, one
line on stderr on failure, and no file left behind but the parse cache
and, on success, the predictions.

Each example writes one damaged copy over a pristine 10-sample dataset and
checkpoint (a d=4 model), removes the parse cache, so the damaged bytes are
parsed, and runs ``main`` in-process.  The examples are drawn from a fixed
seed and their number is fixed, which keeps the test to a few seconds."""

import contextlib
import csv
import io
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_distill.checkpoint import save_checkpoint
from modal_distill.cli import main
from modal_distill.config import TrainConfig
from modal_distill.data import Modality, SyntheticConfig, generate, save_dataset
from modal_distill.model import Model

from conftest import save_v1_checkpoint

RAW = {Modality.LANGUAGE: 6, Modality.VISION: 5, Modality.AUDIO: 4}

# what a failing run's one stderr line starts with, by exit code; exit 3
# is a finite value that the damage made large enough to overflow
FAILURES = {2: "data error: ", 3: "numeric error: "}

# byte strings inserted into a file: values that do not parse or are not
# finite, bytes that are not UTF-8 or end a C string, and CSV separators
INSERTS = [b"nan", b"1e400", b"\xff", b"\x00", b",", b"\n"]
DAMAGE = ["flip", "truncate", "insert", "duplicate"]
TARGETS = ["manifest", "feature", "checkpoint", "checkpoint_v1"]


def damaged(data: bytes, how: str, rng: np.random.Generator) -> bytes:
    """``data`` with one to three bytes flipped, cut short, with one of
    ``INSERTS`` inserted, or with a span repeated after itself."""
    n = len(data)
    at = int(rng.integers(n))
    if how == "flip":
        out = bytearray(data)
        for i in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
            out[i] ^= int(rng.integers(1, 256))
        return bytes(out)
    if how == "truncate":
        return data[:at]
    if how == "insert":
        return data[:at] + INSERTS[int(rng.integers(len(INSERTS)))] + data[at:]
    end = int(rng.integers(at, n + 1))
    return data[:end] + data[at:end] + data[end:]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A 10-sample dataset and checkpoints of an untrained d=4 model at its
    raw dims, in both formats, and the bytes of each file."""
    root = tmp_path_factory.mktemp("inputs")
    world = SyntheticConfig(raw_dims=dict(RAW), z_shared_dim=4, z_private_dim=3,
                            length_ranges={Modality.LANGUAGE: (3, 9), Modality.VISION: (2, 6),
                                           Modality.AUDIO: (4, 10)})
    manifest = save_dataset(generate(10, seed=0, config=world), root / "data")
    cfg = TrainConfig(d=4, heads=2, batch_size=4)
    model = Model(cfg, dict(RAW))
    for save, name in ((save_checkpoint, "ck.npz"), (save_v1_checkpoint, "ck_v1.npz")):
        save(root / name, model.parameters(), cfg, {"raw_dims": {m.tag: d for m, d in RAW.items()}})
    files = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    return root, manifest, files


@given(target=st.sampled_from(TARGETS), how=st.sampled_from(DAMAGE),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_damaged_input_is_a_clean_exit(pristine, target, how, seed):
    root, manifest, files = pristine
    rng = np.random.default_rng(seed)
    features = sorted(p for p in files if p.suffix == ".csv" and p != manifest)
    checkpoint = root / ("ck_v1.npz" if target == "checkpoint_v1" else "ck.npz")
    path = {"manifest": manifest, "checkpoint": checkpoint, "checkpoint_v1": checkpoint,
            "feature": features[int(rng.integers(len(features)))]}[target]
    cache = manifest.with_name(f".{manifest.name}.parsed")
    predictions = root / "out" / "predictions.csv"
    path.write_bytes(damaged(files[path], how, rng))
    cache.unlink(missing_ok=True)
    argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(manifest),
            "--predictions", str(predictions)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        left = {p for p in root.rglob("*") if p.is_file()} - set(files) - {cache}
    finally:
        path.write_bytes(files[path])
        shutil.rmtree(root / "out", ignore_errors=True)
    err = err.getvalue()
    assert "Traceback" not in err, (target, how, seed, err)
    if rc == 0:
        assert err == "" and left == {predictions}, (target, how, seed, err, left)
    else:
        assert rc in FAILURES, (target, how, seed, rc, err)
        assert len(err.splitlines()) == 1 and err.endswith("\n"), (target, how, seed, err)
        assert err.startswith(FAILURES[rc]), (target, how, seed, err)
        assert left == set(), (target, how, seed, left)


# every line break str.splitlines() knows, and the CRLF pair
@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_line_break_in_a_manifest_path_is_one_stderr_line(pristine, tmp_path, brk):
    # the manifest names a feature file that does not exist, and the
    # message quoting its path must still be one line
    root, _, _ = pristine
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows([["id", "label", "path_L", "path_V", "path_A"],
                                  ["syn00000", "0.5", f"features/x{brk}y.csv",
                                   "features/v.csv", "features/a.csv"]])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["eval", "--checkpoint", str(root / "ck.npz"), "--data", str(manifest)])
    err = err.getvalue()
    assert rc == 2 and len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert err.startswith("data error: sample syn00000: missing L feature file "), err
    assert f"x{repr(brk)[1:-1]}y.csv" in err, err
