"""Property test of the CLI boundary: every flag of every subcommand, as
``build_parser()`` lists them, given a small valid value or a hostile one,
ends in a known exit code, with no traceback and, on failure, exactly one
line on stderr.

Each example runs ``main`` in-process on a tiny base invocation (at most 8
synthetic samples, one epoch, two optimizer steps, d=4) with one flag
appended, so the appended value overrides the base's."""

import argparse
import contextlib
import io
import logging
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_distill.checkpoint import save_checkpoint
from modal_distill.cli import build_parser, main
from modal_distill.config import TrainConfig
from modal_distill.data import generate, save_dataset
from modal_distill.model import Model

EXIT_CODES = {0, 1, 2, 3, 4}

BASE = {
    "gen-data": ["--out", "{new}/data", "--n", "4"],
    "train": ["--synthetic", "8", "--d", "4", "--heads", "2", "--epochs", "1",
              "--max-steps", "2", "--batch-size", "4"],
    "eval": ["--checkpoint", "{ck}", "--synthetic", "4"],
    "gradcheck": ["--d", "4", "--heads", "2", "--probes", "2"],
    "dump-edges": ["--checkpoint", "{ck}", "--synthetic", "4", "--out", "{new}/edges.jsonl"],
    "probe-unimodal": ["--checkpoint", "{ck}", "--synthetic", "4"],
}

# a valid value for each flag that takes a path
PATH_VALUES = {"--out": "{new}/out", "--data": "{manifest}", "--checkpoint": "{ck}",
               "--config": "{config}", "--predictions": "{new}/predictions.csv"}

HOSTILE = ["0", "-1", "nan", "inf", "", "{dir}", "{file}", "{file}/x", "{missing}", "{corrupt}"]


def subcommand_flags() -> list[tuple[str, argparse.Action]]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, parser in sub.choices.items()
            for action in parser._actions if action.option_strings]


FLAGS = subcommand_flags()


def valid_value(action: argparse.Action) -> str:
    if action.choices:
        return str(next(iter(action.choices)))
    if action.type is int:
        return "2"
    if action.type is float:
        return "0.1"
    return PATH_VALUES[action.option_strings[-1]]


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """A checkpoint of an untrained tiny model, a 4-sample dataset and a
    config file, written once and copied into each example's directory."""
    root = tmp_path_factory.mktemp("flags")
    cfg = TrainConfig(d=4, heads=2, epochs=1, batch_size=4)
    model = Model(cfg)
    save_checkpoint(root / "ck.npz", model.parameters(), cfg,
                    {"raw_dims": {m.tag: d for m, d in model.raw_dims.items()}})
    save_dataset(generate(4, 0), root / "data")
    (root / "exp.cfg").write_text("d = 4\nheads = 2\nepochs = 1\nmax_steps = 2\n")
    return root


def run_cli(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """``main(argv)``'s return code, stdout and stderr, run from ``cwd``
    (relative paths such as ``--out 0`` land there), with the package's
    warnings on stderr as outside a test."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    logger = logging.getLogger("modal_distill")
    logger.addHandler(handler)
    before = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(before)
        logger.removeHandler(handler)
    return rc, out.getvalue(), err.getvalue()


def test_every_flag_has_a_valid_value():
    for command, action in FLAGS:
        assert command in BASE
        if action.nargs != 0:
            assert valid_value(action), (command, action.option_strings)


@given(flag=st.sampled_from(FLAGS), value=st.sampled_from(["valid", *HOSTILE]))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_any_flag_value_is_a_clean_exit(fixture_files, flag, value):
    command, action = flag
    with tempfile.TemporaryDirectory(dir=fixture_files) as tmp:
        tmp = Path(tmp)
        shutil.copy(fixture_files / "ck.npz", tmp / "ck.npz")
        shutil.copytree(fixture_files / "data", tmp / "data")
        shutil.copy(fixture_files / "exp.cfg", tmp / "exp.cfg")
        (tmp / "dir").mkdir()
        (tmp / "file.txt").write_text("x\n")
        (tmp / "corrupt.npz").write_bytes(b"\x93NUMPY\x01\x00\xff garbage\n\x00")
        paths = {"new": tmp / "new", "ck": tmp / "ck.npz", "config": tmp / "exp.cfg",
                 "manifest": tmp / "data" / "manifest.csv", "dir": tmp / "dir",
                 "file": tmp / "file.txt", "missing": tmp / "missing" / "nothing.csv",
                 "corrupt": tmp / "corrupt.npz"}
        appended = [action.option_strings[-1]]
        if action.nargs != 0:
            appended.append(valid_value(action) if value == "valid" else value)
        argv = [a.format(**paths) for a in [command, *BASE[command], *appended]]
        rc, out, err = run_cli(argv, tmp)
    assert rc in EXIT_CODES, (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    if rc != 0:
        assert len(err.splitlines()) == 1, (argv, err)
