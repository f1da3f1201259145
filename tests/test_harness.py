"""Harness tests: config parsing, metrics fixtures, the optimizer, training
loop behavior, checkpoints, probes, and the CLI."""

import argparse
import ast
import csv
import gc
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from modal_distill import cli
from modal_distill.checkpoint import load_checkpoint, save_checkpoint
from modal_distill.cli import _build_config, build_parser, main
from modal_distill.config import TrainConfig, apply_overrides, load_config
from modal_distill.data import (
    MODALITIES,
    Modality,
    SyntheticConfig,
    batches,
    generate,
    load_features,
    make_batch,
    save_dataset,
    split_dataset,
)
from modal_distill.errors import ConfigError, DataError, NumericError
from modal_distill.layers import ParamTable
from modal_distill.model import Model
from modal_distill.tensor import Tensor
from modal_distill.train import (
    Adam,
    binary_f1,
    collect_features,
    compute_metrics,
    dump_edges,
    evaluate,
    gradcheck,
    gradcheck_data_config,
    gradcheck_model_config,
    model_from_checkpoint,
    predict_scores,
    probe_split,
    probe_unimodal,
    train,
    _gradcheck_batch,
    _walk,
)

from conftest import ReferenceAdam, count_forks, probe_multiclass_accuracy

SMALL_RAW = {Modality.LANGUAGE: 6, Modality.VISION: 5, Modality.AUDIO: 4}


def small_world() -> SyntheticConfig:
    return SyntheticConfig(
        raw_dims=dict(SMALL_RAW),
        z_shared_dim=4,
        z_private_dim=3,
        length_ranges={Modality.LANGUAGE: (3, 9), Modality.VISION: (2, 6),
                       Modality.AUDIO: (4, 10)},
    )


def tiny_config(**kw) -> TrainConfig:
    kw.setdefault("d", 4)
    kw.setdefault("heads", 2)
    kw.setdefault("epochs", 2)
    return TrainConfig(**kw)


# ---- config ----


def test_defaults_match_pinned_hyperparameters():
    cfg = TrainConfig()
    assert (cfg.d, cfg.lambda1, cfg.lambda2, cfg.gamma, cfg.alpha) == \
        (32, 0.1, 0.05, 0.1, 0.2)
    assert (cfg.batch_size, cfg.epochs) == (16, 30)
    assert cfg.fd and cfg.homogd and cfg.ca and cfg.heterogd
    cfg.validate()


@pytest.mark.parametrize("field,value", [
    ("lambda1", -0.1), ("lambda2", -1.0), ("gamma", -0.5),
    ("alpha", 0.0), ("alpha", 2.0), ("batch_size", 0), ("lr", 0.0),
    ("mode", "interleaved"), ("heads", 5), ("edge_mode", "cubed"),
    ("d", 0), ("heads", 0), ("heads", -4), ("lr", math.nan), ("lr", math.inf),
    ("lambda1", math.nan), ("lambda2", math.inf), ("gamma", math.nan),
    ("max_steps", -3), ("seed", -1),
])
def test_validate_rejects_bad_values(field, value):
    cfg = TrainConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError):
        cfg.validate()
    # validate is the only owner of config rules: the components trust it
    with pytest.raises(ConfigError):
        Model(cfg)


@pytest.mark.parametrize("toggle", ["homogd", "ca", "heterogd"])
def test_downstream_toggles_require_fd(toggle):
    cfg = TrainConfig(fd=False, homogd=False, ca=False, heterogd=False)
    cfg.validate()
    setattr(cfg, toggle, True)
    with pytest.raises(ConfigError, match="requires fd"):
        cfg.validate()


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "d = 8\n"
        "lambda1 = 0.25   # trailing comment\n"
        "fd = false\n"
        "homogd=no\n"
        "ca=0\n"
        "heterogd=off\n"
        "\n"
        "mode = aligned\n")
    cfg = load_config(path)
    assert cfg.d == 8 and cfg.lambda1 == 0.25
    assert not cfg.fd and not cfg.homogd and not cfg.ca and not cfg.heterogd
    assert cfg.mode == "aligned"


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(bad)
    for line in ("unknown_knob = 3\n", "ca_layers = 1\n"):  # the second is retired
        bad.write_text(line)
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(bad)
    bad.write_text("d = tiny\n")
    with pytest.raises(ConfigError, match="expected int"):
        load_config(bad)
    bad.write_text("fd = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_config(bad)


def test_apply_overrides_coerces_types():
    cfg = apply_overrides(TrainConfig(), {"lr": "0.01", "epochs": "3", "fd": "true"})
    assert cfg.lr == 0.01 and cfg.epochs == 3 and cfg.fd is True


# ---- metrics ----


def test_acc_fixtures():
    report = compute_metrics(np.array([0.6, -0.2]), np.array([1.0, -1.0]))
    assert report.acc2 == 1.0
    assert report.acc7 == 0.5


def test_f1_fixture():
    # one true positive, one false positive, no false negatives
    assert binary_f1(np.array([True, True]), np.array([True, False])) == pytest.approx(2 / 3)


def test_perfect_predictions_score_one():
    labels = np.array([-2.4, -0.3, 0.0, 1.2, 2.9])
    report = compute_metrics(labels.copy(), labels)
    assert (report.acc7, report.acc2, report.f1, report.mae) == (1.0, 1.0, 1.0, 0.0)


def test_metrics_rejects_empty_or_mismatched():
    with pytest.raises(DataError):
        compute_metrics(np.array([]), np.array([]))
    with pytest.raises(DataError):
        compute_metrics(np.array([1.0]), np.array([1.0, 2.0]))


# ---- optimizer ----


def test_adam_minimizes_quadratic():
    from modal_distill.tensor import tsum

    x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam(ParamTable({"x": x}), lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        tsum((x - 1.0) * (x - 1.0)).backward()
        opt.step()
    assert np.allclose(x.data, [1.0, 1.0], atol=1e-3)


def test_adam_leaves_gradless_params_untouched():
    x = Tensor(np.array([2.0]), requires_grad=True)
    table = ParamTable({"x": x})
    opt = Adam(table, lr=0.5)
    opt.zero_grad()
    opt.step()
    assert np.array_equal(x.data, [2.0])


ALL_STAGES_OFF = dict(fd=False, homogd=False, ca=False, heterogd=False)


@pytest.mark.parametrize("stages, task_steps", [
    ({}, 0), (ALL_STAGES_OFF, 0), (dict(ca=False, heterogd=False), 0),
    (dict(lambda2=0.0), 0), ({}, 5),
], ids=["all_on", "all_off", "no_ca_no_heterogd", "lambda2_zero", "joined_late"])
def test_adam_matches_per_tensor_reference(stages, task_steps):
    """Twenty steps with real gradients and a new lr before each, as
    ``train`` runs them: every parameter and every moment slice of the
    table's Adam equals the per-tensor oracle's bit for bit.  The first
    ``task_steps`` steps back-propagate the task loss alone, so the
    parameters only the other terms reach get their first gradient at a
    later step, and are stepped by exactly 0 until then."""
    cfg = TrainConfig(**stages)
    model = Model(cfg)
    table, params = model.table, model.parameters()
    twin = {name: Tensor(p.data.copy()) for name, p in params.items()}
    opt = Adam(table, lr=cfg.lr)
    ref = ReferenceAdam(twin, lr=cfg.lr)
    samples = generate(16, seed=3)
    n_steps = 20
    for step in range(n_steps):
        batch = make_batch(samples[4 * (step % 4):4 * (step % 4) + 4], mode=cfg.mode)
        out = model.forward_batch(batch)
        opt.zero_grad()
        (out.components["task"] if step < task_steps else out.total).backward()
        for name, p in params.items():
            assert np.shares_memory(p.grad, table.grad), name
            twin[name].grad = p.grad
        opt.lr = ref.lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / n_steps))
        opt.step()
        ref.step()
    for name, lo, hi in zip(params, table.bounds, table.bounds[1:]):
        assert np.array_equal(params[name].data, twin[name].data), name
        assert np.array_equal(opt.m[lo:hi], ref.m[name].ravel()), name
        assert np.array_equal(opt.v[lo:hi], ref.v[name].ravel()), name
        assert np.shares_memory(params[name].data, table.flat), name


def test_all_off_table_holds_the_shallow_convs_and_the_fusion_head():
    """All four stages off, the table holds the ``shallow.*`` and
    ``fusion.*`` parameters, in draw order, each starting at the default
    model's value for the same seed; the other stages still draw theirs, so
    nothing after them shifts.  Training moves every one of them but the
    private-stream gates, whose streams are zero with ``fd`` off."""
    cfg = tiny_config(**ALL_STAGES_OFF)
    samples = generate(12, seed=0, config=small_world())
    full = Model(tiny_config(), dict(SMALL_RAW)).parameters()
    off = Model(cfg, dict(SMALL_RAW))
    assert list(off.parameters()) == [
        name for name in full if name.startswith(("shallow.", "fusion."))]
    for name, t in off.parameters().items():
        assert np.array_equal(t.data, full[name].data), name
    initial = {name: t.data.copy() for name, t in off.parameters().items()}
    trained = train(cfg, samples, split=False).model.parameters()
    assert list(trained) == list(initial)
    assert [name for name, t in trained.items() if np.array_equal(t.data, initial[name])] == [
        name for name in initial if name.startswith("fusion.gate_hetero.")]


def _poisoned(samples, value=1e300):
    """``samples`` with ``value`` in the first cell of the first one's L
    features: finite, so it enters, and large enough to overflow."""
    samples[0].features[Modality.LANGUAGE][0, 0] = value
    return samples


@pytest.mark.parametrize("stages, origin, sample", [
    ({}, r"tensor\.[\w.<>]+", r"sample syn00000"),
    (ALL_STAGES_OFF, r"train\.Adam\.step", r"first sample syn\d{5}"),
], ids=["all_on", "all_off"])
def test_train_overflow_stops_the_step_where_it_is_made(monkeypatch, stages, origin, sample):
    """A 1e300 feature overflows in the first step: in the forward of the
    default model, and in the square of a gradient inside ``Adam.step`` on
    the all-off model.  Either way training stops there, naming the
    function, and no parameter has moved.  So no non-finite gradient is
    left for Adam to check.  The forward's overflow is traced to the
    poisoned sample, which overflows alone; the all-off forward overflows
    for no sample alone, so the batch's first sample is named."""
    import modal_distill.train as train_mod

    opts = []

    class CapturedAdam(Adam):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            opts.append(self)

    monkeypatch.setattr(train_mod, "Adam", CapturedAdam)
    cfg = tiny_config(**stages)
    samples = _poisoned(generate(8, seed=2, config=small_world()))
    assert samples[0].id == "syn00000"
    with pytest.raises(NumericError, match=rf"^overflow encountered in \w+ in {origin} "
                                           rf"at step 0 \({sample}\)$"):
        train(cfg, samples, split=False)
    (opt,) = opts
    assert np.array_equal(opt.table.flat, Model(cfg, dict(SMALL_RAW)).table.flat)


def test_train_and_scoring_hold_under_a_caller_raising_on_underflow():
    """The trap sets its own policy, whatever the caller's: underflow, by
    which masked attention keys get exactly zero weight, never raises."""
    samples = generate(8, seed=2, config=small_world())
    with np.errstate(all="raise"):
        result = train(tiny_config(max_steps=2), samples, split=False)
        assert evaluate(result.model, samples)[0].n == 8


def test_train_overflowing_update_names_adam_step():
    """An lr that overflows the update stops training in ``Adam.step``, the
    function that made the first non-finite value, at the step it ran in."""
    samples = generate(8, seed=2, config=small_world())
    with pytest.raises(NumericError, match=r"^overflow encountered in multiply in train\.Adam\.step "
                                           r"at step 0 \(first sample syn\d{5}\)$"):
        train(tiny_config(lr=1e308), samples, split=False)


# ---- training loop ----


def test_train_smoke_and_artifacts(tmp_path):
    samples = generate(12, seed=0, config=small_world())
    cfg = tiny_config(out_dir=str(tmp_path / "run"))
    result = train(cfg, samples)
    assert result.steps > 0
    assert result.checkpoint_path is not None and result.checkpoint_path.exists()
    assert result.log_path is not None and result.log_path.exists()
    lines = [json.loads(l) for l in result.log_path.read_text().splitlines()]
    steps = [r for r in lines if r["event"] == "step"]
    vals = [r for r in lines if r["event"] == "val"]
    assert len(steps) == result.steps and len(vals) == cfg.epochs
    for key in ("task", "rec", "cyc", "margin", "ort", "dec",
                "dtl_homo", "dtl_hetero", "total", "n_triplets", "homo", "hetero"):
        assert key in steps[0]
    assert steps[0]["homo"] is not None and "W" in steps[0]["homo"]


def test_train_log_records_reach_disk_before_checkpoint(tmp_path, monkeypatch):
    """Every record emitted so far is in the file when a checkpoint is
    saved, so a crash right after it loses no logged step."""
    import modal_distill.train as train_module

    run = tmp_path / "run"
    seen = []
    real_save = train_module.save_checkpoint

    def save_after_reading_log(path, params, config, meta):
        text = (run / "train_log.jsonl").read_text()
        seen.append((meta["step"], [json.loads(l) for l in text.splitlines()]))
        real_save(path, params, config, meta)

    monkeypatch.setattr(train_module, "save_checkpoint", save_after_reading_log)
    train(tiny_config(out_dir=str(run)), generate(12, seed=0, config=small_world()))
    assert seen
    for step, records in seen:
        assert [r["step"] for r in records if r["event"] == "step"] == list(range(step))
        assert records[-1]["event"] == "val" and records[-1]["step"] == step


def test_train_is_deterministic():
    samples = generate(10, seed=1, config=small_world())
    res_a = train(tiny_config(), samples)
    res_b = train(tiny_config(), samples)
    assert res_a.history == res_b.history


def test_max_steps_stops_early():
    samples = generate(10, seed=1, config=small_world())
    res = train(tiny_config(max_steps=3, epochs=50), samples, split=False)
    assert res.steps == 3


def test_train_raises_numeric_error_on_divergence():
    samples = generate(8, seed=2, config=small_world())
    cfg = tiny_config(lr=1e80, max_steps=30)
    with pytest.raises(NumericError, match="step"):
        train(cfg, samples, split=False)


def test_train_rejects_empty_dataset():
    with pytest.raises(DataError):
        train(tiny_config(), [])


def test_train_with_a_nan_label_is_a_data_error_naming_the_sample():
    """A library caller's NaN label stops at the batch, as a data error, not
    as the exit-3 failure to bin a NaN score."""
    samples = generate(20, seed=0)
    samples[5].label = float("nan")
    with pytest.raises(DataError, match=r"^sample syn00005: label nan outside \["):
        train(TrainConfig(d=4, heads=2, max_steps=2), samples)


def test_train_checks_samples_then_config_before_splitting():
    """The config is validated once, by ``Model``, after the empty-data
    check and before ``split_dataset`` could fail on it."""
    with pytest.raises(DataError, match="at least one sample"):
        train(TrainConfig(d=0), [])
    with pytest.raises(ConfigError, match="seed"):
        train(TrainConfig(seed=-1), generate(4, seed=1, config=small_world()))


def test_evaluate_rejects_empty():
    model = Model(tiny_config(), dict(SMALL_RAW))
    with pytest.raises(DataError):
        evaluate(model, [])


# ---- checkpoints ----


def test_checkpoint_round_trip_bit_exact(tmp_path):
    samples = generate(10, seed=3, config=small_world())
    cfg = tiny_config(max_steps=4, out_dir=str(tmp_path))
    result = train(cfg, samples, split=False)
    model, loaded_cfg, extra = model_from_checkpoint(result.checkpoint_path)
    assert loaded_cfg == cfg
    assert extra["raw_dims"] == {"L": 6, "V": 5, "A": 4}
    original = result.model.parameters()
    for name, tensor in model.parameters().items():
        assert np.array_equal(tensor.data, original[name].data), name
    _, s_orig, _ = _scores(result.model, samples)
    _, s_load, _ = _scores(model, samples)
    assert np.array_equal(s_orig, s_load)


def _assert_bound(model):
    for name, p in model.parameters().items():
        assert np.shares_memory(p.data, model.table.flat), name
        assert np.shares_memory(p.grad, model.table.grad), name


def test_param_table_binding_survives_training_and_loading(tmp_path):
    """After real steps, in the kept best-val model and in a model read back
    from the checkpoint, every parameter is still a view of its table; a
    load whose entries differ from the table's in a name or a shape changes
    nothing."""
    samples = generate(20, seed=5, config=small_world())
    result = train(tiny_config(max_steps=3, batch_size=4, out_dir=str(tmp_path)), samples)
    kept = result.kept_model()
    loaded = model_from_checkpoint(result.checkpoint_path)[0]
    assert result.best_params is not None
    assert np.array_equal(kept.table.flat, loaded.table.flat)
    for model in (result.model, kept, loaded):
        _assert_bound(model)
    before = loaded.table.flat.copy()
    entries = load_checkpoint(result.checkpoint_path)[0][0]
    name, shape = entries[-1]
    for bad in ([*entries[:-1], [name + "_", shape]], [*entries[:-1], [name, [999]]]):
        with pytest.raises(DataError, match="parameter entry"):
            loaded.table.load(result.checkpoint_path, bad, before + 1.0)
        assert np.array_equal(loaded.table.flat, before)
    _assert_bound(loaded)


def _scores(model, samples):
    from modal_distill.train import predict_scores
    return predict_scores(model, samples)


def test_checkpoint_missing_and_bad_version(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "no.npz")
    path = tmp_path / "ck.npz"
    save_checkpoint(path, {"w": Tensor(np.ones(3))}, tiny_config())
    meta = {"format_version": 999, "config": {}, "extra": {}}
    np.savez(path, **{"param/w": np.ones(3), "__meta__": np.array(json.dumps(meta))})
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def test_checkpoint_without_metadata_exits_two(tmp_path, capsys):
    path = tmp_path / "bare.npz"
    np.savez(path, **{"param/w": np.ones(3)})
    with pytest.raises(DataError, match="has no metadata block"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    assert capsys.readouterr().err == f"data error: checkpoint {path} has no metadata block\n"


def test_checkpoint_appends_npz_suffix(tmp_path):
    out = save_checkpoint(tmp_path / "plain", {"w": Tensor(np.ones(2))}, tiny_config())
    assert out.exists() and out.name == "plain"


def _eval_checkpoint(path, config_extra=None):
    """Save an untrained default-dims model to ``path``, with
    ``config_extra`` merged into its stored config."""
    cfg = tiny_config()
    model = Model(cfg)
    save_checkpoint(path, model.parameters(), cfg,
         {"raw_dims": {m.tag: d for m, d in model.raw_dims.items()}})
    if config_extra:
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["config"].update(config_extra)
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
    return cfg


def test_eval_of_single_class_batches_logs_no_warning(tmp_path, capsys):
    """Batches of one sample hold one class, so the margin loss has no
    triplet; eval trains nothing and must not warn about it."""
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path, {"batch_size": 1})
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_checkpoint_with_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "bogus.npz"
    _eval_checkpoint(path, {"bogus_knob": 1})
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    assert "unknown config key 'bogus_knob'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("d", "8"), ("d", 8.0), ("fd", 1), ("batch_size", True), ("lr", True),
    ("lr", "0.1"), ("mode", 0),
])
def test_checkpoint_with_mistyped_config_value_exits_two(tmp_path, capsys, key, value):
    path = tmp_path / "typed.npz"
    _eval_checkpoint(path, {key: value})
    with pytest.raises(DataError, match=f"config key '{key}' expects"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("alpha", 5.0), ("d", 0), ("mode", "sideways")])
def test_checkpoint_with_out_of_range_config_value_exits_two(tmp_path, capsys, key, value):
    path = tmp_path / "range.npz"
    _eval_checkpoint(path, {key: value})
    with pytest.raises(DataError, match=key):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("raw_dims", [
    {"L": 6, "V": 5, "X": 4}, {"L": 6, "V": 5}, {"L": 6, "V": 5, "A": "4"},
    {"L": 6, "V": 5.5, "A": 4}, {"L": 6, "V": 0, "A": 4}, {"L": True, "V": 5, "A": 4},
    [6, 5, 4], None,
])
def test_checkpoint_with_bad_raw_dims_exits_two(tmp_path, capsys, raw_dims):
    path = tmp_path / "dims.npz"
    cfg = tiny_config()
    save_checkpoint(path, Model(cfg).parameters(), cfg, {"raw_dims": raw_dims})
    with pytest.raises(DataError, match="raw feature dims"):
        model_from_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_non_finite_weight_is_rejected(tmp_path, bad):
    """A non-finite parameter enters only through a checkpoint, and is a
    data error there naming the parameter, before a model is built."""
    path = tmp_path / "bad.npz"
    cfg = tiny_config()
    model = Model(cfg, SMALL_RAW)
    model.parameters()["private_encoder.L.first.weight"].data[0, 1] = bad
    save_checkpoint(path, model.parameters(), cfg,
                    {"raw_dims": {m.tag: d for m, d in SMALL_RAW.items()}})
    message = re.escape(f"checkpoint {path}: parameter private_encoder.L.first.weight "
                        "holds a non-finite value")
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)
    with pytest.raises(DataError, match=message):
        model_from_checkpoint(path)


def test_checkpoint_accepts_int_for_float_field(tmp_path):
    path = tmp_path / "int_lr.npz"
    _eval_checkpoint(path, {"lr": 1})
    cfg = load_checkpoint(path)[1]
    assert cfg.lr == 1.0 and type(cfg.lr) is float


def _assert_one_data_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1, err


def test_corrupt_or_truncated_checkpoint_exits_two(tmp_path, capsys):
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path)
    raw = path.read_bytes()
    for name, content in (("truncated", raw[:len(raw) // 2]), ("garbage", b"not a zip" * 50)):
        bad = tmp_path / f"{name}.npz"
        bad.write_bytes(content)
        with pytest.raises(DataError, match="corrupt or truncated"):
            load_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad), "--synthetic", "4"]) == 2
        _assert_one_data_error_line(capsys)


@pytest.mark.parametrize("offset, value", [(10, 99), (10, 14), (8, 1)],
                         ids=["unknown_method", "lzma_method", "encrypted_flag"])
def test_checkpoint_with_a_damaged_zip_header_exits_two(tmp_path, capsys, offset, value):
    """A damaged byte in the first central directory entry, its compression
    method or its flags, is corrupt data like any other: zipfile raises
    ``NotImplementedError``, ``lzma.LZMAError`` or ``RuntimeError`` here."""
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path)
    raw = bytearray(path.read_bytes())
    entry = raw.find(b"PK\x01\x02")
    raw[entry + offset:entry + offset + 2] = value.to_bytes(2, "little")
    path.write_bytes(raw)
    with pytest.raises(DataError, match="corrupt or truncated"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    _assert_one_data_error_line(capsys)


@pytest.mark.parametrize("edit_meta,weight,match", [
    (lambda meta: [1, 2], None, "metadata must be a JSON object"),
    (lambda meta: "checkpoint", None, "metadata must be a JSON object"),
    (lambda meta: {k: v for k, v in meta.items() if k != "config"}, None,
     "'config' must be a JSON object"),
    (lambda meta: {**meta, "config": []}, None, "'config' must be a JSON object"),
    (lambda meta: {**meta, "extra": []}, None, "'extra' must be a JSON object"),
    (lambda meta: meta, "x", "'flat' is <U1"),
    (lambda meta: meta, 1 + 1j, "'flat' is complex128"),
], ids=["meta_list", "meta_string", "no_config", "config_list", "extra_list",
        "string_param", "complex_param"])
def test_checkpoint_with_malformed_metadata_or_arrays_exits_two(tmp_path, capsys, edit_meta,
                                                                weight, match):
    """The metadata cases damage the metadata block; the array cases fill
    ``flat`` with values of another dtype."""
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path)
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    arrays["__meta__"] = np.array(json.dumps(edit_meta(json.loads(str(arrays["__meta__"])))))
    if weight is not None:
        arrays["flat"] = np.full(arrays["flat"].shape, weight)
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    _assert_one_data_error_line(capsys)


def _edit_checkpoint(path, edit):
    """Rewrite the checkpoint at ``path`` with ``edit(arrays, meta)`` applied
    to its members and its decoded metadata."""
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    meta = json.loads(str(arrays["__meta__"]))
    edit(arrays, meta)
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def _set_dim(meta, i, dim):
    meta["params"][i][1][0] = dim


def _empty_shape(arrays, meta, shape):
    """Give the first parameter ``shape``, which holds no values, and drop
    its values from ``flat``, so the shapes still add up to its size."""
    size = math.prod(meta["params"][0][1])
    meta["params"][0][1] = shape
    arrays["flat"] = arrays["flat"][size:]


def _as_version_1(arrays, meta):
    """The file as format version 1 stored it: one ``param/<name>`` member
    per parameter, and neither a ``flat`` member nor a ``params`` list."""
    flat, at = arrays.pop("flat"), 0
    for name, shape in meta.pop("params"):
        arrays[f"param/{name}"] = flat[at:at + math.prod(shape)].reshape(shape)
        at += math.prod(shape)
    meta["format_version"] = 1


def _swap_first_two(arrays, meta):
    """List the first two parameters the other way round, their values
    moved with them, so the shapes still add up."""
    (a, shape_a), (b, shape_b) = meta["params"][:2]
    n_a, n_b, flat = math.prod(shape_a), math.prod(shape_b), arrays["flat"]
    arrays["flat"] = np.concatenate([flat[n_a:n_a + n_b], flat[:n_a], flat[n_a + n_b:]])
    meta["params"][:2] = [[b, shape_b], [a, shape_a]]


# what _empty_shape's zero-and-huge shapes are refused with
EMPTIED_FIRST = r"entry 0 is \['shallow\.L\.kernel', \[0, "


@pytest.mark.parametrize("edit,match", [
    (lambda a, m: a.pop("flat"), "has no 'flat' array"),
    (lambda a, m: a.update(flat=a["flat"].reshape(1, -1)), "not a 1-D float64 array"),
    (lambda a, m: a.update(flat=a["flat"].astype(np.float32)), "not a 1-D float64 array"),
    (lambda a, m: a.update(flat=a["flat"].astype(np.int64)), "not a 1-D float64 array"),
    (lambda a, m: m.pop("params"), "'params' must list"),
    (lambda a, m: m.update(params={"w": [3]}), "'params' must list"),
    (lambda a, m: m["params"].append("fusion.head.first.weight"), "'params' must list"),
    (lambda a, m: _set_dim(m, 0, 2.0), "'params' must list"),
    (lambda a, m: _set_dim(m, 0, "2"), "'params' must list"),
    (lambda a, m: _set_dim(m, 0, True), "'params' must list"),
    (lambda a, m: _set_dim(m, 0, -1), "'params' must list"),
    (lambda a, m: m["params"][1].__setitem__(0, m["params"][0][0]),
     r"parameter entry 1 is \['shallow\.L\.kernel', \[4\]\] in the file, "
     r"\['shallow\.L\.bias', \[4\]\] in the model"),
    (lambda a, m: m["params"].pop(), "the parameter shapes hold"),
    (lambda a, m: a.update(flat=a["flat"][:-1]), "the parameter shapes hold"),
    (lambda a, m: _set_dim(m, 0, 0), "the parameter shapes hold"),
    (lambda a, m: _empty_shape(a, m, [0, 10 ** 20]), EMPTIED_FIRST),
    (lambda a, m: _empty_shape(a, m, [0, 2 ** 62, 4]), EMPTIED_FIRST),
    (lambda a, m: _empty_shape(a, m, [0] + [2] * 70), EMPTIED_FIRST),
    (_as_version_1, "unsupported format version 1"),
    (lambda a, m: m["config"].update(ALL_STAGES_OFF),
     r"entry 6 is \['shared_encoder\.first\.weight', \[4, 8\]\] in the file, "
     r"\['fusion\.gate_homo\.L\.weight', "),
    (_swap_first_two, r"entry 0 is \['shallow\.L\.bias', \[4\]\] in the file"),
    (lambda a, m: m["config"].update(detach_teacher=True), "unknown config key 'detach_teacher'"),
], ids=["no_flat", "flat_2d", "flat_float32", "flat_int64", "no_params", "params_dict",
        "params_bare_name", "float_dim", "string_dim", "bool_dim", "negative_dim",
        "repeated_name", "entry_dropped", "flat_short", "zero_dim", "zero_and_huge_dim",
        "zero_and_overflowing_dims", "zero_and_too_many_dims", "version_1",
        "all_off_holding_every_stage", "another_order", "retired_config_key"])
def test_checkpoint_with_a_damaged_table_exits_two(tmp_path, capsys, edit, match):
    """Each damage to the ``flat`` array, the ``params`` list or the stored
    config, and each file in a form this code does not write, is a data
    error naming the checkpoint: one stderr line and exit 2 through eval.
    The file's ``[name, shape]`` entries must equal the model's table
    entry for entry; the first that differs is named."""
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path)
    _edit_checkpoint(path, edit)
    with pytest.raises(DataError, match=re.escape(f"checkpoint {path}") + ".*" + match):
        model_from_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    _assert_one_data_error_line(capsys)


def test_checkpoint_names_the_first_of_two_non_finite_parameters(tmp_path):
    """With NaN in two parameters, the one earlier in the file is named,
    whichever was damaged first."""
    path = tmp_path / "bad.npz"
    cfg = tiny_config()
    model = Model(cfg, SMALL_RAW)
    params = model.parameters()
    first, later = "private_encoder.V.second.bias", "fusion.head.second.weight"
    assert list(params).index(first) < list(params).index(later)
    params[later].data[0, 0] = np.nan
    params[first].data[-1] = np.nan
    save_checkpoint(path, params, cfg, {"raw_dims": {m.tag: d for m, d in SMALL_RAW.items()}})
    with pytest.raises(DataError, match=re.escape(
            f"checkpoint {path}: parameter {first} holds a non-finite value")):
        load_checkpoint(path)


def test_train_writes_the_table_as_one_flat_member(tmp_path):
    """The checkpoint train writes holds the table as it is: the members
    ``flat`` and ``__meta__`` only, the kept model's ``table.flat`` and its
    names and shapes in table order."""
    samples = generate(20, seed=5, config=small_world())
    result = train(tiny_config(max_steps=3, batch_size=4, out_dir=str(tmp_path)), samples)
    kept = result.kept_model()
    with np.load(result.checkpoint_path) as bundle:
        assert bundle.files == ["flat", "__meta__"]
        assert np.array_equal(bundle["flat"], kept.table.flat)
        meta = json.loads(str(bundle["__meta__"]))
    assert meta["format_version"] == 2
    assert meta["params"] == [[name, list(t.data.shape)]
                              for name, t in kept.parameters().items()]


@pytest.mark.parametrize("edit, name", [
    (lambda params: params.update({"bogus.weight": Tensor(np.zeros(2))}), "bogus.weight"),
    (lambda params: params.pop("fusion.head.first.bias"), "fusion.head.first.bias"),
], ids=["surplus", "missing"])
def test_all_off_checkpoint_with_a_name_outside_the_stages_exits_two(tmp_path, capsys,
                                                                     edit, name):
    """A name the all-off table lacks, or a table name left out, is a data
    error naming it."""
    cfg = tiny_config(**ALL_STAGES_OFF)
    params = dict(Model(cfg).parameters())
    edit(params)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, cfg,
                    {"raw_dims": {m.tag: d for m, d in Model(cfg).raw_dims.items()}})
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("data error: ") and name in err


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.npz"
    good = {"w": Tensor(np.arange(3.0))}
    save_checkpoint(path, good, tiny_config())

    def failing_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"w": Tensor(np.zeros(3))}, tiny_config())
    monkeypatch.undo()
    (entries, flat), _, _ = load_checkpoint(path)
    assert entries == [["w", [3]]]
    np.testing.assert_array_equal(flat, good["w"].data)
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]


# ---- gradcheck plumbing ----


def test_gradcheck_passes_on_defaults():
    report = gradcheck(n_probes=6, seed=1)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "task", "rec", "cyc", "margin", "ort", "dec",
        "dtl_homo", "dtl_hetero", "total"}
    assert report.teacher_path_grad == 0.0


def test_gradcheck_reports_parameter_paths():
    report = gradcheck(n_probes=4, seed=2)
    for check in report.checks:
        assert check.worst_param == "-" or "[" in check.worst_param


def test_gradcheck_audits_the_configured_mode():
    """The audit batch is built in the config's mode: aligned, each sample's
    three sequences share one length, and the two modes' reports differ."""
    reports = []
    for mode, one_length in (("aligned", True), ("unaligned", False)):
        rows = _gradcheck_batch(gradcheck_data_config(), 0, mode).rows
        lengths = np.stack([rows[m].lengths for m in MODALITIES])
        assert bool((lengths == lengths[0]).all()) is one_length, (mode, lengths)
        report = gradcheck(replace(gradcheck_model_config(0), mode=mode), n_probes=4)
        assert report.passed, mode
        reports.append([(c.max_rel_err, c.worst_param) for c in report.checks])
    assert reports[0] != reports[1]


# ---- probes and edge dumps ----


def _trained_tiny(tmp_path=None, **kw):
    samples = generate(24, seed=4, config=small_world())
    cfg = tiny_config(**kw)
    return train(cfg, samples, split=False), samples


def test_probe_unimodal_reports_three_modalities():
    result, samples = _trained_tiny()
    report = probe_unimodal(result.model, samples, seed=0)
    assert set(report.per_modality) == {"L", "V", "A"}
    for probe in report.per_modality.values():
        assert 0.0 <= probe.acc2 <= 1.0
        assert 0.0 <= probe.f1 <= 1.0
    assert report.std_acc2 >= 0.0


@pytest.mark.parametrize("n", [2, 3, 10, 33])
def test_probe_split_partitions_rows(n):
    for seed in range(4):
        fit, held_out = probe_split(n, seed)
        assert fit.size and held_out.size
        assert np.intersect1d(fit, held_out).size == 0
        assert np.array_equal(np.sort(np.concatenate([fit, held_out])), np.arange(n))


def test_probe_multiclass_separable_oracle():
    rng = np.random.default_rng(0)
    centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])
    classes = np.repeat([0, 1, 2], 40)
    feats = centers[classes] + 0.1 * rng.standard_normal((120, 2))
    assert probe_multiclass_accuracy(feats, classes, seed=0) == 1.0


def test_dump_edges_records(tmp_path):
    result, samples = _trained_tiny()
    out = tmp_path / "edges.jsonl"
    records = dump_edges(result.model, samples, out_path=out)
    assert out.exists()
    spaces = {r["space"] for r in records}
    assert spaces == {"homo", "hetero"}
    first = records[0]
    w = np.array(first["W"])
    assert w.shape == (3, 3)
    assert np.allclose(w.sum(axis=0) - np.diag(w), [1.0, 1.0, 1.0], atol=1e-9)


def test_dump_edges_empty_when_distillation_off():
    samples = generate(8, seed=5, config=small_world())
    cfg = tiny_config(fd=False, homogd=False, ca=False, heterogd=False, max_steps=2)
    result = train(cfg, samples, split=False)
    assert dump_edges(result.model, samples) == []


def test_homo_edges_favor_clean_view_as_teacher():
    # give language a nearly clean view of the label coordinate and make
    # vision/audio views much noisier; learned graph edges should then route
    # more weight out of language than into it. Each node's incoming edge
    # weights sum to exactly 1 (softmax), so language's incoming total is 1.0
    # and the check reduces to its outgoing total beating that.
    world = SyntheticConfig()
    world.class_view_noise = {Modality.LANGUAGE: 0.02, Modality.VISION: 0.5,
                              Modality.AUDIO: 0.5}
    samples = generate(300, seed=51, config=world)
    result = train(TrainConfig(epochs=6, seed=1), samples, split=False)
    recs = [r for r in dump_edges(result.model, samples) if r["space"] == "homo"]
    mean_w = np.mean([np.array(r["W"]) for r in recs], axis=0)
    language_out = mean_w[0, 1] + mean_w[0, 2]
    assert language_out > 1.0


# ---- CLI ----


def test_cli_gen_data_and_train_eval_cycle(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--out", str(data_dir), "--n", "12", "--seed", "1"]) == 0
    manifest = data_dir / "manifest.csv"
    assert manifest.exists()

    run_dir = tmp_path / "run"
    rc = main(["train", "--data", str(manifest), "--d", "4", "--heads", "2",
               "--epochs", "1", "--batch-size", "4", "--out", str(run_dir)])
    assert rc == 0
    ckpt = run_dir / "checkpoint.npz"
    assert ckpt.exists()

    preds = tmp_path / "preds.csv"
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(manifest),
               "--predictions", str(preds)])
    assert rc == 0
    header = preds.read_text().splitlines()[0]
    assert header == "sample_id,score,class7,class2,label,label7,label2"

    edges = tmp_path / "edges.jsonl"
    assert main(["dump-edges", "--checkpoint", str(ckpt), "--data", str(manifest),
                 "--out", str(edges)]) == 0
    assert edges.exists()

    assert main(["probe-unimodal", "--checkpoint", str(ckpt),
                 "--data", str(manifest)]) == 0


def test_cli_train_scores_test_split_with_the_checkpointed_parameters(tmp_path, capsys):
    """The printed test metrics are those of the best-validation parameters
    the checkpoint keeps, not of the final ones."""
    out = tmp_path / "run"
    assert main(["train", "--synthetic", "160", "--data-seed", "1", "--epochs", "4",
                 "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    test_line = re.search(r"^test: (\{.*\})$", printed, re.M)
    model, _, extra = model_from_checkpoint(out / "checkpoint.npz")
    assert extra["tag"] == "best_val" and extra["step"] < 28
    assert f"test scored with best-val parameters (step {extra['step']})" in printed
    test_split = split_dataset(generate(160, 1), seed=3)[2]
    report, _ = evaluate(model, test_split)
    assert test_line and ast.literal_eval(test_line[1]) == report.to_dict()


def test_cli_outputs_do_not_depend_on_the_process_count(tmp_path, monkeypatch, capsys):
    """``gen-data``, and ``train`` and ``eval --predictions`` on its output,
    with a dataset big enough to be written and parsed by two processes,
    write the same bytes as with one.  Each round writes a fresh directory
    and parses it twice (the parse cache is deleted before ``eval``); a warm
    repeat of both commands, served by the cache, writes the same bytes again
    and forks nothing."""
    data, out, preds = tmp_path / "data", tmp_path / "run", tmp_path / "preds.csv"
    manifest = data / "manifest.csv"
    forks = count_forks(monkeypatch)

    def train_and_eval():
        assert main(["train", "--data", str(manifest), "--epochs", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        log = (out / "train_log.jsonl").read_bytes()
        (data / ".manifest.csv.parsed").unlink()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"), "--data",
                     str(manifest), "--predictions", str(preds)]) == 0
        return capsys.readouterr().out, log, preds.read_bytes()

    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        shutil.rmtree(data, ignore_errors=True)
        assert main(["gen-data", "--n", "48", "--seed", "2", "--out", str(data)]) == 0
        tree = [(p.relative_to(data), p.read_bytes())
                for p in sorted(data.rglob("*")) if p.is_file()]
        runs.append((tree, capsys.readouterr().out, train_and_eval()))
    assert len(forks) == 3  # one per write and per load with two cores
    assert len(runs[0][0]) == 1 + 3 * 48 and runs[0] == runs[1]

    assert main(["train", "--data", str(manifest), "--epochs", "1", "--seed", "3",
                 "--out", str(out)]) == 0
    assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"), "--data",
                 str(manifest), "--predictions", str(preds)]) == 0
    warm = capsys.readouterr().out, (out / "train_log.jsonl").read_bytes(), preds.read_bytes()
    assert len(forks) == 3 and warm == runs[1][2]


def test_eval_with_predictions_scores_each_batch_once(tmp_path, monkeypatch):
    """``eval --predictions`` takes the metrics and the CSV rows from one
    scoring pass: one forward per batch."""
    path = tmp_path / "ck.npz"
    cfg = _eval_checkpoint(path)
    n = 2 * cfg.batch_size + 3
    calls = []
    forward = Model.forward_batch

    def counting_forward(self, batch):
        calls.append(len(batch.ids))
        return forward(self, batch)

    monkeypatch.setattr(Model, "forward_batch", counting_forward)
    preds = tmp_path / "preds.csv"
    assert main(["eval", "--checkpoint", str(path), "--synthetic", str(n),
                 "--predictions", str(preds)]) == 0
    assert len(calls) == math.ceil(n / cfg.batch_size) and sum(calls) == n
    rows = preds.read_text().splitlines()[1:]
    _, scores, _ = predict_scores(model_from_checkpoint(path)[0], generate(n, 0))
    assert [float(r.split(",")[1]) for r in rows] == scores.tolist()


def test_eval_predictions_creates_parent_directory(tmp_path):
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path)
    preds = tmp_path / "out" / "new" / "p.csv"
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4",
                 "--predictions", str(preds)]) == 0
    assert len(preds.read_text().splitlines()) == 5


def test_cli_usage_errors_exit_one(tmp_path):
    assert main([]) == 1
    assert main(["train", "--not-a-flag"]) == 1
    assert main(["train", "--d", "4", "--heads", "2"]) == 1  # no data source
    assert main(["train", "--synthetic", "4", "--no-fd"]) == 1  # homogd needs fd


def test_cli_zero_heads_exits_one_without_traceback(capsys):
    assert main(["train", "--synthetic", "4", "--heads", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "heads must be >= 1" in err
    assert "Traceback" not in err


def test_cli_data_errors_exit_two(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "absent.npz"),
                 "--synthetic", "4"]) == 2


def test_cli_eval_of_a_missing_manifest_exits_two(tmp_path, capsys):
    ck, manifest = tmp_path / "ck.npz", tmp_path / "absent" / "manifest.csv"
    _eval_checkpoint(ck)
    assert main(["eval", "--checkpoint", str(ck), "--data", str(manifest)]) == 2
    assert capsys.readouterr().err == f"data error: manifest not found: {manifest}\n"


def test_cli_probe_of_one_sample_exits_two(tmp_path, capsys):
    ck = tmp_path / "ck.npz"
    _eval_checkpoint(ck)
    assert main(["probe-unimodal", "--checkpoint", str(ck), "--synthetic", "1"]) == 2
    assert capsys.readouterr().err == "data error: probing needs at least 2 samples, got 1\n"


def test_cli_manifest_with_duplicate_id_exits_two(tmp_path):
    manifest = save_dataset(generate(3, 0), tmp_path / "data")
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[2]]) + "\n")
    assert main(["train", "--data", str(manifest), "--epochs", "1",
                 "--out", str(tmp_path / "run")]) == 2


def test_cli_numeric_failures_exit_three():
    # a positive tolerance no finite difference can meet
    assert main(["gradcheck", "--probes", "2", "--tol", "1e-300"]) == 3


# each command that reads a checkpoint, with the output file it would write
CHECKPOINT_READERS = {
    "eval": ["--predictions", "{out}"],
    "dump-edges": ["--out", "{out}"],
    "probe-unimodal": [],
}


@pytest.mark.parametrize("command", list(CHECKPOINT_READERS))
@pytest.mark.parametrize("name", ["fusion.head.first.weight", "gd_homo.logit_head.weight"])
def test_checkpoint_with_nan_parameter_exits_two(tmp_path, capsys, command, name):
    """A NaN passes through numpy without raising, so it is stopped where it
    enters: each command exits 2 with one line naming the parameter, and
    writes nothing.  The GD units are off the scoring path, so at the parent
    a NaN there left ``eval`` at exit 0 and put NaN into ``dump-edges``."""
    path, out = tmp_path / "nan.npz", tmp_path / "out" / "file"
    cfg = tiny_config()
    model = Model(cfg)
    model.parameters()[name].data[0, 0] = np.nan
    save_checkpoint(path, model.parameters(), cfg,
                    {"raw_dims": {m.tag: d for m, d in model.raw_dims.items()}})
    rc = main([command, "--checkpoint", str(path), "--synthetic", "4",
               *(a.format(out=out) for a in CHECKPOINT_READERS[command])])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"data error: checkpoint {path}: parameter {name} "
                            "holds a non-finite value\n")
    assert not out.exists()


def test_eval_synthetic_rejects_checkpoint_of_other_raw_dims(tmp_path, capsys):
    """--synthetic draws the default raw dims; a checkpoint of other dims is
    a usage error at the CLI, before the model sees a batch."""
    path = tmp_path / "small.npz"
    cfg = tiny_config()
    model = Model(cfg, SMALL_RAW)
    save_checkpoint(path, model.parameters(), cfg,
                    {"raw_dims": {m.tag: d for m, d in SMALL_RAW.items()}})
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --synthetic draws raw feature dims")
    assert len(err.splitlines()) == 1


# each row once ended in a traceback, a wrong exit code or a misleading
# message.  {dir} is an existing directory, {file} an existing file, {ck} a
# loadable checkpoint, {empty} an empty argument, {blocked} a directory in
# which a feature file's path (in a forked writer's share) is a directory,
# {nosamples} a manifest with a header and no rows
BAD_INVOCATIONS = [
    ("gradcheck --probes 0", 1, "n_probes >= 1"),
    ("gradcheck --probes -1", 1, "n_probes >= 1"),
    ("gradcheck --probes 2 --tol 0", 1, "tol > 0"),
    ("gradcheck --probes 2 --tol -1", 1, "tol > 0"),
    ("train --synthetic 0", 1, "sample count must be >= 1, got 0"),
    ("train --synthetic 4 --seed -1", 1, "seed must be >= 0, got -1"),
    ("train --synthetic 4 --data-seed -5", 1, "seed must be >= 0, got -5"),
    ("gen-data --n 2 --seed -1 --out {dir}/new", 1, "seed must be >= 0, got -1"),
    ("probe-unimodal --checkpoint {ck} --synthetic 4 --seed -1", 1, "seed must be >= 0"),
    ("eval --checkpoint {ck} --synthetic 3 --predictions {dir}", 4, "{dir}"),
    ("train --synthetic 4 --d 4 --heads 2 --epochs 1 --out {file}", 4, "{file}"),
    ("train --data {dir} --epochs 1", 4, "{dir}"),
    ("dump-edges --checkpoint {ck} --synthetic 3 --out {dir}", 4, "{dir}"),
    ("gen-data --n 2 --out {file}", 4, "{file}"),
    ("gen-data --n 48 --out {blocked}", 4, "{blocked}/features/syn00040_V.csv"),
    ("eval --predictions {file}/x.csv --checkpoint {ck} --synthetic 3", 4, "{file}"),
    ("dump-edges --out {file}/x.jsonl --checkpoint {ck} --synthetic 3", 4, "{file}"),
    ("gen-data --out {empty} --n 2", 1, "--out: empty path"),
    ("train --synthetic 4 --data {empty} --d 4 --heads 2 --epochs 1", 1, "--data: empty path"),
    ("train --synthetic 4 --config {empty} --d 4 --heads 2 --epochs 1", 1,
     "--config: empty path"),
    ("train --synthetic 4 --out {empty} --d 4 --heads 2 --epochs 1", 1, "--out: empty path"),
    ("eval --synthetic 3 --predictions {empty} --checkpoint {ck}", 1,
     "--predictions: empty path"),
    ("eval --synthetic 3 --checkpoint {empty}", 1, "--checkpoint: empty path"),
    ("train --epochs 1 --data {nosamples}", 2, "lists no samples"),
    ("eval --data {nosamples} --checkpoint {ck}", 2, "lists no samples"),
    ("probe-unimodal --synthetic 4 --data {nosamples} --checkpoint {ck}", 1,
     "argument --data: not allowed with argument --synthetic"),
]


@pytest.mark.parametrize("argv,code,needle", BAD_INVOCATIONS,
                         ids=[row[0].split(" {")[0] for row in BAD_INVOCATIONS])
def test_cli_bad_invocation_is_one_error_line(tmp_path, capsys, monkeypatch, argv, code,
                                              needle):
    """Each bad invocation fails with one error line before any forward
    pass, and prints nothing to stdout."""
    paths = {"dir": tmp_path / "d", "file": tmp_path / "f.txt", "ck": tmp_path / "ck.npz",
             "empty": "", "blocked": tmp_path / "b", "nosamples": tmp_path / "e" / "manifest.csv"}
    monkeypatch.chdir(tmp_path)  # an empty path must not reach the working directory
    paths["dir"].mkdir()
    paths["nosamples"].parent.mkdir()
    paths["nosamples"].write_text("id,label,path_L,path_V,path_A\n")
    (paths["blocked"] / "features" / "syn00040_V.csv").mkdir(parents=True)
    paths["file"].write_text("x\n")
    _eval_checkpoint(paths["ck"])
    forwards = []

    def counted(name):
        method = getattr(Model, name)

        def wrapper(self, *args, **kwargs):
            forwards.append(name)
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("forward_batch", "encode"):
        monkeypatch.setattr(Model, name, counted(name))
    rc = main([arg.format(**paths) for arg in argv.split()])
    out, err = capsys.readouterr()
    assert rc == code, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert re.match(r"(error|data error|numeric error|I/O error): ", err)
    assert needle.format(**paths) in err
    assert out == "" and forwards == []


def test_cli_non_finite_gradient_exits_three_keeping_best_checkpoint(tmp_path, monkeypatch, capsys):
    """A gradient whose square overflows in the second epoch stops training
    in ``Adam.step`` with exit code 3, and the first epoch's best checkpoint
    stays as it was written.  (A NaN would pass through without raising; no
    program path can put one into a gradient.)"""
    import modal_distill.train as train_mod

    ckpt = tmp_path / "run" / "checkpoint.npz"
    models, saved = [], []

    class CapturedModel(Model):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            models.append(self)

    backward = Tensor.backward

    def poisoning_backward(self):
        backward(self)
        if ckpt.exists():  # written by the first epoch's validation
            saved.append(ckpt.read_bytes())
            models[0].parameters()["fusion.head.first.weight"].grad[0, 0] = 1e300

    monkeypatch.setattr(train_mod, "Model", CapturedModel)
    monkeypatch.setattr(Tensor, "backward", poisoning_backward)
    rc = main(["train", "--synthetic", "12", "--d", "4", "--heads", "2", "--epochs", "3",
               "--batch-size", "4", "--out", str(tmp_path / "run")])
    assert rc == 3
    assert re.fullmatch(r"numeric error: overflow encountered in multiply in train\.Adam\.step "
                        r"at step \d+ \(first sample syn\d{5}\)\n", capsys.readouterr().err)
    assert len(saved) == 1 and ckpt.read_bytes() == saved[0]


def test_cli_overflowing_update_is_one_stderr_line(tmp_path, capfd):
    """An lr that overflows the update exits 3 from the trap in the step,
    naming ``Adam.step``, with no numpy warning on stderr."""
    rc = main(["train", "--synthetic", "6", "--max-steps", "1", "--lr", "1e308",
               "--out", str(tmp_path / "run")])
    err = capfd.readouterr().err.splitlines()
    assert rc == 3
    assert len(err) == 1 and re.fullmatch(
        r"numeric error: overflow encountered in multiply in train\.Adam\.step "
        r"at step 0 \(first sample syn\d{5}\)", err[0])


def _huge_feature_set(root: Path, poisoned: str = "syn00000") -> Path:
    """A 12-sample dataset whose sample ``poisoned`` has 1e300 in its first
    L feature cell: finite, so it loads, and large enough to overflow."""
    manifest = save_dataset(generate(12, seed=0), root / "set")
    rows = csv.DictReader(manifest.read_text().splitlines())
    feature = root / "set" / next(r for r in rows if r["id"] == poisoned)["path_L"]
    lines = feature.read_text().splitlines()
    lines[0] = ",".join(["1e300"] + lines[0].split(",")[1:])
    feature.write_text("\n".join(lines) + "\n")
    return manifest


# one stderr line: numpy's message, the package function, then the step or
# batch and the sample whose forward overflows alone, or the probe and the
# sample holding the largest pooled feature of its modality
TRAPPED_LINE = (r"numeric error: overflow encountered in \w+ in \w+\.[\w.<>]+ "
                r"at ((step|batch) \d+|the [LVA] probe) \(sample syn00000\)")


def test_cli_huge_finite_feature_is_one_stderr_line(tmp_path, capfd):
    """A feature value of 1e300 is finite, so it loads; the forward then
    overflows, and the trap's line is all that reaches stderr."""
    manifest = _huge_feature_set(tmp_path)
    rc = main(["train", "--data", str(manifest), "--max-steps", "2", "--batch-size", "4",
               "--d", "4", "--heads", "2", "--out", str(tmp_path / "run")])
    err = capfd.readouterr().err.splitlines()
    assert rc == 3
    assert len(err) == 1 and re.fullmatch(TRAPPED_LINE, err[0]) and "at step 0 " in err[0]


def test_cli_trap_names_the_sample_that_overflows_alone(tmp_path, capfd):
    """On the 1e300 set the bad value is in syn00000, which is not the first
    sample of the step-0 batch; the trap replays the forward one sample at
    a time and names syn00000."""
    manifest = _huge_feature_set(tmp_path)
    train_s = split_dataset(load_features(manifest), seed=TrainConfig().seed)[0]
    first = next(batches(train_s, 4, seed=TrainConfig().seed)).ids
    assert "syn00000" in first and first[0] != "syn00000"
    rc = main(["train", "--data", str(manifest), "--max-steps", "2", "--batch-size", "4",
               "--d", "4", "--heads", "2", "--out", str(tmp_path / "run")])
    assert rc == 3
    assert capfd.readouterr().err == ("numeric error: overflow encountered in multiply in "
                                      "tensor.sq_distance at step 0 (sample syn00000)\n")


@pytest.mark.parametrize("command, poisoned", [
    *((command, "syn00000") for command in CHECKPOINT_READERS),
    ("probe-unimodal", "syn00007"),
], ids=[*CHECKPOINT_READERS, "probe-unimodal-later-sample"])
def test_cli_overflow_while_scoring_exits_three_writing_nothing(tmp_path, capfd, command,
                                                               poisoned):
    """At the parent ``eval``, ``dump-edges`` and ``probe-unimodal`` exited 0
    on this set, ``eval`` with an MAE near 1e297 and ``dump-edges`` with
    ``Infinity`` in its JSONL.  Now each stops at the first overflow with
    exit 3 and one line naming the poisoned sample, also when it is not
    the first the probe fits, and leaves no output file."""
    manifest = _huge_feature_set(tmp_path, poisoned)
    ck, out = tmp_path / "ck.npz", tmp_path / "out" / "file"
    _eval_checkpoint(ck)
    rc = main([command, "--checkpoint", str(ck), "--data", str(manifest),
               *(a.format(out=out) for a in CHECKPOINT_READERS[command])])
    captured = capfd.readouterr()
    err = captured.err.splitlines()
    assert rc == 3 and captured.out == ""
    assert len(err) == 1 and re.fullmatch(TRAPPED_LINE.replace("syn00000", poisoned),
                                          err[0]), err
    assert not out.exists()


def test_cli_gradcheck_passes():
    assert main(["gradcheck", "--probes", "4"]) == 0


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("lambda1 = 0.9\nd = 4\nheads = 2\n")
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(cfg_file),
                              "--lambda1", "0.3", "--synthetic", "4"])
    cfg = _build_config(args)
    assert cfg.lambda1 == 0.3 and cfg.d == 4

    args = parser.parse_args(["train", "--config", str(cfg_file), "--synthetic", "4"])
    assert _build_config(args).lambda1 == 0.9


def test_cli_gradcheck_config_file_layers_on_its_base(tmp_path, monkeypatch):
    """A config file, like a flag, sets only the keys it names: gradcheck
    keeps its own small model (d=4, heads=2) under ``--config``."""
    cfg_file = tmp_path / "lr.cfg"
    cfg_file.write_text("lr = 0.001\n")
    seen = []
    monkeypatch.setattr(cli, "gradcheck", lambda config, **kw: seen.append(config)
                        or SimpleNamespace(lines=lambda: [], passed=True))
    assert main(["gradcheck", "--config", str(cfg_file)]) == 0
    assert main(["gradcheck", "--lr", "0.001"]) == 0
    assert seen == [replace(gradcheck_model_config(0), lr=0.001)] * 2


def test_cli_gradcheck_audits_the_seed_a_config_file_sets(tmp_path, capsys):
    """The audit batch and probes follow the model's seed, so a config file
    holding ``seed = 5`` audits what ``--seed 5`` audits."""
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text("seed = 5\n")
    printed = []
    for flags in (["--config", str(cfg_file)], ["--seed", "5"]):
        assert main(["gradcheck", "--probes", "3", *flags]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and printed[0].endswith("PASS\n")


def test_cli_toggle_flags():
    parser = build_parser()
    args = parser.parse_args(["train", "--synthetic", "4", "--no-fd", "--no-homogd",
                              "--no-ca", "--no-heterogd", "--seed", "7",
                              "--mode", "aligned"])
    cfg = _build_config(args)
    assert not (cfg.fd or cfg.homogd or cfg.ca or cfg.heterogd)
    assert cfg.seed == 7 and cfg.mode == "aligned"


# the config flags as scripts spell them: dest, type, choices; each
# defaults to None, so an absent flag leaves the config value alone
VALUE_FLAGS = {
    "--lambda1": ("lambda1", float, None), "--lambda2": ("lambda2", float, None),
    "--gamma": ("gamma", float, None), "--alpha": ("alpha", float, None),
    "--lr": ("lr", float, None), "--d": ("d", int, None), "--heads": ("heads", int, None),
    "--batch-size": ("batch_size", int, None), "--epochs": ("epochs", int, None),
    "--max-steps": ("max_steps", int, None), "--seed": ("seed", int, None),
    "--mode": ("mode", str, ("aligned", "unaligned")),
    "--edge-mode": ("edge_mode", str, ("squared", "abs")),
}
STAGE_FLAGS = {"--no-fd": "fd", "--no-homogd": "homogd", "--no-ca": "ca",
               "--no-heterogd": "heterogd"}
COMMAND_FLAGS = {"train": {"--data", "--synthetic", "--data-seed", "--out"},
                 "gradcheck": {"--probes", "--tol"}}


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_config_flags_are_one_per_field(command):
    """``train`` and ``gradcheck`` expose ``--config`` and one flag per
    TrainConfig field except ``out_dir``, spelled and typed as before."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.option_strings[0]: a for a in sub.choices[command]._actions
               if a.option_strings and a.option_strings[0] not in ("-h", *COMMAND_FLAGS[command])}
    assert set(actions) == {"--config", *VALUE_FLAGS, *STAGE_FLAGS}
    dests = sorted(a.dest for flag, a in actions.items() if flag != "--config")
    assert dests == sorted(f.name for f in fields(TrainConfig) if f.name != "out_dir")
    for flag, (dest, kind, choices) in VALUE_FLAGS.items():
        a = actions[flag]
        assert (a.dest, a.type or str, a.default) == (dest, kind, None), flag
        assert (tuple(a.choices) if a.choices else None) == choices, flag
    for flag, dest in STAGE_FLAGS.items():
        a = actions[flag]
        assert (a.dest, a.nargs, a.const, a.default) == (dest, 0, False, None), flag
    extra = ["--synthetic", "4"] if command == "train" else []
    args = build_parser().parse_args([command, *extra, "--no-ca"])
    assert args.ca is False and args.fd is None and args.lr is None


def _bench_module(name: str):
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(bench))


def _program_modules() -> SimpleNamespace:
    names = ("cli", "train", "model", "data", "decouple", "crossmodal", "fusion",
             "graph_distill", "tensor")
    return SimpleNamespace(**{n: importlib.import_module(f"modal_distill.{n}") for n in names})


def test_bench_wrapper_targets_exist():
    """Every attribute the benchmark's traced run wraps must exist where it
    looks for it, or ``bench/run.py --trace 1`` crashes."""
    instrument = _bench_module("instrument")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in instrument.targets(_program_modules())
               if attr not in vars(owner)]
    assert not missing, missing


def test_bench_span_contract_holds(tmp_path):
    """The traced benchmark fails a run unless each stage's spans fire
    exactly where that stage is on; its three command shapes must keep that
    contract: train with all stages on, train with all four off, and eval."""
    instrument, spans = _bench_module("instrument"), _bench_module("spans")
    md = _program_modules()
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--n", "12", "--seed", "1"]) == 0
    manifest = str(data / "manifest.csv")
    tiny = ["--data", manifest, "--d", "4", "--heads", "2", "--epochs", "1",
            "--batch-size", "4"]
    on = {"fd": True, "homogd": True, "ca": True, "heterogd": True}
    off = dict.fromkeys(on, False)
    runs = [
        ("train", on, ["train", *tiny, "--out", str(tmp_path / "on")]),
        ("train", off, ["train", *tiny, "--out", str(tmp_path / "off"),
                        "--no-fd", "--no-homogd", "--no-ca", "--no-heterogd"]),
        ("eval", on, ["eval", "--checkpoint", str(tmp_path / "on" / "checkpoint.npz"),
                      "--data", manifest, "--predictions", str(tmp_path / "preds.csv")]),
    ]
    for rep, (kind, stages, argv) in enumerate(runs):
        tracer = spans.Tracer()
        with tracer.installed(instrument.targets(md), rep=rep):
            assert md.cli.main(argv) == 0
        expected = instrument.expected_spans(kind, **stages)
        assert instrument.check_expected(tracer.spans, expected) == [], argv


# ---- graph lifetime ----


def _live_tensors(graph_only: bool) -> int:
    """Live tensors, or only the graph nodes among them (those with parents)."""
    return sum(1 for o in gc.get_objects()
               if isinstance(o, Tensor) and (o._parents or not graph_only))


@pytest.mark.parametrize("entry", ["train", "predict_scores", "dump_edges",
                                   "collect_features"])
def test_no_graph_is_alive_when_a_forward_starts(entry, monkeypatch):
    """Each batch's graph is freed before the next forward builds another,
    so no interior node is alive when a training forward starts.  The walks
    record no graph, so for them no tensor at all may outlive its batch:
    when a forward starts, the live tensors are those alive before the
    walk (the model's parameters, and other tests' module-level models)."""
    samples = generate(12, seed=4, config=small_world())
    cfg = tiny_config(batch_size=4)
    model = Model(cfg, dict(SMALL_RAW))
    run = {
        "train": lambda: train(cfg, samples),
        "predict_scores": lambda: predict_scores(model, samples),
        "dump_edges": lambda: dump_edges(model, samples),
        "collect_features": lambda: collect_features(model, samples),
    }[entry]
    # train builds its own model, whose parameters are alive throughout
    graph_only = entry == "train"
    counts = []
    encode = Model.encode

    def counting_encode(self, batch):
        counts.append(_live_tensors(graph_only))
        return encode(self, batch)

    gc.collect()  # garbage left by earlier tests is not this run's
    start = 0 if graph_only else _live_tensors(graph_only)
    monkeypatch.setattr(Model, "encode", counting_encode)
    run()
    assert len(counts) >= 3 and counts == [start] * len(counts)


# ---- the tape-free walk ----


def _requires_grad(model: Model) -> set[bool]:
    return {p.requires_grad for p in model.parameters().values()}


def test_scoring_records_no_tape_and_restores_the_flags(monkeypatch):
    """``forward_batch`` runs under the walk as it does in training, but
    with no parameter requiring grad its total has no parents; afterwards
    every parameter requires grad again."""
    samples = generate(12, seed=4, config=small_world())
    model = Model(tiny_config(batch_size=4), dict(SMALL_RAW))
    totals = []
    forward = Model.forward_batch

    def recording_forward(self, batch, replay=None):
        out = forward(self, batch, replay)
        totals.append(out.total)
        return out

    monkeypatch.setattr(Model, "forward_batch", recording_forward)
    predict_scores(model, samples)
    assert len(totals) == 3
    assert all(t._parents == () and not t.requires_grad for t in totals)
    assert _requires_grad(model) == {True}


@pytest.mark.parametrize("failure", ["read", "numeric"])
def test_walk_restores_the_flags_when_it_raises(failure):
    """A walk that stops part-way, in its reader or on a batch that
    overflows, leaves every parameter requiring grad as before."""
    samples = generate(12, seed=4, config=small_world())
    model = Model(tiny_config(batch_size=4), dict(SMALL_RAW))
    if failure == "read":
        seen = []

        def read(batch):
            seen.append(_requires_grad(model))
            if len(seen) == 2:
                raise RuntimeError("read failed")
            return batch.ids

        with pytest.raises(RuntimeError, match="read failed"):
            _walk(model, samples, None, read)
        assert seen == [{False}, {False}]
    else:
        with pytest.raises(NumericError, match="at batch 0 "):
            predict_scores(model, _poisoned(samples))
    assert _requires_grad(model) == {True}


def test_a_scored_model_steps_like_a_fresh_one():
    """Scoring leaves nothing behind that a training step reads: one
    backward after a full scoring walk fills ``table.grad`` exactly as it
    does on a model that never scored."""
    samples = generate(12, seed=4, config=small_world())
    cfg = tiny_config(batch_size=4)
    batch = make_batch(samples[:4], mode=cfg.mode)
    grads = []
    for scored in (True, False):
        model = Model(cfg, dict(SMALL_RAW))
        if scored:
            predict_scores(model, samples)
        model.forward_batch(batch).total.backward()
        grads.append(model.table.grad)
    assert grads[0].any()
    np.testing.assert_array_equal(grads[0], grads[1])


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0


def test_cli_module_entry_point_exit_codes():
    """``python -m modal_distill.cli`` runs ``entry``: ``--help`` exits 0,
    and an unknown subcommand exits 1 with one stderr line."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "modal_distill.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: modal-distill")
    assert shown.stderr == ""
    unknown = run("frobnicate")
    assert unknown.returncode == 1 and unknown.stdout == ""
    assert len(unknown.stderr.splitlines()) == 1, unknown.stderr
    assert unknown.stderr.startswith("error: modal-distill: argument command: invalid choice")
