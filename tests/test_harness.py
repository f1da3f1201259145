"""Harness tests: config parsing, metrics fixtures, the optimizer, training
loop behavior, checkpoints, probes, and the CLI."""

import argparse
import ast
import gc
import importlib
import json
import logging
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from modal_distill.checkpoint import load_checkpoint, save_checkpoint
from modal_distill.cli import _build_config, build_parser, main
from modal_distill.config import TrainConfig, apply_overrides, load_config
from modal_distill.data import (
    Modality,
    SyntheticConfig,
    generate,
    make_batch,
    save_dataset,
    split_dataset,
)
from modal_distill.errors import ConfigError, DataError, NumericError
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
    model_from_checkpoint,
    predict_scores,
    probe_unimodal,
    train,
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
    opt = Adam({"x": x}, lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        loss = tsum((x - 1.0) * (x - 1.0))
        loss.backward()
        opt.step()
    assert np.allclose(x.data, [1.0, 1.0], atol=1e-3)


def test_adam_leaves_gradless_params_untouched():
    x = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.5)
    opt.zero_grad()
    opt.step()
    assert np.array_equal(x.data, [2.0])


ALL_STAGES_OFF = dict(fd=False, homogd=False, ca=False, heterogd=False)


@pytest.mark.parametrize("stages, n_gradless", [({}, 0), (ALL_STAGES_OFF, 66)],
                         ids=["all_on", "all_off"])
def test_adam_matches_per_tensor_reference(stages, n_gradless):
    """Twenty steps with real gradients and a new lr before each, as
    ``train`` runs them: every parameter and every moment slice of the arena
    Adam equals the per-tensor oracle's bit for bit."""
    cfg = TrainConfig(**stages)
    model = Model(cfg)
    params, twin = model.parameters(), Model(cfg).parameters()
    opt = Adam(params, lr=cfg.lr)
    ref = ReferenceAdam(twin, lr=cfg.lr)
    samples = generate(16, seed=3)
    n_steps = 20
    for step in range(n_steps):
        batch = make_batch(samples[4 * (step % 4):4 * (step % 4) + 4], mode=cfg.mode)
        opt.zero_grad()
        model.forward_batch(batch).total.backward()
        assert sum(p.grad is None for p in params.values()) == n_gradless
        for name, p in params.items():
            twin[name].grad = p.grad
        opt.lr = ref.lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / n_steps))
        opt.step()
        ref.step()
    for name, lo, hi in zip(params, opt.bounds, opt.bounds[1:]):
        assert np.array_equal(params[name].data, twin[name].data), name
        assert np.array_equal(opt.m[lo:hi], ref.m[name].ravel()), name
        assert np.array_equal(opt.v[lo:hi], ref.v[name].ravel()), name
        assert np.shares_memory(params[name].data, opt.arena), name


def test_adam_non_finite_gradient_changes_nothing():
    params = Model(tiny_config(), dict(SMALL_RAW)).parameters()
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    before = opt.arena.copy(), opt.m.copy(), opt.v.copy()
    names = list(params)
    first, later = names[len(names) // 2], names[-1]
    for p in params.values():
        p.grad = np.full_like(p.data, 0.5)
    params[later].grad.flat[0] = np.inf
    params[first].grad.flat[-1] = np.nan
    with pytest.raises(NumericError, match=re.escape(
            f"non-finite gradient of parameter {first} at optimizer step 2")):
        opt.step()
    assert opt.t == 1
    for kept, now in zip(before, (opt.arena, opt.m, opt.v)):
        assert np.array_equal(kept, now)


def test_adam_non_finite_update_names_parameter():
    params = Model(tiny_config(), dict(SMALL_RAW)).parameters()
    opt = Adam(params, lr=0.1)
    name = list(params)[3]
    params[name].data.flat[0] = np.inf
    with pytest.raises(NumericError, match=re.escape(
            f"non-finite updated value of parameter {name} at optimizer step 1")):
        opt.step()


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
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="step"):
            train(cfg, samples, split=False)


def test_train_rejects_empty_dataset():
    with pytest.raises(DataError):
        train(tiny_config(), [])


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


def test_checkpoint_appends_npz_suffix(tmp_path):
    out = save_checkpoint(tmp_path / "plain", {"w": Tensor(np.ones(2))}, tiny_config())
    assert out.exists() and out.name == "plain"


def _eval_checkpoint(path, config_extra=None):
    """Save an untrained default-dims model to ``path``, with ``config_extra``
    merged into its stored config."""
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


def test_checkpoint_with_retired_config_key_loads(tmp_path):
    path = tmp_path / "old.npz"
    cfg = _eval_checkpoint(path, {"detach_teacher": True, "data_manifest": "",
                                  "lr_schedule": "cosine", "ca_layers": 1, "conv_width": 3})
    assert load_checkpoint(path)[1] == cfg
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 0


def test_eval_of_single_class_batches_logs_no_warning(tmp_path, caplog):
    """Batches of one sample hold one class, so the margin loss has no
    triplet; eval trains nothing and must not warn about it."""
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path, {"batch_size": 1})
    with caplog.at_level("WARNING"):
        assert main(["eval", "--checkpoint", str(path), "--synthetic", "3"]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


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


def test_nan_weight_fails_at_step_zero(monkeypatch):
    import modal_distill.train as train_mod

    class PoisonedModel(Model):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            self.parameters()["private_encoder.L.first.weight"].data[0, 0] = np.nan

    monkeypatch.setattr(train_mod, "Model", PoisonedModel)
    samples = generate(8, seed=2, config=small_world())
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="at step 0 "):
            train(tiny_config(max_steps=3), samples, split=False)


def test_checkpoint_accepts_int_for_float_field(tmp_path):
    path = tmp_path / "int_lr.npz"
    _eval_checkpoint(path, {"lr": 1})
    cfg = load_checkpoint(path)[1]
    assert cfg.lr == 1.0 and type(cfg.lr) is float


def test_corrupt_or_truncated_checkpoint_exits_two(tmp_path):
    path = tmp_path / "ck.npz"
    _eval_checkpoint(path)
    raw = path.read_bytes()
    for name, content in (("truncated", raw[:len(raw) // 2]), ("garbage", b"not a zip" * 50)):
        bad = tmp_path / f"{name}.npz"
        bad.write_bytes(content)
        with pytest.raises(DataError, match="corrupt or truncated"):
            load_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad), "--synthetic", "4"]) == 2


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
    params, _, _ = load_checkpoint(path)
    np.testing.assert_array_equal(params["w"], good["w"].data)
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
    assert report.n_fit + report.n_eval == len(samples)


def test_probe_multiclass_separable_oracle():
    rng = np.random.default_rng(0)
    centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])
    classes = np.repeat([0, 1, 2], 40)
    feats = centers[classes] + 0.1 * rng.standard_normal((120, 2))
    assert probe_multiclass_accuracy(feats, classes, seed=0) == 1.0


def test_dump_edges_records(tmp_path):
    result, samples = _trained_tiny()
    out = tmp_path / "edges.jsonl"
    records = dump_edges(result.model, samples, out_path=out, batch_size=8)
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
    write the same bytes as with one."""
    data, out, preds = tmp_path / "data", tmp_path / "run", tmp_path / "preds.csv"
    manifest = data / "manifest.csv"
    forks = count_forks(monkeypatch)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        assert main(["gen-data", "--n", "48", "--seed", "2", "--out", str(data)]) == 0
        tree = [(p.relative_to(data), p.read_bytes())
                for p in sorted(data.rglob("*")) if p.is_file()]
        assert main(["train", "--data", str(manifest), "--epochs", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        log = (out / "train_log.jsonl").read_bytes()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"), "--data",
                     str(manifest), "--predictions", str(preds)]) == 0
        runs.append((tree, capsys.readouterr().out, log, preds.read_bytes()))
    assert len(forks) == 3  # one per write and per load with two cores
    assert len(runs[0][0]) == 1 + 3 * 48 and runs[0] == runs[1]


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


def test_cli_manifest_with_duplicate_id_exits_two(tmp_path):
    manifest = save_dataset(generate(3, 0), tmp_path / "data")
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[2]]) + "\n")
    assert main(["train", "--data", str(manifest), "--epochs", "1",
                 "--out", str(tmp_path / "run")]) == 2


def test_cli_numeric_failures_exit_three():
    # a positive tolerance no finite difference can meet
    assert main(["gradcheck", "--probes", "2", "--tol", "1e-300"]) == 3


def test_eval_of_checkpoint_with_nan_parameter_exits_three(tmp_path, capsys):
    path = tmp_path / "nan.npz"
    cfg = tiny_config()
    model = Model(cfg)
    model.parameters()["fusion.head.first.weight"].data[0, 0] = np.nan
    save_checkpoint(path, model.parameters(), cfg,
                    {"raw_dims": {m.tag: d for m, d in model.raw_dims.items()}})
    with np.errstate(all="ignore"):
        rc = main(["eval", "--checkpoint", str(path), "--synthetic", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numeric error: 4 of 4 scores are non-finite")
    assert len(err.splitlines()) == 1


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
# which a feature file's path (in a forked writer's share) is a directory
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
]


@pytest.mark.parametrize("argv,code,needle", BAD_INVOCATIONS,
                         ids=[row[0].split(" {")[0] for row in BAD_INVOCATIONS])
def test_cli_bad_invocation_is_one_error_line(tmp_path, capsys, monkeypatch, argv, code,
                                              needle):
    """Each bad invocation fails with one error line before any forward
    pass, and prints nothing to stdout."""
    paths = {"dir": tmp_path / "d", "file": tmp_path / "f.txt", "ck": tmp_path / "ck.npz",
             "empty": "", "blocked": tmp_path / "b"}
    monkeypatch.chdir(tmp_path)  # an empty path must not reach the working directory
    paths["dir"].mkdir()
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
    """A non-finite gradient in the second epoch stops training with exit
    code 3 before any update, and the first epoch's best checkpoint stays
    as it was written."""
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
            models[0].parameters()["fusion.head.first.weight"].grad[0, 0] = np.nan

    monkeypatch.setattr(train_mod, "Model", CapturedModel)
    monkeypatch.setattr(Tensor, "backward", poisoning_backward)
    rc = main(["train", "--synthetic", "12", "--d", "4", "--heads", "2", "--epochs", "3",
               "--batch-size", "4", "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "non-finite gradient of parameter fusion.head.first.weight" in capsys.readouterr().err
    assert len(saved) == 1 and ckpt.read_bytes() == saved[0]


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


def _live_graph_nodes() -> int:
    return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._parents)


@pytest.mark.parametrize("entry", ["train", "predict_scores", "dump_edges",
                                   "collect_features"])
def test_no_graph_is_alive_when_a_forward_starts(entry, monkeypatch):
    """Each batch's graph is freed before the next forward builds another,
    so no interior node is alive when a forward starts."""
    samples = generate(12, seed=4, config=small_world())
    cfg = tiny_config(batch_size=4)
    model = Model(cfg, dict(SMALL_RAW))
    run = {
        "train": lambda: train(cfg, samples),
        "predict_scores": lambda: predict_scores(model, samples),
        "dump_edges": lambda: dump_edges(model, samples),
        "collect_features": lambda: collect_features(model, samples),
    }[entry]
    counts = []
    encode = Model.encode

    def counting_encode(self, batch):
        counts.append(_live_graph_nodes())
        return encode(self, batch)

    gc.collect()  # garbage left by earlier tests is not this run's
    monkeypatch.setattr(Model, "encode", counting_encode)
    run()
    assert len(counts) >= 3 and counts == [0] * len(counts)


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0
