"""Harness tests: config parsing, metrics fixtures, the optimizer, training
loop behavior, checkpoints, probes, and the CLI."""

import gc
import importlib
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from modal_distill.checkpoint import load_checkpoint, save_checkpoint
from modal_distill.cli import _build_config, build_parser, main
from modal_distill.config import TrainConfig, apply_overrides, load_config
from modal_distill.data import Modality, SyntheticConfig, generate
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

from conftest import probe_multiclass_accuracy

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
    ("conv_width", 2), ("ca_layers", 0), ("lr_schedule", "step"),
    ("d", 0),
])
def test_validate_rejects_bad_values(field, value):
    cfg = TrainConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError):
        cfg.validate()


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
    bad.write_text("unknown_knob = 3\n")
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


def test_adam_rejects_bad_lr():
    with pytest.raises(ConfigError):
        Adam({}, lr=0.0)


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
    cfg = tiny_config(lr=1e80, lr_schedule="constant", max_steps=30)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="step"):
            train(cfg, samples, split=False)


def test_train_rejects_empty_dataset():
    with pytest.raises(DataError):
        train(tiny_config(), [])


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
    cfg = _eval_checkpoint(path, {"detach_teacher": True, "data_manifest": ""})
    assert load_checkpoint(path)[1] == cfg
    assert main(["eval", "--checkpoint", str(path), "--synthetic", "4"]) == 0


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


def test_cli_usage_errors_exit_one(tmp_path):
    assert main([]) == 1
    assert main(["train", "--not-a-flag"]) == 1
    assert main(["train", "--d", "4", "--heads", "2"]) == 1  # no data source
    assert main(["train", "--synthetic", "4", "--no-fd"]) == 1  # homogd needs fd


def test_cli_data_errors_exit_two(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "absent.npz"),
                 "--synthetic", "4"]) == 2


def test_cli_numeric_failures_exit_three():
    assert main(["gradcheck", "--probes", "2", "--tol", "-1"]) == 3


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
