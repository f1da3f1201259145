"""Training harness: Adam, metrics, the training loop, gradient checking,
edge-weight dumps, and linear probes over pooled features."""

from __future__ import annotations

import contextlib
import json
import math
import traceback
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig
from .data import MODALITIES, Batch, Modality, Sample, SyntheticConfig, batches, generate, make_batch, split_dataset
from .errors import ConfigError, DataError, NumericError
from .fusion import bin7
from .graph_distill import EDGE_SOURCES
from .layers import ParamTable
from .model import COMPONENT_NAMES, Model, StepOutput
from .tensor import Tensor, mul, tsum


# ---- optimizer ----


class Adam:
    """Adam with bias correction over a whole ``ParamTable``.

    The ``m`` and ``v`` updates and the parameter update are whole-table
    ufuncs that run the per-tensor expressions in the same order, so every
    parameter is bit-identical to updating each tensor on its own.  The
    table holds only what the config trains; a parameter no backward has
    reached yet has a gradient, ``m`` and ``v`` of exactly 0, and moves by
    exactly 0."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, table: ParamTable, lr: float):
        self.table = table
        self.lr = lr
        self.t = 0
        self.m = np.zeros(table.flat.size)
        self.v = np.zeros(table.flat.size)

    def zero_grad(self) -> None:
        self.table.grad[...] = 0.0

    def step(self) -> None:
        """One update of the whole table.  Not atomic: a ``NumericError``
        raised inside it (under ``_trapped``) can leave ``m``/``v``
        stepped, so the optimizer must then be discarded, as ``train``
        discards it with its model."""
        self.t = t = self.t + 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        g, m, v, flat = self.table.grad, self.m, self.v, self.table.flat
        # m = b1 * m + (1 - b1) * g
        m *= b1
        tmp = np.multiply(g, 1.0 - b1)
        m += tmp
        # v = b2 * v + (1 - b2) * (g * g)
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        # flat = flat - lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        update = np.divide(m, bc1)
        update *= self.lr
        update /= tmp
        flat -= update


# ---- metrics ----


@dataclass
class MetricsReport:
    acc7: float
    acc2: float
    f1: float
    mae: float
    n: int

    def to_dict(self) -> dict:
        return {"acc7": self.acc7, "acc2": self.acc2, "f1": self.f1,
                "mae": self.mae, "n": self.n}


def binary_f1(pred_pos: np.ndarray, true_pos: np.ndarray) -> float:
    """F1 of the positive class; the degenerate all-negative perfect case
    (no TP, FP, or FN) counts as 1."""
    pred_pos = np.asarray(pred_pos, dtype=bool)
    true_pos = np.asarray(true_pos, dtype=bool)
    tp = int(np.sum(pred_pos & true_pos))
    fp = int(np.sum(pred_pos & ~true_pos))
    fn = int(np.sum(~pred_pos & true_pos))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2.0 * tp / denom


def compute_metrics(scores: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """ACC7 over ``bin7`` classes, ACC2 and F1 over the ``>= 0`` split, and
    MAE."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise DataError(f"metrics need matching non-empty 1-d arrays, got {scores.shape} vs {labels.shape}")
    pred_pos = scores >= 0
    true_pos = labels >= 0
    return MetricsReport(
        acc7=float(np.mean(bin7(scores) == bin7(labels))),
        acc2=float(np.mean(pred_pos == true_pos)),
        f1=binary_f1(pred_pos, true_pos),
        mae=float(np.mean(np.abs(scores - labels))),
        n=scores.size,
    )


# ---- evaluation ----


@contextlib.contextmanager
def _trapped(where: str, first_id: str, replay: tuple[Callable, Batch] | None = None):
    """Run the block with numpy raising on overflow, invalid values and
    division by zero, not underflow (masked attention keys underflow to 0),
    and re-raise the error as ``NumericError`` naming numpy's message, the
    innermost package function, ``where`` and the block's first sample.  A
    fresh ``errstate`` per call nests on numpy 1.x.  With ``replay``, a
    ``(forward, batch)`` pair, ``forward`` reruns on each sample of
    ``batch`` alone under the same policy, and the first that raises alone
    is named instead; none does when the failure is in the backward, in
    Adam or in a loss that couples the batch."""
    policy = dict(over="raise", invalid="raise", divide="raise", under="ignore")
    try:
        with np.errstate(**policy):
            yield
    except FloatingPointError as exc:
        frame = [f for f, _ in traceback.walk_tb(exc.__traceback__)
                 if f.f_globals.get("__name__", "").startswith(f"{__package__}.")][-1]
        name = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)  # 3.10: co_name
        sample = f"first sample {first_id}"
        if replay is not None:
            forward, batch = replay
            for alone in batch.alone():
                try:
                    with np.errstate(**policy):
                        forward(alone)
                except FloatingPointError:
                    sample = f"sample {alone.ids[0]}"
                    break
        raise NumericError(f"{exc} in {frame.f_globals['__name__'].rpartition('.')[2]}.{name} "
                           f"at {where} ({sample})") from exc


def _walk(model: Model, samples: list[Sample], batch_size: int | None, read) -> list:
    """``read(batch)``, under ``_trapped``, for each batch of ``samples`` in
    order (batches of ``batch_size``, by default the model's), with no tape:
    no parameter requires grad until the walk ends, however it ends, so each
    op keeps its value but no parents or closure.  ``read`` returns plain
    arrays."""
    if not samples:
        raise DataError("no samples to score")
    params = model.parameters().values()
    out = []
    try:
        for p in params:
            p.requires_grad = False
        for i, batch in enumerate(batches(samples, batch_size or model.config.batch_size,
                                          mode=model.config.mode, shuffle=False)):
            with _trapped(f"batch {i}", batch.ids[0], (read, batch)):
                out.append(read(batch))
    finally:
        for p in params:
            p.requires_grad = True
    return out


def predict_scores(model: Model, samples: list[Sample],
                   batch_size: int | None = None) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids, scores, labels = zip(*_walk(model, samples, batch_size, lambda batch: (
        batch.ids, model.forward_batch(batch).preds, batch.labels)))
    return [i for part in ids for i in part], np.concatenate(scores), np.concatenate(labels)


def evaluate(model: Model, samples: list[Sample]
             ) -> tuple[MetricsReport, tuple[list[str], np.ndarray, np.ndarray]]:
    """Metrics over ``samples``, and the ``(ids, scores, labels)`` they were
    computed from, from one scoring pass."""
    scored = predict_scores(model, samples)
    return compute_metrics(scored[1], scored[2]), scored


# ---- training loop ----


@dataclass
class TrainResult:
    model: Model
    history: list[dict]
    steps: int
    best_val_mae: float | None
    # a copy of ``model.table.flat`` at the best val MAE, and the step it is
    # from; None without a validation split
    best_params: np.ndarray | None
    best_step: int | None
    checkpoint_path: Path | None
    log_path: Path | None
    splits: tuple[list[Sample], list[Sample], list[Sample]]

    def kept_model(self) -> Model:
        """The model the checkpoint holds: the best-validation parameters
        where there was a validation split, else the final ones."""
        if self.best_params is None:
            return self.model
        model = Model(self.model.config, self.model.raw_dims)
        model.table.flat[...] = self.best_params
        return model


def _infer_raw_dims(samples: list[Sample]) -> dict[Modality, int]:
    return {m: samples[0].features[m].shape[1] for m in MODALITIES}


def _step_record(step: int, epoch: int, out: StepOutput) -> dict:
    return {"event": "step", "step": step, "epoch": epoch,
            **out.scalars(), "n_triplets": out.n_triplets,
            "homo": out.homo.record() if out.homo else None,
            "hetero": out.hetero.record() if out.hetero else None}


def train(config: TrainConfig, samples: list[Sample], split: bool = True) -> TrainResult:
    """Run the optimization loop and return the final model plus history,
    and a copy of the parameters at the best validation MAE.

    With ``split`` the dataset is partitioned 70/15/15 and the checkpoint
    tracks best validation MAE; without it all samples train and the final
    parameters are checkpointed.  Artifacts (train_log.jsonl, checkpoint.npz)
    are written only when ``config.out_dir`` is set.
    """
    if not samples:
        raise DataError("training needs at least one sample")
    raw_dims = _infer_raw_dims(samples)
    model = Model(config, raw_dims)  # validates the config
    if split:
        train_s, val_s, test_s = split_dataset(samples, seed=config.seed)
    else:
        train_s, val_s, test_s = list(samples), [], []

    opt = Adam(model.table, lr=config.lr)

    out_dir = Path(config.out_dir) if config.out_dir else None
    log_fh = None
    log_path = checkpoint_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_path = out_dir / "train_log.jsonl"
        checkpoint_path = out_dir / "checkpoint.npz"
        # line-buffered: each record reaches the file as it is emitted
        log_fh = open(log_path, "w", buffering=1)

    extra_meta = {"raw_dims": {m.tag: raw_dims[m] for m in MODALITIES}}

    steps_per_epoch = math.ceil(len(train_s) / config.batch_size)
    total_steps = config.max_steps or config.epochs * steps_per_epoch
    n_epochs = math.ceil(total_steps / steps_per_epoch)

    def lr_at(step: int) -> float:
        return config.lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, total_steps)))

    history: list[dict] = []
    best_val_mae: float | None = None
    best_params: np.ndarray | None = None
    best_step: int | None = None
    step = 0

    def emit(record: dict) -> None:
        history.append(record)
        if log_fh is not None:
            log_fh.write(json.dumps(record) + "\n")

    def save(tag: str) -> None:
        if checkpoint_path is not None:
            meta = dict(extra_meta, step=step, tag=tag,
                        best_val_mae=best_val_mae)
            save_checkpoint(checkpoint_path, model.parameters(), config, meta)

    try:
        for epoch in range(n_epochs):
            for batch in batches(train_s, config.batch_size, mode=config.mode,
                                 seed=config.seed, epoch=epoch):
                with _trapped(f"step {step}", batch.ids[0], (model.forward_batch, batch)):
                    out = model.forward_batch(batch)
                    opt.zero_grad()
                    out.total.backward()
                    opt.lr = lr_at(step)
                    opt.step()
                emit(_step_record(step, epoch, out))
                del out  # frees this step's graph before the next one is built
                step += 1
                if step == total_steps:
                    break
            if val_s:
                report, _ = evaluate(model, val_s)
                emit({"event": "val", "epoch": epoch, "step": step,
                      **report.to_dict()})
                if best_val_mae is None or report.mae < best_val_mae:
                    best_val_mae, best_step = report.mae, step
                    best_params = model.table.flat.copy()
                    save("best_val")
        if not val_s:
            save("final")
    finally:
        if log_fh is not None:
            log_fh.close()

    return TrainResult(model=model, history=history, steps=step,
                       best_val_mae=best_val_mae, best_params=best_params,
                       best_step=best_step, checkpoint_path=checkpoint_path,
                       log_path=log_path, splits=(train_s, val_s, test_s))


def model_from_checkpoint(path: str | Path) -> tuple[Model, TrainConfig, dict]:
    params, config, extra = load_checkpoint(path)
    dims_meta = extra.get("raw_dims")
    tags = sorted(m.tag for m in MODALITIES)
    if (not isinstance(dims_meta, dict) or sorted(dims_meta) != tags
            or any(type(d) is not int or d < 1 for d in dims_meta.values())):
        raise DataError(f"checkpoint {path}: raw feature dims must map {', '.join(tags)} "
                        f"to positive integers, got {dims_meta!r}")
    raw_dims = {Modality(tag): d for tag, d in dims_meta.items()}
    model = Model(config, raw_dims)
    model.table.load({name: a for name, a in params.items() if name not in model.off_names})
    return model, config, extra


# ---- gradient checking ----


@dataclass
class ComponentCheck:
    name: str
    max_rel_err: float
    worst_param: str
    passed: bool


@dataclass
class GradcheckReport:
    checks: list[ComponentCheck]
    teacher_path_grad: float
    gd_params_zero_when_lambda2_zero: bool
    passed: bool

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            out.append(f"{status:4s} {c.name:<11s} max rel err {c.max_rel_err:.3e}"
                       f"  (worst at {c.worst_param})")
        out.append(("ok  " if self.teacher_path_grad == 0.0 else "FAIL")
                   + f" teacher path gradient = {self.teacher_path_grad:.3e}")
        out.append(("ok  " if self.gd_params_zero_when_lambda2_zero else "FAIL")
                   + " distillation parameters get exactly zero gradient at lambda2=0")
        out.append("PASS" if self.passed else "FAIL")
        return out


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)


def gradcheck_data_config() -> SyntheticConfig:
    """A tiny world so finite differences stay fast: short sequences and
    small raw feature dims."""
    return SyntheticConfig(
        raw_dims={Modality.LANGUAGE: 6, Modality.VISION: 5, Modality.AUDIO: 4},
        z_shared_dim=4, z_private_dim=3,
        length_ranges={Modality.LANGUAGE: (3, 5), Modality.VISION: (2, 4),
                       Modality.AUDIO: (3, 5)},
    )


def gradcheck_model_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(d=4, heads=2, seed=seed)


def _gradcheck_batch(data_config: SyntheticConfig, seed: int) -> Batch:
    # draw 12 samples and keep a class-diverse subset of 3 so the margin
    # term always has triplets to differentiate
    pool = generate(12, seed, data_config)
    chosen: list[Sample] = []
    seen_bins: set[int] = set()
    for s, b in zip(pool, bin7([s.label for s in pool]).tolist()):
        if b not in seen_bins or len(seen_bins) > 1:
            chosen.append(s)
            seen_bins.add(b)
        if len(chosen) == 3:
            break
    return make_batch(chosen, mode="unaligned")


def gradcheck(config: TrainConfig | None = None, n_probes: int = 20,
              seed: int = 0, tol: float = 1e-4) -> GradcheckReport:
    """Compare backprop gradients of every loss component against central
    finite differences at ``n_probes`` random parameter coordinates.

    Finite differences replay the base pass, with its gate inputs and
    teacher logits held constant, which is exactly the function backprop
    differentiates (both are constants on the live pass).
    """
    if n_probes < 1:
        raise ConfigError(f"gradcheck needs n_probes >= 1, got {n_probes}")
    if not tol > 0:
        raise ConfigError(f"gradcheck needs tol > 0, got {tol}")
    if config is None:
        config = gradcheck_model_config(seed)
    h = 1e-5  # central-difference step
    data_config = gradcheck_data_config()
    batch = _gradcheck_batch(data_config, seed)
    model = Model(config, dict(data_config.raw_dims))
    params = model.parameters()

    base = model.forward_batch(batch)

    # sorted names keep the probes independent of parameter registration order
    coords = [(k, i) for k in sorted(params) for i in range(params[k].data.size)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(coords), size=min(n_probes, len(coords)), replace=False)
    probes = [coords[int(p)] for p in np.sort(picks)]

    plus_vals: list[dict[str, float]] = []
    minus_vals: list[dict[str, float]] = []
    for pname, offset in probes:
        buf = params[pname].data
        original = buf.flat[offset]
        buf.flat[offset] = original + h
        plus_vals.append(model.forward_batch(batch, replay=base).scalars())
        buf.flat[offset] = original - h
        minus_vals.append(model.forward_batch(batch, replay=base).scalars())
        buf.flat[offset] = original

    checks: list[ComponentCheck] = []
    for cname in COMPONENT_NAMES:
        model.table.grad[...] = 0.0
        out = model.forward_batch(batch, replay=base)
        comp = out.components[cname]
        if comp.requires_grad:
            comp.backward()
        worst_err, worst_param = 0.0, "-"
        for k, (pname, offset) in enumerate(probes):
            analytic = float(params[pname].grad.flat[offset])
            numeric = (plus_vals[k][cname] - minus_vals[k][cname]) / (2.0 * h)
            err = _rel_err(analytic, numeric)
            if err > worst_err:
                worst_err, worst_param = err, f"{pname}[{offset}]"
        checks.append(ComponentCheck(name=cname, max_rel_err=worst_err,
                                     worst_param=worst_param,
                                     passed=worst_err < tol))

    teacher_grad = _teacher_path_grad(model, seed)
    gd_zero = _gd_params_zero_at_lambda2_zero(config, batch)

    passed = all(c.passed for c in checks) and gd_zero and teacher_grad == 0.0
    return GradcheckReport(checks=checks, teacher_path_grad=teacher_grad,
                           gd_params_zero_when_lambda2_zero=gd_zero, passed=passed)


def _teacher_path_grad(model: Model, seed: int) -> float:
    """Gradient magnitude reaching a teacher's features through its outgoing
    distillation edges; exactly zero because teacher logits are constants."""
    rng = np.random.default_rng(seed + 1)
    d = model.config.d
    feats = {m: Tensor(rng.standard_normal((1, d)), requires_grad=True)
             for m in MODALITIES}
    edges = model.homo_gd.distill_batch(feats).edges
    teacher = 0
    tsum(mul(edges, Tensor(EDGE_SOURCES == teacher))).backward()
    g = feats[MODALITIES[teacher]].grad
    return 0.0 if g is None else float(np.max(np.abs(g)))


def _gd_params_zero_at_lambda2_zero(config: TrainConfig, batch: Batch) -> bool:
    cfg = replace(config, lambda2=0.0)
    raw_dims = {m: batch.features[m].shape[-1] for m in MODALITIES}
    model = Model(cfg, raw_dims)
    out = model.forward_batch(batch)
    out.total.backward()
    return not any(np.any(p.grad != 0.0) for name, p in model.parameters().items()
                   if name.startswith(("gd_homo", "gd_hetero")))


# ---- edge dumping ----


def dump_edges(model: Model, samples: list[Sample],
               out_path: str | Path | None = None) -> list[dict]:
    """Record per-batch distillation graphs (weights, discrepancies, logits)
    as JSONL-ready dicts, one record per active space per batch."""
    per_batch = _walk(model, samples, None, lambda batch: [
        None if unit is None else unit.record() for unit in model.distill(model.encode(batch))])
    records = [{"step": step, "space": space, **record}
               for step, units in enumerate(per_batch)
               for space, record in zip(("homo", "hetero"), units) if record is not None]
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    return records


# ---- linear probes ----


def standardize(fit_x: np.ndarray, *others: np.ndarray) -> tuple[np.ndarray, ...]:
    """Z-score using the fit rows' statistics so probes are scale-invariant."""
    mean = fit_x.mean(axis=0)
    std = fit_x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return tuple((arr - mean) / std for arr in (fit_x, *others))


def fit_linear_probe(x: np.ndarray, targets: np.ndarray, reg: float = 1e-2) -> np.ndarray:
    """Ridge regression with a bias column; targets may be [n] or [n, k]."""
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = xb.T @ xb + reg * np.eye(xb.shape[1])
    return np.linalg.solve(gram, xb.T @ targets)


def probe_scores(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))]) @ w


def probe_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded 70/30 fit/eval split of ``n`` rows, each side non-empty."""
    if n < 2:
        raise DataError(f"probing needs at least 2 samples, got {n}")
    if seed < 0:
        raise ConfigError(f"probe seed must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    cut = max(1, min(n - 1, int(round(0.7 * n))))
    return perm[:cut], perm[cut:]


@dataclass
class ModalityProbe:
    acc2: float
    f1: float


@dataclass
class ProbeReport:
    per_modality: dict[str, ModalityProbe]
    mean_acc2: float
    std_acc2: float

    def lines(self) -> list[str]:
        out = [f"{tag}: acc2 {p.acc2:.4f}  f1 {p.f1:.4f}"
               for tag, p in self.per_modality.items()]
        out.append(f"mean acc2 {self.mean_acc2:.4f}  std {self.std_acc2:.4f}")
        return out


@dataclass
class FeatureBundle:
    """Pooled per-sample, per-modality streams for linear probing, in
    (L, V, A) order along the modality axis."""

    homo: np.ndarray      # [N, 3, d]; shared-space streams, or pooled shallow when fd is off
    hetero: np.ndarray    # [N, 3, 2d]; private-space streams, zero while that pathway is off
    labels: np.ndarray    # [N]


def collect_features(model: Model, samples: list[Sample]) -> FeatureBundle:
    def read(batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        enc = model.encode(batch)
        return (np.stack([enc.homo[m].data for m in MODALITIES], axis=1),
                np.stack([enc.hetero[m].data for m in MODALITIES], axis=1), batch.labels)

    homo, hetero, labels = zip(*_walk(model, samples, None, read))
    return FeatureBundle(homo=np.concatenate(homo), hetero=np.concatenate(hetero),
                         labels=np.concatenate(labels))


def probe_unimodal(model: Model, samples: list[Sample], seed: int = 0) -> ProbeReport:
    """Fit a binary (non-negative vs negative) ridge probe per modality on
    the pooled shared-space features and report held-out ACC2/F1."""
    tr, ev = probe_split(len(samples), seed)
    bundle = collect_features(model, samples)
    true_pos = bundle.labels >= 0
    per_modality: dict[str, ModalityProbe] = {}
    accs = []
    for k, m in enumerate(MODALITIES):
        feats = bundle.homo[:, k, :]
        target = np.where(true_pos, 1.0, -1.0)
        with _trapped(f"the {m.tag} probe", samples[0].id):
            fit_x, eval_x = standardize(feats[tr], feats[ev])
            w = fit_linear_probe(fit_x, target[tr])
            pred_pos = probe_scores(eval_x, w) >= 0
        acc = float(np.mean(pred_pos == true_pos[ev]))
        per_modality[m.tag] = ModalityProbe(
            acc2=acc, f1=binary_f1(pred_pos, true_pos[ev]))
        accs.append(acc)
    return ProbeReport(per_modality=per_modality,
                       mean_acc2=float(np.mean(accs)),
                       std_acc2=float(np.std(accs)))
