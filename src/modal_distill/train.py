"""Training harness: Adam, metrics, the training loop, gradient checking,
edge-weight dumps, and linear probes over pooled features."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig
from .data import MODALITIES, Batch, Modality, Sample, SyntheticConfig, batches, generate, make_batch, split_dataset
from .errors import ConfigError, DataError, NumericError
from .fusion import bin7, non_negative
from .graph_distill import EDGE_SOURCES
from .model import COMPONENT_NAMES, Model, StepOutput
from .tensor import Tensor, mul, tsum

log = logging.getLogger(__name__)


# ---- optimizer ----


class Adam:
    """Adam with bias correction.  Parameters with no gradient this step are
    treated as having a zero gradient, so the update schedule (and therefore
    any bitwise reproduction of a run) never depends on which loss terms
    happened to touch which parameters."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for key, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            v = self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


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
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise DataError(f"metrics need matching non-empty 1-d arrays, got {scores.shape} vs {labels.shape}")
    pred7 = np.array([bin7(s) for s in scores])
    true7 = np.array([bin7(y) for y in labels])
    pred_pos = np.array([non_negative(s) for s in scores])
    true_pos = np.array([non_negative(y) for y in labels])
    return MetricsReport(
        acc7=float(np.mean(pred7 == true7)),
        acc2=float(np.mean(pred_pos == true_pos)),
        f1=binary_f1(pred_pos, true_pos),
        mae=float(np.mean(np.abs(scores - labels))),
        n=scores.size,
    )


# ---- evaluation ----


def predict_scores(model: Model, samples: list[Sample],
                   batch_size: int | None = None) -> tuple[list[str], np.ndarray, np.ndarray]:
    if not samples:
        raise DataError("no samples to evaluate")
    bs = batch_size or model.config.batch_size
    ids: list[str] = []
    scores: list[float] = []
    labels: list[float] = []
    for batch in batches(samples, bs, mode=model.config.mode, shuffle=False):
        # keep no reference to the graph, so it is freed before the next
        # batch's forward builds another
        scores.extend(model.forward_batch(batch).scores())
        ids.extend(batch.ids)
        labels.extend(batch.labels.tolist())
    return ids, np.array(scores), np.array(labels)


def evaluate(model: Model, samples: list[Sample], batch_size: int | None = None
             ) -> tuple[MetricsReport, tuple[list[str], np.ndarray, np.ndarray]]:
    """Metrics over ``samples``, and the ``(ids, scores, labels)`` they were
    computed from, from one scoring pass."""
    scored = predict_scores(model, samples, batch_size)
    return compute_metrics(scored[1], scored[2]), scored


# ---- training loop ----


@dataclass
class TrainResult:
    model: Model
    history: list[dict]
    steps: int
    best_val_mae: float | None
    final_train: MetricsReport
    checkpoint_path: Path | None
    log_path: Path | None
    splits: tuple[list[Sample], list[Sample], list[Sample]]


def _infer_raw_dims(samples: list[Sample]) -> dict[Modality, int]:
    return {m: samples[0].sequences[m].dim for m in MODALITIES}


def _step_record(step: int, epoch: int, out: StepOutput) -> dict:
    return {"event": "step", "step": step, "epoch": epoch,
            **out.scalars(), "n_triplets": out.n_triplets,
            "homo": out.homo.record() if out.homo else None,
            "hetero": out.hetero.record() if out.hetero else None}


def train(config: TrainConfig, samples: list[Sample],
          raw_dims: dict[Modality, int] | None = None,
          split: bool = True) -> TrainResult:
    """Run the optimization loop and return the final model plus history.

    With ``split`` the dataset is partitioned 70/15/15 and the checkpoint
    tracks best validation MAE; without it all samples train and the final
    parameters are checkpointed.  Artifacts (train_log.jsonl, checkpoint.npz)
    are written only when ``config.out_dir`` is set.
    """
    config.validate()
    if not samples:
        raise DataError("training needs at least one sample")
    if raw_dims is None:
        raw_dims = _infer_raw_dims(samples)
    if split:
        train_s, val_s, test_s = split_dataset(samples, seed=config.seed)
    else:
        train_s, val_s, test_s = list(samples), [], []
    if not train_s:
        raise DataError("empty training split")

    model = Model(config, raw_dims)
    opt = Adam(model.parameters(), lr=config.lr)

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
    if config.max_steps > 0:
        n_epochs = math.ceil(config.max_steps / steps_per_epoch)
        total_steps = config.max_steps
    else:
        n_epochs = config.epochs
        total_steps = n_epochs * steps_per_epoch

    def lr_at(step: int) -> float:
        if config.lr_schedule == "constant":
            return config.lr
        return config.lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, total_steps)))

    history: list[dict] = []
    best_val_mae: float | None = None
    last_finite: dict[str, float] = {}
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
        done = False
        for epoch in range(n_epochs):
            for batch in batches(train_s, config.batch_size, mode=config.mode,
                                 seed=config.seed, epoch=epoch):
                out = model.forward_batch(batch)
                total = float(out.total.data)
                if not np.isfinite(total):
                    raise NumericError(
                        f"non-finite total loss at step {step} "
                        f"(last finite components: {last_finite or 'none'})")
                last_finite = out.scalars()
                opt.zero_grad()
                out.total.backward()
                opt.lr = lr_at(step)
                opt.step()
                emit(_step_record(step, epoch, out))
                del out  # frees this step's graph before the next one is built
                step += 1
                if config.max_steps > 0 and step >= config.max_steps:
                    done = True
                    break
            if val_s:
                report, _ = evaluate(model, val_s)
                emit({"event": "val", "epoch": epoch, "step": step,
                      **report.to_dict()})
                if best_val_mae is None or report.mae < best_val_mae:
                    best_val_mae = report.mae
                    save("best_val")
            if done:
                break
        if not val_s:
            save("final")
    finally:
        if log_fh is not None:
            log_fh.close()

    final_train, _ = evaluate(model, train_s)
    return TrainResult(model=model, history=history, steps=step,
                       best_val_mae=best_val_mae, final_train=final_train,
                       checkpoint_path=checkpoint_path, log_path=log_path,
                       splits=(train_s, val_s, test_s))


def model_from_checkpoint(path: str | Path) -> tuple[Model, TrainConfig, dict]:
    params, config, extra = load_checkpoint(path)
    dims_meta = extra.get("raw_dims")
    if dims_meta is None:
        raise DataError(f"checkpoint {path} is missing raw feature dims")
    raw_dims = {Modality(tag): int(d) for tag, d in dims_meta.items()}
    model = Model(config, raw_dims)
    model.load_parameters(params)
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
    tol: float
    teacher_path_grad: float
    gd_params_zero_when_lambda2_zero: bool
    passed: bool
    notes: list[str] = field(default_factory=list)

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
        out.extend(self.notes)
        out.append("PASS" if self.passed else "FAIL")
        return out


def _rel_err(analytic: float, numeric: float, floor: float = 1e-4) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


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


def _gradcheck_batch(data_config: SyntheticConfig, seed: int, n: int = 3) -> Batch:
    # draw extra samples and keep a class-diverse subset so the margin term
    # always has triplets to differentiate
    pool = generate(4 * n, seed, data_config)
    chosen: list[Sample] = []
    seen_bins: set[int] = set()
    for s in pool:
        b = bin7(s.label)
        if b not in seen_bins or len(seen_bins) > 1:
            chosen.append(s)
            seen_bins.add(b)
        if len(chosen) == n:
            break
    return make_batch(chosen, mode="unaligned")


def gradcheck(config: TrainConfig | None = None, n_probes: int = 20,
              seed: int = 0, h: float = 1e-5, tol: float = 1e-4,
              data_config: SyntheticConfig | None = None) -> GradcheckReport:
    """Compare backprop gradients of every loss component against central
    finite differences at ``n_probes`` random parameter coordinates.

    Finite differences re-run the forward pass with the gate inputs and
    teacher logits frozen at their base values, which is exactly the
    function backprop differentiates (both are constants on the live pass).
    """
    if config is None:
        config = gradcheck_model_config(seed)
    config.validate()
    if data_config is None:
        data_config = gradcheck_data_config()
    batch = _gradcheck_batch(data_config, seed)
    model = Model(config, dict(data_config.raw_dims))
    params = model.parameters()

    base = model.forward_batch(batch)
    frozen_h = base.homo.frozen if base.homo else None
    frozen_het = base.hetero.frozen if base.hetero else None

    def frozen_forward() -> StepOutput:
        return model.forward_batch(batch, frozen_homo=frozen_h,
                                   frozen_hetero=frozen_het)

    names = sorted(params)
    sizes = np.array([params[k].data.size for k in names])
    cum = np.cumsum(sizes)
    rng = np.random.default_rng(seed)
    flat_total = int(cum[-1])
    picks = rng.choice(flat_total, size=min(n_probes, flat_total), replace=False)
    probes = []
    for flat in sorted(int(p) for p in picks):
        which = int(np.searchsorted(cum, flat, side="right"))
        offset = flat - (0 if which == 0 else int(cum[which - 1]))
        probes.append((names[which], offset))

    plus_vals: list[dict[str, float]] = []
    minus_vals: list[dict[str, float]] = []
    for pname, offset in probes:
        buf = params[pname].data
        original = buf.flat[offset]
        buf.flat[offset] = original + h
        plus_vals.append(frozen_forward().scalars())
        buf.flat[offset] = original - h
        minus_vals.append(frozen_forward().scalars())
        buf.flat[offset] = original

    checks: list[ComponentCheck] = []
    for cname in COMPONENT_NAMES:
        for p in params.values():
            p.grad = None
        out = frozen_forward()
        comp = out.components[cname]
        if comp.requires_grad:
            comp.backward()
        worst_err, worst_param = 0.0, "-"
        for k, (pname, offset) in enumerate(probes):
            grad = params[pname].grad
            analytic = 0.0 if grad is None else float(grad.flat[offset])
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
    return GradcheckReport(checks=checks, tol=tol,
                           teacher_path_grad=teacher_grad,
                           gd_params_zero_when_lambda2_zero=gd_zero,
                           passed=passed)


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
    for name, p in model.parameters().items():
        if name.startswith(("gd_homo", "gd_hetero")):
            if p.grad is not None and np.any(p.grad != 0.0):
                return False
    return True


# ---- edge dumping ----


def dump_edges(model: Model, samples: list[Sample],
               out_path: str | Path | None = None,
               batch_size: int | None = None) -> list[dict]:
    """Record per-batch distillation graphs (weights, discrepancies, logits)
    as JSONL-ready dicts, one record per active space per batch."""
    if not samples:
        raise DataError("no samples to dump edges for")
    bs = batch_size or model.config.batch_size
    records: list[dict] = []
    for step, batch in enumerate(batches(samples, bs, mode=model.config.mode,
                                         shuffle=False)):
        for space, unit in zip(("homo", "hetero"), model.distill(model.encode(batch))):
            if unit is not None:
                records.append({"step": step, "space": space, **unit.record()})
        del unit  # frees this batch's graph before the next batch's forward
    if not records:
        log.warning("dump_edges: both distillation paths disabled, nothing to write")
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


def probe_split(n: int, seed: int, train_frac: float = 0.7) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise DataError(f"probing needs at least 2 samples, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    cut = max(1, min(n - 1, int(round(train_frac * n))))
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
    n_fit: int
    n_eval: int

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


def collect_features(model: Model, samples: list[Sample],
                     batch_size: int | None = None) -> FeatureBundle:
    if not samples:
        raise DataError("no samples to extract features from")
    bs = batch_size or model.config.batch_size
    homo, hetero, labels = [], [], []
    for batch in batches(samples, bs, mode=model.config.mode, shuffle=False):
        enc = model.encode(batch)
        homo.append(np.stack([enc.homo[m].data for m in MODALITIES], axis=1))
        hetero.append(np.stack([enc.hetero[m].data for m in MODALITIES], axis=1))
        labels.append(batch.labels)
        del enc  # frees this batch's graph before the next batch's forward
    return FeatureBundle(homo=np.concatenate(homo), hetero=np.concatenate(hetero),
                         labels=np.concatenate(labels))


def probe_unimodal(model: Model, samples: list[Sample], seed: int = 0,
                   reg: float = 1e-2) -> ProbeReport:
    """Fit a binary (non-negative vs negative) ridge probe per modality on
    the pooled shared-space features and report held-out ACC2/F1."""
    bundle = collect_features(model, samples)
    tr, ev = probe_split(bundle.homo.shape[0], seed)
    true_pos = bundle.labels >= 0
    per_modality: dict[str, ModalityProbe] = {}
    accs = []
    for k, m in enumerate(MODALITIES):
        feats = bundle.homo[:, k, :]
        target = np.where(true_pos, 1.0, -1.0)
        fit_x, eval_x = standardize(feats[tr], feats[ev])
        w = fit_linear_probe(fit_x, target[tr], reg)
        pred_pos = probe_scores(eval_x, w) >= 0
        acc = float(np.mean(pred_pos == true_pos[ev]))
        per_modality[m.tag] = ModalityProbe(
            acc2=acc, f1=binary_f1(pred_pos, true_pos[ev]))
        accs.append(acc)
    return ProbeReport(per_modality=per_modality,
                       mean_acc2=float(np.mean(accs)),
                       std_acc2=float(np.std(accs)),
                       n_fit=len(tr), n_eval=len(ev))
