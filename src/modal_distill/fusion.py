"""Adaptive fusion of the six pooled streams and the regression head.

Each stream (three shared-space, three reinforced private) is scaled by its
own scalar sigmoid gate, everything is concatenated, and a small two-layer
head regresses the sentiment score.  Class views of a score are derived, not
predicted: a 7-bin rounding (``bin7``) and a negative / non-negative split
(``score >= 0``).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .data import MODALITIES, Modality
from .errors import NumericError, ShapeError
from .layers import Linear, TwoLayer
from .tensor import Tensor, absolute, concat, mul, reshape, sigmoid, tmean


def bin7(score):
    """Nearest sentiment bin: round half away from zero, clamped to [-3, 3].

    Takes a score (giving an ``int``) or an array of scores (giving an int
    array of the same shape).  A NaN score has no bin: ``NumericError``."""
    s = np.asarray(score, dtype=np.float64)
    if np.isnan(s).any():
        raise NumericError("cannot bin a NaN score")
    bins = np.clip(np.sign(s) * np.floor(np.abs(s) + 0.5), -3, 3).astype(np.int64)
    return int(bins) if bins.ndim == 0 else bins


class FusionHead:
    """Six gated streams -> concatenation -> two-layer regression head."""

    def __init__(self, rng: np.random.Generator, params: dict[str, Tensor], name: str, d: int):
        self.homo_gates = {m: Linear(rng, params, f"{name}.gate_homo.{m.tag}", d, 1)
                           for m in MODALITIES}
        self.hetero_gates = {m: Linear(rng, params, f"{name}.gate_hetero.{m.tag}", 2 * d, 1)
                             for m in MODALITIES}
        self.head = TwoLayer(rng, params, f"{name}.head", 9 * d, d, 1)

    def _gated(self, stream: Tensor, gate: Linear) -> Tensor:
        return mul(stream, sigmoid(gate(stream)))

    def fuse(self, homo: dict[Modality, Tensor],
             hetero: dict[Modality, Tensor]) -> Tensor:
        """Concatenate gated ``[B, d]`` and ``[B, 2d]`` streams in (homo
        L,V,A, hetero L,V,A) order, giving ``[B, 9d]``.  A stream of the
        wrong width fails in its gate's ``affine`` with ``ShapeError``."""
        parts = [self._gated(homo[m], self.homo_gates[m]) for m in MODALITIES]
        parts += [self._gated(hetero[m], self.hetero_gates[m]) for m in MODALITIES]
        return concat(parts, axis=-1)

    def __call__(self, homo: dict[Modality, Tensor],
                 hetero: dict[Modality, Tensor]) -> Tensor:
        """One score per sample, shaped ``[B]``."""
        fused = self.fuse(homo, hetero)
        return reshape(self.head(fused), fused.shape[:1])


# ---- objectives ----


def task_loss(preds: Tensor, labels: np.ndarray) -> Tensor:
    """Mean absolute error over the batch; ``preds`` is ``[B]``."""
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape or labels.ndim != 1 or not labels.size:
        raise ShapeError(f"task_loss: predictions {preds.shape} vs labels {labels.shape}")
    return tmean(absolute(preds - labels))


def total_loss(task: Tensor, dec: Tensor, dtl_homo: Tensor, dtl_hetero: Tensor,
               lambda1: float, lambda2: float) -> Tensor:
    """Full objective: task + λ1·decoupling + λ2·(both distillation terms)."""
    return task + lambda1 * dec + lambda2 * (dtl_homo + dtl_hetero)


# ---- prediction dump ----

PREDICTION_COLUMNS = ["sample_id", "score", "class7", "class2", "label", "label7", "label2"]
CLASS2_NAMES = ("negative", "non-negative")  # indexed by score >= 0


def write_predictions(path: str | Path, ids: list[str], scores: np.ndarray,
                      labels: np.ndarray) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for sid, score, s7, label, l7 in zip(ids, scores.tolist(), bin7(scores).tolist(),
                                             labels.tolist(), bin7(labels).tolist()):
            writer.writerow([
                sid, f"{score:.17g}", s7, CLASS2_NAMES[score >= 0],
                f"{label:.17g}", l7, CLASS2_NAMES[label >= 0],
            ])
