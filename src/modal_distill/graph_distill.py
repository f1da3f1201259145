"""Adaptive graph distillation over the three modalities.

A GDUnit is one dynamic graph per sample: three modality vertices, each with
a scalar logit from a shared logit head, and six directed edges scored by a
learned gate.  The two edges entering each target are normalized with a
softmax, and the unit pays edge weight times logit discrepancy.  Gradient
flows only into each edge's target (student) branch: teacher logits and all
gate inputs are constants.

The whole batch is one computation: the pooled ``[B, d]`` features of the
three modalities stacked to ``[B, 3, d]``, logits ``[B, 3]`` from one
logit-head matmul, all ``6B`` edges scored by one edge-scorer matmul, and a
softmax over the last axis of ``[B, 3, 2]`` (target, incoming source).

Instantiated twice with disjoint parameters: once over shared-space pooled
features, once over the transformer-reinforced private features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MODALITIES, Modality
from .errors import ConfigError
from .layers import Linear
from .tensor import (
    Tensor,
    absolute,
    concat,
    mul,
    reshape,
    softmax,
    tsum,
)

EDGE_MODES = ("squared", "abs")

# EDGE_SOURCES[j, k] is the source of the k-th edge entering target j,
# sources in (L, V, A) order; _EDGE_TARGETS[j, k] is j
EDGE_SOURCES = np.array([[1, 2], [0, 2], [0, 1]])
_EDGE_TARGETS = np.array([[0, 0], [1, 1], [2, 2]])


def discrepancy(teacher: np.ndarray, student: Tensor, mode: str = "squared") -> Tensor:
    """Penalty for src -> tgt edges.  The teacher (src) logits are a
    constant array, so they get no gradient."""
    if mode not in EDGE_MODES:
        raise ConfigError(f"edge discrepancy mode must be one of {EDGE_MODES}, got {mode!r}")
    diff = Tensor(teacher) - student
    return mul(diff, diff) if mode == "squared" else absolute(diff)


def _by_source_target(x: np.ndarray) -> np.ndarray:
    """[B, 3, 2] per-target edge values -> [B, 3, 3] indexed [source, target]."""
    out = np.zeros((x.shape[0], 3, 3))
    out[:, EDGE_SOURCES, _EDGE_TARGETS] = x
    return out


@dataclass
class BatchDistill:
    loss: Tensor
    edges: Tensor                # [B, 3, 2] weighted edges w * eps, EDGE_SOURCES order
    logits: Tensor               # [B, 3] in (L, V, A) order
    weights: np.ndarray          # [B, 3, 3], W[b, i, j] = w_{i -> j}, diagonal 0
    discrepancies: np.ndarray    # [B, 3, 3], same layout
    # the constants a replay passes back in; gate rows are
    # [logit_src, feat_src, logit_tgt, feat_tgt]
    gate_inputs: np.ndarray      # [B, 3, 2, 2(d_in+1)], EDGE_SOURCES order
    teacher_logits: np.ndarray   # [B, 3, 2], same order

    def record(self) -> dict:
        """Batch-mean edge weights, discrepancies and logits, for logging
        and dump-edges."""
        return {
            "W": self.weights.mean(axis=0).tolist(),
            "E": self.discrepancies.mean(axis=0).tolist(),
            "logits": self.logits.data.mean(axis=0).tolist(),
        }


class GDUnit:
    """One graph-distillation unit with its own logit head and edge gate."""

    def __init__(self, rng: np.random.Generator, params: dict[str, Tensor], name: str,
                 d_in: int, edge_mode: str = "squared"):
        self.edge_mode = edge_mode
        self.logit_head = Linear(rng, params, f"{name}.logit_head", d_in, 1)
        # zero init makes untrained edges tie at weight 0.5 per target
        self.edge_scorer = Linear(rng, params, f"{name}.edge_scorer", 2 * (d_in + 1), 1,
                                  zero_init=True)

    def distill_batch(self, pooled: dict[Modality, Tensor],
                      replay: BatchDistill | None = None) -> BatchDistill:
        """Mean sample loss and per-sample edge records for pooled features
        ``[B, d_in]`` per modality.  ``replay`` passes an earlier result's
        constants back in, so a finite-difference re-run differentiates
        exactly the function backprop saw."""
        b, d = pooled[MODALITIES[0]].shape
        feats = reshape(concat([pooled[m] for m in MODALITIES], axis=-1), (b, 3, d))
        logits = reshape(self.logit_head(feats), (b, 3))
        if replay is None:
            nodes = np.concatenate([logits.data[..., None], feats.data], axis=-1)
            gate_inputs = np.concatenate([nodes[:, EDGE_SOURCES], nodes[:, _EDGE_TARGETS]],
                                         axis=-1)
            teacher_logits = logits.data[:, EDGE_SOURCES]
        else:
            gate_inputs, teacher_logits = replay.gate_inputs, replay.teacher_logits

        gates = Tensor(gate_inputs.reshape(6 * b, -1))
        weights = softmax(reshape(self.edge_scorer(gates), (b, 3, 2)))
        eps = discrepancy(teacher_logits, reshape(logits, (b, 3, 1)), self.edge_mode)
        edges = mul(weights, eps)
        return BatchDistill(loss=tsum(edges) * (1.0 / b), edges=edges, logits=logits,
                            weights=_by_source_target(weights.data),
                            discrepancies=_by_source_target(eps.data),
                            gate_inputs=gate_inputs, teacher_logits=teacher_logits)
