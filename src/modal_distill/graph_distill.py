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
from .errors import ConfigError, ShapeError
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


@dataclass
class FrozenGraph:
    """The constants of one pass.  A finite-difference re-run that passes
    them back in differentiates exactly the function backprop saw.

    ``gate_inputs`` is ``[B, 3, 2, 2(d+1)]``, indexed by target then
    incoming source, each row ``[logit_src, feat_src, logit_tgt, feat_tgt]``;
    ``teacher_logits`` is ``[B, 3, 2]`` in the same edge order."""

    gate_inputs: np.ndarray
    teacher_logits: np.ndarray


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
    frozen: FrozenGraph

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

    def __init__(self, rng: np.random.Generator, d_in: int, edge_mode: str = "squared"):
        if edge_mode not in EDGE_MODES:
            raise ConfigError(f"edge discrepancy mode must be one of {EDGE_MODES}, got {edge_mode!r}")
        self.input_dim = d_in
        self.edge_mode = edge_mode
        self.logit_head = Linear(rng, d_in, 1)
        # zero init makes untrained edges tie at weight 0.5 per target
        self.edge_scorer = Linear(rng, 2 * (d_in + 1), 1, zero_init=True)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = self.logit_head.parameters(f"{prefix}.logit_head")
        out.update(self.edge_scorer.parameters(f"{prefix}.edge_scorer"))
        return out

    def distill_batch(self, pooled: dict[Modality, Tensor],
                      frozen: FrozenGraph | None = None) -> BatchDistill:
        """Mean sample loss and per-sample edge records for pooled features
        ``[B, d_in]`` per modality; ``frozen`` replays an earlier pass's
        constants."""
        shape = pooled[MODALITIES[0]].shape
        if len(shape) != 2 or any(pooled[m].shape != shape for m in MODALITIES):
            raise ShapeError("distill_batch needs [B, d] features of one shape, got "
                             + ", ".join(f"{m.tag} {pooled[m].shape}" for m in MODALITIES))
        b, d = shape
        if b == 0:
            raise ConfigError("distill_batch needs at least one sample")
        if d != self.input_dim:
            raise ShapeError(f"logit head expects [{self.input_dim}], got [{d}]")
        feats = concat([reshape(pooled[m], (b, 1, d)) for m in MODALITIES], axis=1)
        logits = reshape(self.logit_head(feats), (b, 3))
        if frozen is None:
            nodes = np.concatenate([logits.data[..., None], feats.data], axis=-1)
            frozen = FrozenGraph(
                gate_inputs=np.concatenate([nodes[:, EDGE_SOURCES], nodes[:, _EDGE_TARGETS]],
                                           axis=-1),
                teacher_logits=logits.data[:, EDGE_SOURCES])
        elif frozen.teacher_logits.shape[0] != b:
            raise ConfigError(
                f"frozen graph holds {frozen.teacher_logits.shape[0]} samples, batch has {b}")

        gates = Tensor(frozen.gate_inputs.reshape(6 * b, -1))
        weights = softmax(reshape(self.edge_scorer(gates), (b, 3, 2)))
        eps = discrepancy(frozen.teacher_logits, reshape(logits, (b, 3, 1)), self.edge_mode)
        edges = mul(weights, eps)
        return BatchDistill(loss=tsum(edges) * (1.0 / b), edges=edges, logits=logits,
                            weights=_by_source_target(weights.data),
                            discrepancies=_by_source_target(eps.data), frozen=frozen)
