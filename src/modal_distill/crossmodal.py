"""Crossmodal attention: each modality's private features are reinforced by
the other two modalities, queries from the target and keys/values from the
source, then concatenated into a double-width stream per target.

No positional encodings are used, so outputs are invariant to permutations
of source time steps; temporal length always follows the target.  Inputs
are padded batches ``[B, T, d]``: a constant key mask gives a source's
padded steps exactly zero weight, and padded target rows are queries whose
outputs nothing downstream reads (pooling masks them).
"""

from __future__ import annotations

import numpy as np

from .data import MODALITIES, Modality
from .layers import Linear
from .tensor import Tensor, attention, concat

# added to the scores of padded keys: finite, yet far enough below any real
# score that exp() of it after max subtraction is exactly 0
MASKED_SCORE = -1e30

DIRECTED_PAIRS = tuple((src, tgt) for tgt in MODALITIES for src in MODALITIES
                       if src is not tgt)


class CrossmodalPair:
    """One src -> tgt multi-head attention layer."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int):
        self.heads = heads
        self.proj_q = Linear(rng, d, d, bias=False)
        self.proj_k = Linear(rng, d, d, bias=False)
        self.proj_v = Linear(rng, d, d, bias=False)
        self.proj_out = Linear(rng, d, d)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = self.proj_q.parameters(f"{prefix}.q")
        out.update(self.proj_k.parameters(f"{prefix}.k"))
        out.update(self.proj_v.parameters(f"{prefix}.v"))
        out.update(self.proj_out.parameters(f"{prefix}.out"))
        return out

    def forward(self, src: Tensor, tgt: Tensor,
                src_mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Attend tgt ``[B, T_tgt, d]`` over src ``[B, T_src, d]`` whose valid
        steps ``src_mask`` ``[B, T_src]`` marks; returns the output and the
        attention maps, shaped [B, heads, T_tgt, T_src]."""
        key_bias = np.where(src_mask > 0, 0.0, MASKED_SCORE)
        out, maps = attention(self.proj_q(tgt), self.proj_k(src), self.proj_v(src),
                              self.heads, key_bias)
        return self.proj_out(out), maps

    def __call__(self, src: Tensor, tgt: Tensor, src_mask: np.ndarray) -> Tensor:
        return self.forward(src, tgt, src_mask)[0]


def incoming_sources(target: Modality) -> tuple[Modality, ...]:
    """The two source modalities for a target, in fixed (L, V, A) order."""
    return tuple(m for m in MODALITIES if m is not target)


class CrossmodalReinforcer:
    """The six directed attention layers plus the concatenating combiner."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int = 4):
        self.layers = {pair: CrossmodalPair(rng, d, heads) for pair in DIRECTED_PAIRS}

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for (src, tgt), layer in self.layers.items():
            out.update(layer.parameters(f"ca.{src.tag}_to_{tgt.tag}.0"))
        return out

    def reinforce(self, hetero: dict[Modality, Tensor],
                  masks: dict[Modality, np.ndarray]) -> dict[Modality, Tensor]:
        """Per target: [CA(src1 -> tgt), CA(src2 -> tgt)] along features,
        each source's padded steps masked out as keys."""
        out = {}
        for tgt in MODALITIES:
            streams = [self.layers[(src, tgt)](hetero[src], hetero[tgt], masks[src])
                       for src in incoming_sources(tgt)]
            out[tgt] = concat(streams, axis=-1)
        return out


def passthrough(hetero: dict[Modality, Tensor]) -> dict[Modality, Tensor]:
    """Attention-off fallback: duplicate each private stream to double width
    so downstream shapes match the reinforced case."""
    return {m: concat([hetero[m], hetero[m]], axis=-1) for m in MODALITIES}
