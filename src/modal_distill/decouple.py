"""Feature decoupling: shallow temporal encoding, shared/private encoders,
self-regression decoders, and the four decoupling losses.

The shared encoder is one parameter set applied to all three modalities, so
its outputs live in a common (modality-irrelevant) space; each modality owns
a private encoder/decoder pair for the modality-exclusive remainder.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .data import MODALITIES, Modality
from .layers import TwoLayer, param, xavier_uniform
from .tensor import (
    RowLayout,
    Tensor,
    concat,
    conv1d,
    gram,
    l2_normalize,
    margin_hinge,
    mean_pool_time,
    sq_distance,
    tsum,
)

# time steps each shallow conv window covers, centred on its own step
CONV_WIDTH = 3


@dataclass
class DecoupledPair:
    """Shared-space and private-space views of one modality's packed rows."""

    homo: Tensor            # [N, d]
    hetero: Tensor          # [N, d]
    homo_pooled: Tensor     # [B, d], mean over each sample's steps
    hetero_pooled: Tensor   # [B, d]


class Decoupler:
    """Shallow conv encoders plus the shared/private decoupling stack.

    Encoders are position-wise two-layer nets with hidden width 2d, wide
    enough to represent the exact identity map (needed by the
    reconstruction sanity tests); decoders map the concatenated pair back
    to the pre-decoupling space.  Every method takes a modality's packed
    rows ``[N, ·]``, real time steps only; the shallow conv and pooling,
    which read across steps, also take the batch's ``RowLayout``.
    """

    def __init__(self, rng: np.random.Generator, params: dict[str, Tensor],
                 raw_dims: dict[Modality, int], d: int):
        self.shallow_kernel = {}
        self.shallow_bias = {}
        for m in MODALITIES:
            d_raw = raw_dims[m]
            k = xavier_uniform(rng, CONV_WIDTH * d_raw, d, shape=(CONV_WIDTH, d_raw, d))
            self.shallow_kernel[m] = param(params, f"shallow.{m.tag}.kernel", k)
            b = rng.uniform(-1.0, 1.0, size=d) / np.sqrt(CONV_WIDTH * d_raw)
            self.shallow_bias[m] = param(params, f"shallow.{m.tag}.bias", b)
        self.shared_encoder = TwoLayer(rng, params, "shared_encoder", d, 2 * d, d)
        self.private_encoders = {m: TwoLayer(rng, params, f"private_encoder.{m.tag}", d, 2 * d, d)
                                 for m in MODALITIES}
        self.decoders = {m: TwoLayer(rng, params, f"decoder.{m.tag}", 2 * d, d, d)
                         for m in MODALITIES}

    def shallow_encode(self, features: np.ndarray, modality: Modality, rows: RowLayout) -> Tensor:
        """Project packed raw [N, d_raw] sequences into the common dim via
        temporal conv, each sequence zero-padded at its own ends."""
        return conv1d(features, self.shallow_kernel[modality], self.shallow_bias[modality], rows)

    def decouple(self, x_tilde: Tensor, modality: Modality, rows: RowLayout) -> DecoupledPair:
        homo = self.shared_encoder(x_tilde)
        hetero = self.private_encoders[modality](x_tilde)
        return DecoupledPair(
            homo=homo,
            hetero=hetero,
            homo_pooled=mean_pool_time(homo, rows),
            hetero_pooled=mean_pool_time(hetero, rows),
        )

    def reconstruct(self, pair: DecoupledPair, modality: Modality) -> Tensor:
        """Decode [homo, hetero] back toward the pre-decoupling sequence."""
        return self.decoders[modality](concat([pair.homo, pair.hetero], axis=-1))

    def reencode_private(self, recon: Tensor, modality: Modality) -> Tensor:
        return self.private_encoders[modality](recon)


# ---- losses ----


def loss_rec(x_tilde: Tensor, recon: Tensor) -> Tensor:
    """Squared Frobenius distance between input and its reconstruction,
    summed over the batch's rows."""
    return sq_distance(x_tilde, recon)


def loss_cyc(hetero: Tensor, reencoded: Tensor) -> Tensor:
    """Squared Frobenius distance between private features and their
    re-encoding from the reconstruction, summed over the batch's rows."""
    return sq_distance(hetero, reencoded)


def loss_margin(x: Tensor, mods: np.ndarray, classes: np.ndarray,
                alpha: float) -> tuple[Tensor, int]:
    """Hinge over all valid triplets of the rows of ``x`` ``[N, d]``, row i
    tagged with modality index ``mods[i]`` (into ``MODALITIES``) and class
    ``classes[i]``: mean of max(0, α − cos(i,j) + cos(i,k)), where j shares
    the anchor i's class from another modality and k shares its modality
    with another class.

    Returns the loss and the triplet count; an empty triplet set yields a
    constant 0, so a degenerate minibatch cannot crash training.
    """
    return margin_hinge(gram(l2_normalize(x)), mods, classes, alpha)


def loss_ort(pairs: dict[Modality, DecoupledPair]) -> Tensor:
    """Sum over modalities and the batch of cos(pooled shared, pooled
    private): the row dot products of the L2-normalised pooled rows."""
    homo = l2_normalize(concat([pairs[m].homo_pooled for m in MODALITIES], axis=0))
    hetero = l2_normalize(concat([pairs[m].hetero_pooled for m in MODALITIES], axis=0))
    return tsum(homo * hetero)


def loss_dec(rec: Tensor, cyc: Tensor, margin: Tensor, ort: Tensor, gamma: float) -> Tensor:
    """Combined decoupling objective: rec + cyc + γ(margin + ort)."""
    return rec + cyc + gamma * (margin + ort)
