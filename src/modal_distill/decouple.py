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
from .errors import ConfigError, ShapeError
from .layers import TwoLayer, xavier_uniform
from .tensor import (
    Tensor,
    concat,
    conv1d,
    cosine,
    gram,
    l2_normalize,
    margin_hinge,
    masked_sq_distance,
    mean_pool_time,
    tsum,
)

# time steps each shallow conv window covers, centred on its own step
CONV_WIDTH = 3


@dataclass
class DecoupledPair:
    """Shared-space and private-space views of one modality's padded batch."""

    homo: Tensor            # [B, T, d]
    hetero: Tensor          # [B, T, d]
    homo_pooled: Tensor     # [B, d], mean over valid steps
    hetero_pooled: Tensor   # [B, d]


class Decoupler:
    """Shallow conv encoders plus the shared/private decoupling stack.

    Encoders are position-wise two-layer nets with hidden width 2d, wide
    enough to represent the exact identity map (needed by the
    reconstruction sanity tests); decoders map the concatenated pair back
    to the pre-decoupling space.  Every method takes a padded batch
    ``[B, T, ·]``; only pooling reads the ``[B, T]`` mask, since nothing
    else mixes time steps.
    """

    def __init__(self, rng: np.random.Generator, raw_dims: dict[Modality, int], d: int):
        if d < 1:
            raise ConfigError(f"common feature dim must be >= 1, got {d}")
        self.common_dim = d
        self.raw_dims = dict(raw_dims)
        self.shallow_kernel = {}
        self.shallow_bias = {}
        for m in MODALITIES:
            d_raw = raw_dims[m]
            k = xavier_uniform(rng, CONV_WIDTH * d_raw, d, shape=(CONV_WIDTH, d_raw, d))
            self.shallow_kernel[m] = Tensor(k, requires_grad=True)
            b = rng.uniform(-1.0, 1.0, size=d) / np.sqrt(CONV_WIDTH * d_raw)
            self.shallow_bias[m] = Tensor(b, requires_grad=True)
        self.shared_encoder = TwoLayer(rng, d, 2 * d, d)
        self.private_encoders = {m: TwoLayer(rng, d, 2 * d, d) for m in MODALITIES}
        self.decoders = {m: TwoLayer(rng, 2 * d, d, d) for m in MODALITIES}

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for m in MODALITIES:
            params[f"shallow.{m.tag}.kernel"] = self.shallow_kernel[m]
            params[f"shallow.{m.tag}.bias"] = self.shallow_bias[m]
            params.update(self.private_encoders[m].parameters(f"private_encoder.{m.tag}"))
            params.update(self.decoders[m].parameters(f"decoder.{m.tag}"))
        params.update(self.shared_encoder.parameters("shared_encoder"))
        return params

    def shallow_encode(self, features: Tensor, modality: Modality) -> Tensor:
        """Project raw [B, T, d_raw] sequences into the common dim via temporal
        conv; the zero padding of shorter sequences is their conv padding."""
        expected = self.raw_dims[modality]
        if features.ndim != 3 or features.shape[2] != expected:
            raise ConfigError(
                f"shallow_encode({modality.tag}): expected [B, T, {expected}], got {features.shape}")
        return conv1d(features, self.shallow_kernel[modality], self.shallow_bias[modality])

    def decouple(self, x_tilde: Tensor, modality: Modality, mask: np.ndarray) -> DecoupledPair:
        if modality not in self.private_encoders:
            raise ConfigError(f"unknown modality {modality!r}")
        if x_tilde.ndim != 3 or x_tilde.shape[2] != self.common_dim:
            raise ShapeError(
                f"decouple({modality.tag}): expected [B, T, {self.common_dim}], got {x_tilde.shape}")
        homo = self.shared_encoder(x_tilde)
        hetero = self.private_encoders[modality](x_tilde)
        return DecoupledPair(
            homo=homo,
            hetero=hetero,
            homo_pooled=mean_pool_time(homo, mask),
            hetero_pooled=mean_pool_time(hetero, mask),
        )

    def reconstruct(self, pair: DecoupledPair, modality: Modality) -> Tensor:
        """Decode [homo, hetero] back toward the pre-decoupling sequence."""
        return self.decoders[modality](concat([pair.homo, pair.hetero], axis=-1))

    def reencode_private(self, recon: Tensor, modality: Modality) -> Tensor:
        return self.private_encoders[modality](recon)


# ---- losses ----


def loss_rec(x_tilde: Tensor, recon: Tensor, mask: np.ndarray) -> Tensor:
    """Squared Frobenius distance between input and its reconstruction over
    the valid rows, summed over the batch."""
    return masked_sq_distance(x_tilde, recon, mask)


def loss_cyc(hetero: Tensor, reencoded: Tensor, mask: np.ndarray) -> Tensor:
    """Squared Frobenius distance between private features and their
    re-encoding from the reconstruction over the valid rows, summed over the
    batch."""
    return masked_sq_distance(hetero, reencoded, mask)


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
    return margin_hinge(gram(l2_normalize(x, 1e-24)), mods, classes, alpha)


def loss_ort(pairs: dict[Modality, DecoupledPair]) -> Tensor:
    """Sum over modalities and the batch of cos(pooled shared, pooled private)."""
    total = None
    for m in MODALITIES:
        c = tsum(cosine(pairs[m].homo_pooled, pairs[m].hetero_pooled))
        total = c if total is None else total + c
    return total


def loss_dec(rec: Tensor | float, cyc: Tensor | float, margin: Tensor | float,
             ort: Tensor | float, gamma: float) -> Tensor:
    """Combined decoupling objective: rec + cyc + γ(margin + ort)."""
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    rec = rec if isinstance(rec, Tensor) else Tensor(rec)
    return rec + cyc + gamma * (margin + ort)
