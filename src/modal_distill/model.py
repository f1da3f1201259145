"""Full model: shallow encoding, decoupling, graph distillation in both
spaces, crossmodal reinforcement, gated fusion, and scalar regression.

Ablation toggles change which pathway feeds each fusion slot:

* ``fd`` off: pooled shallow features fill the shared-space slots, the
  private-space slots are zero, and every decoupling loss is skipped.
* ``ca`` off: private sequences are duplicated instead of attended, so the
  private pathway keeps its width without crossmodal mixing.
* ``homogd`` / ``heterogd`` off: the corresponding distillation loss is
  skipped.  The private-space fusion slots carry features whenever either
  ``ca`` or ``heterogd`` is on (the pathway is alive); with both off they
  are zero and the model reduces to shared features plus decoupling.

Every component is always constructed, whatever the toggles, so parameter
names and checkpoint layout never depend on the ablation.

The forward pass runs every stage once per batch on the padded ``[B, T, ·]``
arrays of a ``Batch``, so the graph's size depends on the model's depth,
not on ``B``.  Masks are read only where rows get mixed or summed: temporal
pooling, the rec/cyc sums, and the attention keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .crossmodal import CrossmodalReinforcer, passthrough
from .data import MODALITIES, RAW_DIMS, Batch, Modality
from .decouple import Decoupler, loss_cyc, loss_dec, loss_margin, loss_ort, loss_rec
from .errors import ConfigError, DataError
from .fusion import FusionHead, bin7, task_loss, total_loss
from .graph_distill import DistillGraph, FrozenGraph, GDUnit
from .tensor import Tensor, concat, mean_pool_time, reshape

COMPONENT_NAMES = ("task", "rec", "cyc", "margin", "ort", "dec",
                   "dtl_homo", "dtl_hetero", "total")


@dataclass
class StepOutput:
    """Everything one forward pass produces: the differentiable total, each
    loss component as a tensor, per-sample predictions, and edge records."""

    total: Tensor
    components: dict[str, Tensor]
    preds: np.ndarray            # [B] scores
    n_triplets: int
    homo_graph: DistillGraph | None
    hetero_graph: DistillGraph | None
    frozen_homo: FrozenGraph | None
    frozen_hetero: FrozenGraph | None

    def scalars(self) -> dict[str, float]:
        return {name: float(t.data) for name, t in self.components.items()}

    def scores(self) -> list[float]:
        return self.preds.tolist()


@dataclass
class FeatureBundle:
    """Pooled per-sample, per-modality features for linear probing, in
    (L, V, A) order along the modality axis."""

    homo: np.ndarray      # [B, 3, d]; shared-space features, or pooled shallow when fd is off
    hetero: np.ndarray    # [B, 3, d]; private-space features, zero when fd is off
    shallow: np.ndarray   # [B, 3, d]
    labels: np.ndarray    # [B]
    ids: list[str]


class Model:
    """The complete network.  Parameters are keyed by stable dotted paths."""

    def __init__(self, config: TrainConfig, raw_dims: dict[Modality, int] | None = None):
        config.validate()
        self.config = config
        self.raw_dims = dict(raw_dims) if raw_dims is not None else dict(RAW_DIMS)
        rng = np.random.default_rng(config.seed)
        self.decoupler = Decoupler(rng, self.raw_dims, config.d, config.conv_width)
        self.homo_gd = GDUnit(rng, config.d, config.edge_mode)
        self.hetero_gd = GDUnit(rng, 2 * config.d, config.edge_mode)
        self.reinforcer = CrossmodalReinforcer(rng, config.d, config.heads, config.ca_layers)
        self.fusion = FusionHead(rng, config.d)

    def parameters(self) -> dict[str, Tensor]:
        params = self.decoupler.parameters()
        params.update(self.homo_gd.parameters("gd_homo"))
        params.update(self.hetero_gd.parameters("gd_hetero"))
        params.update(self.reinforcer.parameters())
        params.update(self.fusion.parameters())
        return params

    def load_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = sorted(set(params) - set(arrays))
        surplus = sorted(set(arrays) - set(params))
        if missing or surplus:
            raise DataError(
                f"parameter set mismatch: missing {missing[:3]}, unexpected {surplus[:3]}")
        for name, tensor in params.items():
            if tensor.data.shape != arrays[name].shape:
                raise DataError(
                    f"parameter {name}: checkpoint shape {arrays[name].shape} "
                    f"!= model shape {tensor.data.shape}")
            tensor.data = arrays[name].astype(np.float64, copy=True)

    # ---- forward ----

    def forward_batch(self, batch: Batch,
                      frozen_homo: FrozenGraph | None = None,
                      frozen_hetero: FrozenGraph | None = None) -> StepOutput:
        cfg = self.config
        if frozen_homo is not None and not cfg.homogd:
            raise ConfigError("frozen_homo given but homogd is off")
        if frozen_hetero is not None and not cfg.heterogd:
            raise ConfigError("frozen_hetero given but heterogd is off")

        b = batch.size
        masks = batch.masks
        shallow = {m: self.decoupler.shallow_encode(Tensor(batch.features[m]), m)
                   for m in MODALITIES}
        zero_2d = Tensor(np.zeros((b, 2 * cfg.d)))
        fusion_hetero = {m: zero_2d for m in MODALITIES}
        if cfg.fd:
            pairs = {m: self.decoupler.decouple(shallow[m], m, masks[m]) for m in MODALITIES}
            rec_sum = cyc_sum = None
            for m in MODALITIES:
                recon = self.decoupler.reconstruct(pairs[m], m)
                rec_m = loss_rec(shallow[m], recon, masks[m])
                cyc_m = loss_cyc(pairs[m].hetero,
                                 self.decoupler.reencode_private(recon, m), masks[m])
                rec_sum = rec_m if rec_sum is None else rec_sum + rec_m
                cyc_sum = cyc_m if cyc_sum is None else cyc_sum + cyc_m
            inv_b = 1.0 / b
            rec, cyc, ort = rec_sum * inv_b, cyc_sum * inv_b, loss_ort(pairs) * inv_b
            fusion_homo = {m: pairs[m].homo_pooled for m in MODALITIES}
            # rows sample-major, modalities (L, V, A) within a sample
            stacked = reshape(concat([fusion_homo[m] for m in MODALITIES], axis=-1),
                              (3 * b, cfg.d))
            classes = np.repeat(list(map(bin7, batch.labels)), 3)
            tags = list(zip(MODALITIES * b, classes))
            margin, n_triplets = loss_margin(stacked, tags, cfg.alpha)
            dec = loss_dec(rec, cyc, margin, ort, cfg.gamma)
            if cfg.ca or cfg.heterogd:
                hetero_seq = {m: pairs[m].hetero for m in MODALITIES}
                z = (self.reinforcer.reinforce(hetero_seq, masks) if cfg.ca
                     else passthrough(hetero_seq))
                fusion_hetero = {m: mean_pool_time(z[m], masks[m]) for m in MODALITIES}
        else:
            fusion_homo = {m: mean_pool_time(shallow[m], masks[m]) for m in MODALITIES}
            rec, cyc, ort, margin = Tensor(0.0), Tensor(0.0), Tensor(0.0), Tensor(0.0)
            n_triplets = 0
            dec = Tensor(0.0)
        preds = self.fusion(fusion_homo, fusion_hetero)
        task = task_loss(preds, batch.labels)

        if cfg.homogd:
            homo_batch = self.homo_gd.distill_batch(fusion_homo, frozen_homo)
            dtl_homo, homo_graph = homo_batch.loss, homo_batch.graph
            out_frozen_homo = homo_batch.frozen
        else:
            dtl_homo, homo_graph, out_frozen_homo = Tensor(0.0), None, None
        if cfg.heterogd:
            hetero_batch = self.hetero_gd.distill_batch(fusion_hetero, frozen_hetero)
            dtl_hetero, hetero_graph = hetero_batch.loss, hetero_batch.graph
            out_frozen_hetero = hetero_batch.frozen
        else:
            dtl_hetero, hetero_graph, out_frozen_hetero = Tensor(0.0), None, None

        total = total_loss(task, dec, dtl_homo, dtl_hetero, cfg.lambda1, cfg.lambda2)
        components = {
            "task": task, "rec": rec, "cyc": cyc, "margin": margin, "ort": ort,
            "dec": dec, "dtl_homo": dtl_homo, "dtl_hetero": dtl_hetero, "total": total,
        }
        return StepOutput(total=total, components=components, preds=preds.data,
                          n_triplets=n_triplets, homo_graph=homo_graph,
                          hetero_graph=hetero_graph, frozen_homo=out_frozen_homo,
                          frozen_hetero=out_frozen_hetero)

    # ---- feature extraction for probes ----

    def extract_features(self, batch: Batch) -> FeatureBundle:
        cfg = self.config
        homo, hetero, shallow_out = [], [], []
        for m in MODALITIES:
            x = self.decoupler.shallow_encode(Tensor(batch.features[m]), m)
            shallow_out.append(mean_pool_time(x, batch.masks[m]).data)
            if cfg.fd:
                pair = self.decoupler.decouple(x, m, batch.masks[m])
                homo.append(pair.homo_pooled.data)
                hetero.append(pair.hetero_pooled.data)
            else:
                homo.append(shallow_out[-1])
                hetero.append(np.zeros((batch.size, cfg.d)))
        return FeatureBundle(homo=np.stack(homo, axis=1), hetero=np.stack(hetero, axis=1),
                             shallow=np.stack(shallow_out, axis=1),
                             labels=batch.labels.copy(), ids=list(batch.ids))
