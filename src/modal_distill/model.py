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

Every component draws its initial values, in the same order, whatever the
toggles, and registers each parameter where it draws it (``layers.param``),
so a parameter starts at the same value in every ablation.  The table
leaves out the stages the config turns off (``STAGE_PREFIXES``), so it
holds exactly what a training step reaches, each group as one run, in draw
order: shallow | shared_encoder | private_encoder | decoder | gd_homo |
gd_hetero | ca | fusion.

The forward pass runs every stage once per batch, so the graph's size
depends on the model's depth, not on ``B``.  A ``Batch`` carries each
modality as packed rows ``[ΣT, d]``, real time steps only, and every stage
that works step by step (the shallow conv's product, the encoders, the
decoders, the attention projections, the rec/cyc distances) runs on those
rows.  The batch's ``RowLayout`` per modality is read only where steps get
mixed or summed: the conv's neighbour rows, temporal pooling, and the
attention node, the one place a padded per-sample layout exists.

``encode`` runs the front half (shallow conv, decoupling, attention) up to
the pooled streams, and ``distill`` runs the two GD units on those streams.
``forward_batch`` adds the decoupling losses, fusion and the objective;
edge dumps and probes call only the parts they read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .crossmodal import CrossmodalReinforcer, passthrough
from .data import MODALITIES, RAW_DIMS, Batch, Modality
from .decouple import DecoupledPair, Decoupler, loss_cyc, loss_dec, loss_margin, loss_ort, loss_rec
from .fusion import FusionHead, bin7, task_loss, total_loss
from .graph_distill import BatchDistill, GDUnit
from .layers import ParamTable
from .tensor import Tensor, concat, mean_pool_time, reshape

COMPONENT_NAMES = ("task", "rec", "cyc", "margin", "ort", "dec",
                   "dtl_homo", "dtl_hetero", "total")
# each toggle's stage, by the prefixes of its parameter names
STAGE_PREFIXES = {"fd": ("shared_encoder.", "private_encoder.", "decoder."),
                  "homogd": ("gd_homo.",), "heterogd": ("gd_hetero.",), "ca": ("ca.",)}


@dataclass
class StepOutput:
    """Everything one forward pass produces: the differentiable total, each
    loss component as a tensor, per-sample predictions, and each active
    distillation unit's batch result."""

    total: Tensor
    components: dict[str, Tensor]
    preds: np.ndarray            # [B] scores
    n_triplets: int
    homo: BatchDistill | None
    hetero: BatchDistill | None

    def scalars(self) -> dict[str, float]:
        return {name: float(t.data) for name, t in self.components.items()}


@dataclass
class Encoded:
    """The front half of a forward pass, up to the pooled streams that both
    fusion and the distillation units read."""

    shallow: dict[Modality, Tensor]              # [N, d] packed rows
    pairs: dict[Modality, DecoupledPair] | None  # None when fd is off
    homo: dict[Modality, Tensor]                 # [B, d]; pooled shallow when fd is off
    hetero: dict[Modality, Tensor]               # [B, 2d]; zero while the private pathway is off


class Model:
    """The complete network; ``table`` holds the parameters its config
    trains, by stable dotted path."""

    def __init__(self, config: TrainConfig, raw_dims: dict[Modality, int] | None = None):
        config.validate()
        self.config = config
        self.raw_dims = dict(raw_dims) if raw_dims is not None else dict(RAW_DIMS)
        rng = np.random.default_rng(config.seed)
        params: dict[str, Tensor] = {}
        self.decoupler = Decoupler(rng, params, self.raw_dims, config.d)
        self.homo_gd = GDUnit(rng, params, "gd_homo", config.d, config.edge_mode)
        self.hetero_gd = GDUnit(rng, params, "gd_hetero", 2 * config.d, config.edge_mode)
        self.reinforcer = CrossmodalReinforcer(rng, params, "ca", config.d, config.heads)
        self.fusion = FusionHead(rng, params, "fusion", config.d)
        off = tuple(prefix for stage, prefixes in STAGE_PREFIXES.items()
                    if not getattr(config, stage) for prefix in prefixes)
        # a checkpoint written when the table held every stage carries these
        self.off_names = frozenset(name for name in params if name.startswith(off))
        self.table = ParamTable({k: t for k, t in params.items() if k not in self.off_names})

    def parameters(self) -> dict[str, Tensor]:
        return self.table.tensors

    # ---- forward ----

    def encode(self, batch: Batch) -> Encoded:
        cfg = self.config
        rows = batch.rows
        shallow = {m: self.decoupler.shallow_encode(batch.features[m], m, rows[m])
                   for m in MODALITIES}
        zero_2d = Tensor(np.zeros((batch.size, 2 * cfg.d)))
        hetero = {m: zero_2d for m in MODALITIES}
        if not cfg.fd:
            homo = {m: mean_pool_time(shallow[m], rows[m]) for m in MODALITIES}
            return Encoded(shallow=shallow, pairs=None, homo=homo, hetero=hetero)
        pairs = {m: self.decoupler.decouple(shallow[m], m, rows[m]) for m in MODALITIES}
        if cfg.ca or cfg.heterogd:
            private = {m: pairs[m].hetero for m in MODALITIES}
            z = self.reinforcer.reinforce(private, rows) if cfg.ca else passthrough(private)
            hetero = {m: mean_pool_time(z[m], rows[m]) for m in MODALITIES}
        return Encoded(shallow=shallow, pairs=pairs,
                       homo={m: pairs[m].homo_pooled for m in MODALITIES}, hetero=hetero)

    def distill(self, enc: Encoded, replay: StepOutput | None = None
                ) -> tuple[BatchDistill | None, BatchDistill | None]:
        """Run each active GD unit on the pooled streams; ``replay`` passes
        an earlier pass's unit constants back in."""
        cfg = self.config
        homo = (self.homo_gd.distill_batch(enc.homo, replay and replay.homo)
                if cfg.homogd else None)
        hetero = (self.hetero_gd.distill_batch(enc.hetero, replay and replay.hetero)
                  if cfg.heterogd else None)
        return homo, hetero

    def forward_batch(self, batch: Batch, replay: StepOutput | None = None) -> StepOutput:
        cfg = self.config
        enc = self.encode(batch)
        b, pairs = batch.size, enc.pairs
        if pairs is not None:
            rec_sum = cyc_sum = None
            for m in MODALITIES:
                recon = self.decoupler.reconstruct(pairs[m], m)
                rec_m = loss_rec(enc.shallow[m], recon)
                cyc_m = loss_cyc(pairs[m].hetero, self.decoupler.reencode_private(recon, m))
                rec_sum = rec_m if rec_sum is None else rec_sum + rec_m
                cyc_sum = cyc_m if cyc_sum is None else cyc_sum + cyc_m
            inv_b = 1.0 / b
            rec, cyc, ort = rec_sum * inv_b, cyc_sum * inv_b, loss_ort(pairs) * inv_b
            # rows sample-major, modalities (L, V, A) within a sample
            stacked = reshape(concat([enc.homo[m] for m in MODALITIES], axis=-1),
                              (3 * b, cfg.d))
            margin, n_triplets = loss_margin(stacked, np.tile(np.arange(3), b),
                                             np.repeat(bin7(batch.labels), 3), cfg.alpha)
            dec = loss_dec(rec, cyc, margin, ort, cfg.gamma)
        else:
            rec, cyc, ort, margin, dec = (Tensor(0.0) for _ in range(5))
            n_triplets = 0
        preds = self.fusion(enc.homo, enc.hetero)
        task = task_loss(preds, batch.labels)

        homo, hetero = self.distill(enc, replay)
        dtl_homo = homo.loss if homo is not None else Tensor(0.0)
        dtl_hetero = hetero.loss if hetero is not None else Tensor(0.0)
        total = total_loss(task, dec, dtl_homo, dtl_hetero, cfg.lambda1, cfg.lambda2)
        components = {
            "task": task, "rec": rec, "cyc": cyc, "margin": margin, "ort": ort,
            "dec": dec, "dtl_homo": dtl_homo, "dtl_hetero": dtl_hetero, "total": total,
        }
        return StepOutput(total=total, components=components, preds=preds.data,
                          n_triplets=n_triplets, homo=homo, hetero=hetero)
