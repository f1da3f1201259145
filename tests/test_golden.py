"""Golden-fixture regression test for the graph-distillation units and the
full forward pass.

``golden.json`` holds outputs recorded from the per-sample distillation
implementation and the per-sample forward pass: for each GD-Unit case (edge mode x batch size) the batch
loss, the per-sample edge weights, discrepancies and logits, and the
gradients of the unit's parameters and of the pooled features; for each
model case (aligned and unaligned, every stage on, d=8) every loss
component, every score, the batch-mean edge records, the gradients of the
total loss for the distillation parameters, and the gradient norm of every
other parameter.  The current code must reproduce all of them to 1e-10.

Re-record (only when a change of numbers is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from modal_distill.config import TrainConfig
from modal_distill.data import MODALITIES, Modality, SyntheticConfig, generate, make_batch
from modal_distill.graph_distill import GDUnit
from modal_distill.model import Model
from modal_distill.tensor import Tensor

FIXTURE = Path(__file__).with_name("golden.json")
TOL = 1e-10
D_IN = 5
GD_CASES = [(mode, b) for mode in ("squared", "abs") for b in (1, 3, 16)]
MODEL_MODES = ("aligned", "unaligned")
RAW = {Modality.LANGUAGE: 6, Modality.VISION: 5, Modality.AUDIO: 4}


def gd_case(edge_mode: str, b: int) -> dict:
    rng = np.random.default_rng(1000 + b)
    params = {}
    unit = GDUnit(rng, params, "gd", D_IN, edge_mode)
    unit.edge_scorer.weight.data[:] = rng.standard_normal(unit.edge_scorer.weight.shape)
    unit.edge_scorer.bias.data[:] = rng.standard_normal(1)
    raw = rng.standard_normal((b, len(MODALITIES), D_IN))
    feats = {m: Tensor(raw[:, k], requires_grad=True) for k, m in enumerate(MODALITIES)}
    out = unit.distill_batch(feats)
    out.loss.backward()
    return {
        "loss": float(out.loss.data),
        "W": out.weights.tolist(),
        "E": out.discrepancies.tolist(),
        "logits": out.logits.data.tolist(),
        "param_grads": {k: p.grad.tolist() for k, p in params.items()},
        "feat_grads": [[feats[m].grad[s].tolist() for m in MODALITIES] for s in range(b)],
    }


def model_case(mode: str) -> dict:
    world = SyntheticConfig(
        raw_dims=dict(RAW), z_shared_dim=4, z_private_dim=3,
        length_ranges={Modality.LANGUAGE: (3, 7), Modality.VISION: (2, 5),
                       Modality.AUDIO: (4, 8)})
    batch = make_batch(generate(6, 11, world), mode=mode)
    model = Model(TrainConfig(d=8, heads=2, seed=3, mode=mode), dict(RAW))
    out = model.forward_batch(batch)
    out.total.backward()
    return {
        "components": out.scalars(),
        "scores": out.preds.tolist(),
        "n_triplets": out.n_triplets,
        "homo": out.homo.record(),
        "hetero": out.hetero.record(),
        "gd_grads": {k: p.grad.tolist() for k, p in model.parameters().items()
                     if k.startswith("gd_")},
        "grad_norms": {k: float(np.linalg.norm(p.grad))
                       for k, p in model.parameters().items()},
    }


def record() -> dict:
    return {
        "gd": {f"{mode}/B{b}": gd_case(mode, b) for mode, b in GD_CASES},
        "model": {mode: model_case(mode) for mode in MODEL_MODES},
    }


def assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
        return
    g = np.asarray(got, dtype=np.float64)
    w = np.asarray(want, dtype=np.float64)
    assert g.shape == w.shape, f"{where}: shape {g.shape} != {w.shape}"
    err = np.abs(g - w) / np.maximum(1.0, np.abs(w))
    assert not err.size or err.max() <= TOL, f"{where}: error {err.max():.2e} > {TOL:.0e}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("edge_mode,b", GD_CASES)
def test_gd_unit_matches_golden(golden, edge_mode, b):
    key = f"{edge_mode}/B{b}"
    assert_close(gd_case(edge_mode, b), golden["gd"][key], key)


@pytest.mark.parametrize("mode", MODEL_MODES)
def test_forward_batch_matches_golden(golden, mode):
    assert_close(model_case(mode), golden["model"][mode], mode)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
