"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single verdict line
(visible with ``pytest -s`` or in the failure output) and asserting the same
condition.  Training-based criteria use the default synthetic world and the
default hyperparameters; tolerances and time budgets are stated inline.
"""

import json
import time
from dataclasses import replace

import numpy as np

from conftest import (
    probe_multiclass_accuracy,
    set_averaging_decoder,
    set_identity_two_layer,
    tag_arrays,
)
from modal_distill.config import TrainConfig
from modal_distill.data import (
    MODALITIES,
    Modality,
    SyntheticConfig,
    generate,
)
from modal_distill.decouple import Decoupler, loss_cyc, loss_margin, loss_rec
from modal_distill.fusion import bin7
from modal_distill.graph_distill import EDGE_SOURCES, GDUnit
from modal_distill.model import COMPONENT_NAMES
from modal_distill.tensor import RowLayout, Tensor, mul, tsum
from modal_distill.train import (
    collect_features,
    evaluate,
    gradcheck,
    model_from_checkpoint,
    predict_scores,
    probe_unimodal,
    train,
)


def verdict(n: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def small_data_config() -> SyntheticConfig:
    return SyntheticConfig(
        raw_dims={Modality.LANGUAGE: 10, Modality.VISION: 7, Modality.AUDIO: 8},
        length_ranges={Modality.LANGUAGE: (3, 6), Modality.VISION: (2, 5),
                       Modality.AUDIO: (4, 8)},
    )


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    report = gradcheck(n_probes=20, seed=0, tol=1e-4)
    elapsed = time.perf_counter() - t0
    checked = {c.name for c in report.checks}
    worst = max(c.max_rel_err for c in report.checks)
    ok = report.passed and set(COMPONENT_NAMES) <= checked and elapsed < 60.0
    verdict(1, "gradient suite", ok,
            f"max rel err {worst:.2e} over {len(checked)} components, {elapsed:.1f}s")


def test_criterion_2_distillation_invariants():
    rng = np.random.default_rng(0)
    worst_col = 0.0
    ok = True
    for draw in range(100):
        d_in = int(rng.integers(2, 7))
        unit = GDUnit(rng, d_in)
        unit.edge_scorer.weight.data[:] = rng.standard_normal(
            unit.edge_scorer.weight.shape)
        unit.edge_scorer.bias.data[:] = rng.standard_normal(
            unit.edge_scorer.bias.shape)
        feats = {m: Tensor(rng.standard_normal((1, d_in)), requires_grad=True)
                 for m in MODALITIES}
        out = unit.distill_batch(feats)
        col_err = np.abs(out.weights[0].sum(axis=0) - 1.0).max()
        worst_col = max(worst_col, col_err)
        ok &= col_err <= 1e-9
        ok &= float(out.loss.data) >= 0.0
        tied = Tensor(rng.standard_normal((1, d_in)))
        equal = unit.distill_batch({m: tied for m in MODALITIES})
        ok &= float(equal.loss.data) == 0.0
        src = draw % 3
        # the teacher's outgoing edges, picked by a constant mask
        tsum(mul(out.edges, Tensor(EDGE_SOURCES == src))).backward()
        grad = feats[MODALITIES[src]].grad
        ok &= grad is None or not np.any(grad)
    verdict(2, "distillation invariants", ok,
            f"100 draws, worst column-sum error {worst_col:.1e}, teacher grad exactly 0")


def test_criterion_3_margin_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    ok = True

    def ncos(a, b):
        na = np.sqrt(max(float(a @ a), 1e-24))
        nb = np.sqrt(max(float(b @ b), 1e-24))
        return float(a @ b) / (na * nb)

    for _ in range(50):
        n = int(rng.integers(2, 13))
        dim = int(rng.integers(2, 7))
        vecs = [rng.standard_normal(dim) for _ in range(n)]
        tags = [(MODALITIES[int(rng.integers(3))], int(rng.integers(-3, 4)))
                for _ in range(n)]
        alpha = float(rng.uniform(0.05, 1.0))
        loss, count = loss_margin(Tensor(np.stack(vecs)), *tag_arrays(tags), alpha)
        hinges = []
        for i, (m_i, c_i) in enumerate(tags):
            for j, (m_j, c_j) in enumerate(tags):
                if m_j is m_i or c_j != c_i:
                    continue
                for k, (m_k, c_k) in enumerate(tags):
                    if m_k is not m_i or c_k == c_i:
                        continue
                    hinges.append(max(0.0, alpha - ncos(vecs[i], vecs[j])
                                      + ncos(vecs[i], vecs[k])))
        ref = float(np.mean(hinges)) if hinges else 0.0
        err = abs(float(loss.data) - ref)
        worst = max(worst, err)
        ok &= count == len(hinges) and err <= 1e-12
    verdict(3, "margin oracle", ok, f"50 batches, worst |loss - reference| {worst:.1e}")


def test_criterion_4_identity_autoencoder():
    rng = np.random.default_rng(3)
    d = 6
    dec = Decoupler(rng, raw_dims={m: 5 for m in MODALITIES}, d=d)
    set_identity_two_layer(dec.shared_encoder)
    for m in MODALITIES:
        set_identity_two_layer(dec.private_encoders[m])
        set_averaging_decoder(dec.decoders[m])
    worst_rec = 0.0
    worst_cyc = 0.0
    for m in MODALITIES:
        # non-negative inputs keep the averaging decoder exact
        # two packed sequences, of 3 steps and 1
        x = Tensor(rng.uniform(0.05, 1.0, size=(4, d)))
        pair = dec.decouple(x, m, RowLayout([3, 1]))
        recon = dec.reconstruct(pair, m)
        worst_rec = max(worst_rec, float(loss_rec(x, recon).data))
        worst_cyc = max(worst_cyc, float(
            loss_cyc(pair.hetero, dec.reencode_private(recon, m)).data))
    ok = worst_rec < 1e-10 and worst_cyc < 1e-10
    verdict(4, "identity autoencoder", ok,
            f"L_rec {worst_rec:.1e}, L_cyc {worst_cyc:.1e}")


def test_criterion_5_overfit_smoke():
    samples = generate(32, seed=7)
    t0 = time.perf_counter()
    res = train(TrainConfig(max_steps=300), samples, split=False)
    mae = evaluate(res.model, samples)[0].mae
    elapsed = time.perf_counter() - t0
    ok = mae < 0.05 and elapsed < 120.0
    verdict(5, "overfit smoke", ok,
            f"train MAE {mae:.4f} after {res.steps} steps, {elapsed:.1f}s")


def _toggles(fd: bool) -> dict:
    return {"fd": fd, "homogd": fd, "ca": fd, "heterogd": fd}


def test_criterion_6_decoupling_probes():
    samples = generate(1000, seed=101)
    t0 = time.perf_counter()
    probes = {}
    for fd in (True, False):
        cfg = TrainConfig(epochs=8, seed=0, **_toggles(fd))
        res = train(cfg, samples, split=True)
        bundle = collect_features(res.model, samples)
        n = bundle.homo.shape[0]
        labels7 = np.asarray([bin7(l) for l in bundle.labels])
        per = [probe_multiclass_accuracy(bundle.homo[:, k, :], labels7)
               for k in range(3)]
        probes[fd] = float(np.mean(per))
        if fd:
            hetero_mod = probe_multiclass_accuracy(
                bundle.hetero.reshape(n * 3, -1), np.tile(np.arange(3), n))
    elapsed = time.perf_counter() - t0
    drop = probes[True] - probes[False]
    ok = (probes[True] >= 0.70 and hetero_mod >= 0.90 and drop >= 0.05
          and elapsed < 600.0)
    verdict(6, "decoupling probes", ok,
            f"homo7 {probes[True]:.3f} (no-FD {probes[False]:.3f}, drop {drop:.3f}), "
            f"hetero modality {hetero_mod:.3f}, {elapsed:.0f}s")


def test_criterion_7_unimodal_direction():
    wins = 0
    details = []
    for seed in (0, 1, 2):
        samples = generate(600, seed=200 + seed)
        reports = {}
        for fd in (True, False):
            cfg = TrainConfig(epochs=10, seed=seed, **_toggles(fd))
            res = train(cfg, samples, split=True)
            reports[fd] = probe_unimodal(res.model, samples, seed=seed)
        better = (reports[True].mean_acc2 > reports[False].mean_acc2
                  and reports[True].std_acc2 < reports[False].std_acc2)
        wins += int(better)
        details.append(
            f"seed {seed}: mean {reports[True].mean_acc2:.3f}/{reports[False].mean_acc2:.3f} "
            f"std {reports[True].std_acc2:.3f}/{reports[False].std_acc2:.3f}"
            f"{' +' if better else ' -'}")
    ok = wins >= 2
    verdict(7, "unimodal direction", ok, f"{wins}/3 seeds; " + "; ".join(details))


def test_criterion_8_determinism_and_checkpoint(tmp_path):
    samples = generate(24, seed=5, config=small_data_config())
    config = TrainConfig(epochs=2, seed=3)
    res1 = train(config, samples, split=False)
    res2 = train(config, samples, split=False)
    logs_equal = (json.dumps(res1.history) == json.dumps(res2.history))

    with_artifacts = replace(config, out_dir=str(tmp_path))
    res3 = train(with_artifacts, samples, split=False)
    restored, _, _ = model_from_checkpoint(res3.checkpoint_path)
    _, scores_orig, _ = predict_scores(res3.model, samples)
    _, scores_back, _ = predict_scores(restored, samples)
    round_trip = np.array_equal(scores_orig, scores_back)
    ok = logs_equal and round_trip
    verdict(8, "determinism and checkpoint", ok,
            f"logs bit-equal {logs_equal}, restored eval bit-equal {round_trip}")


TOGGLE_ROWS = [
    (True, True, True, True),
    (True, True, True, False),
    (True, True, False, True),
    (True, True, False, False),
    (True, False, False, False),
    (False, False, False, False),
]


def test_criterion_9_ablation_matrix():
    samples = generate(32, seed=9, config=small_data_config())
    ran = 0
    for fd, homogd, ca, heterogd in TOGGLE_ROWS:
        for mode in ("aligned", "unaligned"):
            cfg = TrainConfig(d=8, heads=2, max_steps=50, seed=1, mode=mode,
                              fd=fd, homogd=homogd, ca=ca, heterogd=heterogd)
            res = train(cfg, samples, split=False)
            assert res.steps == 50
            ran += 1
    verdict(9, "ablation matrix", ran == 12,
            f"{ran}/12 toggle x mode configurations ran 50 steps clean")
