"""GD-Unit tests: logit head fixtures, edge weight normalization and
symmetry, discrepancy fixtures, teacher-path blocking, the reference-form
cross-check, batch-versus-single-sample properties, and frozen-replay
finite-difference checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_distill.data import MODALITIES, Modality
from modal_distill.errors import ConfigError
from modal_distill.graph_distill import EDGE_SOURCES, FrozenGraph, GDUnit, discrepancy
from modal_distill.tensor import Tensor, concat, mul, tsum

from conftest import check_grads, gd_loss, numeric_grad

L, V, A = Modality.LANGUAGE, Modality.VISION, Modality.AUDIO
MOD_INDEX = {m: i for i, m in enumerate(MODALITIES)}
D_IN = 4


def make_unit(seed=0, randomize_gate=False, **kw):
    unit = GDUnit(np.random.default_rng(seed), D_IN, **kw)
    if randomize_gate:
        rng = np.random.default_rng(seed + 100)
        unit.edge_scorer.weight.data[:] = rng.standard_normal(unit.edge_scorer.weight.shape)
        unit.edge_scorer.bias.data[:] = rng.standard_normal(1)
    return unit


def random_feats(seed):
    """Pooled features of a batch of one, as gradient leaves."""
    rng = np.random.default_rng(seed)
    return {m: Tensor(rng.standard_normal((1, D_IN)), requires_grad=True) for m in MODALITIES}


def single(unit, feats):
    """The unit run on a batch of one sample."""
    return unit.distill_batch(feats)


def batch_of(samples):
    """Stack batches of one into one batch, per modality."""
    return {m: concat([f[m] for f in samples], axis=0) for m in MODALITIES}


# ---- logit head ----


def test_logit_zero_params():
    unit = make_unit()
    unit.logit_head.weight.data[:] = 0.0
    unit.logit_head.bias.data[:] = 0.0
    out = single(unit, {m: Tensor(np.ones((1, D_IN))) for m in MODALITIES})
    assert np.all(out.logits.data == 0.0)


def test_logit_ones_weight_basis_input():
    unit = make_unit()
    unit.logit_head.weight.data[:] = 1.0
    unit.logit_head.bias.data[:] = 0.7
    e1 = np.zeros((1, D_IN))
    e1[0, 1] = 1.0
    out = single(unit, {m: Tensor(e1) for m in MODALITIES})
    np.testing.assert_allclose(out.logits.data, 1.7, atol=1e-15)


def test_logit_gradcheck():
    unit = make_unit(3)
    feats = random_feats(5)
    coef = Tensor(np.array([[0.3, -1.1, 0.8]]))
    leaves = {**{m.tag: feats[m] for m in MODALITIES}, **unit.logit_head.parameters("f")}
    check_grads(lambda: tsum(mul(single(unit, feats).logits, coef)), leaves, tol=1e-6)


# ---- discrepancy ----


def test_discrepancy_fixtures():
    assert discrepancy(np.array(2.0), Tensor(2.0)).item() == 0.0
    assert discrepancy(np.array(3.0), Tensor(1.0)).item() == pytest.approx(4.0, abs=1e-15)
    assert discrepancy(np.array(3.0), Tensor(1.0), mode="abs").item() == pytest.approx(2.0, abs=1e-15)


def test_discrepancy_source_gradient_blocked():
    src = Tensor(3.0, requires_grad=True)
    tgt = Tensor(1.0, requires_grad=True)
    discrepancy(src.data, tgt).backward()
    assert src.grad is None  # the teacher enters as a constant array
    assert tgt.grad == pytest.approx(-4.0)
    # finite differences on the unfrozen function see the teacher slope,
    # which is exactly what the stop must remove
    num = numeric_grad(lambda: ((src.data - tgt.data) ** 2), src)
    assert abs(num) > 1.0


def test_discrepancy_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        discrepancy(np.array(1.0), Tensor(0.0), mode="cubed")


# ---- reference loss form ----


def test_gd_loss_fixtures():
    w = np.full((3, 3), 0.5)
    np.fill_diagonal(w, 0.0)
    assert gd_loss(w, np.zeros((3, 3))) == 0.0
    e = np.ones((3, 3))
    np.fill_diagonal(e, 0.0)
    assert gd_loss(w, e) == pytest.approx(3.0, abs=1e-15)


def test_gd_loss_equals_per_target_sums():
    rng = np.random.default_rng(12)
    w = rng.uniform(0, 1, (3, 3))
    e = rng.uniform(0, 2, (3, 3))
    per_target = sum((w[:, j] * e[:, j]).sum() for j in range(3))
    assert gd_loss(w, e) == pytest.approx(per_target, abs=1e-12)


# ---- edge weights ----


def test_zero_gate_gives_uniform_weights():
    unit = make_unit()
    w = single(unit, random_feats(1)).weights[0]
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_columns_sum_to_one():
    unit = make_unit(randomize_gate=True)
    w = single(unit, random_feats(2)).weights[0]
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-9)
    assert np.all((w >= 0) & (w <= 1))


def test_weights_match_manual_softmax_and_shift_invariance():
    unit = make_unit(randomize_gate=True)
    out = single(unit, random_feats(3))
    gw = unit.edge_scorer.weight.data.reshape(-1)
    gb = float(unit.edge_scorer.bias.data[0])

    def softmax_np(s):
        e = np.exp(s - s.max())
        return e / e.sum()

    for j in range(3):
        raw = out.frozen.gate_inputs[0, j] @ gw + gb
        expected = softmax_np(raw)
        got = out.weights[0, EDGE_SOURCES[j], j]
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(softmax_np(raw + 17.3), expected, atol=1e-9)


def test_gate_input_layout():
    unit = make_unit(randomize_gate=True)
    feats = random_feats(13)
    out = single(unit, feats)
    logit = {m: out.logits.data[0, MOD_INDEX[m]] for m in MODALITIES}
    # the first edge entering A comes from L
    row = out.frozen.gate_inputs[0, MOD_INDEX[A], 0]
    expected = np.concatenate([[logit[L]], feats[L].data[0], [logit[A]], feats[A].data[0]])
    np.testing.assert_array_equal(row, expected)
    assert out.frozen.teacher_logits[0, MOD_INDEX[A], 0] == logit[L]


def test_swapping_sources_swaps_weights():
    unit = make_unit(randomize_gate=True)
    feats = random_feats(4)
    base = single(unit, feats).weights[0]
    swapped_feats = dict(feats)
    swapped_feats[L], swapped_feats[V] = feats[V], feats[L]
    swapped = single(unit, swapped_feats).weights[0]
    # for target A the two sources exchanged roles, so their weights swap
    assert swapped[MOD_INDEX[V], MOD_INDEX[A]] == pytest.approx(
        base[MOD_INDEX[L], MOD_INDEX[A]], abs=1e-12)
    assert swapped[MOD_INDEX[L], MOD_INDEX[A]] == pytest.approx(
        base[MOD_INDEX[V], MOD_INDEX[A]], abs=1e-12)


# ---- unit loss semantics ----


def test_identical_inputs_zero_loss():
    unit = make_unit(randomize_gate=True)
    v = Tensor(np.random.default_rng(6).standard_normal((1, D_IN)))
    assert single(unit, {m: v for m in MODALITIES}).loss.item() == 0.0


def test_distinct_logits_positive_loss():
    unit = make_unit(randomize_gate=True)
    out = single(unit, random_feats(7))
    assert len(set(out.logits.data[0].tolist())) > 1
    assert out.loss.item() > 0.0


def test_sample_loss_matches_reference_form():
    unit = make_unit(randomize_gate=True)
    out = single(unit, random_feats(8))
    assert out.loss.item() == pytest.approx(
        gd_loss(out.weights[0], out.discrepancies[0]), abs=1e-12)


def test_teacher_out_edges_carry_no_gradient():
    unit = make_unit(randomize_gate=True)
    feats = random_feats(9)
    out = single(unit, feats)
    tsum(mul(out.edges, Tensor(EDGE_SOURCES == MOD_INDEX[L]))).backward()
    # language only ever acted as teacher here
    assert feats[L].grad is None or not np.any(feats[L].grad)
    assert np.any(feats[V].grad) and np.any(feats[A].grad)


def test_batch_loss_is_mean_of_samples():
    unit = make_unit(randomize_gate=True)
    pooled = [random_feats(s) for s in range(3)]
    batch = unit.distill_batch(batch_of(pooled))
    per_sample = [single(unit, f).loss.item() for f in pooled]
    assert batch.loss.item() == pytest.approx(np.mean(per_sample), abs=1e-12)
    np.testing.assert_allclose(batch.record()["W"], batch.weights.mean(axis=0), atol=1e-15)


@given(b=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       edge_mode=st.sampled_from(["squared", "abs"]))
@settings(max_examples=40, deadline=None)
def test_batch_matches_samples_scored_alone(b, seed, edge_mode):
    rng = np.random.default_rng(seed)
    unit = GDUnit(rng, D_IN, edge_mode)
    unit.edge_scorer.weight.data[:] = rng.standard_normal(unit.edge_scorer.weight.shape)
    unit.edge_scorer.bias.data[:] = rng.standard_normal(1)
    raw = rng.standard_normal((b, len(MODALITIES), D_IN))
    batch = unit.distill_batch({m: Tensor(raw[:, k]) for k, m in enumerate(MODALITIES)})
    for s in range(b):
        alone = single(unit, {m: Tensor(raw[s:s + 1, k]) for k, m in enumerate(MODALITIES)})
        np.testing.assert_allclose(batch.weights[s], alone.weights[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.discrepancies[s], alone.discrepancies[0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.logits.data[s], alone.logits.data[0],
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(batch.weights.sum(axis=1), 1.0, atol=1e-12)
    assert batch.loss.item() >= 0.0
    assert batch.loss.item() == pytest.approx(
        gd_loss(batch.weights, batch.discrepancies) / b, abs=1e-12)


def test_frozen_replay_reproduces_forward_exactly():
    unit = make_unit(randomize_gate=True)
    pooled = batch_of([random_feats(s) for s in range(2)])
    base = unit.distill_batch(pooled)
    replay = unit.distill_batch(pooled, frozen=base.frozen)
    assert replay.loss.item() == base.loss.item()


def test_frozen_count_mismatch_rejected():
    unit = make_unit()
    pooled = batch_of([random_feats(1), random_feats(2)])
    base = unit.distill_batch(pooled).frozen
    with pytest.raises(ConfigError):
        unit.distill_batch(pooled, frozen=FrozenGraph(base.gate_inputs[:1],
                                                      base.teacher_logits[:1]))


@pytest.mark.parametrize("seed", range(3))
def test_unit_gradcheck_frozen_replay(seed):
    # finite differences must run against the frozen-teacher function, the
    # function backprop actually differentiates
    unit = make_unit(seed, randomize_gate=True)
    rng = np.random.default_rng(500 + seed)
    raw = rng.standard_normal((2, len(MODALITIES), D_IN))
    params = unit.parameters("gd")
    feats_leaves = {m.tag: Tensor(raw[:, k].copy(), requires_grad=True)
                    for k, m in enumerate(MODALITIES)}

    def pooled():
        return {m: feats_leaves[m.tag] for m in MODALITIES}

    frozen = unit.distill_batch(pooled()).frozen

    def build():
        return unit.distill_batch(pooled(), frozen=frozen).loss

    check_grads(build, {**params, **feats_leaves}, tol=1e-5)
