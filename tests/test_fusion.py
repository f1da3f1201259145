"""Fusion tests: gate fixtures, stream zeroing, binning boundaries, the
task and total objectives, and the prediction dump format."""

import csv
import math

import numpy as np
import pytest

from modal_distill.data import MODALITIES, Modality
from modal_distill.errors import NumericError, ShapeError
from modal_distill.fusion import (
    FusionHead,
    bin7,
    task_loss,
    total_loss,
    write_predictions,
)
from modal_distill.tensor import Tensor, tsum

from conftest import check_grads

L, V, A = Modality.LANGUAGE, Modality.VISION, Modality.AUDIO
D = 4


def make_head(seed=0, params=None):
    """A head drawn from ``seed``, registering its parameters in ``params``."""
    return FusionHead(np.random.default_rng(seed), {} if params is None else params,
                      "fusion", D)


def streams(seed=0):
    """The six streams of a batch of one."""
    rng = np.random.default_rng(seed)
    homo = {m: Tensor(rng.standard_normal((1, D))) for m in MODALITIES}
    hetero = {m: Tensor(rng.standard_normal((1, 2 * D))) for m in MODALITIES}
    return homo, hetero


def test_zero_gate_preactivations_scale_by_half():
    head = make_head()
    for gate in (*head.homo_gates.values(), *head.hetero_gates.values()):
        gate.weight.data[:] = 0.0
        gate.bias.data[:] = 0.0
    homo, hetero = streams(1)
    fused = head.fuse(homo, hetero)
    expected = 0.5 * np.concatenate(
        [homo[m].data for m in MODALITIES] + [hetero[m].data for m in MODALITIES], axis=1)
    np.testing.assert_allclose(fused.data, expected, atol=1e-15)


def test_zeroed_hetero_streams_leave_zero_slots():
    head = make_head(2)
    homo, _ = streams(3)
    hetero = {m: Tensor(np.zeros((1, 2 * D))) for m in MODALITIES}
    fused = head.fuse(homo, hetero)
    assert fused.shape == (1, 9 * D)
    np.testing.assert_array_equal(fused.data[:, 3 * D:], 0.0)
    assert np.all(fused.data[:, :3 * D] != 0.0)


def test_fuse_rejects_wrong_stream_width():
    head = make_head()
    homo, hetero = streams(4)
    hetero[V] = Tensor(np.zeros((1, D)))  # should be 2d wide
    with pytest.raises(ShapeError):
        head.fuse(homo, hetero)


def test_fuse_and_head_gradcheck():
    leaves = {}
    head = make_head(5, leaves)
    rng = np.random.default_rng(6)
    homo = {m: Tensor(rng.standard_normal((1, D)), requires_grad=True) for m in MODALITIES}
    hetero = {m: Tensor(rng.standard_normal((1, 2 * D)), requires_grad=True) for m in MODALITIES}
    for m in MODALITIES:
        leaves[f"homo.{m.tag}"] = homo[m]
        leaves[f"hetero.{m.tag}"] = hetero[m]
    check_grads(lambda: tsum(head(homo, hetero)), leaves, tol=1e-5)


def test_batch_rows_match_rows_alone():
    head = make_head(7)
    rng = np.random.default_rng(8)
    homo = {m: rng.standard_normal((4, D)) for m in MODALITIES}
    hetero = {m: rng.standard_normal((4, 2 * D)) for m in MODALITIES}
    preds = head({m: Tensor(homo[m]) for m in MODALITIES},
                 {m: Tensor(hetero[m]) for m in MODALITIES})
    assert preds.shape == (4,)
    for s in range(4):
        alone = head({m: Tensor(homo[m][s:s + 1]) for m in MODALITIES},
                     {m: Tensor(hetero[m][s:s + 1]) for m in MODALITIES})
        assert alone.data[0] == pytest.approx(preds.data[s], abs=1e-12)


# ---- task and total losses ----


def test_task_loss_fixtures():
    assert task_loss(Tensor([1.5]), np.array([1.5])).item() == 0.0
    assert task_loss(Tensor([2.0]), np.array([-1.0])).item() == pytest.approx(3.0, abs=1e-15)
    batch = task_loss(Tensor([0.0, 1.0]), np.array([1.0, 1.0]))
    assert batch.item() == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("preds,labels", [([1.0, 2.0], [1.0]), ([[1.0]], [[1.0]]), ([], [])],
                         ids=["length", "two_axes", "empty"])
def test_task_loss_rejects_mismatched_or_empty_labels(preds, labels):
    with pytest.raises(ShapeError, match="^task_loss: predictions "):
        task_loss(Tensor(preds), np.array(labels))


def test_total_loss_fixtures():
    only_task = total_loss(Tensor(1.7), Tensor(9.0), Tensor(9.0), Tensor(9.0), 0.0, 0.0)
    assert only_task.item() == pytest.approx(1.7, abs=1e-15)
    combined = total_loss(Tensor(1.0), Tensor(2.0), Tensor(1.0), Tensor(1.0), 0.1, 0.05)
    assert combined.item() == pytest.approx(1.3, abs=1e-12)


def test_total_loss_gradient_reaches_all_components():
    parts = {name: Tensor(v, requires_grad=True)
             for name, v in [("task", 1.0), ("dec", 2.0), ("homo", 0.5), ("hetero", 0.25)]}
    total_loss(parts["task"], parts["dec"], parts["homo"], parts["hetero"], 0.1, 0.05).backward()
    assert parts["task"].grad == pytest.approx(1.0)
    assert parts["dec"].grad == pytest.approx(0.1)
    assert parts["homo"].grad == pytest.approx(0.05)
    assert parts["hetero"].grad == pytest.approx(0.05)


# ---- binning ----


BIN7_CASES = [
    (-0.5, -1), (0.0, 0), (0.49, 0), (2.51, 3),
    (0.5, 1), (-0.49, 0), (5.7, 3), (-9.0, -3), (1.5, 2), (-1.72, -2),
]


@pytest.mark.parametrize("score,expected", BIN7_CASES)
def test_bin7_boundaries(score, expected):
    got = bin7(score)
    assert got == expected and type(got) is int


def test_bin7_array_matches_per_element():
    scores = np.array([score for score, _ in BIN7_CASES])
    got = bin7(scores)
    assert got.shape == scores.shape and got.dtype.kind == "i"
    assert got.tolist() == [bin7(float(s)) for s in scores]
    assert bin7(scores.reshape(2, -1)).tolist() == got.reshape(2, -1).tolist()


@pytest.mark.parametrize("scores", [math.nan, [0.3, math.nan], np.array([[math.nan]])])
def test_bin7_rejects_nan(scores):
    with pytest.raises(NumericError, match="NaN"):
        bin7(scores)


def test_class2_split(tmp_path):
    """The class2 view of a score is ``score >= 0``: zero is non-negative."""
    path = tmp_path / "preds.csv"
    scores = [0.0, 0.6, -0.2, -1.72]
    write_predictions(path, ["a", "b", "c", "d"], scores, scores)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["class2"] for r in rows] == ["non-negative", "non-negative", "negative", "negative"]
    assert [r["label2"] for r in rows] == [r["class2"] for r in rows]
    assert [r["class7"] for r in rows] == ["0", "1", "0", "-2"]
    assert [float(r["score"]) for r in rows] == scores


def test_prediction_dump_format(tmp_path):
    path = tmp_path / "preds.csv"
    write_predictions(path, ["a", "b"], [0.6, -0.2], [1.0, -1.0])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["sample_id"] == "a"
    assert rows[0]["class7"] == "1" and rows[0]["class2"] == "non-negative"
    assert rows[1]["class7"] == "0" and rows[1]["class2"] == "negative"
    assert rows[1]["label7"] == "-1" and rows[1]["label2"] == "negative"
    assert float(rows[0]["score"]) == 0.6
