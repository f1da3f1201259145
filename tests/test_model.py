"""Full-model tests: padding invariance, ablation toggles, loss accounting,
parameter management, and the encoded streams."""

import hashlib
import json
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_distill.checkpoint import save_checkpoint
from modal_distill.config import TrainConfig
from modal_distill.data import (
    MODALITIES,
    Modality,
    SyntheticConfig,
    generate,
    make_batch,
)
from modal_distill.errors import DataError
from modal_distill.model import COMPONENT_NAMES, Model
from modal_distill.tensor import Tensor, mean_pool_time
from modal_distill.train import Adam, model_from_checkpoint, predict_scores

from conftest import ReferenceAdam, save_v1_checkpoint
from test_acceptance import TOGGLE_ROWS

SMALL_RAW = {Modality.LANGUAGE: 6, Modality.VISION: 5, Modality.AUDIO: 4}


def small_world() -> SyntheticConfig:
    return SyntheticConfig(
        raw_dims=dict(SMALL_RAW),
        z_shared_dim=4,
        z_private_dim=3,
        length_ranges={Modality.LANGUAGE: (3, 9), Modality.VISION: (2, 6),
                       Modality.AUDIO: (4, 10)},
    )


def small_config(**kw) -> TrainConfig:
    kw.setdefault("d", 4)
    kw.setdefault("heads", 2)
    return TrainConfig(**kw)


def build(n=4, seed=0, mode="unaligned", **kw):
    samples = generate(n, seed, small_world())
    model = Model(small_config(**kw), dict(SMALL_RAW))
    return model, make_batch(samples, mode=mode), samples


# ---- basic forward ----


def test_forward_shapes_and_finiteness():
    model, batch, _ = build(n=5)
    out = model.forward_batch(batch)
    assert len(out.preds) == 5
    scalars = out.scalars()
    assert set(scalars) == set(COMPONENT_NAMES)
    for name, value in scalars.items():
        assert np.isfinite(value), name
    assert out.n_triplets > 0
    assert out.homo is not None and out.hetero is not None


def test_forward_deterministic_given_seed():
    model_a, batch_a, _ = build(seed=3)
    model_b, batch_b, _ = build(seed=3)
    out_a = model_a.forward_batch(batch_a)
    out_b = model_b.forward_batch(batch_b)
    assert out_a.scalars() == out_b.scalars()
    assert out_a.preds.tolist() == out_b.preds.tolist()


def test_empty_sequence_rejected():
    samples = generate(2, 0, small_world())
    samples[1].features[Modality.VISION] = np.zeros((0, SMALL_RAW[Modality.VISION]))
    for mode in ("aligned", "unaligned"):
        with pytest.raises(DataError, match=f"sample {samples[1].id}: empty V sequence"):
            make_batch(samples, mode=mode)


# ---- padding invariance ----


def test_padding_invariance_per_sample():
    """A sample's prediction is the same whether it sits in a batch or
    alone: its packed rows meet other samples' rows only inside attention,
    whose padded keys get zero weight; only the grouping of float terms in
    the batch's matrix products may differ."""
    model, batch, samples = build(n=4, seed=1)
    batch_scores = model.forward_batch(batch).preds.tolist()
    for i, sample in enumerate(samples):
        single = make_batch([sample], mode="unaligned")
        single_scores = model.forward_batch(single).preds.tolist()
        assert single_scores[0] == pytest.approx(batch_scores[i], rel=0, abs=1e-12)


def test_batch_losses_are_means_of_singles():
    model, batch, samples = build(n=3, seed=2)
    out = model.forward_batch(batch).scalars()
    singles = [model.forward_batch(make_batch([s], mode="unaligned")).scalars()
               for s in samples]
    # margin pools triplets across the whole batch, so it has no
    # single-sample decomposition; everything else averages
    for name in ("task", "rec", "cyc", "ort", "dtl_homo", "dtl_hetero"):
        mean = np.mean([s[name] for s in singles])
        assert out[name] == pytest.approx(mean, rel=1e-12, abs=1e-12), name


def count_nodes(root: Tensor) -> int:
    """Tensors reachable from ``root`` through the recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# one model and one pool of samples for the property tests below
PROPERTY_MODEL = Model(small_config(seed=5), dict(SMALL_RAW))
PROPERTY_POOL = generate(8, 21, small_world())


@given(data=st.data(), b=st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_batch_scores_match_alone_and_follow_permutation(data, b):
    """Every sample scores the same in any batch as alone, and permuting the
    batch permutes the scores."""
    idx = data.draw(st.lists(st.integers(0, len(PROPERTY_POOL) - 1), min_size=b, max_size=b))
    samples = [PROPERTY_POOL[i] for i in idx]
    scores = PROPERTY_MODEL.forward_batch(make_batch(samples)).preds
    assert scores.shape == (b,)
    for s, sample in enumerate(samples):
        alone = PROPERTY_MODEL.forward_batch(make_batch([sample])).preds
        assert abs(alone[0] - scores[s]) <= 1e-12
    perm = data.draw(st.permutations(range(b)))
    permuted = PROPERTY_MODEL.forward_batch(make_batch([samples[i] for i in perm])).preds
    np.testing.assert_allclose(permuted, scores[list(perm)], rtol=0, atol=1e-12)


def test_graph_size_does_not_grow_with_batch():
    samples = generate(7, 22, small_world())
    nodes = [count_nodes(PROPERTY_MODEL.forward_batch(make_batch(samples[:b])).total)
             for b in (2, 7)]
    assert nodes[0] == nodes[1]


def test_default_step_node_ceiling():
    """A default B=16 training forward stays within 244 autodiff nodes, and
    with all four stages off within 58."""
    batch = make_batch(generate(16, 3))
    assert count_nodes(Model(TrainConfig(seed=3)).forward_batch(batch).total) <= 244
    ablated = TrainConfig(seed=3, fd=False, homogd=False, ca=False, heterogd=False)
    assert count_nodes(Model(ablated).forward_batch(batch).total) <= 58


def test_no_stage_computes_padded_rows(monkeypatch):
    """In a default B=16 forward, every input of the shallow conv, the
    two-layer nets, the affine maps and attention has ΣT rows of some
    modality or a small multiple of B rows (at most 6B: the GD edge scorer
    reads 3 targets x 2 sources per sample), and never B·T_pad rows: padding
    exists only inside the attention node."""
    from modal_distill import crossmodal, decouple, layers
    from modal_distill import model as model_module

    batch = make_batch(generate(16, 3))
    b = batch.size
    packed = {r.size for r in batch.rows.values()}
    padded = {b * r.t_pad for r in batch.rows.values()}
    assert not packed & padded
    seen = []

    def watch(fn, n_inputs):
        def wrapped(*args):
            seen.extend((fn.__name__, int(np.prod(x.shape[:-1]))) for x in args[:n_inputs])
            return fn(*args)
        return wrapped

    inputs = {"conv1d": 1, "two_layer": 1, "affine": 1, "attention": 3}
    for module in (model_module, decouple, layers, crossmodal):
        for name, n_inputs in inputs.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, watch(getattr(module, name), n_inputs))
    Model(TrainConfig(seed=3)).forward_batch(batch)
    assert {name for name, _ in seen} == set(inputs)
    for name, rows in seen:
        assert rows in packed or (rows % b == 0 and rows <= 6 * b), (name, rows)
        assert rows not in padded, (name, rows)


# ---- ablation toggles ----

TOGGLE_ROWS = [
    (True, True, True, True),
    (True, True, True, False),
    (True, True, False, True),
    (True, True, False, False),
    (True, False, False, False),
    (False, False, False, False),
]


@pytest.mark.parametrize("fd,homogd,ca,heterogd", TOGGLE_ROWS)
def test_toggle_rows_forward_and_accounting(fd, homogd, ca, heterogd):
    model, batch, _ = build(fd=fd, homogd=homogd, ca=ca, heterogd=heterogd)
    out = model.forward_batch(batch)
    s = out.scalars()
    cfg = model.config
    identity = (s["task"] + cfg.lambda1 * s["dec"]
                + cfg.lambda2 * (s["dtl_homo"] + s["dtl_hetero"]))
    assert abs(s["total"] - identity) < 1e-9
    assert abs(s["dec"] - (s["rec"] + s["cyc"]
                           + cfg.gamma * (s["margin"] + s["ort"]))) < 1e-9
    if not fd:
        for name in ("rec", "cyc", "margin", "ort", "dec"):
            assert s[name] == 0.0, name
        assert out.n_triplets == 0
    if homogd:
        assert out.homo is not None and s["dtl_homo"] >= 0.0
    else:
        assert out.homo is None and s["dtl_homo"] == 0.0
    if heterogd:
        assert out.hetero is not None and s["dtl_hetero"] >= 0.0
    else:
        assert out.hetero is None and s["dtl_hetero"] == 0.0


def test_all_toggles_off_reduces_to_task_loss():
    model, batch, _ = build(fd=False, homogd=False, ca=False, heterogd=False)
    out = model.forward_batch(batch)
    assert float(out.total.data) == float(out.components["task"].data)


def test_ca_changes_predictions_even_without_heterogd():
    """With private-space distillation off, attention must still reshape the
    private fusion streams; turning it off zeroes them instead."""
    _, batch, _ = build(seed=4)
    with_ca = Model(small_config(heterogd=False, ca=True), dict(SMALL_RAW))
    without = Model(small_config(heterogd=False, ca=False), dict(SMALL_RAW))
    scores_ca = with_ca.forward_batch(batch).preds.tolist()
    scores_off = without.forward_batch(batch).preds.tolist()
    assert scores_ca != scores_off


def test_hetero_pathway_alive_iff_ca_or_heterogd():
    """fd-only ablation zeroes the private fusion streams, so its scores
    match a hand-built forward that feeds zeros there."""
    _, batch, _ = build(seed=5)
    fd_only = Model(small_config(fd=True, homogd=False, ca=False, heterogd=False),
                    dict(SMALL_RAW))
    out = fd_only.forward_batch(batch)
    zero = Tensor(np.zeros((batch.size, 2 * fd_only.config.d)))
    homo = {}
    for m in MODALITIES:
        shallow = fd_only.decoupler.shallow_encode(batch.features[m], m, batch.rows[m])
        homo[m] = fd_only.decoupler.decouple(shallow, m, batch.rows[m]).homo_pooled
    pred = fd_only.fusion(homo, {m: zero for m in MODALITIES})
    assert pred.data.tolist() == out.preds.tolist()


def test_distill_records_match_toggles():
    model, batch, _ = build(heterogd=False)
    out = model.forward_batch(batch)
    assert out.homo is not None and out.hetero is None


def test_replay_reproduces_batch_loss():
    model, batch, _ = build(seed=6)
    out = model.forward_batch(batch)
    replay = model.forward_batch(batch, replay=out)
    assert float(replay.total.data) == float(out.total.data)


# ---- modes ----


def test_aligned_mode_runs_and_aligns():
    model, batch, _ = build(mode="aligned")
    lengths = np.stack([batch.lengths[m] for m in MODALITIES])
    assert (lengths == lengths[0]).all()
    out = model.forward_batch(batch)
    assert np.isfinite(float(out.total.data))


# ---- parameters and loading ----


@pytest.mark.parametrize("fd, homogd, ca, heterogd", TOGGLE_ROWS,
                         ids=["all_on", "no_heterogd", "no_ca", "no_ca_no_heterogd",
                              "fd_only", "all_off"])
def test_table_is_what_a_training_step_reaches(fd, homogd, ca, heterogd):
    """The ``requires_grad`` leaves a walk of ``_parents`` from one step's
    total reaches are exactly the table's tensors, so Adam stepping the
    whole table steps nothing a backward cannot reach."""
    model = Model(small_config(fd=fd, homogd=homogd, ca=ca, heterogd=heterogd),
                  dict(SMALL_RAW))
    out = model.forward_batch(make_batch(generate(4, seed=5, config=small_world())))
    leaves, seen, stack = set(), set(), [out.total]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.requires_grad and not node._parents:
            leaves.add(id(node))
        stack.extend(node._parents)
    assert leaves == {id(t) for t in model.table.tensors.values()}


def test_load_parameters_round_trip():
    model_a = Model(small_config(seed=1), dict(SMALL_RAW))
    model_b = Model(small_config(seed=2), dict(SMALL_RAW))
    arrays = {k: t.data.copy() for k, t in model_a.parameters().items()}
    model_b.table.load(arrays)
    for k, t in model_b.parameters().items():
        assert np.array_equal(t.data, arrays[k])


def test_load_parameters_keeps_optimizer_arena_binding():
    """Loading copies into the existing buffers: parameters stay views of
    the table the optimizer updates, and the next step starts from the
    loaded values."""
    model = Model(small_config(seed=1), dict(SMALL_RAW))
    opt = Adam(model.table, lr=0.01)
    donor = Model(small_config(seed=2), dict(SMALL_RAW))
    loaded = {k: t.data.copy() for k, t in donor.parameters().items()}
    model.table.load(loaded)
    twin = {k: Tensor(a.copy()) for k, a in loaded.items()}
    ref = ReferenceAdam(twin, lr=0.01)
    rng = np.random.default_rng(0)
    for k, p in model.parameters().items():
        p.grad[...] = twin[k].grad = rng.standard_normal(p.data.shape)
    opt.step()
    ref.step()
    for k, p in model.parameters().items():
        assert np.shares_memory(p.data, model.table.flat), k
        assert np.array_equal(p.data, twin[k].data), k


def test_load_parameters_rejects_mismatch():
    model = Model(small_config(), dict(SMALL_RAW))
    arrays = {k: t.data.copy() for k, t in model.parameters().items()}
    arrays.pop("fusion.head.first.bias")
    with pytest.raises(DataError, match="mismatch"):
        model.table.load(arrays)
    arrays = {k: t.data.copy() for k, t in model.parameters().items()}
    arrays["fusion.head.first.bias"] = np.zeros(999)
    with pytest.raises(DataError, match="shape"):
        model.table.load(arrays)


# ---- the parameter table's layout ----

GROUPS = ("shallow", "shared_encoder", "private_encoder", "decoder",
          "gd_homo", "gd_hetero", "ca", "fusion")
# sha256 of the default model's sorted "name shape" lines: a checkpoint
# written by any earlier version loads only while this holds
NAME_SHAPE_DIGEST = "3a17012171a31c1196a9a8eda22940521b8328516c427ab32d6ebed94df21076"


def test_table_lays_each_group_out_as_one_contiguous_run():
    table = Model(TrainConfig()).table
    runs = [group for group, _ in groupby(name.split(".")[0] for name in table.tensors)]
    assert runs == list(GROUPS)


def test_parameter_names_and_shapes_are_pinned():
    lines = sorted(f"{name} {tuple(t.data.shape)}"
                   for name, t in Model(TrainConfig()).parameters().items())
    assert len(lines) == 88
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == NAME_SHAPE_DIGEST


def reachable_parameters(obj, seen=None) -> list[Tensor]:
    """Every trainable tensor reachable from ``obj`` through the attributes
    of package objects, and through dicts, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj] if obj.requires_grad else []
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif type(obj).__module__.startswith("modal_distill."):
        children = list(vars(obj).values())
    else:
        return []
    return [t for child in children for t in reachable_parameters(child, seen)]


def component_parameters(model) -> list[Tensor]:
    """What the model's components hold, the table aside."""
    return reachable_parameters([v for k, v in vars(model).items() if k != "table"])


def test_orphan_parameter_is_found():
    model = Model(small_config(), dict(SMALL_RAW))
    orphan = Tensor(np.zeros(2), requires_grad=True)
    model.fusion.extra = {"gate": [orphan]}
    assert any(t is orphan for t in component_parameters(model))


def test_every_component_parameter_is_in_the_table():
    model = Model(small_config(), dict(SMALL_RAW))
    table_ids = {id(t) for t in model.table.tensors.values()}
    found = component_parameters(model)
    assert [t for t in found if id(t) not in table_ids] == []
    assert {id(t) for t in found} == table_ids


def interleaved(names) -> list[str]:
    """``names`` in the order earlier versions stored them: per modality its
    shallow conv, private encoder and decoder, then the shared encoder, both
    GD units, the attention layers, each modality's two fusion gates and the
    fusion head."""
    prefixes = ([f"{p}.{m.tag}." for m in MODALITIES
                 for p in ("shallow", "private_encoder", "decoder")]
                + ["shared_encoder.", "gd_homo.", "gd_hetero.", "ca."]
                + [f"fusion.gate_{s}.{m.tag}." for m in MODALITIES for s in ("homo", "hetero")]
                + ["fusion.head."])
    return sorted(names, key=lambda n: next(i for i, p in enumerate(prefixes)
                                            if n.startswith(p)))


def test_checkpoint_in_interleaved_member_order_loads_bit_equal(tmp_path):
    """Parameters stored in another order than the table's, as version-1
    members or as version-2 ``params`` entries, load by name."""
    model = Model(small_config(seed=5), dict(SMALL_RAW))
    params = model.parameters()
    order = interleaved(params)
    assert sorted(order) == sorted(params) and order != list(params)
    samples = generate(6, 4, small_world())
    for save in (save_v1_checkpoint, save_checkpoint):
        path = save(tmp_path / f"{save.__name__}.npz", {k: params[k] for k in order},
                    model.config, {"raw_dims": {m.tag: d for m, d in SMALL_RAW.items()}})
        with np.load(path) as bundle:
            if save is save_v1_checkpoint:
                assert [k for k in bundle.files if k.startswith("param/")] == [
                    f"param/{k}" for k in order]
            else:
                meta = json.loads(str(bundle["__meta__"]))
                assert [name for name, _ in meta["params"]] == order
        loaded = model_from_checkpoint(path)[0]
        assert np.array_equal(loaded.table.flat, model.table.flat)
        assert np.array_equal(predict_scores(loaded, samples)[1],
                              predict_scores(model, samples)[1])


# ---- encode ----


def test_encode_shapes_and_fd_off_fallback():
    model, batch, _ = build(n=3)
    enc = model.encode(batch)
    for m in MODALITIES:
        assert enc.homo[m].shape == (3, 4)
        assert enc.hetero[m].shape == (3, 8)
        assert not np.allclose(enc.hetero[m].data, 0.0)

    off = Model(small_config(fd=False, homogd=False, ca=False, heterogd=False),
                dict(SMALL_RAW))
    enc_off = off.encode(batch)
    assert enc_off.pairs is None
    for m in MODALITIES:
        pooled = mean_pool_time(enc_off.shallow[m], batch.rows[m])
        assert np.array_equal(enc_off.homo[m].data, pooled.data)
        assert np.all(enc_off.hetero[m].data == 0.0)


def test_gradients_flow_to_every_component_with_defaults():
    model, batch, _ = build(seed=7)
    out = model.forward_batch(batch)
    out.total.backward()
    touched = {name: p.grad is not None and np.any(p.grad != 0)
               for name, p in model.parameters().items()}
    for g in GROUPS:
        assert any(v for k, v in touched.items() if k.startswith(g)), g
