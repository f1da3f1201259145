"""Where the traced run puts its spans, which spans each workload must
fire, and the per-layer metrics derived from them.

Wrappers go on the name each caller actually looks up.  ``model.py``,
``train.py`` and ``cli.py`` bind functions with ``from ... import``, so
patching the defining module would miss them: ``loss_margin`` is patched on
``modal_distill.model``, ``evaluate`` on both ``modal_distill.cli`` and
``modal_distill.train``, and so on.  ``data.batches`` is a generator whose
time is spent in ``make_batch``, which it looks up in ``modal_distill.data``.
Methods are patched on their class, which is where instance lookup ends.
"""

from __future__ import annotations

from stats import median, tail_percentile
from spans import Span, children_of, covered, self_times

# stages that run inside Model.forward_batch, reported per forward call
FORWARD_STAGES = {
    "decouple.shallow": "decouple.shallow_ms",
    "decouple.encode": "decouple.encode_ms",
    "decouple.reconstruct": "decouple.reconstruct_ms",
    "decouple.ort": "decouple.ort_ms",
    "decouple.margin": "decouple.margin_ms",
    "crossmodal.reinforce": "crossmodal.reinforce_ms",
    "graph_distill.homo": "graph_distill.homo_ms",
    "graph_distill.hetero": "graph_distill.hetero_ms",
    "fusion.head": "fusion.head_ms",
    "fusion.task_loss": "fusion.task_loss_ms",
}
REC_CYC = ("decouple.rec", "decouple.reencode", "decouple.cyc")
# graph walks per command: the first forwards are full training (or eval)
# batches, and walking a 40k-node graph after every forward would double
# the tracer's cost at B=64
WALKS_PER_COMMAND = 3

def count_nodes(root) -> int:
    """Autodiff nodes reachable from ``root`` through ``_parents``; reads
    the graph and changes nothing."""
    if root is None:
        return 0
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _remember_model(tracer, args) -> None:
    tracer.state["model"] = args[0]


def _gd_name(tracer, args) -> str:
    homo = getattr(tracer.state.get("model"), "homo_gd", None)
    return "graph_distill.homo" if args[0] is homo else "graph_distill.hetero"


def _after_forward(tracer, span: Span, out) -> None:
    span.attrs["batch"] = len(getattr(out, "preds", ())) or 1
    span.attrs["triplets"] = int(getattr(out, "n_triplets", 0))
    walked = tracer.state.get(("walks", tracer.rep), 0)
    if walked >= WALKS_PER_COMMAND:
        return
    tracer.state[("walks", tracer.rep)] = walked + 1
    walk = tracer.open("trace.walk")
    try:
        span.attrs["nodes"] = count_nodes(getattr(out, "total", None))
    finally:
        tracer.close(walk)


def _after_batch(tracer, span: Span, batch) -> None:
    rows = real = 0
    for m, feats in batch.features.items():
        rows += feats.shape[0] * feats.shape[1]
        real += int(batch.lengths[m].sum())
    span.attrs["rows"] = rows
    span.attrs["real_rows"] = real


def targets(md) -> list[tuple]:
    """(owner, attribute, span name, before, after) for every wrapper.
    ``md`` holds the imported program modules."""
    cli, train, model, data = md.cli, md.train, md.model, md.data
    dec = md.decouple.Decoupler
    plain = [
        (cli, "main", "cli.main"),
        (cli, "load_features", "data.load"),
        (cli, "train", "train.train"),
        (cli, "evaluate", "train.evaluate"),
        (cli, "predict_scores", "train.predict_scores"),
        (cli, "write_predictions", "fusion.write_predictions"),
        (train, "evaluate", "train.evaluate"),
        (train, "predict_scores", "train.predict_scores"),
        (train, "save_checkpoint", "checkpoint.save"),
        (train, "load_checkpoint", "checkpoint.load"),
        (train.Adam, "step", "train.adam"),
        (md.tensor.Tensor, "backward", "tensor.backward"),
        (dec, "shallow_encode", "decouple.shallow"),
        (dec, "decouple", "decouple.encode"),
        (dec, "reconstruct", "decouple.reconstruct"),
        (dec, "reencode_private", "decouple.reencode"),
        (model, "loss_rec", "decouple.rec"),
        (model, "loss_cyc", "decouple.cyc"),
        (model, "loss_ort", "decouple.ort"),
        (model, "loss_margin", "decouple.margin"),
        (model, "loss_dec", "decouple.loss_dec"),
        (model, "mean_pool_time", "model.pool"),
        (model, "passthrough", "crossmodal.passthrough"),
        (md.crossmodal.CrossmodalReinforcer, "reinforce", "crossmodal.reinforce"),
        (md.fusion.FusionHead, "__call__", "fusion.head"),
        (model, "task_loss", "fusion.task_loss"),
        (model, "total_loss", "fusion.total_loss"),
    ]
    out = [(owner, attr, name, None, None) for owner, attr, name in plain]
    out += [
        (data, "make_batch", "data.batch", None, _after_batch),
        (model.Model, "forward_batch", "model.forward", _remember_model, _after_forward),
        (md.graph_distill.GDUnit, "distill_batch", _gd_name, None, None),
    ]
    return out


def expected_spans(kind: str, fd: bool, homogd: bool, ca: bool, heterogd: bool) -> dict[str, bool]:
    """Span name -> whether a traced command of this workload must fire it.
    Every span the tracer can record is listed, so an unexpected span fails
    the check as surely as a missing one."""
    train = kind == "train"
    hetero_alive = fd and (ca or heterogd)
    return {
        "cli.main": True,
        "data.load": True,
        "data.batch": True,
        "model.forward": True,
        "trace.walk": True,
        "train.evaluate": True,
        "train.predict_scores": True,
        "train.train": train,
        "tensor.backward": train,
        "train.adam": train,
        "checkpoint.save": train,
        "checkpoint.load": not train,
        "fusion.write_predictions": not train,
        "decouple.shallow": True,
        "fusion.head": True,
        "fusion.task_loss": True,
        "fusion.total_loss": True,
        "model.pool": hetero_alive or not fd,
        **{name: fd for name in ("decouple.encode", "decouple.reconstruct", "decouple.rec",
                                 "decouple.reencode", "decouple.cyc", "decouple.ort",
                                 "decouple.margin", "decouple.loss_dec")},
        "crossmodal.reinforce": fd and ca,
        "crossmodal.passthrough": hetero_alive and not ca,
        "graph_distill.homo": homogd,
        "graph_distill.hetero": heterogd,
    }


def check_expected(spans: list[Span], expected: dict[str, bool]) -> list[str]:
    counts: dict[str, int] = {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
    problems = [f"span {name} fired {counts.get(name, 0)} times, expected "
                + ("some" if want else "none")
                for name, want in expected.items() if want != (counts.get(name, 0) > 0)]
    problems += [f"span {name} is not in the expected set" for name in counts
                 if name not in expected]
    return problems


def layer_metrics(spans: list[Span], pairs: list[tuple[float, float]]
                  ) -> tuple[dict[str, float], list[str], dict[str, float]]:
    """Per-layer metrics from the traced commands' spans, any accounting
    problems found on the way, and the forward breakdown: seconds summed
    over all forwards for each child span name and for "self", which
    together make up the total forward time.  ``pairs`` holds (traced,
    untraced) times of commands run next to each other."""
    selfs = self_times(spans)
    kids = children_of(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def ms(name):
        return [spans[i].duration * 1e3 for i in by_name.get(name, [])]

    walks = [(spans[i].start, spans[i].end) for i in by_name.get("trace.walk", [])]

    def net(i):
        """Duration less the tracer's own node walks inside the span."""
        s = spans[i]
        return s.duration - covered([(lo, hi) for lo, hi in walks if s.start <= lo and hi <= s.end])

    def per_rep(name, value):
        """value(i) summed over the spans called ``name`` of each command."""
        totals = dict.fromkeys(sorted({s.rep for s in spans}), 0.0)
        for i in by_name.get(name, []):
            totals[spans[i].rep] += value(i)
        return list(totals.values())

    problems = []
    fwd = by_name.get("model.forward", [])
    stage_ms: dict[str, list[float]] = {name: [] for name in (*FORWARD_STAGES, "rec_cyc")}
    breakdown = {"self": 0.0}
    for f in fwd:
        per_stage: dict[str, float] = {}
        for k in kids[f]:
            per_stage[spans[k].name] = per_stage.get(spans[k].name, 0.0) + spans[k].duration
        for name in FORWARD_STAGES:
            stage_ms[name].append(per_stage.get(name, 0.0) * 1e3)
        stage_ms["rec_cyc"].append(sum(per_stage.get(n, 0.0) for n in REC_CYC) * 1e3)
        breakdown["self"] += selfs[f]
        for name, seconds in per_stage.items():
            breakdown[name] = breakdown.get(name, 0.0) + seconds
    total_fwd = sum(spans[f].duration for f in fwd)
    if abs(total_fwd - sum(breakdown.values())) > 1e-9 * max(1.0, total_fwd):
        problems.append(f"forward children plus self time ({sum(breakdown.values()):.6f} s) "
                        f"do not account for forward time ({total_fwd:.6f} s)")

    steps = _step_times_ms(spans)
    p90 = tail_percentile(steps, 90)
    batches = [spans[i] for i in by_name.get("data.batch", [])]
    rows = sum(b.attrs.get("rows", 0) for b in batches)
    real = sum(b.attrs.get("real_rows", 0) for b in batches)
    fwd_spans = [spans[i] for i in fwd]
    walked = [s for s in fwd_spans if "nodes" in s.attrs]

    metrics = {
        "tensor.nodes_per_sample": median(s.attrs["nodes"] / s.attrs["batch"] for s in walked),
        "tensor.nodes_per_step": median(s.attrs["nodes"] for s in walked),
        "tensor.backward_ms": median(ms("tensor.backward")),
        "model.forward_ms": median(ms("model.forward")),
        "model.forward_self_ms": median(selfs[f] * 1e3 for f in fwd),
        **{metric: median(stage_ms[name]) for name, metric in FORWARD_STAGES.items()},
        "decouple.rec_cyc_ms": median(stage_ms["rec_cyc"]),
        "decouple.margin_triplets": median(s.attrs["triplets"] for s in fwd_spans),
        "train.adam_ms": median(ms("train.adam")),
        "data.load_s": median(spans[i].duration for i in by_name.get("data.load", [])),
        "data.batch_ms": median(ms("data.batch")),
        "data.pad_waste_ratio": (rows - real) / rows if rows else 0.0,
        "train.evaluate_s": median(per_rep("train.evaluate", net)),
        "checkpoint.save_ms": median(ms("checkpoint.save")),
        "checkpoint.saves": median(per_rep("checkpoint.save", lambda i: 1.0)),
        "checkpoint.load_ms": median(ms("checkpoint.load")),
        "train.step_ms_p50": median(steps),
        # 0.0 marks "fewer than 10 steps beyond p90"; train.steps says how many ran
        "train.step_ms_p90": p90 if p90 is not None else 0.0,
        "train.steps": float(len(steps)),
        "cli.self_s": median(selfs[i] for i in by_name.get("cli.main", [])),
        "trace.overhead_ratio": median(traced / untraced - 1.0 for traced, untraced in pairs),
    }
    return metrics, problems, breakdown


def _step_times_ms(spans: list[Span]) -> list[float]:
    """One optimizer step runs from the start of building its batch to the
    end of its Adam update, less the tracer's own node walks in between."""
    steps = []
    batch_start = None
    walks = 0.0
    for s in spans:  # spans are stored in start order
        if s.name == "data.batch" and s.parent >= 0 and spans[s.parent].name == "train.train":
            batch_start, walks = s.start, 0.0
        elif s.name == "trace.walk":
            walks += s.duration
        elif s.name == "train.adam" and batch_start is not None:
            steps.append((s.end - batch_start - walks) * 1e3)
            batch_start = None
    return steps
