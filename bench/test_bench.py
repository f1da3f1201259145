"""Tests for the benchmark's own arithmetic: span coverage and self time,
tail percentiles, quartile spread, the per-layer metrics built on them, and
the speed probe.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import instrument
from spans import Span, Tracer, covered, self_times
from speed import INTERVAL, REFERENCE, SpeedProbe
from stats import median, quartile_spread, tail_percentile


def span(name, start, end, parent=-1, rep=0, **attrs):
    return Span(name, start, end, parent, rep, dict(attrs))


def test_covered_merges_overlaps_and_keeps_gaps():
    assert covered([]) == 0.0
    assert covered([(0, 1), (2, 3)]) == 2.0
    assert covered([(0, 2), (1, 3)]) == 3.0
    assert covered([(0, 4), (1, 2), (3, 4)]) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [span("p", 0.0, 10.0), span("c1", 2.0, 6.0, parent=0),
             span("c2", 4.0, 8.0, parent=0), span("c3", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 90) is None
    values = list(range(100, 0, -1))            # 100 samples, unsorted
    assert tail_percentile(values, 90) == 90    # ten samples (91..100) lie beyond
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile(list(range(20)), 50) == 9
    assert tail_percentile([], 90) is None


def test_quartile_spread_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3, spread = quartile_spread(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert med == statistics.median(values)
    assert spread == pytest.approx((q3 - q1) / med)
    assert quartile_spread([2.0, 2.0, 2.0])[3] == 0.0
    assert median([]) == 0.0


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_records_parents_and_restores_originals():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def boom(self):
            raise RuntimeError("x")

    originals = dict(Owner.__dict__)
    tracer = Tracer(clock=_Clock())
    targets = [(Owner, "outer", "outer", None, None), (Owner, "inner", "inner", None, None),
               (Owner, "boom", "boom", None, None)]
    with tracer.installed(targets, rep=3):
        assert Owner().outer() == 2
        with pytest.raises(RuntimeError):
            Owner().boom()
    assert all(Owner.__dict__[k] is originals[k] for k in ("outer", "inner", "boom"))
    names = [(s.name, s.parent, s.rep) for s in tracer.spans]
    assert names == [("outer", -1, 3), ("inner", 0, 3), ("boom", -1, 3)]
    assert all(s.end > s.start for s in tracer.spans)
    assert Owner().outer() == 2 and len(tracer.spans) == 3


def test_layer_metrics_account_for_forward_and_steps():
    spans = [
        span("cli.main", 0.0, 1.0),
        span("train.train", 0.05, 0.95, parent=0),
        span("data.batch", 0.10, 0.11, parent=1, rows=100, real_rows=75),
        span("model.forward", 0.11, 0.21, parent=1, nodes=400, batch=4, triplets=12),
        span("decouple.shallow", 0.12, 0.15, parent=3),
        span("decouple.rec", 0.15, 0.16, parent=3),
        span("decouple.cyc", 0.16, 0.18, parent=3),
        span("fusion.head", 0.18, 0.20, parent=3),
        span("trace.walk", 0.21, 0.23, parent=1),
        span("tensor.backward", 0.23, 0.33, parent=1),
        span("train.adam", 0.33, 0.35, parent=1),
    ]
    values, problems, breakdown = instrument.layer_metrics(spans, [(1.2, 1.0), (2.4, 2.0),
                                                                    (3.0, 2.0)])
    assert problems == []
    assert breakdown == pytest.approx({"self": 0.02, "decouple.shallow": 0.03, "decouple.rec": 0.01,
                                       "decouple.cyc": 0.02, "fusion.head": 0.02})
    assert values["model.forward_ms"] == pytest.approx(100.0)
    assert values["model.forward_self_ms"] == pytest.approx(20.0)
    assert values["decouple.shallow_ms"] == pytest.approx(30.0)
    assert values["decouple.rec_cyc_ms"] == pytest.approx(30.0)
    assert values["fusion.head_ms"] == pytest.approx(20.0)
    assert values["graph_distill.homo_ms"] == 0.0
    assert values["tensor.nodes_per_step"] == 400
    assert values["tensor.nodes_per_sample"] == 100
    assert values["decouple.margin_triplets"] == 12
    assert values["data.pad_waste_ratio"] == pytest.approx(0.25)
    assert values["train.step_ms_p50"] == pytest.approx(250.0 - 20.0)  # less the walk
    assert values["train.step_ms_p90"] == 0.0 and values["train.steps"] == 1
    assert values["cli.self_s"] == pytest.approx(0.1)
    assert values["trace.overhead_ratio"] == pytest.approx(0.2)   # median over pairs
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert sorted(values) == sorted(m["name"] for m in spec["per_layer"])


def test_expected_spans_flag_missing_and_unexpected():
    expected = instrument.expected_spans("train", fd=False, homogd=False, ca=False,
                                         heterogd=False)
    assert expected["crossmodal.reinforce"] is False and expected["train.adam"] is True
    fired = [span(name, 0.0, 1.0) for name, want in expected.items() if want]
    assert instrument.check_expected(fired, expected) == []
    problems = instrument.check_expected(
        [s for s in fired if s.name != "train.adam"]
        + [span("crossmodal.reinforce", 0.0, 1.0), span("mystery", 0.0, 1.0)], expected)
    assert len(problems) == 3


def test_count_nodes_walks_shared_parents_once():
    leaf = SimpleNamespace(_parents=())
    mid = SimpleNamespace(_parents=(leaf, leaf))
    root = SimpleNamespace(_parents=(mid, leaf))
    assert instrument.count_nodes(root) == 3
    assert instrument.count_nodes(None) == 0


def test_speed_probe_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 5 * INTERVAL
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 2
    probe.samples = [1e-4, 1e-4, 2e-4, 1.0]   # the stall counts as 4x the median
    assert probe.factor == pytest.approx(REFERENCE / (1e-4 + 1e-4 + 2e-4 + 4 * 1.5e-4) * 4)
    assert probe.scaled(2.0) == pytest.approx(2.0 * probe.factor)

