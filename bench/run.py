"""End-to-end benchmark of the modal-distill command line.

    python3 bench/run.py --workload train_b16 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout and driven in-process through
``modal_distill.cli.main``, exactly as ``modal-distill train ...`` and
``modal-distill eval ...`` run.  One caller waits on each command (a closed
loop with one client); the benchmark starts no threads or processes.

Set-up writes a synthetic dataset derived from ``--seed`` (and, for eval, a
checkpoint of an untrained model with that seed) ``SETUP_REPS`` times and
reports the median as ``setup_s``.  One untimed warm-up command follows.  The
timed window then repeats the workload's command at least ``MIN_REPS`` times
and while the next repetition is expected to fit in ``--seconds``, and
reports medians over repetitions.  Every command's outputs, the warm-up's
too, are checked; see README.md for the checks and the metrics.

With ``--trace 1`` the window runs rounds of one untraced and one traced
command, at least ``MIN_REPS`` rounds; the traced commands record spans
around the program's public functions (see instrument.py) and the run
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics being
those BENCHMARK.json lists for the mode.  The line before it,
``reported: {...}``, holds figures that are recorded but not gated.  Work
files go to ``.bench_runs/`` under the checkout; the datasets are removed at
exit and the result and spans are kept.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import instrument
from spans import Tracer
from speed import SpeedProbe
from stats import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"

SETUP_REPS = 3
MIN_REPS = 3               # a median of two is a mean; three resist one outlier
MAX_WINDOW = 100.0         # past this, fewer repetitions keep a slow program under 180 s
INVARIANCE_SAMPLES = 4
INVARIANCE_TOL = 1e-9
TRAIN_SHARE = 0.7          # split_dataset's train fraction
ABLATE = ("--no-fd", "--no-homogd", "--no-ca", "--no-heterogd")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROGRAM_MODULES = ("cli", "train", "model", "data", "decouple", "crossmodal",
                   "graph_distill", "fusion", "tensor", "checkpoint", "config")


@dataclass(frozen=True)
class Workload:
    kind: str                 # "train" or "eval"
    n: int                    # samples written at set-up
    batch: int
    epochs: int = 0
    flags: tuple[str, ...] = ()

    @property
    def n_train(self) -> int:
        return int(round(TRAIN_SHARE * self.n))

    @property
    def steps(self) -> int:
        return self.epochs * math.ceil(self.n_train / self.batch)

    @property
    def ops(self) -> int:
        """Operations one command performs: optimizer steps, or scored samples."""
        return self.steps if self.kind == "train" else self.n

    @property
    def samples(self) -> int:
        return self.steps * self.batch if self.kind == "train" else self.n

    def stages(self) -> dict[str, bool]:
        return {name: f"--no-{name}" not in self.flags
                for name in ("fd", "homogd", "ca", "heterogd")}


# Train splits are whole multiples of the batch, so steps x batch counts
# every optimizer sample.  Sizes keep one command to a few seconds at the
# seed commit, so each run repeats it and reports a median.
WORKLOADS = {
    # default user run: per-node engine overhead, attention and GD dominate
    "train_b16": Workload("train", n=160, batch=16, epochs=2),
    # O(B^3) margin triplets dominate forward time and memory
    "train_b64": Workload("train", n=183, batch=64, epochs=1),
    # forward-only use of the same layers, CSV load and checkpoint load
    "eval_b16": Workload("eval", n=160, batch=16),
    # paper's baseline row: shallow conv, fusion, Adam, batching, checkpoints
    "train_ablated": Workload("train", n=160, batch=16, epochs=10, flags=ABLATE),
}


@dataclass
class Rep:
    index: int
    traced: bool
    wall: float
    factor: float             # machine speed while it ran (speed.py)
    code: int | None
    ok: bool = False
    problem: str = ""
    mae: float | None = None
    out_dir: Path | None = None
    stdout: str = field(default="", repr=False)


def import_program() -> SimpleNamespace:
    """Import modal_distill from this checkout's src/, and nothing else."""
    if not (SRC / "modal_distill" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"modal_distill.{name}") for name in PROGRAM_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported modal_distill from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(md, w: Workload, seed: int, dest: Path):
    samples = md.data.generate(w.n, seed)
    manifest = md.data.save_dataset(samples, dest)
    if w.kind == "eval":
        cfg = md.config.TrainConfig(seed=seed)
        model = md.model.Model(cfg)
        dims = {m.tag: d for m, d in model.raw_dims.items()}
        md.checkpoint.save_checkpoint(dest / "model.npz", model.parameters(), cfg,
                                      {"raw_dims": dims})
    return samples, manifest


def command(w: Workload, seed: int, data: Path, out: Path) -> list[str]:
    if w.kind == "train":
        return ["train", "--data", str(data / "manifest.csv"), "--epochs", str(w.epochs),
                "--batch-size", str(w.batch), "--seed", str(seed), "--out", str(out), *w.flags]
    return ["eval", "--checkpoint", str(data / "model.npz"), "--data",
            str(data / "manifest.csv"), "--predictions", str(out / "predictions.csv")]


def run_command(md, argv: list[str]) -> tuple[float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = md.cli.main(argv)
        except Exception:  # a crash fails this command's operations; keep measuring
            traceback.print_exc()
        wall = time.perf_counter() - start
    return wall, code, out.getvalue(), err.getvalue()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_train(w: Workload, rep: Rep) -> float:
    """Validate one train command's outputs; returns its best val MAE."""
    m = re.search(r"^trained (\d+) steps on (\d+) samples$", rep.stdout, re.M)
    if not m or (int(m[1]), int(m[2])) != (w.steps, w.n_train):
        raise ValueError(f"expected 'trained {w.steps} steps on {w.n_train} samples' in output")
    m = re.search(r"^test: (\{.*\})$", rep.stdout, re.M)
    if not m or not _finite(ast.literal_eval(m[1]).get("mae")):
        raise ValueError("missing or non-finite test MAE in output")
    if not (rep.out_dir / "checkpoint.npz").is_file():
        raise ValueError("no checkpoint written")
    steps, vals = [], []
    with open(rep.out_dir / "train_log.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            (steps if rec["event"] == "step" else vals).append(rec)
    if len(steps) != w.steps or len(vals) != w.epochs:
        raise ValueError(f"log has {len(steps)} steps and {len(vals)} val records, "
                         f"expected {w.steps} and {w.epochs}")
    for rec in steps:
        bad = [k for k, v in rec.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite {bad} at step {rec['step']}")
    maes = [rec["mae"] for rec in vals]
    if not all(_finite(x) for x in maes):
        raise ValueError("non-finite validation MAE")
    return min(maes)


def check_eval(w: Workload, rep: Rep, ids: list[str], labels: list[float]) -> float:
    """Validate one eval command's outputs; returns its MAE."""
    m = re.search(r"^eval: (\{.*\})$", rep.stdout, re.M)
    report = ast.literal_eval(m[1]) if m else {}
    if report.get("n") != w.n or not _finite(report.get("mae")):
        raise ValueError(f"expected an eval report over {w.n} samples with a finite MAE")
    with open(rep.out_dir / "predictions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [r["sample_id"] for r in rows] != ids:
        raise ValueError(f"predictions have {len(rows)} rows, not one per sample in order")
    scores = [float(r["score"]) for r in rows]
    if not all(math.isfinite(s) for s in scores):
        raise ValueError("non-finite score in predictions")
    if [float(r["label"]) for r in rows] != labels:
        raise ValueError("prediction labels differ from the dataset")
    mae = sum(abs(s - y) for s, y in zip(scores, labels)) / len(scores)
    if abs(mae - report["mae"]) > 1e-9:
        raise ValueError(f"predictions MAE {mae} disagrees with reported MAE {report['mae']}")
    return mae


def check_invariance(md, w: Workload, samples, checkpoint: Path) -> None:
    """Untimed: a few samples score the same in the workload batch and alone."""
    model, _, _ = md.train.model_from_checkpoint(checkpoint)
    head = samples[:w.batch]
    _, batched, _ = md.train.predict_scores(model, head, batch_size=w.batch)
    for i in range(INVARIANCE_SAMPLES):
        _, alone, _ = md.train.predict_scores(model, [head[i]], batch_size=1)
        if not abs(alone[0] - batched[i]) <= INVARIANCE_TOL:
            raise ValueError(f"sample {head[i].id} scores {batched[i]!r} in a batch of "
                             f"{w.batch} but {alone[0]!r} alone")


def machine_record(workload: str, seed: int) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {key: deps[k].get(key) for key in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    md = import_program()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(md, w, args, work)
    finally:
        for sub in work.iterdir():
            if sub.is_dir():
                shutil.rmtree(sub)


def measure(md, w: Workload, args, work: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]} if args.trace else e2e_units
    machine = machine_record(args.workload, args.seed)
    print("machine: " + json.dumps(machine, sort_keys=True))

    setup_walls, setup_scaled = [], []
    for k in range(SETUP_REPS):
        with SpeedProbe() as probe:
            start = time.perf_counter()
            samples, manifest = set_up(md, w, args.seed, work / f"data{k}")
            wall = time.perf_counter() - start
        setup_walls.append(wall)
        setup_scaled.append(probe.scaled(wall))
    data = manifest.parent
    ids = [s.id for s in samples]
    labels = [s.label for s in samples]

    tracer = Tracer()
    targets = instrument.targets(md)
    reps: list[Rep] = []

    def run_rep(traced: bool) -> None:
        k = len(reps)
        out = work / f"rep{k}"
        out.mkdir()
        argv = command(w, args.seed, data, out)
        with SpeedProbe() as probe:
            if traced:
                with tracer.installed(targets, rep=k):
                    wall, code, stdout, stderr = run_command(md, argv)
            else:
                wall, code, stdout, stderr = run_command(md, argv)
        rep = Rep(k, traced, wall, probe.factor, code, out_dir=out, stdout=stdout)
        try:
            if code != 0:
                raise ValueError(f"exit code {code}: {stderr.strip()[-500:]}")
            rep.mae = (check_train(w, rep) if w.kind == "train"
                       else check_eval(w, rep, ids, labels))
            if reps and reps[0].mae is not None and rep.mae != reps[0].mae:
                raise ValueError(f"MAE {rep.mae!r} differs from the first command's "
                                 f"{reps[0].mae!r} at the same seed")
            rep.ok = True
        except (OSError, ValueError, KeyError, SyntaxError) as exc:
            rep.problem = f"{type(exc).__name__}: {exc}"
        reps.append(rep)
        kind = "warm-up" if k == 0 else "traced" if traced else "untraced"
        print(f"rep {k}: {kind} {wall:.3f} s, speed {rep.factor:.3f} "
              f"{'ok' if rep.ok else 'FAILED ' + rep.problem}")

    # Untimed and untraced: the process's first command pays for first
    # calls and first large allocations, which would otherwise land in one
    # side of the medians and of the traced/untraced pairs.
    run_rep(traced=False)
    # A round is one untraced command, followed by one traced command when
    # tracing; traced commands are counted towards MIN_REPS and each is
    # compared with the untraced command just before it.
    pattern = (False, True) if args.trace else (False,)
    rounds: list[float] = []
    window_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        for traced in pattern:
            run_rep(traced)
        rounds.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - window_start
        longest = max(rounds)
        enough = len(rounds) >= MIN_REPS or elapsed + longest > MAX_WINDOW
        if enough and elapsed + longest > args.seconds:
            break

    problems = [f"rep {r.index}: {r.problem}" for r in reps if not r.ok]
    failed_reps = {r.index for r in reps if not r.ok}
    good = [r for r in reps if r.ok]
    if good:
        checkpoint = (data / "model.npz" if w.kind == "eval"
                      else good[-1].out_dir / "checkpoint.npz")
        try:
            check_invariance(md, w, samples, checkpoint)
        except (OSError, ValueError, RuntimeError) as exc:  # NumericError is a RuntimeError
            problems.append(f"batch-composition invariance: {exc}")
            failed_reps.add(good[-1].index)

    timed = reps[1:]
    if args.trace:
        traced_reps = timed[1::2]
        pairs = [(t.wall * t.factor, u.wall * u.factor)
                 for u, t in zip(timed[0::2], traced_reps) if u.ok and t.ok]
        problems += instrument.check_expected(tracer.spans, instrument.expected_spans(
            w.kind, **w.stages()))
        values, accounting, breakdown = instrument.layer_metrics(tracer.spans, pairs)
        problems += accounting
        total = sum(breakdown.values())
        for name, seconds in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            print(f"forward share {name:24s} {seconds / total:7.2%}")
        if problems:
            failed_reps.update(r.index for r in traced_reps)
        tracer.write(work / "spans.jsonl")

    plain = [r for r in timed if not r.traced and r.index not in failed_reps]
    end_to_end = {
        "samples_per_s": median(w.samples / (r.wall * r.factor) for r in plain),
        "setup_s": median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not args.trace:
        values = end_to_end
    attempted = w.ops * len(reps)
    failed = w.ops * len(failed_reps)
    # Not in BENCHMARK.json, so not gated and not in the result line;
    # sweep.py stores them in the trajectory.  Plain wall-clock figures and
    # the speed factor let a later change be checked against wall time; the
    # MAE is deterministic at a seed, so it is compared seed by seed.  The
    # error rate is left out: the result line carries failed and attempted.
    reported = {name: {"value": value, "unit": unit} for name, value, unit in (
        ("wall_samples_per_s", median(w.samples / r.wall for r in plain), "samples/s"),
        ("wall_setup_s", median(setup_walls), "s"),
        ("speed_factor", median(r.factor for r in timed), "ratio"),
        ("mae", good[0].mae if good else math.nan, "score"),
    )}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not problems and not failed, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    for p in problems:
        print(f"problem: {p}")
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if args.trace:  # the untraced commands' figures, next to the overhead
        rows += [(name, end_to_end[name], unit) for name, unit in e2e_units.items()]
    rows += [(name, m["value"], m["unit"]) for name, m in reported.items()]
    rows.append(("error_rate", failed / attempted, "ratio"))   # failed / attempted above
    for name, value, unit in rows:
        print(f"{args.workload:14s} {name:26s} {value:14.6g} {unit}")
    with open(work / "result.json", "w") as fh:
        json.dump({"machine": machine, "args": vars(args), "setup_wall_s": setup_walls,
                   "setup_scaled_s": setup_scaled,
                   "reps": [{"index": r.index, "traced": r.traced, "wall_s": r.wall,
                             "speed_factor": r.factor, "code": r.code, "ok": r.ok,
                             "problem": r.problem, "mae": r.mae} for r in reps],
                   "reported": reported, "problems": problems, **result}, fh, indent=1)
    print("reported: " + json.dumps(reported))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
