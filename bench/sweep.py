"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --seeds 1-10 [--workloads train_b16,eval_b16]
                           [--trace 0] [--out bench/trajectory/NAME.json]

Runs ``bench/run.py`` once per (seed, workload), one process at a time, for
the ``run_seconds`` of BENCHMARK.json, and reports for every metric the
median, the quartiles and their distance as a share of the median, next to
the bound from BENCHMARK.json.  A spread above a third of the bound is
flagged: the acceptance check allows the bound itself, and two sets of runs
must also agree on their medians.  The ungated figures of each run's
``reported:`` line (wall-clock figures, speed factor, MAE) are
summarized and stored the same way, without a bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, machine = [], None
    for seed in args.seeds:
        for name in workloads:
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            reported = None
            for line in lines:
                if line.startswith("machine: ") and machine is None:
                    machine = json.loads(line[len("machine: "):])
                elif line.startswith("reported: "):
                    reported = json.loads(line[len("reported: "):])
            runs.append({"workload": name, "seed": seed, "wall_s": wall,
                         "exit": proc.returncode, "result": result, "reported": reported})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"seed {seed:3d} {name:14s} {wall:6.1f} s {status}", flush=True)
            if status != "ok":
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)

    summary: dict[str, dict] = {}
    print(f"\n{'workload':14s} {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s}")
    for name in workloads:
        mine = [r for r in runs if r["workload"] == name and r["result"]]
        results = [r["result"] for r in mine]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary[name] = {"error_rate": failed / attempted if attempted else None,
                         "correct": all(r["correct"] for r in results)
                         and len(results) == len(args.seeds)}
        columns = [(metric, [r["metrics"][metric] for r in results])
                   for metric in (results[0]["metrics"] if results else {})]
        if all(r["reported"] for r in mine):
            columns += [(metric, [r["reported"][metric] for r in mine])
                        for metric in (mine[0]["reported"] if mine else {})]
        for metric, cells in columns:
            values = [c["value"] for c in cells]
            unit = cells[0]["unit"]
            if len(values) < 2:
                continue
            q1, med, q3, spread = quartile_spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = " OVER BOUND" if spread > bound else (" above bound/3" if spread > bound / 3 else "")
            summary[name][metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "values": values}
            print(f"{name:14s} {metric:26s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:7.2%} {'' if bound is None else f'{bound:.2f}':>6s}{flag}")
        print(f"{name:14s} {'error_rate':26s} {summary[name]['error_rate']!s:>12s}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"machine": machine, "seeds": args.seeds,
                                        "seconds": spec["run_seconds"], "trace": args.trace,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
