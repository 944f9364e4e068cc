"""Repeat the benchmark over seeds and summarise it against BENCHMARK.json.

    python3 bench/repeat.py --seeds 1-10
    python3 bench/repeat.py --workloads figure_render --seeds 11 --compare bench/results/BENCH_1.json
    python3 bench/repeat.py --seeds 1 --trace 1

Runs bench/run.py once per workload and seed (one process at a time), then
prints, for every metric, the median and quartiles of its values as
`statistics.quantiles(values, n=4)` gives them, and the quartile spread as a
share of the median. End-to-end spreads are compared with a third of the
metric's bound; with --compare, each median is compared with the median of
an earlier summary, and flagged when it is worse by more than the bound.
With --save the runs, the summary and the machine metadata are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return json.loads(lines[-1]), meta


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, help="earlier --save output")
    parser.add_argument("--save", type=Path, help="write runs and summary here")
    args = parser.parse_args(argv)

    metric_specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.compare.read_text())["summary"] if args.compare else {}
    out = {"seconds": args.seconds, "trace": args.trace, "meta": None, "runs": {}, "summary": {}}
    problems = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, meta = run_once(workload, seed, args.seconds, args.trace)
            out["meta"] = out["meta"] or {k: v for k, v in meta.items()
                                          if k not in ("workload", "seed", "trace")}
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            problems += not result["correct"]
        out["runs"][workload] = runs
        out["summary"][workload] = {}
        print(f"\n{workload} ({len(runs)} runs of {args.seconds} s, trace {args.trace})")
        print(f"  {'metric':36} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  status")
        for name in runs[0]["metrics"]:
            unit = runs[0]["metrics"][name]["unit"]
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            out["summary"][workload][name] = stats
            metric = metric_specs.get(name, {})
            bound = metric.get("bound")
            status = ""
            if bound is not None:
                status = "steady" if stats["spread"] <= bound / 3 else (
                    "within bound" if stats["spread"] <= bound else "SPREAD > BOUND")
                problems += stats["spread"] > bound
                old = earlier.get(workload, {}).get(name)
                if old is not None:
                    change = worse_by(metric, old["median"], stats["median"])
                    status += f"; vs earlier {change:+.3f} worse"
                    if change > bound:
                        status += " > BOUND"
                        problems += 1
            print(f"  {name:36} {unit:6} {stats['median']:14.6g} {stats['q1']:14.6g} "
                  f"{stats['q3']:14.6g} {stats['spread']:8.4f} "
                  f"{'' if bound is None else bound:>6}  {status}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\n{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
