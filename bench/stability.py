"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/stability.py --seeds 1-10 [--trace 0] [--out bench/results/run-a.json]

Runs bench/run.py once per (workload, seed), one at a time, on every
workload of BENCHMARK.json with its run_seconds. For every metric it reports the median,
the quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. With --trace 0 each
spread is compared with the metric's bound (setup_s is gated only on
its median, so its spread is informational).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    """'1-10' -> [1, ..., 10]; '3' -> [3]."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    # quantiles() needs two points; a single run is its own quartiles
    points = values if len(values) > 1 else values * 2
    q1, q2, q3 = statistics.quantiles(points, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range like 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    doc = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, "bench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            ok = ok and result["correct"] and not result["failed"]
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             **summarise(values)}
            m = metrics[name]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if m["spread"] <= bound / 3 else (
                    "within bound" if m["spread"] <= bound else "OVER BOUND")
                ok = ok and m["spread"] <= bound
            print(f"  {name:40s} median {m['median']:12.6g} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} "
                  f"spread {m['spread']:.4f} {flag}", flush=True)
        doc["workloads"][workload] = {"runs": runs, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
