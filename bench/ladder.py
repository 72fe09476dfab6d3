"""Reach ladder: how far the SNF gets before entries blow up. Not gated.

    python3 bench/ladder.py [--out bench/results/ladder.json]

Steps: dense n x n matrices with entries in [-9, 9] for n = 8..14, and
the cup-by-Euler matrix Lambda^2 -> Lambda^4 of T^n for n = 5..8 with
Euler coefficients in [-3, 3], all drawn from SEED. Each step runs smith_normal_form in its
own child process, one at a time, under a timeout; a step records its
time and the largest transform entry in bits, or that it timed out.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
TIMEOUT_S = 60
STEPS = [("dense", n) for n in range(8, 15)] + [("torus", n) for n in range(5, 9)]


def _rows(kind, n):
    from workloads import random_torus_euler, wedge_matrix
    rng = random.Random(f"{kind}-{n}-{SEED}")
    if kind == "dense":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    return wedge_matrix(n, random_torus_euler(n, rng, 3))


def _step(kind, n):
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from tdual.abelian import IntMatrix, smith_normal_form
    m = IntMatrix.from_rows(_rows(kind, n))
    t = time.perf_counter()
    u, d, v = smith_normal_form(m)
    elapsed = time.perf_counter() - t
    bits = max(abs(x).bit_length() for t_ in (u, v) for row in t_.entries for x in row)
    factors = [x for x in d.diagonal() if x != 1]
    return {"shape": [m.rows, m.cols], "time_s": elapsed,
            "max_entry_bits": bits, "invariant_factors_not_1": factors}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--step", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.step:
        print(json.dumps(_step(args.step[0], int(args.step[1]))))
        return 0
    results = []
    for kind, n in STEPS:
        cmd = [sys.executable, str(HERE / "ladder.py"), "--step", kind, str(n)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, check=True)
            row = {"kind": kind, "n": n, **json.loads(done.stdout)}
            print(f"{kind} n={n}: {row['time_s']:.3f} s, "
                  f"{row['max_entry_bits']} bits", flush=True)
        except subprocess.TimeoutExpired:
            row = {"kind": kind, "n": n, "timed_out_at_s": TIMEOUT_S}
            print(f"{kind} n={n}: timed out at {TIMEOUT_S} s", flush=True)
        results.append(row)
    if args.out:
        doc = {"seed": SEED, "timeout_s": TIMEOUT_S, "steps": results}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
